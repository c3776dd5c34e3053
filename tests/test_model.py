from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from minitwistor import (
    INF,
    BinaryForm,
    Infinity,
    InvalidParameterError,
    QuadraticForm,
    analyze_sequence,
    default_lambdas,
    enumerate_marked,
    family_fibonacci,
    minitwistor_model,
    parse_scalar,
    quadratic_split,
    rhs_polynomial,
    validate_lambdas,
)
from minitwistor.invariants import (
    reduction_trace,
    sequence_l_vector,
)
from minitwistor.model import _MAX_M

from support import fibonacci, oriented_sequences


def evaluate_form(form: BinaryForm, u1: Fraction, u2: Fraction) -> Fraction:
    return sum(
        c * u1**d * u2 ** (form.degree - d) for d, c in enumerate(form.coefficients)
    )


def evaluate_product(lvec, lambdas, c_sign, u1: Fraction, u2: Fraction) -> Fraction:
    value = Fraction(c_sign) * u1 * u2
    for i in range(2, len(lvec)):
        value *= (u1 - lambdas[i - 1] * u2) ** lvec[i - 1]
    return value


# ---------------------------------------------------------------------------
# conformal invariants


def test_default_lambdas():
    assert default_lambdas(2) == (Fraction(0), Fraction(1), Fraction(2), INF)
    validate_lambdas(default_lambdas(6), 6)


@pytest.mark.parametrize(
    "lams,n",
    [
        ((Fraction(1), Fraction(2), INF), 1),  # must start at 0
        ((Fraction(0), Fraction(2), Fraction(1), INF), 2),  # not increasing
        ((Fraction(0), Fraction(1), Fraction(2)), 2),  # must end at inf
        ((Fraction(0), INF), 1),  # wrong length
    ],
)
def test_validate_lambdas_rejects(lams, n):
    with pytest.raises(InvalidParameterError):
        validate_lambdas(lams, n)


def test_infinity_is_one_object():
    # Infinity has no __eq__ or __hash__ of its own: lambda tuples, and the
    # records that hold them, compare and hash by INF's identity
    assert Infinity() is INF
    assert parse_scalar(" inf ") is INF
    assert copy.deepcopy(INF) is INF
    # protocols 0 and 1 rebuild through object.__new__, not Infinity.__new__
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INF, protocol)) is INF
    model = minitwistor_model((1, 2, 5, 3, 1))
    clone = copy.deepcopy(model)
    assert clone is not model and clone.lambdas[-1] is INF
    assert clone == model and hash(clone) == hash(model)
    with pytest.raises(InvalidParameterError, match="^lambda_1 must be 0$"):
        validate_lambdas((INF, Fraction(1), INF), 1)
    interior = "^interior conformal invariants must be rational$"
    with pytest.raises(InvalidParameterError, match=interior):
        validate_lambdas((Fraction(0), Fraction(1), INF, INF), 2)


# ---------------------------------------------------------------------------
# the right-hand side binary form


def test_rhs_semi_free_is_u1_times_u2():
    for n in (0, 2, 5):
        lvec = (1,) + (0,) * n + (1,)
        form = rhs_polynomial(lvec, default_lambdas(n))
        assert form.degree == 2
        assert form.coefficients == (Fraction(0), Fraction(1), Fraction(0))


def test_rhs_example_n2():
    # u1 (u1 - u4)(u1 - 2 u4) u4 = u1^3 u4 - 3 u1^2 u4^2 + 2 u1 u4^3
    form = rhs_polynomial((1, 1, 1, 1), default_lambdas(2))
    assert form.coefficients == (
        Fraction(0), Fraction(2), Fraction(-3), Fraction(1), Fraction(0),
    )


def test_rhs_example_n3():
    form = rhs_polynomial((1, 1, 1, 2, 1), default_lambdas(3))
    assert form.degree == 6
    assert form.coefficients == (
        Fraction(0), Fraction(18), Fraction(-39), Fraction(29),
        Fraction(-9), Fraction(1), Fraction(0),
    )


def test_rhs_degree_is_2m_exhaustive():
    for n in range(7):
        for seq in enumerate_marked(n):
            m = reduction_trace(seq).m
            lvec = sequence_l_vector(seq)
            form = rhs_polynomial(lvec, default_lambdas(n))
            assert form.degree == 2 * m
            # leading structure: exactly one power of u_{n+2} divides out
            assert form.coefficients[0] == 0
            assert form.coefficients[2 * m] == 0
            assert form.coefficients[2 * m - 1] == 1


def test_rhs_matches_pointwise_product_oracle():
    rng = random.Random(90125)
    points = [
        (Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(1, 9), rng.randint(1, 7)))
        for _ in range(4)
    ]
    cases = [
        (sequence_l_vector(seq), default_lambdas(n)) for n in range(6) for seq in enumerate_marked(n)
    ]
    # large m: Fibonacci n = 10 and 12 (m = 89 and 233) under default and
    # random lambdas, and the staircase (1, 2, ..., 60, 1) (m = 60)
    for n in (10, 12):
        lvec = sequence_l_vector(family_fibonacci(n))
        cases += [(lvec, default_lambdas(n)), (lvec, random_increasing_lambdas(rng, n))]
    cases.append((sequence_l_vector((*range(1, 61), 1)), default_lambdas(60)))
    for lvec, lambdas in cases:
        for c_sign in (1, -1):
            form = rhs_polynomial(lvec, lambdas, c_sign)
            for u1, u2 in points:
                assert evaluate_form(form, u1, u2) == evaluate_product(
                    lvec, lambdas, c_sign, u1, u2
                )


def sequential_rhs(lvec, lambdas, c_sign) -> tuple[Fraction, ...]:
    """The expansion by 2m sequential multiplications by linear factors, in
    Fraction arithmetic: the oracle for the integer expansion."""
    coeffs = [Fraction(0), Fraction(c_sign)]  # c * u_1
    for i in range(2, len(lvec)):
        lam = lambdas[i - 1]
        for _ in range(lvec[i - 1]):
            # multiply by (u_1 - lam * u_{n+2})
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for d, cf in enumerate(coeffs):
                nxt[d + 1] += cf
                nxt[d] -= lam * cf
            coeffs = nxt
    return tuple(coeffs + [Fraction(0)])  # * u_{n+2}


def random_increasing_lambdas(rng: random.Random, n: int):
    """0, n distinct p/q with p <= 100 and q <= 12 in increasing order, inf."""
    values: set[Fraction] = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(1, 100), rng.randint(1, 12)))
    return (Fraction(0),) + tuple(sorted(values)) + (INF,)


def test_rhs_matches_sequential_oracle_exhaustive():
    rng = random.Random(30805)
    for n in range(8):
        for rep in enumerate_marked(n):
            for seq in {rep, rep[::-1]}:
                lvec = sequence_l_vector(seq)
                lambdas = random_increasing_lambdas(rng, n)
                for c_sign in (1, -1):
                    form = rhs_polynomial(lvec, lambdas, c_sign)
                    assert form.coefficients == sequential_rhs(lvec, lambdas, c_sign)


def test_rhs_matches_sympy_expand():
    sympy = pytest.importorskip("sympy")
    u1, u2 = sympy.symbols("u1 u2")
    rng = random.Random(42)
    huge = sorted(rng.randrange(10**499, 10**500) for _ in range(3))
    cases = [
        # analyze-mix's huge-lambda shape: three 500-digit interior lambdas
        ((1, 2, 5, 3, 1), (Fraction(0), Fraction(1), *map(Fraction, huge), INF), 1),
        ((1, 2, 5, 3, 1), (Fraction(0), Fraction(1, 2), Fraction(7, 3), Fraction(5), Fraction(11, 2), INF), -1),
        ((1, 2, 5, 13, 8, 3, 1), random_increasing_lambdas(rng, 6), 1),
        ((1, 3, 2, 1, 2, 1), random_increasing_lambdas(rng, 5), -1),
    ]
    for seq, lambdas, c_sign in cases:
        lvec = sequence_l_vector(seq)
        expr = c_sign * u1 * u2
        for l, lam in zip(lvec[1:-1], lambdas[1:-1]):
            expr *= (u1 - sympy.Rational(lam.numerator, lam.denominator) * u2) ** l
        poly = sympy.Poly(sympy.expand(expr), u1, u2)
        expected = [Fraction(0)] * (sum(lvec) + 1)
        for (d, _), cf in poly.terms():
            expected[d] = Fraction(int(cf.p), int(cf.q))
        assert rhs_polynomial(lvec, lambdas, c_sign).coefficients == tuple(expected)


def test_rhs_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        rhs_polynomial((2, 0, 1), default_lambdas(1))
    # c is the int 1 or -1: True would print as "c_sign": true, and 1.0
    # would reach the integer expansion
    for c_sign in (2, True, 1.0):
        with pytest.raises(InvalidParameterError):
            rhs_polynomial((1, 0, 1), default_lambdas(1), c_sign=c_sign)
    with pytest.raises(InvalidParameterError):
        minitwistor_model((1, 2, 1), None, True)


def test_rhs_limit_is_checked_before_the_expansion(count_calls):
    # (1, 2m - 2, 1) is 2m - 2 linear factors, so the edge is admitted in
    # about half a second
    assert rhs_polynomial((1, 2 * _MAX_M - 2, 1), default_lambdas(1)).degree == 2 * _MAX_M
    multiplied = count_calls("model", "_times_linear")
    with pytest.raises(InvalidParameterError, match=f"model limit m <= {_MAX_M}"):
        rhs_polynomial((1, 2 * _MAX_M, 1), default_lambdas(1))
    assert multiplied == []
    # Fibonacci n = 15 (m = 987) is admitted, n = 16 (m = 1597) is not
    assert fibonacci(16) <= _MAX_M < fibonacci(17)


# ---------------------------------------------------------------------------
# the balanced quadratic split


def test_split_forced_at_m1():
    form = rhs_polynomial((1, 0, 0, 1), default_lambdas(2))
    q = quadratic_split(form, 1)
    assert q.terms == (((0, 1), Fraction(1)),)


def test_split_example_n2():
    form = rhs_polynomial((1, 1, 1, 1), default_lambdas(2))
    q = quadratic_split(form, 2)
    assert q.terms == (((0, 1), Fraction(2)), ((1, 1), Fraction(-3)), ((1, 2), Fraction(1)))


def test_split_example_n3():
    form = rhs_polynomial((1, 1, 1, 2, 1), default_lambdas(3))
    q = quadratic_split(form, 3)
    assert q.terms == (
        ((0, 1), Fraction(18)),
        ((1, 1), Fraction(-39)),
        ((1, 2), Fraction(29)),
        ((2, 2), Fraction(-9)),
        ((2, 3), Fraction(1)),
    )


def test_split_zero_form():
    zero = BinaryForm(degree=4, coefficients=(Fraction(0),) * 5)
    q = quadratic_split(zero, 2)
    assert q.terms == ()
    assert q.pullback() == zero


def test_split_is_balanced():
    form = rhs_polynomial(sequence_l_vector((1, 2, 5, 3, 1)), default_lambdas(4))
    q = quadratic_split(form, 5)
    for (a, b), coeff in q.terms:
        assert 0 <= a <= b <= 5
        assert b - a <= 1
        assert coeff != 0


def test_split_rejects_degree_mismatch():
    form = BinaryForm(degree=4, coefficients=(Fraction(1),) * 5)
    with pytest.raises(InvalidParameterError):
        quadratic_split(form, 1)


def test_pullback_round_trip_randomized_100():
    rng = random.Random(20260810)
    pool = [seq for n in range(7) for seq in enumerate_marked(n)]
    for _ in range(100):
        seq = pool[rng.randrange(len(pool))]
        n = len(seq) - 1
        # random strictly increasing positive rationals
        lams = [Fraction(0)]
        for _ in range(n):
            lams.append(lams[-1] + Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        lams = tuple(lams) + (INF,)
        c_sign = rng.choice((1, -1))
        lvec = sequence_l_vector(seq)
        m = sum(lvec) // 2
        form = rhs_polynomial(lvec, lams, c_sign)
        assert quadratic_split(form, m).pullback() == form


def test_quadratic_comparator_mod_parameter_curve():
    # moving weight between monomials with the same pullback degree is
    # invisible on the model surface
    balanced = QuadraticForm(m=2, terms=(((1, 1), Fraction(2)),))
    skew = QuadraticForm(m=2, terms=(((0, 2), Fraction(2)),))
    assert balanced.pullback() == skew.pullback()
    assert balanced.pullback() != QuadraticForm(m=2, terms=(((1, 1), Fraction(3)),)).pullback()
    assert balanced.pullback() != QuadraticForm(m=1, terms=(((1, 1), Fraction(2)),)).pullback()


def test_rationality_of_split_coefficients():
    rng = random.Random(7)
    for n in range(6):
        for seq in enumerate_marked(n):
            lvec = sequence_l_vector(seq)
            lams = [Fraction(0)]
            for _ in range(n):
                lams.append(lams[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            form = rhs_polynomial(lvec, tuple(lams) + (INF,), rng.choice((1, -1)))
            q = quadratic_split(form, sum(lvec) // 2)
            assert all(isinstance(c, Fraction) for _, c in q.terms)


# ---------------------------------------------------------------------------
# singularities, fibers, moduli, fixed lines


def test_singularities_multiplicity_free_case():
    records = minitwistor_model((1, 2, 1)).singularities
    assert len(records) == 1
    assert records[0].kind == "cyclic-quotient-pair" and records[0].order == 2


def test_singularities_example():
    records = minitwistor_model((1, 2, 5, 3, 1)).singularities
    pair = [r for r in records if r.kind == "cyclic-quotient-pair"]
    real = [r for r in records if r.kind == "real-A"]
    assert len(pair) == 1 and pair[0].order == 5
    assert [(r.order, r.index, r.location) for r in real] == [
        (2, 3, Fraction(2)),
        (1, 4, Fraction(3)),
        (1, 5, Fraction(4)),
    ]


def test_singularities_fibonacci_family():
    for n in range(3, 9):
        records = minitwistor_model(family_fibonacci(n)).singularities
        orders = {r.order for r in records if r.kind == "real-A"}
        for j in range(3, n + 1):
            assert fibonacci(j) - 1 in orders


def test_smooth_quadric_iff_m1():
    for n in range(7):
        for seq in enumerate_marked(n):
            m = reduction_trace(seq).m
            assert (m == 1) == (minitwistor_model(seq).singularities == ())


def test_reducible_fibers_examples():
    assert sequence_l_vector((1, 1, 1, 1)) == (1, 0, 0, 0, 1)
    model = minitwistor_model((1, 1, 1, 1))
    assert model.reducible_fibers == (Fraction(0), INF)
    assert model.irreducible_marked_fibers == (Fraction(1), Fraction(2), Fraction(3))
    assert minitwistor_model((1, 2, 1, 2, 1)).reducible_fibers == default_lambdas(4)
    assert minitwistor_model((1, 2, 3, 1)).reducible_fibers == default_lambdas(3)


def test_reducible_fiber_count_at_least_three_when_m_ge_2():
    observed = []
    for n in range(7):
        for seq in enumerate_marked(n):
            if reduction_trace(seq).m >= 2:
                count = len(minitwistor_model(seq).reducible_fibers)
                assert count >= 3
                observed.append(count)
    print(f"minimum reducible-fiber count over m >= 2, n <= 6: {min(observed)}")


def test_moduli_dimension():
    assert minitwistor_model((1, 2, 1)).moduli_dim == 1
    assert minitwistor_model((1, 2, 3, 1)).moduli_dim == 2
    assert minitwistor_model((1, 1, 1)).moduli_dim is None


def test_fixed_lines():
    assert minitwistor_model((1, 1, 1, 1)).fixed_lines == (2, 3, 4)
    assert minitwistor_model((1, 2, 3, 1)).fixed_lines == ()
    assert minitwistor_model((1, 2, 1, 1, 1)).fixed_lines == (4, 5)


def vanishing_order(coeffs: list[Fraction], root: Fraction) -> int:
    """Order of root as a zero of the nonzero polynomial sum coeffs[d] x^d,
    by repeated exact synthetic division by x - root."""
    order = 0
    while True:
        carry = Fraction(0)
        quotient = []
        for c in reversed(coeffs):
            carry = carry * root + c
            quotient.append(carry)
        if quotient.pop():
            return order
        coeffs = quotient[::-1]
        order += 1


def test_equation_vanishing_orders_are_the_singularity_list():
    # the equation and the singularity list are both read off l; tie one to
    # the other through the zeros of the right-hand side, with u_{n+2} = 1
    rng = random.Random(20261018)
    for n in range(8):
        for seq in oriented_sequences(n):
            lams = [Fraction(0)]
            for _ in range(n):
                lams.append(lams[-1] + Fraction(rng.randint(1, 20), rng.randint(1, 20)))
            lams = tuple(lams) + (INF,)
            model = minitwistor_model(seq, lams, rng.choice((1, -1)))
            lvec = analyze_sequence(seq).l
            coeffs = list(model.rhs.coefficients)
            orders = [vanishing_order(coeffs, lam) for lam in lams[:-1]]
            top = max(d for d, c in enumerate(coeffs) if c)
            orders.append(model.rhs.degree - top)
            assert orders[0] == orders[-1] == 1, seq
            assert tuple(orders) == lvec, seq
            records = model.singularities
            real = {(r.index, r.order, r.location) for r in records if r.kind == "real-A"}
            assert real == {(i, o - 1, lams[i - 1]) for i, o in enumerate(orders, start=1) if o > 1}
            pair = [r.order for r in records if r.kind == "cyclic-quotient-pair"]
            assert pair == ([model.m] if model.m > 1 else []), seq


# ---------------------------------------------------------------------------
# the assembled model


def test_model_dimensions_and_degree():
    model = minitwistor_model((1, 2, 5, 3, 1))
    assert model.m == 5
    assert model.ambient_dim == 7
    assert model.surface_degree == 10
    assert model.dim_vm == 6 and model.dim_wm == 8
    assert model.q.pullback() == model.rhs


def test_model_semi_free():
    model = minitwistor_model((1, 1))
    assert model.m == 1
    assert model.q.terms == (((0, 1), Fraction(1)),)
    assert model.singularities == ()
    assert model.moduli_dim is None


def test_model_terms_cannot_be_edited_in_place():
    model = minitwistor_model((1, 2, 1))
    with pytest.raises(TypeError):
        model.q.terms[(0, 0)] = Fraction(99)
    assert hash(model) == hash(minitwistor_model((1, 2, 1)))


def test_model_c_sign():
    model = minitwistor_model((1, 1), c_sign=-1)
    assert model.q.terms == (((0, 1), Fraction(-1)),)

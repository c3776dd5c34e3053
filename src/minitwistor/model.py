"""Projective model of the minitwistor space attached to a weight sequence.

The model is a degree-2m surface in CP^{m+2} fibered in conics over a rational
normal curve of degree m: in suitable coordinates it satisfies the single
quadratic equation

    z_{m+1} z_{m+2} = Q(z_0, ..., z_m),

where the product z_{m+1} z_{m+2} expands, on the curve z_d = u_1^d u_{n+2}^{m-d},
to the binary form

    c * u_1 * prod_{i=2}^{n+1} (u_1 - lambda_i u_{n+2})^{l_i} * u_{n+2}.

The exponents are the multiplicity vector of the trace divisor and the
lambda_i are the conformal invariants of the metric, normalized so that
lambda_1 = 0 and lambda_{n+2} = infinity.  Q is determined only up to the
ideal of the rational normal curve; the canonical choice here is the balanced
split of each monomial, and equality of two splits is decided by comparing
pullbacks.  Everything is exact rational arithmetic.

The binary form is expanded in integers, one linear factor at a time: with
lambda_i = p_i / q_i, each factor (u_1 - lambda_i u_{n+2}) is
q_i^{-1} (q_i u_1 - p_i u_{n+2}), so the integer product is multiplied by
(q_i u_1 - p_i u_{n+2}) l_i times and divided once by prod q_i^{l_i}.
Fractions appear only in the returned coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantError, InvalidParameterError
from .exact import INF, Infinity, Scalar
from .invariants import Weights, analyze_sequence
from .record import Record


#: The largest m the model is expanded for: the equation has degree 2m.  In a
#: fresh CLI process on a 2-core shared VM (Intel Xeon, CPython 3.11.7) the
#: equation of Fibonacci n = 15 (m = 987) takes about 1.1 s, and that of the
#: staircase (1, 2, ..., 1000, 1) (m = n = 1000) about 2.3 s and 6.5 MB of
#: text; Fibonacci n = 16 (m = 1597) is rejected.
_MAX_M = 1000


def default_lambdas(n: int) -> tuple[Scalar, ...]:
    """The sample conformal invariants (0, 1, 2, ..., n, inf)."""
    return tuple(Fraction(i) for i in range(n + 1)) + (INF,)


def validate_lambdas(lambdas: tuple[Scalar, ...], n: int) -> None:
    """Check a conformal-invariant tuple: lambda_1 = 0, lambda_{n+2} = inf,
    strictly increasing finite values in between."""
    if len(lambdas) != n + 2:
        raise InvalidParameterError(f"need {n + 2} conformal invariants, got {len(lambdas)}")
    if lambdas[0] != Fraction(0):
        raise InvalidParameterError("lambda_1 must be 0")
    if not isinstance(lambdas[-1], Infinity):
        raise InvalidParameterError("lambda_{n+2} must be inf")
    middle = lambdas[1:-1]
    for value in middle:
        if not isinstance(value, Fraction):
            raise InvalidParameterError("interior conformal invariants must be rational")
    for a, b in zip((Fraction(0),) + middle, middle):
        if not a < b:
            raise InvalidParameterError("conformal invariants must be strictly increasing")


class BinaryForm(Record):
    """Homogeneous binary form; coefficients[d] multiplies u_1^d u_{n+2}^{degree-d}."""

    degree: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.degree + 1:
            raise InvalidParameterError("coefficient list does not match the degree")


def _times_linear(product: list[int], p: int, q: int, l: int) -> list[int]:
    """An integer coefficient list, indexed by the power of u_1, times
    (q u_1 - p u_{n+2})^l, one linear factor at a time."""
    for _ in range(l):
        product = [q * a - p * b for a, b in zip([0, *product], [*product, 0])]
    return product


def rhs_polynomial(
    lvec: tuple[int, ...], lambdas: tuple[Scalar, ...], c_sign: int = 1
) -> BinaryForm:
    """Expand c * u_1 * prod (u_1 - lambda_i u_{n+2})^{l_i} * u_{n+2} exactly.

    The boundary multiplicities must equal 1 (they always do for trace
    divisors); the result has degree 2m with m = sum(lvec) / 2, and m above
    the model limit fails before any expansion.  This is the one place that
    validates lambdas: the CLI passes them on as parsed.

    The expansion runs in integers, one linear factor at a time: lambda_i =
    p/q multiplies the product by (q u_1 - p u_{n+2}) l_i times, and the
    product is divided once by prod q^{l_i}.  Only the returned
    coefficients are Fractions.
    """
    n = len(lvec) - 2
    if lvec[0] != 1 or lvec[-1] != 1:
        raise InvalidParameterError("boundary multiplicities l_1, l_{n+2} must be 1")
    m = sum(lvec) // 2
    if m > _MAX_M:
        raise InvalidParameterError(f"m = {m} is above the model limit m <= {_MAX_M}")
    validate_lambdas(lambdas, n)
    if type(c_sign) is not int or c_sign not in (1, -1):
        raise InvalidParameterError("c must be +1 or -1")
    if sum(lvec) % 2:
        raise InvalidParameterError("multiplicities must sum to an even number")
    product = [c_sign]
    scale = 1
    for l, lam in zip(lvec[1:-1], lambdas[1:-1]):
        if l:
            p, q = lam.numerator, lam.denominator
            product = _times_linear(product, p, q, l)
            scale *= q**l
    # the factors u_1 and u_{n+2} add a zero coefficient at each end
    coeffs = (Fraction(0), *(Fraction(x, scale) for x in product), Fraction(0))
    form = BinaryForm(degree=len(coeffs) - 1, coefficients=coeffs)
    if form.degree != sum(lvec):
        raise InternalInvariantError(
            f"rhs_polynomial: l = ({','.join(str(l) for l in lvec)}): "
            "expanded degree disagrees with the multiplicity sum"
        )
    return form


class QuadraticForm(Record):
    """Quadratic polynomial in z_0..z_m as ((a, b), coefficient of z_a z_b)
    items, a <= b, zero coefficients omitted.  A tuple, not a dict, so the
    form is frozen and hashable like every record."""

    m: int
    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    def pullback(self) -> BinaryForm:
        """Substitute z_d = u_1^d u_{n+2}^{m-d}; inverse of the splitting."""
        coeffs = [Fraction(0)] * (2 * self.m + 1)
        for (a, b), cf in self.terms:
            coeffs[a + b] += cf
        return BinaryForm(degree=2 * self.m, coefficients=tuple(coeffs))


def quadratic_split(form: BinaryForm, m: int) -> QuadraticForm:
    """Balanced split of a degree-2m binary form into a quadratic in the z_d:
    the u_1^d u_{n+2}^{2m-d} coefficient lands on z_{floor(d/2)} z_{ceil(d/2)}."""
    if form.degree != 2 * m:
        raise InvalidParameterError(f"form has degree {form.degree}, expected {2 * m}")
    terms = tuple(
        ((d // 2, (d + 1) // 2), cf) for d, cf in enumerate(form.coefficients) if cf
    )
    split = QuadraticForm(m=m, terms=terms)
    if split.pullback() != form:
        raise InternalInvariantError(
            f"quadratic_split: m = {m}: balanced split does not pull back to its input"
        )
    return split


class SingularityRecord(Record):
    """One singularity of the model surface.

    kind "cyclic-quotient-pair": the conjugate pair of C^2/Z_m points over
    infinity (order m, present once m > 1).  kind "real-A": an A_{l_i - 1}
    point over the real parameter lambda_i, present exactly when l_i > 1.
    """

    kind: str
    order: int
    location: Scalar | str
    index: int | None = None


class MinitwistorModel(Record):
    """The full projective model: equation, dimensions, fibers, singularities.

    The fiber ledger is read off the multiplicity vector l:

    - ``singularities``: the conjugate pair of C^2/Z_m points over infinity
      once m > 1, then an A_{l_i - 1} point over lambda_i for each l_i > 1;
    - ``reducible_fibers``: the lambda_i with l_i > 0, over which the conic
      breaks into two lines (infinity always qualifies);
    - ``irreducible_marked_fibers``: the lambda_i with l_i = 0;
    - ``moduli_dim``: #{i : l_i > 0} - 3, the dimension of the moduli the
      reducible-fiber positions sweep out; None in the rigid case m = 1;
    - ``fixed_lines``: the indices i with l_i = 0, whose invariant twistor
      lines are pointwise fixed by the subgroup.
    """

    m: int
    n: int
    lambdas: tuple[Scalar, ...]
    c_sign: int
    rhs: BinaryForm
    q: QuadraticForm
    ambient_dim: int
    surface_degree: int
    dim_vm: int
    dim_wm: int
    singularities: tuple[SingularityRecord, ...]
    reducible_fibers: tuple[Scalar, ...]
    irreducible_marked_fibers: tuple[Scalar, ...]
    moduli_dim: int | None
    fixed_lines: tuple[int, ...]


def minitwistor_model(
    seq: Weights,
    lambdas: tuple[Scalar, ...] | None = None,
    c_sign: int = 1,
) -> MinitwistorModel:
    """Synthesize the model surface for a weight sequence or its analysis
    record.

    lambdas defaults to (0, 1, ..., n, inf); c to +1.  The degree of the
    equation is 2m without a check here: rhs_polynomial checks it against
    sum l, and the analysis record checks sum l = 2m.
    """
    rec = analyze_sequence(seq)
    lvec, n, m = rec.l, rec.n, rec.m
    if lambdas is None:
        lambdas = default_lambdas(n)
    form = rhs_polynomial(lvec, lambdas, c_sign)
    singular = []
    if m > 1:
        singular.append(
            SingularityRecord(
                kind="cyclic-quotient-pair", order=m, location="conjugate pair over infinity"
            )
        )
    reducible, irreducible, fixed = [], [], []
    for i, (l, lam) in enumerate(zip(lvec, lambdas), start=1):
        if l > 1:
            singular.append(SingularityRecord(kind="real-A", order=l - 1, location=lam, index=i))
        if l:
            reducible.append(lam)
        else:
            irreducible.append(lam)
            fixed.append(i)
    return MinitwistorModel(
        m=m,
        n=n,
        lambdas=lambdas,
        c_sign=c_sign,
        rhs=form,
        q=quadratic_split(form, m),
        ambient_dim=m + 2,
        surface_degree=2 * m,
        dim_vm=m + 1,
        dim_wm=m + 3,
        singularities=tuple(singular),
        reducible_fibers=tuple(reducible),
        irreducible_marked_fibers=tuple(irreducible),
        moduli_dim=len(reducible) - 3 if m > 1 else None,
        fixed_lines=tuple(fixed),
    )

"""The model equation z_{m+1} z_{m+2} = Q in text and LaTeX.

``render.equation_text`` and ``render.equation_latex`` are checked two ways:
byte for byte against the one-loop-per-format oracle in ``support`` on
hand-built quadratic forms, and by reading each line of real models back into
its coefficients.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd

from minitwistor import QuadraticForm, default_lambdas, family_fibonacci, minitwistor_model
from minitwistor.exact import INF
from minitwistor.model import MinitwistorModel
from minitwistor.render import equation_latex, equation_text

from support import equation_latex_oracle, equation_text_oracle, oriented_sequences
from test_model import random_increasing_lambdas


def with_form(model, form):
    """model with its q field replaced by form."""
    fields = {name: getattr(model, name) for name in model._fields}
    return MinitwistorModel(**{**fields, "q": form})


def random_coefficient(rng):
    """0, +-1, a small fraction or integer, or a 31-digit integer or fraction."""
    kind = rng.randrange(6)
    sign = rng.choice((1, -1))
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(sign)
    if kind == 2:
        return Fraction(sign * rng.randint(1, 40), rng.randint(1, 12))
    if kind == 3:
        return Fraction(sign * rng.randint(2, 10**4))
    if kind == 4:
        return Fraction(sign * rng.randrange(10**30, 10**31))
    return Fraction(sign * rng.randrange(10**30, 10**31), rng.randrange(2, 10**31))


def random_form(rng, m):
    """Up to 12 distinct terms z_a z_b, a <= b <= m, in random order: several
    of one degree where m allows, none at all now and then."""
    pairs = [(a, b) for b in range(m + 1) for a in range(b + 1)]
    count = rng.choice((0, 1, 2, rng.randint(3, 12)))
    chosen = rng.sample(pairs, min(count, len(pairs)))
    return QuadraticForm(m=m, terms=tuple((pair, random_coefficient(rng)) for pair in chosen))


def test_equations_match_the_oracle_on_hand_built_forms():
    # zero coefficients, which both writers subtract ("- 0*z0*z1"), several
    # terms of one degree, terms in any order and no terms at all
    rng = random.Random(34)
    models = [minitwistor_model(seq) for seq in ((1, 1), (1, 2, 1), (1, 2, 5, 3, 1))]
    seen_zero = seen_empty = seen_shared_degree = 0
    for _ in range(2400):
        model = rng.choice(models)
        form = random_form(rng, model.m)
        degrees = [a + b for (a, b), _ in form.terms]
        seen_zero += any(cf == 0 for _, cf in form.terms)
        seen_empty += not form.terms
        seen_shared_degree += len(set(degrees)) < len(degrees)
        built = with_form(model, form)
        assert equation_text(built) == equation_text_oracle(built), form
        assert equation_latex(built) == equation_latex_oracle(built), form
    assert min(seen_zero, seen_empty, seen_shared_degree) >= 100


# ---------------------------------------------------------------------------
# reading a rendered equation back


TEXT_TERM = re.compile(r"(?:(\d+)(?:/(\d+))?\*)?z(\d+)(?:\^2|\*z(\d+))")
LATEX_TERM = re.compile(r"(?:(\d+)|\\tfrac\{(\d+)\}\{(\d+)\})?z_\{(\d+)\}(?:\^\{2\}|z_\{(\d+)\})")


def read_int(digits):
    """int(digits) in chunks of 1000 digits, under int()'s digit limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def read_equation(line, lhs, term, fields):
    """The ((a, b), coefficient) items of a rendered equation, in order.
    fields(match) gives the match's (p, q, a, b) digit strings, p and q None
    for a unit coefficient, q None for an integer, b None for a square."""
    assert line.startswith(lhs), line[:80]
    tokens = line[len(lhs) :].split(" ")
    signs = ["-" if tokens[0].startswith("-") else "+", *tokens[1::2]]
    bodies = [tokens[0].removeprefix("-"), *tokens[2::2]]
    assert len(signs) == len(bodies) and set(signs) <= {"+", "-"}
    items = []
    for sign, body in zip(signs, bodies):
        match = term.fullmatch(body)
        assert match, body[:80]
        p, q, a, b = fields(match)
        num, den = read_int(p or "1"), read_int(q or "1")
        # a written magnitude is never 1, and a written fraction is reduced
        assert p is None or (num, den) != (1, 1), body
        assert q is None or (den > 1 and gcd(num, den) == 1), body
        a = int(a)
        coeff = Fraction(num, den)
        items.append(((a, a if b is None else int(b)), -coeff if sign == "-" else coeff))
    return items


def latex_fields(match):
    whole, num, den, a, b = match.groups()
    return whole or num, den, a, b


def huge_lambdas(rng, n):
    """0, then 1..n-3, then three 500-digit p/q (fewer when n < 3), inf."""
    k = min(n, 3)
    huge = sorted(Fraction(rng.randrange(10**499, 10**500), rng.randint(1, 12)) for _ in range(k))
    return (Fraction(0), *map(Fraction, range(1, n - k + 1)), *huge, INF)


def test_equations_read_back_into_the_model():
    rng = random.Random(3405)
    sequences = [seq for n in range(7) for seq in oriented_sequences(n)]
    sequences.append(family_fibonacci(10))
    checked = 0
    for seq in sequences:
        n = len(seq) - 1
        kinds = (default_lambdas(n), random_increasing_lambdas(rng, n), huge_lambdas(rng, n))
        for lambdas in kinds:
            for c_sign in (1, -1):
                model = minitwistor_model(seq, lambdas, c_sign)
                m = model.m
                for line, lhs, term, fields in (
                    (equation_text(model), f"z{m + 1}*z{m + 2} = ", TEXT_TERM, re.Match.groups),
                    (equation_latex(model), f"z_{{{m + 1}}}z_{{{m + 2}}} = ", LATEX_TERM,
                     latex_fields),
                ):
                    items = read_equation(line, lhs, term, fields)
                    assert dict(items) == dict(model.q.terms), (seq, c_sign)
                    degrees = [a + b for (a, b), _ in items]
                    assert degrees == sorted(set(degrees), reverse=True), seq
                    checked += 1
    assert checked == 12 * len(sequences)

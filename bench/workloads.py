"""Seeded request streams for the benchmark workloads and their output oracles.

Each workload is a fixed list of CLI requests (one "pass") built from the
seed, which the worker repeats until the run time is used up.  Shape counts
are exact decks, shuffled by the seed: only the sequences, the random
rationals and the order depend on the seed, so runs with different seeds do
the same amount of work.

The oracles are independent of the library: m and the l-vectors come from the
closed forms with k_1 = k_{n+3} = 0, the equation is checked by evaluating
its coefficients at a seeded rational point against c*t*prod (t - lambda_i)^l_i,
the class counts against the published delta(n) values and the marked counts
against Catalan numbers up to reversal.
"""

from __future__ import annotations

import ast
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

WORKLOADS = ("analyze-mix", "model-fib", "catalog")

#: delta(0..11): circle-action classes of nCP^2.
KNOWN_DELTA = (1, 1, 2, 3, 7, 15, 42, 119, 376, 1212, 4070, 13886)


class CheckError(Exception):
    """An output disagreed with its oracle."""


@dataclass
class Request:
    """One CLI call.  ``argv`` may contain "{cache_dir}", filled per round;
    ``fresh`` asks the worker to clear the enumeration memo and pick a new
    cache directory before the call."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], None]
    expect_exit: int = 0
    fresh: bool = False


@dataclass
class Workload:
    name: str
    requests: list[Request]
    params: dict


# ---------------------------------------------------------------------------
# oracles


def closed_forms(seq: tuple[int, ...]) -> tuple[int, tuple, tuple, tuple]:
    """m, l^+, l^-, l from k_1 = k_{n+3} = 0 and l_i^+ = max(0, k_{i+1} - k_i)."""
    k = (0,) + seq + (0,)
    plus = tuple(max(0, b - a) for a, b in zip(k, k[1:]))
    minus = tuple(max(0, a - b) for a, b in zip(k, k[1:]))
    return sum(plus), plus, minus, tuple(p + q for p, q in zip(plus, minus))


def regularity_oracle(seq: tuple[int, ...]) -> tuple[bool, int | None, int | None, int | None]:
    """(semi_free, r, s, slack) from the runs of ones at both ends."""
    n = len(seq) - 1
    if all(k == 1 for k in seq):
        return True, None, None, None
    lead = next(i for i, k in enumerate(seq) if k != 1)
    trail = next(i for i, k in enumerate(reversed(seq)) if k != 1)
    r, s = lead + 1, n + 3 - trail
    return False, r, s, n + r - s


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def marked_count(n: int) -> int:
    """Level-n sequences up to reversal: C_n oriented sequences, of which
    2*C_{n/2} (n even, n > 0), C_{(n-1)/2} (n odd) or 1 (n = 0) are palindromes."""
    if n == 0:
        return 1
    palindromes = 2 * catalan(n // 2) if n % 2 == 0 else catalan((n - 1) // 2)
    return (catalan(n) + palindromes) // 2


def rhs_value(l: tuple[int, ...], lambdas: tuple[Fraction, ...], c: int, t: Fraction) -> Fraction:
    value = Fraction(c) * t
    for lam, mult in zip(lambdas[1:-1], l[1:-1]):
        value *= (t - lam) ** mult
    return value


def evaluate(coeffs: dict[int, Fraction], t: Fraction) -> Fraction:
    """sum of coeffs[d] * t^d, by Horner."""
    acc = Fraction(0)
    for d in range(max(coeffs), -1, -1):
        acc = acc * t + coeffs.get(d, 0)
    return acc


def _fmt_seq(seq: tuple[int, ...]) -> str:
    return ",".join(str(k) for k in seq)


def _fmt_lambdas(lambdas: tuple[Fraction | None, ...]) -> str:
    return ",".join("inf" if lam is None else str(lam) for lam in lambdas)


_TEXT_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*)?z(\d+)(?:\^2|\*z(\d+))")
_LATEX_TERM = re.compile(r"(?:\\tfrac\{(\d+)\}\{(\d+)\}|(\d+))?z_\{(\d+)\}(?:\^\{2\}|z_\{(\d+)\})")


def parse_equation(line: str, latex: bool) -> tuple[int, dict[int, Fraction]]:
    """(m, {degree on the curve: coefficient}) from a rendered z_{m+1} z_{m+2} = Q."""
    lhs, _, rhs = line.partition(" = ")
    left = re.fullmatch(r"z_\{(\d+)\}z_\{(\d+)\}" if latex else r"z(\d+)\*z(\d+)", lhs)
    if left is None or int(left[2]) != int(left[1]) + 1:
        raise CheckError(f"left side {lhs[:40]!r} is not z_(m+1) z_(m+2)")
    coeffs: dict[int, Fraction] = {}
    sign = 1
    for token in rhs.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        term = (_LATEX_TERM if latex else _TEXT_TERM).fullmatch(token)
        if term is None:
            raise CheckError(f"unparsed term {token[:40]!r}")
        if latex:
            num, den, whole, a, b = term.groups()
            coeff = Fraction(int(num), int(den)) if num else Fraction(int(whole or 1))
        else:
            text, a, b = term.groups()
            coeff = Fraction(text) if text else Fraction(1)
        a = int(a)
        b = a if b is None else int(b)
        d = a + b
        if (a, b) != (d // 2, (d + 1) // 2) or d in coeffs:
            raise CheckError(f"term z{a}*z{b} is not the balanced split of a new degree")
        coeffs[d] = sign * coeff
        sign = 1
    return int(left[1]) - 1, coeffs


def check_model(seq, lambdas, t: Fraction, m: int, coeffs: dict[int, Fraction]) -> None:
    """The reported m and equation coefficients against the closed form and
    c*t*prod (t - lambda_i)^l_i (c = +1) at the rational point t."""
    m_expected, _, _, l = closed_forms(seq)
    if m != m_expected:
        raise CheckError(f"m = {m}, closed form gives {m_expected}")
    coeffs = {d: cf for d, cf in coeffs.items() if cf}
    if not coeffs or min(coeffs) < 1 or max(coeffs) != 2 * m - 1 or coeffs[2 * m - 1] != 1:
        raise CheckError("equation degrees are not 1..2m-1 with leading coefficient c")
    if evaluate(coeffs, t) != rhs_value(l, lambdas, 1, t):
        raise CheckError("equation disagrees with c*t*prod(t - lambda_i)^l_i at a rational point")


def _json_coeffs(rhs: dict) -> dict[int, Fraction]:
    return {d: Fraction(text) for d, text in enumerate(rhs["coefficients"])}


def _expect(label: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{label} = {str(got)[:60]}, expected {str(want)[:60]}")


def _check_regularity_json(data: dict, seq) -> None:
    semi, r, s, slack = regularity_oracle(seq)
    n = len(seq) - 1
    _expect("semi_free", data["semi_free"], semi)
    _expect("deformable", data["deformable"], n >= 3 if semi else slack > 0)
    if not semi or "r" in data:
        _expect("r, s, slack", (data["r"], data["s"], data["slack"]), (r, s, slack))


def _check_regularity_text(line: str, seq) -> None:
    semi, r, s, slack = regularity_oracle(seq)
    n = len(seq) - 1
    if semi:
        if "semi-free" not in line or f"deformable = {n >= 3}" not in line:
            raise CheckError(f"semi-free line {line!r}")
        return
    _expect("regularity", line, f"r = {r}, s = {s}, slack = {slack}, deformable = {slack > 0}")


def _check_discriminants(data: dict, seq) -> None:
    """Fiber chains of length l_i + 1 where l_i > 0 and irreducible fibers
    where l_i = 0, over the interior indices (undeformed) or r < i < s
    (deformed, which adds n + r - s hyperplane sections)."""
    _, _, _, l = closed_forms(seq)
    semi, r, s, slack = regularity_oracle(seq)

    def fibers(window):
        return ([[i, l[i - 1] + 1] for i in window if l[i - 1] > 0],
                [i for i in window if l[i - 1] == 0])

    if "discriminant_joyce" in data:
        joyce = data["discriminant_joyce"]
        _expect("undeformed discriminant",
                (joyce["reducible_fiber_chains"], joyce["irreducible_fibers"]),
                fibers(range(2, len(seq) + 1)))
    deformed = data.get("discriminant_deformed")
    if semi:
        _expect("deformed discriminant of a semi-free sequence", deformed, None)
    else:
        _expect("deformed discriminant",
                (deformed["reducible_fiber_chains"], deformed["irreducible_fibers"],
                 deformed["hyperplane_sections"]),
                (*fibers(range(r + 1, s)), slack))


def _check_model_json(model: dict, seq, lambdas, t) -> None:
    m = model["m"]
    _expect("ambient_dim, surface_degree, dim_vm, dim_wm",
            (model["ambient_dim"], model["surface_degree"], model["dim_vm"], model["dim_wm"]),
            (m + 2, 2 * m, m + 1, m + 3))
    _expect("lambdas, c_sign", (",".join(model["lambdas"]), model["c_sign"]),
            (_fmt_lambdas(lambdas), 1))
    rhs = _json_coeffs(model["rhs"])
    split = {tuple(int(i) for i in key.split(",")): Fraction(value)
             for key, value in model["q"]["terms"].items()}
    _expect("quadratic split", split, {(d // 2, (d + 1) // 2): cf for d, cf in rhs.items() if cf})
    check_model(seq, lambdas, t, m, rhs)


def _line(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckError(f"no line starting {prefix!r}")


def analyze_check(seq, lambdas, t, fmt):
    def check(out: str) -> None:
        if fmt == "json":
            data = json.loads(out)
            m, plus, minus, l = closed_forms(seq)
            _expect("n", data["n"], len(seq) - 1)
            _expect("l_plus, l_minus, l", (data["l_plus"], data["l_minus"], data["l"]),
                    (list(plus), list(minus), list(l)))
            _expect("m", data["m"], m)
            _check_regularity_json(data, seq)
            _check_discriminants(data, seq)
            _check_model_json(data["model"], seq, lambdas, t)
        elif fmt == "latex":
            check_model(seq, lambdas, t, *parse_equation(out.split("\n", 1)[0], latex=True))
        else:
            lines = out.splitlines()
            m, plus, minus, l = closed_forms(seq)
            _expect("header", lines[0], f"sequence k = ({_fmt_seq(seq)}), n = {len(seq) - 1}")
            _expect("m", int(_line(lines, "m = ")), m)
            _expect("l+", ast.literal_eval(_line(lines, "l+ = ")), plus)
            _expect("l-", ast.literal_eval(_line(lines, "l- = ")), minus)
            _expect("l", ast.literal_eval(_line(lines, "l  = ")), l)
            _check_regularity_text(_line(lines, "regularity: "), seq)
            check_model(seq, lambdas, t, *parse_equation(_line(lines, "equation: "), latex=False))
    return check


def equation_check(seq, lambdas, t, fmt):
    def check(out: str) -> None:
        if fmt == "json":
            _check_model_json(json.loads(out), seq, lambdas, t)
        else:
            line = out.rstrip("\n")
            if "\n" in line:
                raise CheckError("equation output spans several lines")
            check_model(seq, lambdas, t, *parse_equation(line, latex=fmt == "latex"))
    return check


def deform_check(seq, fmt):
    def check(out: str) -> None:
        if fmt == "json":
            data = json.loads(out)
            _expect("n, k", (data["n"], data["k"]), (len(seq) - 1, list(seq)))
            _check_regularity_json(data, seq)
            _check_discriminants(data, seq)
        else:
            _check_regularity_text(out.split("\n", 1)[0], seq)
    return check


def schedule_check(seq, fmt):
    m, _, _, l = closed_forms(seq)
    stages = 1 if m == 1 else max(l) + 2
    def check(out: str) -> None:
        if fmt == "json":
            data = json.loads(out)
            _expect("m, max_multiplicity, stages",
                    (data["m"], data["max_multiplicity"], len(data["stages"])),
                    (m, max(l), stages))
        else:
            _expect("schedule header", out.split("\n", 1)[0],
                    f"blow-up schedule: {stages} stage(s), m = {m}, max multiplicity = {max(l)}")
    return check


def expect_silent(out: str) -> None:
    if out:
        raise CheckError("a rejected request wrote to stdout")


# ---------------------------------------------------------------------------
# inputs


def random_path(rng: random.Random, n: int) -> tuple[int, ...]:
    """A level-n sequence from n uniformly random mediant insertions on (1)."""
    seq = (1,)
    for _ in range(n):
        i = rng.randrange(len(seq) + 1)
        if i == 0:
            seq = (1,) + seq
        elif i == len(seq):
            seq = seq + (1,)
        else:
            seq = seq[:i] + (seq[i - 1] + seq[i],) + seq[i:]
    return seq


def default_lambdas(n: int) -> tuple[Fraction | None, ...]:
    return tuple(Fraction(i) for i in range(n + 1)) + (None,)


def random_lambdas(rng: random.Random, n: int, num_max: int, den_max: int):
    values: set[Fraction] = set()
    while len(values) < n:
        values.add(Fraction(rng.randint(1, num_max), rng.randint(1, den_max)))
    return (Fraction(0),) + tuple(sorted(values)) + (None,)


#: model-fib's random lambdas share one denominator, a prime in 907..997, and
#: have distinct numerators in 900..1000: every lambda is reduced, near 1 and
#: about as large as any other, so the cost of a request varies little with
#: the seed.
PRIMES = (907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997)


def steady_random_lambdas(rng: random.Random, n: int):
    q = rng.choice(PRIMES)
    numerators = rng.sample([p for p in range(900, 1001) if p != q], n)
    return (Fraction(0),) + tuple(Fraction(p, q) for p in sorted(numerators)) + (None,)


def random_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 10**6), rng.randint(10**6, 2 * 10**6))


def model_request(rng, cmd: str, seq, lambdas, fmt: str, label: str) -> Request:
    argv = [cmd, "--seq", _fmt_seq(seq), "--format", fmt]
    if lambdas is not None:
        argv += ["--lambda", _fmt_lambdas(lambdas)]
    t = random_point(rng)
    lams = lambdas or default_lambdas(len(seq) - 1)
    build = analyze_check if cmd == "analyze" else equation_check
    return Request(label, tuple(argv), build(seq, lams, t, fmt))


#: One deck of regular analyze-mix shapes: (command, format, lambda).  No
#: usage data exists, so every choice gets an equal share: each command a
#: quarter, each format a command renders an equal part of that quarter, and,
#: for the commands that take lambdas, default and random lambdas half each.
#: deform-check and schedule accept --format latex but print their text
#: report for it, so they render two formats.
ANALYZE_DECK = (
    [(cmd, fmt, lam) for cmd in ("analyze", "equation") for fmt in ("text", "json", "latex")
     for lam in ("default", "random")]
    + [(cmd, fmt, "default") for cmd in ("deform-check", "schedule") for fmt in ("text", "json")] * 3
)

#: The huge-rational lambda shape on (1, 2, 5, 3, 1): three interior lambdas
#: of HUGE_DIGITS digits.  Its largest coefficient has about 7 * HUGE_DIGITS
#: digits, kept under CPython's 4300-digit int-to-str limit so that no
#: request of a timed workload fails; the self-test runs the failing size.
HUGE_SEQ = (1, 2, 5, 3, 1)
HUGE_DIGITS = 500


def huge_lambdas(rng: random.Random, digits: int) -> tuple[Fraction | None, ...]:
    low = 10 ** (digits - 1)
    values: set[int] = set()
    while len(values) < 3:
        values.add(rng.randrange(low, 10 * low))
    return (Fraction(0), Fraction(1)) + tuple(Fraction(v) for v in sorted(values)) + (None,)


def invalid_request(rng: random.Random, kind: int) -> Request:
    seq = random_path(rng, rng.randint(3, 8))
    s = _fmt_seq(seq)
    n = len(seq) - 1
    decreasing = _fmt_lambdas((Fraction(0),) + tuple(Fraction(i) for i in range(n, 0, -1)) + (None,))
    cases = (
        ("last-entry", ("analyze", "--seq", s + ",2")),
        ("first-entry", ("equation", "--seq", "2," + s)),
        ("token", ("deform-check", "--seq", s.replace(",", ",x,", 1))),
        ("zero-entry", ("schedule", "--seq", "1,0," + s)),
        ("unreachable", ("analyze", "--seq", "1,2,2,1", "--format", "json")),
        ("lambda-order", ("equation", "--seq", s, "--lambda", decreasing)),
        ("lambda-count", ("analyze", "--seq", s, "--lambda", "0,1,inf")),
        ("c-value", ("equation", "--seq", s, "--c", "2")),
    )
    name, argv = cases[kind % len(cases)]
    return Request(f"invalid/{name}", argv, expect_silent, expect_exit=2)


def analyze_mix(seed: int, size: int = 1000, n_max: int = 14) -> Workload:
    rng = random.Random(f"analyze-mix/{seed}")
    n_values = range(3, n_max + 1)
    # 2% invalid requests; the huge-lambda shape gets the same small share,
    # an assumed figure for lack of usage data
    special = size // 50
    regular = size - 2 * special
    shapes = (ANALYZE_DECK * (regular // len(ANALYZE_DECK) + 1))[:regular]
    ns = (list(n_values) * (regular // len(n_values) + 1))[:regular]
    rng.shuffle(shapes)
    rng.shuffle(ns)
    requests = []
    for (cmd, fmt, lam), n in zip(shapes, ns):
        seq = random_path(rng, n)
        lambdas = random_lambdas(rng, n, 100, 12) if lam == "random" else None
        requests.append(model_request(rng, cmd, seq, lambdas, fmt, f"{cmd}/{fmt}/{lam}")
                        if cmd in ("analyze", "equation") else
                        Request(f"{cmd}/{fmt}", (cmd, "--seq", _fmt_seq(seq), "--format", fmt),
                                (deform_check if cmd == "deform-check" else schedule_check)(seq, fmt)))
    for i in range(special):
        requests.append(invalid_request(rng, i))
        cmd = ("analyze", "equation")[i % 2]
        fmt = ("text", "json", "latex")[i % 3]
        requests.append(model_request(rng, cmd, HUGE_SEQ, huge_lambdas(rng, HUGE_DIGITS), fmt,
                                      f"{cmd}/{fmt}/huge"))
    rng.shuffle(requests)
    params = {"requests_per_pass": size, "n": [3, n_max], "invalid_share": special / size,
              "huge_lambda_share": special / size, "huge_lambda_digits": HUGE_DIGITS}
    return Workload("analyze-mix", requests, params)


def model_fib(seed: int, default_ns=(10, 11, 12),
              random_shapes=((10, "json"), (10, "text"), (11, "json"))) -> Workload:
    from minitwistor.catalog import family_fibonacci  # inputs only; the oracles stay independent

    rng = random.Random(f"model-fib/{seed}")
    shapes = [(n, fmt, False) for n in default_ns for fmt in ("json", "text")]
    shapes += [(n, fmt, True) for n, fmt in random_shapes]
    requests = []
    for n, fmt, random_lambda in shapes:
        lambdas = steady_random_lambdas(rng, n) if random_lambda else None
        label = f"equation/{fmt}/{'random' if random_lambda else 'default'}/n{n}"
        requests.append(model_request(rng, "equation", family_fibonacci(n), lambdas, fmt, label))
    rng.shuffle(requests)
    params = {"requests_per_pass": len(requests), "default_lambda_n": list(default_ns),
              "random_lambda_shapes": [f"n{n}/{fmt}" for n, fmt in random_shapes],
              "random_lambda": "p_i/q, distinct p_i in 900..1000, one prime q in 907..997"}
    return Workload("model-fib", requests, params)


def catalog_check_u1(n: int, state: dict):
    def check(out: str) -> None:
        lines = out.splitlines()
        head = re.fullmatch(rf"n = {n}: delta = (\d+) circle-action classes", lines[0])
        if head is None:
            raise CheckError(f"catalog header {lines[0][:60]!r}")
        _expect(f"delta({n})", int(head[1]), KNOWN_DELTA[n])
        _expect("class lines", len(lines) - 1, KNOWN_DELTA[n])
        previous = None
        for line in lines[1:]:
            row = re.fullmatch(r"  ([\d,]+)  members=(\d+) m=(\d+) slack=(-|\d+)", line)
            if row is None:
                raise CheckError(f"class line {line[:60]!r}")
            seq = tuple(int(k) for k in row[1].split(","))
            if len(seq) != n + 1 or seq > seq[::-1] or (previous is not None and seq <= previous):
                raise CheckError(f"class {row[1]} is not a new canonical level-{n} sequence")
            _expect(f"m of {row[1]}", int(row[3]), closed_forms(seq)[0])
            previous = seq
        state[n] = out
    return check


def catalog_check_hit(n: int, state: dict):
    def check(out: str) -> None:
        if out != state.get(n):
            raise CheckError(f"cache hit at n = {n} differs from the miss")
    return check


def catalog_check_marked(n: int):
    def check(out: str) -> None:
        lines = out.splitlines()
        _expect("marked header", lines[0], f"n = {n}: {marked_count(n)} marked sequences up to reversal")
        _expect("marked lines", len(lines) - 1, marked_count(n))
        previous = None
        for line in lines[1:]:
            seq = tuple(int(k) for k in line.strip().split(","))
            if (len(seq) != n + 1 or seq[0] != 1 or seq[-1] != 1 or seq > seq[::-1]
                    or (previous is not None and seq <= previous)):
                raise CheckError(f"marked line {line[:60]!r} out of order or shape")
            previous = seq
    return check


def catalog(seed: int, levels=(8, 9, 10)) -> Workload:
    rng = random.Random(f"catalog/{seed}")
    order = rng.sample(list(levels), len(levels))
    state: dict = {}
    requests = []
    for n in order:
        u1 = ("catalog", "--n", str(n), "--cache-dir", "{cache_dir}")
        requests += [
            Request(f"catalog/miss/n{n}", u1, catalog_check_u1(n, state), fresh=True),
            Request(f"catalog/hit/n{n}", u1, catalog_check_hit(n, state)),
            Request(f"catalog/marked/n{n + 1}",
                    ("catalog", "--classes", "marked", "--n", str(n + 1), "--no-cache"),
                    catalog_check_marked(n + 1)),
        ]
    params = {"requests_per_pass": len(requests), "levels": order}
    return Workload("catalog", requests, params)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's request pass; ``tiny`` shrinks it for the self-test."""
    if name == "analyze-mix":
        return analyze_mix(seed, size=100, n_max=8) if tiny else analyze_mix(seed)
    if name == "model-fib":
        if tiny:
            return model_fib(seed, (6, 7, 8), ((6, "json"), (6, "text"), (7, "json")))
        return model_fib(seed)
    if name == "catalog":
        return catalog(seed, (4, 5, 6)) if tiny else catalog(seed)
    raise ValueError(f"unknown workload {name!r}")

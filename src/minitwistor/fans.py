"""Half-fans of the symmetric toric surfaces behind torus actions on nCP^2.

The surfaces in question carry an anticanonical cycle of 2(n+2) rational
curves, and their fan is centrally symmetric: it is determined by the n+2
primitive lattice rays v_1, ..., v_{n+2} filling one half-turn (the other half
is the negation).  The dictionary with weight sequences is through cross
determinants: marking a ray v and listing |det(v, w)| over the next n+1 rays
of the full cycle gives the weights (k_2, ..., k_{n+2}) of the circle subgroup
fixing the marked component, and conversely a weight sequence determines the
half-fan up to lattice automorphism.  The normalization v_1 = (1,0),
v_2 = (0,1) pins that ambiguity down and makes reconstruction deterministic.

Integers are arbitrary precision throughout: weights grow like Fibonacci
numbers along the extreme families, so fixed-width arithmetic is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInvariantError, InvalidFanError, InvalidSequenceError

Ray = tuple[int, int]


def det(u: Ray, v: Ray) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def _neg(v: Ray) -> Ray:
    return (-v[0], -v[1])


@dataclass(frozen=True)
class HalfFan:
    """Ordered primitive rays v_1, ..., v_{n+2} spanning half of a smooth
    complete centrally-symmetric fan.

    Consecutive rays are unimodular (det = 1), all rays lie strictly on the
    positive side of v_1, and the turn closes up against -v_1.  Doubling by
    negation yields the complete fan with 2(n+2) rays, one per component of
    the anticanonical cycle.
    """

    rays: tuple[Ray, ...]

    def __post_init__(self) -> None:
        rays = self.rays
        if len(rays) < 2:
            raise InvalidFanError("a half-fan needs at least two rays")
        for v in rays:
            if v == (0, 0):
                raise InvalidFanError("zero vector is not a ray")
            if math.gcd(abs(v[0]), abs(v[1])) != 1:
                raise InvalidFanError(f"ray {v} is not primitive")
        for a, b in zip(rays, rays[1:]):
            if det(a, b) != 1:
                raise InvalidFanError(f"consecutive rays {a}, {b} are not unimodular")
        for v in rays[1:]:
            if det(rays[0], v) <= 0:
                raise InvalidFanError(f"ray {v} leaves the half-turn of {rays[0]}")
        if det(rays[-1], _neg(rays[0])) != 1:
            raise InvalidFanError("half-turn does not close unimodularly")

    @property
    def n(self) -> int:
        return len(self.rays) - 2

    def full_cycle(self) -> tuple[Ray, ...]:
        """All 2(n+2) rays of the doubled fan, in cyclic angular order."""
        return self.rays + tuple(_neg(v) for v in self.rays)


def validate_sequence(seq: tuple[int, ...]) -> tuple[Ray, ...]:
    """Raise InvalidSequenceError naming the rule a weight sequence breaks.

    Valid sequences are exactly those reachable from (1) by mediant
    insertions, equivalently those whose unimodular ray chain closes over the
    integers.  Returns that chain: the rays v_1, ..., v_{n+2} of the
    normalized half-fan.
    """
    if len(seq) == 0:
        raise InvalidSequenceError("sequence must be non-empty")
    for entry in seq:
        if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
            raise InvalidSequenceError("entries must be positive integers")
    if seq[0] != 1:
        raise InvalidSequenceError("k_2 must equal 1")
    if seq[-1] != 1:
        raise InvalidSequenceError("k_{n+2} must equal 1")
    return _ray_chain(seq)


def _ray_chain(seq: tuple[int, ...]) -> tuple[Ray, ...]:
    # v_1 = (1,0), v_2 = (0,1); second coordinates are the weights, first
    # coordinates solve det(v_i, v_{i+1}) = 1.
    rays: list[Ray] = [(1, 0), (0, 1)]
    x = 0
    previous = seq[0]
    for k in seq[1:]:
        numerator = x * k - 1
        x = numerator // previous
        if x * previous != numerator:
            raise InvalidSequenceError(
                f"not reachable by mediant insertions (ray chain breaks at k_{len(rays) + 1})"
            )
        rays.append((x, k))
        previous = k
    return tuple(rays)


def fan_from_sequence(seq: tuple[int, ...]) -> HalfFan:
    """Reconstruct the normalized half-fan of a weight sequence.

    The result satisfies v_1 = (1,0), v_2 = (0,1) and det(v_1, v_i) = k_i;
    an InvalidSequenceError reports the failed validity rule otherwise.
    """
    return HalfFan(validate_sequence(seq))


def sequence_from_fan(fan: HalfFan, marked: int) -> tuple[int, ...]:
    """Weight sequence of the circle subgroup fixing the marked component.

    ``marked`` is 1-based; the marked ray becomes position 1 of a cyclic
    renumbering of the full 2(n+2)-ray fan, and k_i = |det(v_marked, v_i)| is
    read off the next n+1 rays.  Marking the negated ray gives the same
    sequence, so 1 <= marked <= n+2 covers everything.
    """
    if not 1 <= marked <= fan.n + 2:
        raise IndexError(f"marked index {marked} out of range 1..{fan.n + 2}")
    cycle = fan.full_cycle()
    base = cycle[marked - 1]
    size = len(cycle)
    return tuple(
        abs(det(base, cycle[(marked - 1 + d) % size])) for d in range(1, fan.n + 2)
    )


def self_intersections(fan: HalfFan) -> tuple[int, ...]:
    """Self-intersection numbers of the cycle components C_1, ..., C_{n+2}.

    Entry i solves v_{i-1} + v_{i+1} = -(C_i)^2 v_i, where the neighbors of
    the boundary rays wrap through the negated conjugate half.  The doubled
    cycle satisfies sum (C_i)^2 = 12 - 6(n+2), i.e. -3n per half.
    """
    rays = fan.rays
    count = len(rays)
    values = []
    for i in range(count):
        left = rays[i - 1] if i > 0 else _neg(rays[-1])
        right = rays[i + 1] if i + 1 < count else _neg(rays[0])
        sx, sy = left[0] + right[0], left[1] + right[1]
        vx, vy = rays[i]
        if sx * vy != sy * vx:
            raise InternalInvariantError(f"neighbors of ray {i + 1} are not collinear with it")
        if vx != 0:
            if sx % vx:
                raise InternalInvariantError(f"non-integral self-intersection at ray {i + 1}")
            a = -(sx // vx)
        else:
            if sy % vy:
                raise InternalInvariantError(f"non-integral self-intersection at ray {i + 1}")
            a = -(sy // vy)
        values.append(a)
    if sum(values) != -3 * fan.n:
        raise InternalInvariantError("self-intersections do not sum to -3n over the half cycle")
    return tuple(values)

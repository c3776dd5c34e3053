"""Exception types shared across the library."""


class InvalidSequenceError(ValueError):
    """A weight sequence violates a validity rule; the message names the rule."""


class InvalidFanError(ValueError):
    """A ray list does not form a valid half-fan."""


class InvalidParameterError(ValueError):
    """A user-supplied parameter (conformal invariant, sign, ...) is malformed."""


class InternalInvariantError(RuntimeError):
    """A provably-true structural identity failed; always an implementation bug."""


def invariant_violation(stage: str, seq: tuple[int, ...], detail: str) -> InternalInvariantError:
    """An InternalInvariantError naming the stage and the weight sequence it
    failed on, as ``stage: (k_2,...,k_{n+2}): detail``."""
    return InternalInvariantError(f"{stage}: ({','.join(str(k) for k in seq)}): {detail}")

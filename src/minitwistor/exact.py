"""Exact scalars: arbitrary-precision rationals plus a distinguished infinity.

Every number the library emits is a ``fractions.Fraction`` or the sentinel
``INF``; floats never appear, so all outputs are bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameterError


class Infinity:
    """Point at infinity on the parameter line; compares above every rational."""

    _singleton = None

    def __new__(cls) -> "Infinity":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(("minitwistor", "inf"))

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True


INF = Infinity()

Scalar = Fraction | Infinity


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p" or "inf" into an exact scalar."""
    t = text.strip()
    if t == "inf":
        return INF
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            return Fraction(_parse_int(num), _parse_int(den))
        return Fraction(_parse_int(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse rational {_quote(text)}") from exc


#: Error messages quote at most this many characters of a token.
_QUOTE_CHARS = 40


def _quote(text: str) -> str:
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


#: Digit strings of at most this many characters convert with one int()
#: call, well inside CPython's default 4300-digit limit.
_CHUNK_DIGITS = 1233


def _parse_int(text: str) -> int:
    """int(text), whatever the interpreter's str-to-int digit limit.

    Everything int() accepts takes that path; a plain, optionally signed
    ASCII digit string that int() refuses for its length is split in half,
    recursively, so every int() call stays under the limit.
    """
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise
        value = _join_digits(digits)
        return -value if text[0] == "-" else value


def _join_digits(digits: str) -> int:
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _join_digits(digits[:-half]) * 10**half + _join_digits(digits[-half:])


#: Integers of at most this many bits (about 1233 digits) convert with one
#: str() call, well inside CPython's default 4300-digit limit.
_CHUNK_BITS = 4096


def decimal(value: int) -> str:
    """Decimal digits of an integer, whatever the interpreter's int-to-str
    digit limit (``sys.set_int_max_str_digits``).

    Values str() accepts take that fast path; larger ones are split at a
    power of ten near half their digits, recursively, so every str() call
    stays under the limit.
    """
    try:
        return str(value)
    except ValueError:
        if value < 0:
            return "-" + _split_decimal(-value)
        return _split_decimal(value)


def _split_decimal(value: int) -> str:
    if value.bit_length() <= _CHUNK_BITS:
        return str(value)
    # 1233 / 4096 is just below log10(2), so half is under half the digits
    half = (value.bit_length() * 1233 >> 12) // 2
    high, low = divmod(value, 10**half)
    return _split_decimal(high) + _split_decimal(low).zfill(half)


def format_scalar(value: Scalar | int) -> str:
    """Render an exact scalar as reduced "p/q", a plain integer, or "inf"."""
    if isinstance(value, Infinity):
        return "inf"
    # a Fraction is read as it is; only an int is converted
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return decimal(f.numerator)
    return f"{decimal(f.numerator)}/{decimal(f.denominator)}"

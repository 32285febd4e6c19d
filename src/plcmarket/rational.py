"""Exact rational parsing and formatting.

Every value in this package's interface is a `fractions.Fraction`; floats
are rejected at the boundary so no rounding can leak into comparisons.
The hot loops of `verify` (the demand core and the circulation) count in
Python ints scaled by common denominators, which is just as exact.
"""

import sys
from decimal import Decimal
from fractions import Fraction

from .errors import InputError, InvalidMarket


def parse_rational(value) -> Fraction:
    """Parse an int, a "num/den" string, or an integer string into a Fraction.

    Unreduced forms are auto-reduced; zero denominators and floats are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(f"floats are not accepted as rationals: {value!r}")
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num_s, den_s = text.split("/", 1)
                num, den = int(num_s), int(den_s)
                if den == 0:
                    raise InputError(f"zero denominator in rational: {value!r}")
                return Fraction(num, den)
            return Fraction(int(text))
        except ValueError as exc:
            digits = max((p.strip().lstrip("+-") for p in text.split("/", 1)), key=len)
            limit = sys.get_int_max_str_digits()  # 0 means no limit
            if digits.isdecimal() and 0 < limit < len(digits):
                raise InputError(
                    f"cannot parse rational {text[:20]!r}... ({len(digits)} digits): Python converts"
                    f" int strings of at most {limit} digits (sys.get_int_max_str_digits())"
                ) from exc
            raise InputError(f"cannot parse rational: {value!r}") from exc
    raise InputError(f"cannot parse rational from {type(value).__name__}: {value!r}")


def parse_epsilon(value) -> Fraction:
    """Parse an exact nonnegative tolerance; floats raise InputError and a
    negative value raises InvalidMarket."""
    eps = parse_rational(value)
    if eps < 0:
        raise InvalidMarket(f"epsilon must be nonnegative, got {value!r}")
    return eps


def format_rational(q: Fraction) -> str:
    """Render a Fraction as the canonical "num/den" string, of any size: a
    numerator or denominator with more digits than
    sys.get_int_max_str_digits() is written through `decimal.Decimal`, which
    converts an int exactly and is not bound by that limit."""
    if type(q) is not Fraction:
        q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"

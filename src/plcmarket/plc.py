"""Piecewise-linear concave utility pieces.

A one-dimensional utility piece is either the zero function or a concave
piecewise-linear function given by strictly decreasing nonnegative slopes
``theta_0 > theta_1 > ... > theta_t >= 0`` and strictly increasing positive
breakpoints ``0 < a_1 < ... < a_t``.  The function starts at the origin, is
continuous, and its last segment extends to infinity.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    LengthMismatch,
    NegativeArgument,
    NegativeSlope,
    NonDecreasingSlopes,
    NonIncreasingBreakpoints,
)
from .rational import parse_rational


@dataclass(frozen=True)
class PLCFunction:
    """Validated utility piece; ``slopes == ()`` encodes the zero function."""

    slopes: tuple[Fraction, ...]
    breaks: tuple[Fraction, ...]

    @property
    def is_zero(self) -> bool:
        return not self.slopes

    @property
    def is_strictly_monotone(self) -> bool:
        """True iff marginal utility never vanishes (last slope positive)."""
        return bool(self.slopes) and self.slopes[-1] > 0

    @property
    def n_segments(self) -> int:
        return len(self.slopes)

    @property
    def satiation_point(self) -> Fraction | None:
        """Smallest x beyond which the function is flat; None if never flat."""
        if self.is_zero:
            return Fraction(0)
        if self.slopes[-1] > 0:
            return None
        return self.breaks[-1]

    def __call__(self, x: Fraction) -> Fraction:
        if x < 0:
            raise NegativeArgument(f"PLC function evaluated at {x}")
        value = Fraction(0)
        prev = Fraction(0)
        for i, theta in enumerate(self.slopes):
            end = self.breaks[i] if i < len(self.breaks) else None
            if end is None or x <= end:
                return value + theta * (x - prev)
            value += theta * (end - prev)
            prev = end
        return value  # zero function


ZERO_PLC = PLCFunction((), ())


def validate_plc(slopes, breaks) -> PLCFunction:
    """Validate a raw slope/breakpoint representation.

    Returns the zero function when all slopes are zero and at most one slope
    is given; otherwise the lists must satisfy the concavity contract:
    strictly decreasing nonnegative slopes, strictly increasing positive
    breakpoints, and one more slope than breakpoints.
    """
    slopes = tuple(map(parse_rational, slopes))
    breaks = tuple(map(parse_rational, breaks))
    if len(slopes) <= 1 and all(s == 0 for s in slopes):
        if breaks:
            raise LengthMismatch("zero function takes no breakpoints")
        return ZERO_PLC
    if len(slopes) != len(breaks) + 1:
        raise LengthMismatch(
            f"need one more slope than breakpoints, got {len(slopes)} slopes"
            f" and {len(breaks)} breakpoints"
        )
    for s in slopes:
        if s < 0:
            raise NegativeSlope(f"slope {s} is negative")
    for lo, hi in zip(slopes[1:], slopes):
        if lo >= hi:
            raise NonDecreasingSlopes(f"slopes must strictly decrease, got {hi} then {lo}")
    prev = Fraction(0)
    for a in breaks:
        if a <= prev:
            raise NonIncreasingBreakpoints(
                f"breakpoints must be positive and strictly increasing, got {a} after {prev}"
            )
        prev = a
    return PLCFunction(slopes, breaks)


def linear_plc(theta) -> PLCFunction:
    """A ray of slope theta through the origin; slope 0 gives the zero function."""
    theta = parse_rational(theta)
    if theta == 0:
        return ZERO_PLC
    return validate_plc((theta,), ())

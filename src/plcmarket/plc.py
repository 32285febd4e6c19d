"""Piecewise-linear concave utility pieces.

A one-dimensional utility piece is either the zero function or a concave
piecewise-linear function given by strictly decreasing nonnegative slopes
``theta_0 > theta_1 > ... > theta_t >= 0`` and strictly increasing positive
breakpoints ``0 < a_1 < ... < a_t``.  The function starts at the origin, is
continuous, and its last segment extends to infinity.

The demand core reads a piece in integers, as `PLCFunction.scaled_to` gives
it on a market's amount and slope scales (see `model.Market.view`).
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
    """Validated utility piece; ``slopes == ()`` encodes the zero function.

    Construction parses every entry with `parse_rational` (floats and bools
    raise InputError) and turns at most one zero slope into the zero
    function; any other piece must satisfy the concavity contract: strictly
    decreasing nonnegative slopes, strictly increasing positive breakpoints,
    and one more slope than breakpoints.
    """

    slopes: tuple[Fraction, ...]
    breaks: tuple[Fraction, ...]

    def __post_init__(self):
        slopes = tuple(map(parse_rational, self.slopes))
        breaks = tuple(map(parse_rational, self.breaks))
        if len(slopes) <= 1 and all(s == 0 for s in slopes):
            if breaks:
                raise LengthMismatch("zero function takes no breakpoints")
            slopes = ()
        elif len(slopes) != len(breaks) + 1:
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
        prev = 0
        for a in breaks:
            if a <= prev:
                raise NonIncreasingBreakpoints(
                    f"breakpoints must be positive and strictly increasing, got {a} after {prev}"
                )
            prev = a
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "breaks", breaks)

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

    def scaled_to(self, den: int, slope_den: int):
        """(satiation, segments): the piece in integers, breakpoint amounts in
        units of 1/den and slopes in units of 1/slope_den, each a multiple of
        the denominators it scales.  ``segments`` lists the positive-slope
        segments as (segment index, slope, cap), the cap None on an uncapped
        last segment; ``satiation`` is None when the piece never turns flat."""
        ends = [a.numerator * (den // a.denominator) for a in self.breaks]
        segments = []
        prev = 0
        for i, theta in enumerate(self.slopes):
            if theta == 0:
                break  # only the last slope can be zero
            end = ends[i] if i < len(ends) else None
            slope = theta.numerator * (slope_den // theta.denominator)
            segments.append((i, slope, None if end is None else end - prev))
            prev = end
        satiation = None if self.is_strictly_monotone else (ends[-1] if ends else 0)
        return satiation, tuple(segments)

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
    """The piece given by raw slope and breakpoint lists; `PLCFunction`
    parses and checks them."""
    return PLCFunction(tuple(slopes), tuple(breaks))


def linear_plc(theta) -> PLCFunction:
    """A ray of slope theta through the origin; slope 0 gives the zero function."""
    return PLCFunction((theta,), ())

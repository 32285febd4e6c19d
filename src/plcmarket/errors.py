"""Exception taxonomy shared across the package."""


class MarketError(Exception):
    """Base class for all domain errors raised by this package."""


class InputError(MarketError):
    """Malformed external input (bad rational literal, schema violation)."""


class PLCValidationError(MarketError):
    """A slope/breakpoint representation is not a valid concave PLC function."""


class NonDecreasingSlopes(PLCValidationError):
    pass


class NonIncreasingBreakpoints(PLCValidationError):
    pass


class NegativeSlope(PLCValidationError):
    pass


class LengthMismatch(PLCValidationError):
    pass


class NegativeArgument(MarketError):
    """PLC functions are defined on [0, +inf) only."""


class AllZeroPrices(MarketError):
    pass


class InvalidMarket(MarketError):
    """Market-level structural invariant violated."""


class InvalidPriceVector(MarketError):
    pass


class UnboundedDemand(MarketError):
    """A good with zero price is strictly wanted, so no optimal bundle exists.

    Carries the offending trader and good indices for diagnostics.
    """

    def __init__(self, trader: int | None, good: int):
        self.trader = trader
        self.good = good
        where = f"trader {trader}, " if trader is not None else ""
        super().__init__(f"unbounded demand ({where}good {good} has zero price)")


class NTooSmall(MarketError):
    pass


class NTooLarge(MarketError):
    pass


class NotNormalized(MarketError):
    """Game payoff entries must lie in [-1, 1]."""


class NotSparse(MarketError):
    """Game payoff rows/columns exceed the nonzero budget."""


class ShapeMismatch(MarketError):
    pass


class InvalidStrategy(MarketError):
    pass


class DegenerateExtraction(MarketError):
    """Price vector encodes the zero vector on a strategy block."""


class BoxDimensionMismatch(MarketError):
    pass


class GridBudgetExceeded(MarketError):
    pass


class InternalInvariantViolation(MarketError):
    """A self-check that should be unconditionally true failed; indicates a bug."""

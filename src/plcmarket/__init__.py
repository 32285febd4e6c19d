"""Verifier-first toolkit for exchange markets with additively separable
piecewise-linear concave utilities, the price-regulating market family, and
the reduction from sparse bimatrix games to 2-linear markets."""

from .clearing import APPROXIMATE, EXACT, QUASI, Certificate, GoodBalance, verify
from .demand import Bundle
from .games import (
    BimatrixGame,
    MixedStrategy,
    WsneResult,
    check_wsne,
    mixed,
    solve_game_support_enum,
    validate_game,
)
from .model import (
    Market,
    MarketClassReport,
    PriceVector,
    TraderSpec,
    classify_market,
    is_strongly_connected,
    normalize_prices,
    prices,
)
from .plc import PLCFunction, ZERO_PLC, linear_plc, validate_plc
from .rational import format_rational, parse_rational
from .reduction import Extraction, ReducedMarketMeta, build_reduced_market, extract_strategies
from .regulating import build_mn, check_regulation_box
from .search import SearchConfig, SearchReport, search_equilibrium, unit_box

__all__ = [
    "APPROXIMATE",
    "EXACT",
    "QUASI",
    "BimatrixGame",
    "Bundle",
    "Certificate",
    "Extraction",
    "GoodBalance",
    "Market",
    "MarketClassReport",
    "MixedStrategy",
    "PLCFunction",
    "PriceVector",
    "ReducedMarketMeta",
    "SearchConfig",
    "SearchReport",
    "TraderSpec",
    "WsneResult",
    "ZERO_PLC",
    "build_mn",
    "build_reduced_market",
    "check_regulation_box",
    "check_wsne",
    "classify_market",
    "extract_strategies",
    "format_rational",
    "is_strongly_connected",
    "linear_plc",
    "mixed",
    "normalize_prices",
    "parse_rational",
    "prices",
    "search_equilibrium",
    "solve_game_support_enum",
    "unit_box",
    "validate_game",
    "validate_plc",
    "verify",
]

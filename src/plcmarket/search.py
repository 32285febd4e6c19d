"""Desk-scale equilibrium search: coarse grid plus local refinement.

Finding approximate equilibria of reduced markets at the headline precision
is the hard problem itself, so this search is exploratory by design: it
scores grid points by the worst relative imbalance of canonical demand,
keeps the best incumbent, shrinks the box around it, and only ever claims
acceptance when the full verifier accepts the incumbent.  Grid points are
grid_k-adic rationals, so every evaluation downstream stays exact.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .clearing import APPROXIMATE, Certificate, imbalance_profile, verify
from .errors import AllZeroPrices, BoxDimensionMismatch, GridBudgetExceeded, InvalidMarket, UnboundedDemand
from .model import Market, PriceVector, normalize_prices


MAX_GRID_POINTS = 10**7  # bounds the work one grid_k from outside can ask for


@dataclass(frozen=True)
class SearchConfig:
    box: tuple[tuple[Fraction, Fraction], ...]
    grid_k: int = 4
    refine_rounds: int = 2
    epsilon: Fraction = Fraction(0)


def unit_box(n_goods: int, lo=1, hi=2) -> tuple[tuple[Fraction, Fraction], ...]:
    """The default [1, 2]^n search box the regulation property justifies."""
    return tuple((Fraction(lo), Fraction(hi)) for _ in range(n_goods))


@dataclass(frozen=True)
class SearchReport:
    best_price: PriceVector | None
    best_max_relative_imbalance: Fraction | None  # None = nothing scoreable
    accepted: bool
    trace: tuple[tuple[int, Fraction | None], ...]
    certificate: Certificate | None = None


def _score(report) -> Fraction | None:
    """Worst relative imbalance; None when a zero-supply good is violated."""
    worst = Fraction(0)
    for row in report:
        if row.supply == 0:
            if row.allocated != 0:
                return None
            continue
        worst = max(worst, abs(row.imbalance) / row.supply)
    return worst


def _axis_points(lo: Fraction, hi: Fraction, grid_k: int):
    if lo == hi:
        return [lo]
    step = (hi - lo) / grid_k
    return [lo + step * s for s in range(grid_k + 1)]


def search_equilibrium(m: Market, cfg: SearchConfig) -> SearchReport:
    if len(cfg.box) != m.n_goods:
        raise BoxDimensionMismatch(
            f"box has {len(cfg.box)} coordinates for {m.n_goods} goods"
        )
    if cfg.grid_k < 1:
        raise GridBudgetExceeded("grid_k must be at least 1")
    if cfg.refine_rounds < 0:
        raise GridBudgetExceeded("refine_rounds must be nonnegative")
    if cfg.epsilon < 0:
        raise InvalidMarket("epsilon must be nonnegative")
    if any(lo < 0 or hi < lo for lo, hi in cfg.box):
        raise BoxDimensionMismatch("box intervals must satisfy 0 <= lo <= hi")
    if all(hi == 0 for _, hi in cfg.box):
        raise BoxDimensionMismatch("box holds no nonzero price vector")
    if (cfg.grid_k + 1) ** m.n_goods > MAX_GRID_POINTS:
        raise GridBudgetExceeded(
            f"grid of {(cfg.grid_k + 1) ** m.n_goods} points exceeds cap {MAX_GRID_POINTS}"
        )

    # Scores are scale-invariant, so only the final incumbent is normalized;
    # rescoring the last box scored could never lower the incumbent's score.
    box, scored = cfg.box, None
    best_raw: tuple[Fraction, ...] | None = None
    best_score: Fraction | None = None
    trace = []
    for rnd in range(cfg.refine_rounds + 1):
        if box != scored:
            axes = [_axis_points(lo, hi, cfg.grid_k) for lo, hi in box]
            for point in product(*axes):
                try:
                    profile = imbalance_profile(m, PriceVector(point), cfg.epsilon)
                except (AllZeroPrices, UnboundedDemand):
                    continue  # the origin, or a strictly wanted free good
                score = _score(profile)
                if score is not None and (best_score is None or score < best_score):
                    best_score, best_raw = score, point
            scored = box
        trace.append((rnd, best_score))
        if best_raw is None:
            continue
        # shrink to one current grid step around the incumbent, clipped to its box
        box = tuple(
            (
                max(lo, center - (hi - lo) / cfg.grid_k),
                min(hi, center + (hi - lo) / cfg.grid_k),
            )
            for (lo, hi), center in zip(box, best_raw)
        )

    if best_raw is None:
        return SearchReport(None, None, False, tuple(trace), None)
    best_price = normalize_prices(PriceVector(best_raw))
    cert = verify(m, best_price, APPROXIMATE, cfg.epsilon)
    return SearchReport(best_price, best_score, cert.accepted, tuple(trace), cert)

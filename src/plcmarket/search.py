"""Desk-scale equilibrium search: coarse grid plus local refinement.

Finding approximate equilibria of reduced markets at the headline precision
is the hard problem itself, so this search is exploratory by design: it
scores grid points by the worst relative imbalance of canonical demand,
keeps the best incumbent, shrinks the box around it, and only ever claims
acceptance when the full verifier accepts the incumbent.  Grid points are
grid_k-adic rationals, so every evaluation downstream stays exact.

Grid points are scored incrementally.  A trader's canonical bundle, and
whether its demand is unbounded, depend only on the prices of its support,
the goods it owns or has a nonzero utility piece on: budget, offers and
forced satiation amounts read nothing else, and the bundle is zero off the
support.  So each trader keeps a memo from the prices on its support to its
bundle restricted to it, and the per-good totals change by exact
differences only when a trader's entry changes.  Memos live for one box, so
a box with axes A_k holds at most sum_i prod_{k in support(i)} |A_k|
entries, and computes that many demands at most, instead of one demand per
trader and grid point; in the paper's reduced markets every trader touches
only a handful of goods.  The scores equal those of imbalance_profile.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .clearing import APPROXIMATE, Certificate, verify
from .demand import canonical_bundle, optimal_demand
from .errors import AllZeroPrices, BoxDimensionMismatch, GridBudgetExceeded, InputError, UnboundedDemand
from .model import Market, PriceVector, normalize_prices
from .rational import parse_epsilon, parse_rational


MAX_GRID_POINTS = 10**7  # bounds the work one grid_k from outside can ask for
MAX_REFINE_ROUNDS = 64  # each round can score a new box, so the rounds bound the work too
_UNBOUNDED = object()  # memo entry of a trader whose demand is unbounded


@dataclass(frozen=True)
class SearchConfig:
    box: tuple[tuple[Fraction, Fraction], ...]
    grid_k: int = 4
    refine_rounds: int = 2
    epsilon: Fraction = Fraction(0)


def unit_box(n_goods: int, lo=1, hi=2) -> tuple[tuple[Fraction, Fraction], ...]:
    """The default [1, 2]^n search box the regulation property justifies."""
    lo, hi = parse_rational(lo), parse_rational(hi)
    return tuple((lo, hi) for _ in range(n_goods))


@dataclass(frozen=True)
class SearchReport:
    best_price: PriceVector | None
    best_max_relative_imbalance: Fraction | None  # None = nothing scoreable
    accepted: bool
    trace: tuple[tuple[int, Fraction | None], ...]
    certificate: Certificate | None = None


def _axis_points(lo: Fraction, hi: Fraction, grid_k: int):
    if lo == hi:
        return [lo]
    step = (hi - lo) / grid_k
    return [lo + step * s for s in range(grid_k + 1)]


def grid_scores(m: Market, axes):
    """Yield (p, score) for the grid points in product order, leaving out the
    origin and every point where some trader's demand is unbounded.  The
    score is the worst relative imbalance of canonical demand, None when a
    zero-supply good is allocated."""
    supplies = m.supplies()
    supports = [t.support for t in m.traders]
    memos = [{} for _ in supports]
    contrib = [(Fraction(0),) * len(support) for support in supports]
    totals = [Fraction(0)] * m.n_goods
    for point in product(*axes):
        try:
            p = PriceVector(point)
        except AllZeroPrices:
            continue  # the origin
        for i, support in enumerate(supports):
            key = tuple(map(point.__getitem__, support))
            new = memos[i].get(key)
            if new is None:
                try:
                    x = canonical_bundle(optimal_demand(m.traders[i], p, i)).quantities
                    new = tuple(map(x.__getitem__, support))
                except UnboundedDemand:
                    new = _UNBOUNDED  # a strictly wanted free good
                memos[i][key] = new
            if new is _UNBOUNDED:
                break
            # an entry and its part of the totals only ever change together
            if new is not contrib[i]:
                for k, a, b in zip(support, new, contrib[i]):
                    if a != b:
                        totals[k] += a - b
                contrib[i] = new
        else:
            worst = Fraction(0)
            for a, s in zip(totals, supplies):
                if s != 0:
                    worst = max(worst, abs(a - s) / s)
                elif a != 0:
                    worst = None
                    break
            yield p, worst


def search_equilibrium(m: Market, cfg: SearchConfig) -> SearchReport:
    # ints become Fractions and floats raise InputError, so the grid stays exact
    box = tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in cfg.box)
    eps = parse_epsilon(cfg.epsilon)
    if len(box) != m.n_goods:
        raise BoxDimensionMismatch(
            f"box has {len(box)} coordinates for {m.n_goods} goods"
        )
    for name in ("grid_k", "refine_rounds"):
        value = getattr(cfg, name)
        if type(value) is not int:  # bool is an int subclass, but never a count
            raise InputError(f"{name} must be an integer, got {value!r}")
    if cfg.grid_k < 1:
        raise GridBudgetExceeded("grid_k must be at least 1")
    if not 0 <= cfg.refine_rounds <= MAX_REFINE_ROUNDS:
        raise GridBudgetExceeded(f"refine_rounds must lie in [0, {MAX_REFINE_ROUNDS}], got {cfg.refine_rounds}")
    if any(lo < 0 or hi < lo for lo, hi in box):
        raise BoxDimensionMismatch("box intervals must satisfy 0 <= lo <= hi")
    if all(hi == 0 for _, hi in box):
        raise BoxDimensionMismatch("box holds no nonzero price vector")
    if (cfg.grid_k + 1) ** m.n_goods > MAX_GRID_POINTS:
        raise GridBudgetExceeded(
            f"grid of {(cfg.grid_k + 1) ** m.n_goods} points exceeds cap {MAX_GRID_POINTS}"
        )

    # Scores are scale-invariant, so only the final incumbent is normalized;
    # rescoring the last box scored could never lower the incumbent's score.
    scored = None
    best: PriceVector | None = None
    best_score: Fraction | None = None
    trace = []
    for rnd in range(cfg.refine_rounds + 1):
        if box != scored:
            axes = [_axis_points(lo, hi, cfg.grid_k) for lo, hi in box]
            for p, score in grid_scores(m, axes):
                if score is not None and (best_score is None or score < best_score):
                    best_score, best = score, p
            scored = box
        trace.append((rnd, best_score))
        if best is None:
            continue
        # shrink to one current grid step around the incumbent, clipped to its box
        box = tuple(
            (
                max(lo, center - (hi - lo) / cfg.grid_k),
                min(hi, center + (hi - lo) / cfg.grid_k),
            )
            for (lo, hi), center in zip(box, best.prices)
        )

    if best is None:
        return SearchReport(None, None, False, tuple(trace), None)
    best_price = normalize_prices(best)
    cert = verify(m, best_price, APPROXIMATE, eps)
    return SearchReport(best_price, best_score, cert.accepted, tuple(trace), cert)

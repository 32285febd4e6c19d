"""Exchange-market domain types and structural classification.

A market holds a fixed number of divisible goods and a list of traders, each
with a nonnegative endowment vector and one PLC utility piece per good; a
trader's utility of a bundle is the sum of the per-good pieces.  All
quantities are exact rationals.

Vectors are dense at the API and in files, but in the reduced markets each
trader owns or wants a handful of the N goods.  Off a trader's support (the
goods it owns or has a nonzero utility piece on, computed once) its
endowment and utility pieces are zero, so its budget, offers, forced
purchases and utility read only the support, and the per-trader loops visit
the support instead of all N goods.  Strong connectivity is decided from the
supports too, over the trader-good incidence, so no trader-to-trader edge
is ever built.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import AllZeroPrices, InvalidMarket, InvalidPriceVector, NegativeArgument
from .plc import PLCFunction


@dataclass(frozen=True)
class TraderSpec:
    endowment: tuple[Fraction, ...]
    utilities: tuple[PLCFunction, ...]
    label: str | None = None

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Goods with a nonzero endowment or a nonzero utility piece, ascending."""
        return tuple(
            k for k, (w, f) in enumerate(zip(self.endowment, self.utilities)) if w or not f.is_zero
        )

    def utility(self, quantities) -> Fraction:
        """Additively separable utility of a bundle; pieces off the support
        are zero, but a negative entry anywhere is still an error."""
        for x in quantities:
            if x < 0:
                raise NegativeArgument(f"PLC function evaluated at {x}")
        f = self.utilities
        return sum((f[k](Fraction(quantities[k])) for k in self.support), Fraction(0))


@dataclass(frozen=True)
class Market:
    n_goods: int
    traders: tuple[TraderSpec, ...]

    def __post_init__(self):
        if self.n_goods < 1:
            raise InvalidMarket("market needs at least one good")
        if not self.traders:
            raise InvalidMarket("market needs at least one trader")
        for idx, t in enumerate(self.traders):
            if len(t.endowment) != self.n_goods or len(t.utilities) != self.n_goods:
                raise InvalidMarket(f"trader {idx} has wrong vector length")
            if any(t.endowment[k] < 0 for k in t.support):  # nonzero entries only
                raise InvalidMarket(f"trader {idx} has a negative endowment entry")
        if all(s == 0 for s in self.supplies()):
            raise InvalidMarket("total endowment is zero for every good")

    def supplies(self) -> tuple[Fraction, ...]:
        """Total endowment per good."""
        totals = [Fraction(0)] * self.n_goods
        for t in self.traders:
            endowment = t.endowment
            for k in t.support:
                if endowment[k]:
                    totals[k] += endowment[k]
        return tuple(totals)


@dataclass(frozen=True)
class PriceVector:
    prices: tuple[Fraction, ...]
    normalized: bool = False

    def __post_init__(self):
        if not self.prices:
            raise InvalidPriceVector("empty price vector")
        if any(p < 0 for p in self.prices):
            raise InvalidPriceVector("negative price")
        if all(p == 0 for p in self.prices):
            raise AllZeroPrices("price vector is all zeros")
        if self.normalized:
            if min(p for p in self.prices if p > 0) != 1:
                raise InvalidPriceVector("normalized flag set but min nonzero price is not 1")

    def __len__(self) -> int:
        return len(self.prices)

    @cached_property
    def free_goods(self) -> tuple[int, ...]:
        return tuple(k for k, q in enumerate(self.prices) if q == 0)

    @cached_property
    def priced_goods(self) -> tuple[int, ...]:
        return tuple(k for k, q in enumerate(self.prices) if q > 0)


def prices(values, normalized: bool = False) -> PriceVector:
    return PriceVector(tuple(Fraction(v) for v in values), normalized)


def normalize_prices(p: PriceVector) -> PriceVector:
    """Scale so the smallest nonzero entry is 1; zero entries are preserved."""
    scale = min(q for q in p.prices if q > 0)
    return PriceVector(tuple(q / scale for q in p.prices), normalized=True)


def is_strongly_connected(m: Market) -> bool:
    """True iff the economy graph (edge i -> j iff trader i owns a good that
    trader j strictly wants) joins every ordered pair of traders.

    Decided from the supports alone, without building any trader edge: one
    breadth-first search from trader 0 forward (trader -> owned good -> its
    wanters) and one in reverse (trader -> wanted good -> its owners), each
    visiting a good once.  Self loops cannot change reachability.
    """
    owns = [[k for k in t.support if t.endowment[k] > 0] for t in m.traders]
    wants = [[k for k in t.support if t.utilities[k].is_strictly_monotone] for t in m.traders]

    def reaches_all(out_goods, in_goods) -> bool:
        holders: list[list[int]] = [[] for _ in range(m.n_goods)]
        for j, goods in enumerate(in_goods):
            for k in goods:
                holders[k].append(j)
        seen = [False] * len(m.traders)
        seen[0] = True
        visited = [False] * m.n_goods
        order = [0]
        for i in order:  # grows while it is walked
            for k in out_goods[i]:
                if not visited[k]:
                    visited[k] = True
                    for j in holders[k]:
                        if not seen[j]:
                            seen[j] = True
                            order.append(j)
        return len(order) == len(m.traders)

    return reaches_all(owns, wants) and reaches_all(wants, owns)


@dataclass(frozen=True)
class MarketClassReport:
    """Structural classification against the sparse 2-linear market contract.

    alpha_bound is the tightest usable bound (the largest first slope) when
    every nonzero utility piece has last slope >= 1, else None.  sparsity_t is
    the largest per-trader support size over endowments and utilities.
    """

    is_2_linear: bool
    alpha_bound: Fraction | None
    sparsity_t: int
    strongly_connected: bool
    alpha_ok: bool
    sparsity_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.is_2_linear and self.alpha_ok and self.sparsity_ok and self.strongly_connected


def classify_market(m: Market, alpha, t: int) -> MarketClassReport:
    alpha = Fraction(alpha)
    two_linear = True
    boundable = True
    max_first_slope = Fraction(0)
    sparsity = 0
    for trader in m.traders:
        endow_support = util_support = 0
        for k in trader.support:
            if trader.endowment[k] > 0:
                endow_support += 1
            f = trader.utilities[k]
            if f.is_zero:
                continue
            util_support += 1
            if f.n_segments > 2:
                two_linear = False
            if f.slopes[-1] < 1:
                boundable = False
            max_first_slope = max(max_first_slope, f.slopes[0])
        sparsity = max(sparsity, endow_support, util_support)
    alpha_bound = max_first_slope if boundable else None
    return MarketClassReport(
        is_2_linear=two_linear,
        alpha_bound=alpha_bound,
        sparsity_t=sparsity,
        strongly_connected=is_strongly_connected(m),
        alpha_ok=boundable and max_first_slope <= alpha,
        sparsity_ok=sparsity <= t,
    )

"""Exchange-market domain types and structural classification.

A market holds a fixed number of divisible goods and a list of traders, each
with a nonnegative endowment vector and one PLC utility piece per good; a
trader's utility of a bundle is the sum of the per-good pieces.  All
quantities are exact rationals.

Vectors are dense at the API and in files, but in the reduced markets each
trader owns or wants a handful of the N goods.  Each trader decides that
once: ``owned`` lists its nonzero endowment entries and ``wanted`` its
nonzero utility pieces, as (good, value) pairs in ascending good order.
Everything zero is left out, so budgets, offers, forced purchases, utility
differences, supplies, classification and strong connectivity read these
two views instead of all N goods.  Strong connectivity is decided over the
trader-good incidence, so no trader-to-trader edge is ever built.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import AllZeroPrices, InvalidMarket, InvalidPriceVector
from .plc import PLCFunction
from .rational import parse_rational


@dataclass(frozen=True)
class TraderSpec:
    endowment: tuple[Fraction, ...]
    utilities: tuple[PLCFunction, ...]
    label: str | None = None

    def __post_init__(self):
        # ints become Fractions; floats and bools raise InputError
        object.__setattr__(self, "endowment", tuple(map(parse_rational, self.endowment)))

    @cached_property
    def owned(self) -> tuple[tuple[int, Fraction], ...]:
        """(good, amount) for each nonzero endowment entry, ascending."""
        return tuple((k, w) for k, w in enumerate(self.endowment) if w)

    @cached_property
    def wanted(self) -> tuple[tuple[int, PLCFunction], ...]:
        """(good, piece) for each nonzero utility piece, ascending."""
        return tuple((k, f) for k, f in enumerate(self.utilities) if not f.is_zero)

    @property
    def support(self) -> tuple[int, ...]:
        """Goods owned or wanted, ascending; the key of the search memo."""
        return tuple(sorted({k for k, _ in self.owned}.union(k for k, _ in self.wanted)))


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
            if any(w < 0 for _, w in t.owned):
                raise InvalidMarket(f"trader {idx} has a negative endowment entry")
        if all(s == 0 for s in self.supplies()):
            raise InvalidMarket("total endowment is zero for every good")

    def supplies(self) -> tuple[Fraction, ...]:
        """Total endowment per good."""
        totals = [Fraction(0)] * self.n_goods
        for t in self.traders:
            for k, w in t.owned:
                totals[k] += w
        return tuple(totals)


@dataclass(frozen=True)
class PriceVector:
    prices: tuple[Fraction, ...]
    normalized: bool = False

    def __post_init__(self):
        # ints become Fractions; floats and bools raise InputError
        object.__setattr__(self, "prices", tuple(map(parse_rational, self.prices)))
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


def prices(values, normalized: bool = False) -> PriceVector:
    return PriceVector(values, normalized)


def normalize_prices(p: PriceVector) -> PriceVector:
    """Scale so the smallest nonzero entry is 1; zero entries are preserved."""
    scale = min(q for q in p.prices if q > 0)
    return PriceVector(tuple(q / scale for q in p.prices), normalized=True)


def is_strongly_connected(m: Market) -> bool:
    """True iff the economy graph (edge i -> j iff trader i owns a good that
    trader j strictly wants) joins every ordered pair of traders.

    Decided from the owned and wanted goods, without building any trader
    edge: one breadth-first search from trader 0 forward (trader -> owned
    good -> its wanters) and one in reverse (trader -> wanted good -> its
    owners), each visiting a good once.  Self loops cannot change
    reachability.
    """
    owns = [[k for k, _ in t.owned] for t in m.traders]
    wants = [[k for k, f in t.wanted if f.is_strictly_monotone] for t in m.traders]

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
        for _, f in trader.wanted:
            if f.n_segments > 2:
                two_linear = False
            if f.slopes[-1] < 1:
                boundable = False
            max_first_slope = max(max_first_slope, f.slopes[0])
        sparsity = max(sparsity, len(trader.owned), len(trader.wanted))
    alpha_bound = max_first_slope if boundable else None
    return MarketClassReport(
        is_2_linear=two_linear,
        alpha_bound=alpha_bound,
        sparsity_t=sparsity,
        strongly_connected=is_strongly_connected(m),
        alpha_ok=boundable and max_first_slope <= alpha,
        sparsity_ok=sparsity <= t,
    )

"""Exchange-market domain types and structural classification.

A market holds a fixed number of divisible goods and a list of traders, each
with a nonnegative endowment and one PLC utility piece per good; a trader's
utility of a bundle is the sum of the per-good pieces.  All quantities are
exact rationals.

In the reduced markets each trader owns or wants a handful of the N goods,
so a trader is its nonzeros: ``owned`` lists its nonzero endowment entries
and ``wanted`` its nonzero utility pieces, as (good, value) pairs in
ascending good order.  Budgets, offers, forced purchases, utility
differences, supplies, classification and strong connectivity read only
these two lists.  A trader's dense rows exist only in market files;
strong connectivity is decided over the trader-good incidence, so no
trader-to-trader edge is ever built.

The demand core and the circulation work on integers.  Each trader, price
vector and market has a ``scaled`` view, built on first use and cached on
the object, so constructing, reducing and reading markets never pays for
it: a trader counts amounts in units of 1/M with M the lcm of its own
denominators (a market-wide lcm would grow with every unrelated trader),
and a price vector is P_k / D with one D.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import AllZeroPrices, InputError, InvalidMarket, InvalidPriceVector
from .plc import PLCFunction
from .rational import parse_rational


class ScaledTrader(NamedTuple):
    """A trader in integers: amounts in units of 1/den, slopes in units of
    1/slope_den.  ``owned`` holds (good, amount) pairs and ``wanted`` holds
    (good, satiation, segments) with satiation and segments as in
    `ScaledPiece`, rescaled to the trader's two denominators."""

    den: int
    slope_den: int
    owned: tuple[tuple[int, int], ...]
    wanted: tuple[tuple[int, int | None, tuple[tuple[int, int, int | None], ...]], ...]


@dataclass(frozen=True)
class TraderSpec:
    """A trader as its nonzeros, built from (good, amount) and (good, piece)
    pairs: amounts are parsed with `parse_rational` (floats and bools raise
    InputError), zero amounts and zero pieces are dropped, and both lists
    are sorted by good; a good that is not an int (a bool included) or that
    is listed twice raises InvalidMarket.  ``TraderSpec(enumerate(endowment),
    enumerate(utilities))`` turns dense rows into a trader."""

    owned: tuple[tuple[int, Fraction], ...]
    wanted: tuple[tuple[int, PLCFunction], ...]
    label: str | None = None

    def __post_init__(self):
        owned = [(k, parse_rational(w)) for k, w in self.owned]
        wanted = list(self.wanted)
        for pairs in (owned, wanted):
            goods = [k for k, _ in pairs]
            if any(type(k) is not int for k in goods) or len(set(goods)) < len(goods):
                raise InvalidMarket(f"a trader's goods must be distinct ints, got {goods}")
        by_good = itemgetter(0)
        object.__setattr__(self, "owned", tuple(sorted((p for p in owned if p[1]), key=by_good)))
        object.__setattr__(self, "wanted", tuple(sorted((p for p in wanted if not p[1].is_zero), key=by_good)))

    @property
    def support(self) -> tuple[int, ...]:
        """Goods owned or wanted, ascending; the key of the search memo."""
        return tuple(sorted({k for k, _ in self.owned}.union(k for k, _ in self.wanted)))

    @cached_property
    def scaled(self) -> ScaledTrader:
        """The integer view of the trader, computed once per trader."""
        pieces = [(k, f.scaled) for k, f in self.wanted]
        den = math.lcm(*[w.denominator for _, w in self.owned], *[v.den for _, v in pieces])
        slope_den = math.lcm(*[v.slope_den for _, v in pieces])
        owned = tuple([(k, w.numerator * (den // w.denominator)) for k, w in self.owned])
        wanted = []
        for k, (piece_den, piece_slope_den, segments, satiation) in pieces:
            a, b = den // piece_den, slope_den // piece_slope_den
            if a != 1 or b != 1:
                segments = tuple([(i, s * b, None if cap is None else cap * a) for i, s, cap in segments])
                satiation = None if satiation is None else satiation * a
            wanted.append((k, satiation, segments))
        return ScaledTrader(den, slope_den, owned, tuple(wanted))


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
            if any(not 0 <= k < self.n_goods for k, _ in t.owned + t.wanted):
                raise InvalidMarket(f"trader {idx} lists a good outside range({self.n_goods})")
            if any(w < 0 for _, w in t.owned):
                raise InvalidMarket(f"trader {idx} has a negative endowment entry")
        if not any(t.owned for t in self.traders):  # owned amounts are positive
            raise InvalidMarket("total endowment is zero for every good")

    def supplies(self) -> tuple[Fraction, ...]:
        """Total endowment per good: the Fraction view of `scaled`."""
        den, totals = self.scaled
        return tuple(Fraction(s, den) for s in totals)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(M, supplies): M the lcm of the traders' denominators, and the
        total endowment per good in units of 1/M."""
        den = math.lcm(*(t.scaled.den for t in self.traders))
        totals = [0] * self.n_goods
        for t in self.traders:
            v = t.scaled
            a = den // v.den
            for k, w in v.owned:
                totals[k] += w * a
        return den, tuple(totals)


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

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(D, P): the prices are P_k / D, D the lcm of their denominators."""
        den = math.lcm(*(q.denominator for q in self.prices))
        return den, tuple(q.numerator * (den // q.denominator) for q in self.prices)


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
    alpha = parse_rational(alpha)  # floats and bools raise InputError
    if type(t) is not int:
        raise InputError(f"sparsity bound t must be an int, got {t!r}")
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

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

The demand core and the circulation work on integers.  A market and a price
vector each have an integer view, cached on the object.  The market's
`view` puts every trader on one amount scale, units of 1/M with M the lcm
of every amount and breakpoint denominator in the market, and one slope
scale; the circulation counts money on a multiple of M anyway.  A price
vector's `scaled` is P_k / D with one D.  A market built in Python, and a
price vector, compute theirs on first use, so building, reducing and
writing markets never pay for them.  The market file parser builds the
view in the pass that checks the file, from its tables of distinct
endowment rows and pieces (`integer_view`), and the traders, the Fraction
layer that `verify` never reads, from the same tables on first read.

Checks happen at the boundary.  The public constructors parse and check
every value; `trusted` builds an object from values that the parser or the
program itself has already checked or made exact, and skips them.
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


def trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding ``fields`` as given,
    without running its ``__post_init__``.  The caller vouches for what the
    public constructor would check: types, signs, zeros and good order."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class Memo(dict):
    """A dict that makes a key's value, make(key), on the key's first
    lookup and stores it: within one call each distinct value is built
    once, and every lookup of its key returns that one object.  When make
    raises, nothing is stored.  It serves the values that repeat in market
    files, reduced markets and certificates (at an in-box price vector of
    `M_n`, n witness bundles serve the n(n - 1) traders); a hit costs less
    than a `functools.cache` hit."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class ScaledTrader(NamedTuple):
    """A trader's row of `Market.view`: amounts in units of 1/den, slopes on
    the market's slope scale.  ``owned`` holds (good, amount) pairs and
    ``wanted`` holds (good, satiation, segments), as
    `PLCFunction.scaled_to` gives them."""

    den: int
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


@dataclass(frozen=True)
class Market:
    """A market of n_goods goods and its traders.  A market the file parser
    builds (`serialize.market_from_obj`) holds its `view` from the start and,
    until its traders are first read, the rows and trader records
    `integer_view` read; the traders share their amounts and pieces with
    them."""

    n_goods: int
    traders: tuple[TraderSpec, ...]

    def __post_init__(self):
        check_market(self.n_goods, self.traders)

    def __getattr__(self, name):
        # reached only when name is not set: a parsed market's traders, built from its tables on first read
        if name != "traders" or "_tables" not in vars(self):
            raise AttributeError(f"'Market' object has no attribute {name!r}")
        rows, traders = vars(self).pop("_tables")
        vars(self)["traders"] = tuple([trusted(TraderSpec, owned=rows[r], wanted=tuple(wanted), label=label)
                                       for r, wanted, label in traders])
        return self.traders

    def supplies(self) -> tuple[Fraction, ...]:
        """Total endowment per good: the Fraction view of `scaled`."""
        den, totals = self.scaled
        return tuple(Fraction(s, den) for s in totals)

    @cached_property
    def view(self) -> tuple[ScaledTrader, ...]:
        """The market in integers, one row per trader (`integer_view`), for
        a market built in Python; each distinct endowment row object and
        piece object is scaled once, keyed by its id while the market holds
        it, since built traders share them and hashing one costs more than
        scaling it."""
        traders = self.traders
        return integer_view({id(t.owned): t.owned for t in traders}, {id(f): f for t in traders for _, f in t.wanted},
                            [(id(t.owned), t.wanted, t.label) for t in traders])

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(M, supplies): the view's amount scale M, and the total endowment
        per good in units of 1/M."""
        totals = [0] * self.n_goods
        for v in self.view:
            for k, w in v.owned:
                totals[k] += w
        return self.view[0].den, tuple(totals)


def integer_view(rows, pieces, traders) -> tuple[ScaledTrader, ...]:
    """`Market.view` of traders given as (key in rows, (good, piece) pairs,
    label): rows maps a key to an endowment as (good, amount) pairs and
    pieces maps the id of each distinct piece, which the caller keeps
    alive, to the piece; each row and piece is scaled once.  Every row is
    on one amount scale M, the lcm of every amount and breakpoint
    denominator, and one slope scale, the lcm of every slope denominator."""
    den = math.lcm(*{q.denominator for pairs in rows.values() for _, q in pairs},
                   *{a.denominator for f in pieces.values() for a in f.breaks})
    slope_den = math.lcm(*{s.denominator for f in pieces.values() for s in f.slopes})
    ints = {key: tuple([(k, q.numerator * (den // q.denominator)) for k, q in pairs]) for key, pairs in rows.items()}
    scaled = {key: f.scaled_to(den, slope_den) for key, f in pieces.items()}
    return tuple([ScaledTrader(den, ints[r], tuple([(k, *scaled[id(f)]) for k, f in wanted]))
                  for r, wanted, _ in traders])


def check_market(n_goods: int, traders) -> None:
    """The market-wide checks on traders whose nonzeros are parsed and in
    good order: `Market` runs them on its traders, and the market file
    parser on the rows of the market's view.  Since each list is in
    ascending good order, its first and last goods bound its range; a sign
    is read off an amount's numerator, a Fraction's or an int's."""
    if n_goods < 1:
        raise InvalidMarket("market needs at least one good")
    if not traders:
        raise InvalidMarket("market needs at least one trader")
    for idx, t in enumerate(traders):
        owned, wanted = t.owned, t.wanted
        if (owned and (owned[0][0] < 0 or owned[-1][0] >= n_goods)
                or wanted and (wanted[0][0] < 0 or wanted[-1][0] >= n_goods)):
            raise InvalidMarket(f"trader {idx} lists a good outside range({n_goods})")
        for _, w in owned:
            if w.numerator < 0:
                raise InvalidMarket(f"trader {idx} has a negative endowment entry")
    if not any(t.owned for t in traders):  # owned amounts are positive
        raise InvalidMarket("total endowment is zero for every good")


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
    return trusted(PriceVector, prices=tuple([q / scale for q in p.prices]), normalized=True)


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

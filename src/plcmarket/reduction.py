"""Compiler from sparse bimatrix games to 2-linear exchange markets.

Given an n x n game, the reduced market has N = 2n + 2 goods.  The first n
price entries encode the row player's strategy and the next n the column
player's, via x_k = p_k - 1.  The trader population:

* S traders: the price-regulating pairs over all N goods (endowment 1/n of
  their first good, linear slopes 2 and 1), which pin every price to [1, 2];
* U traders, one per ordered row pair (i, j): payoff-difference gadgets over
  A's rows, carrying the positive part C of A_i - A_j on the y-block goods
  and a balancing amount E of good 2n+1, wanting the negative part D and the
  mirror balance F at slope 27, good i at slopes [9, 1], and good 2n+2 as an
  unbounded slope-3 money sink;
* V traders: the same gadget on B's columns with the x/y blocks swapped;
* I traders, one per strategy good: a 1/n^12 sliver of good 2n+1 traded for
  their own good, which breaks ties in the aggregate flow direction.

The gadget scalars satisfy E + sum(C) = F + sum(D), E * F = 0, and both are
at most 40 for sparse normalized inputs.

The builder works on the game's nonzeros, in integers.  It scales A and
the columns of B to integers once, by one common denominator L, keeps each
row's nonzeros, and computes C, D, E and F of a pair over the union of two
rows' nonzeros (`_gadget`, the package's one gadget computation).
Every endowment amount and knee is an integer over L * n^5, so amounts and
pieces are memoized on that integer: each distinct amount is built once as
a Fraction and each distinct piece is one object, shared by its traders,
so the market writer, which encodes each piece object once, encodes each
distinct piece once.
The traders are built with `model.trusted` in ascending good order;
`Market` still runs the market-wide checks.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateExtraction, NTooSmall, ShapeMismatch
from .games import BimatrixGame, MixedStrategy, _integral
from .model import Market, Memo, PriceVector, TraderSpec, trusted
from .plc import linear_plc, validate_plc
from .regulating import regulating_block


def _gadget(row_i: dict, row_j: dict):
    """(C, D, E, F) of the difference row_i - row_j of two integer rows
    given as {index: value} over their nonzeros: C and D its positive and
    negative parts as (index, amount) pairs in ascending index order, E and
    F the balancing scalars, all on the rows' own scale."""
    diff = dict(row_i)
    for k, v in row_j.items():
        diff[k] = diff.get(k, 0) - v
    entries = sorted(diff.items())
    excess = -sum(diff.values())  # sum(D) - sum(C)
    C = [(k, d) for k, d in entries if d > 0]
    D = [(k, -d) for k, d in entries if d < 0]
    return C, D, max(excess, 0), max(-excess, 0)


@dataclass(frozen=True)
class ReducedMarketMeta:
    """Goods count and trader layout of the reduced market of an n x n game,
    all derived from n: N = 2n + 2 goods, N(N - 1) S traders, one U and one V
    trader per ordered pair of distinct actions, and 2n I traders."""

    game_n: int

    def __post_init__(self):
        if self.game_n < 2:
            raise NTooSmall(f"reduction needs a game with n >= 2 actions, got {self.game_n}")

    @property
    def n_goods(self) -> int:
        return 2 * self.game_n + 2

    @property
    def s_count(self) -> int:
        return self.n_goods * (self.n_goods - 1)

    @property
    def u_pairs(self) -> tuple[tuple[int, int], ...]:
        n = self.game_n
        return tuple((i, j) for i in range(n) for j in range(n) if i != j)

    v_pairs = u_pairs  # the V gadget mirrors the U gadget pair for pair

    @property
    def i_count(self) -> int:
        return 2 * self.game_n


def build_reduced_market(game: BimatrixGame) -> tuple[Market, ReducedMarketMeta]:
    """Build the reduced market and its index metadata.

    Trader order is S block, U block, V block, I block; U and V pairs are
    lexicographic.  S traders keep the 1/n endowment of the n x n game even
    though they range over all 2n + 2 goods.
    """
    meta = ReducedMarketMeta(game.n)
    n, N = meta.game_n, meta.n_goods
    aux1, aux2 = 2 * n, 2 * n + 1
    inv_n4 = Fraction(1, n**4)
    inv_n12 = Fraction(1, n**12)
    traders = list(regulating_block(N, Fraction(1, n)))
    one = traders[0].wanted[1][1]  # the S block's slope-1 ray, shared with the I traders
    three = linear_plc(3)
    own_kink = validate_plc((Fraction(9), Fraction(1)), (inv_n4,))
    # A's rows, then B's columns, as integers over one L and by their nonzeros
    scale, rows = _integral([*game.A, *zip(*game.B)])
    rows = [{k: v for k, v in enumerate(row) if v} for row in rows]
    den = scale * n**5
    amount = Memo(lambda num: Fraction(num, den))  # numerator over den -> the amount
    # numerator over den -> the slope-27 piece kinked at that amount
    kink = Memo(lambda num: validate_plc((Fraction(27), Fraction(1)), (amount[num],)))

    for label, own, other, M in (("U", 0, n, rows[:n]), ("V", n, 0, rows[n:])):
        own_first = own < other  # good own + i comes before or after the other block's goods
        for i, j in meta.u_pairs:
            C, D, e, f = _gadget(M[i], M[j])
            owned = [(other + k, amount[c]) for k, c in C]
            wanted = [(other + k, kink[d]) for k, d in D]
            owned.insert(0 if own_first else len(owned), (own + i, inv_n4))
            wanted.insert(0 if own_first else len(wanted), (own + i, own_kink))
            if e:
                owned.append((aux1, amount[e]))
            if f:
                wanted.append((aux1, kink[f]))
            wanted.append((aux2, three))
            label_ij = f"{label}({i + 1},{j + 1})"
            traders.append(trusted(TraderSpec, owned=tuple(owned), wanted=tuple(wanted), label=label_ij))

    for i in range(2 * n):
        traders.append(trusted(TraderSpec, owned=((aux1, inv_n12),), wanted=((i, one),), label=f"I({i + 1})"))

    return Market(N, tuple(traders)), meta


@dataclass(frozen=True)
class Extraction:
    x: MixedStrategy
    y: MixedStrategy
    x_raw: tuple[Fraction, ...]  # p_k - 1 before normalization (clamped at 0)
    y_raw: tuple[Fraction, ...]
    clamped: bool


def extract_strategies(p: PriceVector, meta: ReducedMarketMeta) -> Extraction:
    """Read a strategy pair off a price vector of the reduced market.

    Entries below 1 only arise from non-equilibrium inputs; their encoded
    weights are clamped to 0 and the clamping is reported.  Raises
    DegenerateExtraction when either block encodes the zero vector.
    """
    n = meta.game_n
    if len(p.prices) != 2 * n + 2:
        raise ShapeMismatch(f"expected {2 * n + 2} prices, got {len(p.prices)}")
    clamped = False
    raw = []
    for q in p.prices[: 2 * n]:
        w = q - 1
        if w < 0:
            clamped = True
            w = Fraction(0)
        raw.append(w)
    x_raw, y_raw = tuple(raw[:n]), tuple(raw[n:])
    sum_x, sum_y = sum(x_raw), sum(y_raw)
    if sum_x == 0 or sum_y == 0:
        raise DegenerateExtraction("strategy block of the price vector is all ones")
    x = MixedStrategy(tuple(w / sum_x for w in x_raw))
    y = MixedStrategy(tuple(w / sum_y for w in y_raw))
    return Extraction(x, y, x_raw, y_raw, clamped)

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
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateExtraction, NTooSmall, ShapeMismatch
from .games import BimatrixGame, MixedStrategy
from .model import Market, PriceVector, TraderSpec
from .plc import PLCFunction, validate_plc
from .regulating import regulating_block


@dataclass(frozen=True)
class GadgetVectors:
    C: tuple[Fraction, ...]
    D: tuple[Fraction, ...]
    E: Fraction
    F: Fraction


def gadget_vectors_row(A, i: int, j: int) -> GadgetVectors:
    """Positive/negative split of row difference A_i - A_j with balancing scalars."""
    diffs = [A[i][k] - A[j][k] for k in range(len(A))]
    C = tuple(max(d, Fraction(0)) for d in diffs)
    D = tuple(max(-d, Fraction(0)) for d in diffs)
    sum_c, sum_d = sum(C), sum(D)
    if sum_d >= sum_c:
        return GadgetVectors(C, D, sum_d - sum_c, Fraction(0))
    return GadgetVectors(C, D, Fraction(0), sum_c - sum_d)


def gadget_vectors_col(B, i: int, j: int) -> GadgetVectors:
    """Positive/negative split of column difference B_i - B_j (columns of B)."""
    return gadget_vectors_row(tuple(zip(*B)), i, j)


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

    def trader_slices(self) -> dict[str, tuple[int, int]]:
        u0, pairs = self.s_count, len(self.u_pairs)
        v0, i0 = u0 + pairs, u0 + 2 * pairs
        return {"s": (0, u0), "u": (u0, v0), "v": (v0, i0), "i": (i0, i0 + self.i_count)}


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
    inv_n5 = Fraction(1, n**5)
    inv_n12 = Fraction(1, n**12)
    traders = list(regulating_block(N, Fraction(1, n)))
    # one object per distinct piece, shared by its traders, the S block's two rays included
    pieces = {(f.slopes, f.breaks): f for t in traders for _, f in t.wanted}

    def piece(slopes, breaks=()) -> PLCFunction:
        key = (slopes, breaks)
        if key not in pieces:
            pieces[key] = validate_plc(slopes, breaks)
        return pieces[key]

    def linear(theta) -> PLCFunction:
        return piece((Fraction(theta),))

    def kinked(high, low, knee) -> PLCFunction:
        return piece((Fraction(high), Fraction(low)), (knee,))

    B_cols = tuple(zip(*game.B))
    for label, own, other, M in (("U", 0, n, game.A), ("V", n, 0, B_cols)):
        for i, j in meta.u_pairs:
            gv = gadget_vectors_row(M, i, j)
            owned = [(own + i, inv_n4), (aux1, gv.E * inv_n5)]
            owned += [(other + k, c * inv_n5) for k, c in enumerate(gv.C)]
            wanted = [(own + i, kinked(9, 1, inv_n4)), (aux2, linear(3))]
            wanted += [(other + k, kinked(27, 1, d * inv_n5)) for k, d in enumerate(gv.D) if d > 0]
            if gv.F > 0:
                wanted.append((aux1, kinked(27, 1, gv.F * inv_n5)))
            traders.append(TraderSpec(owned, wanted, f"{label}({i + 1},{j + 1})"))

    for i in range(2 * n):
        traders.append(TraderSpec(((aux1, inv_n12),), ((i, linear(1)),), f"I({i + 1})"))

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

"""Bimatrix games: validation, well-supported equilibrium checking, and an
exact integer solver for desk-scale oracles that lists every extreme Nash
equilibrium as a complementary pair of best-response polytope vertices.

Games are square with rational payoffs; the sparse-normalized contract caps
entries at [-1, 1] and nonzeros at 10 per row and column of each matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import InvalidStrategy, NotNormalized, NotSparse, NTooLarge, ShapeMismatch
from .rational import parse_epsilon, parse_rational

SPARSITY_LIMIT = 10
MAX_SUPPORT_ENUM_N = 4  # each polytope's C(2n, n) active sets grow about 4^n


@dataclass(frozen=True)
class BimatrixGame:
    n: int
    A: tuple[tuple[Fraction, ...], ...]
    B: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class MixedStrategy:
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        # ints become Fractions; floats and bools raise InputError
        object.__setattr__(self, "weights", tuple(map(parse_rational, self.weights)))
        if any(w < 0 for w in self.weights):
            raise InvalidStrategy("negative probability")
        if sum(self.weights) != 1:
            raise InvalidStrategy("probabilities must sum to 1")


def mixed(values) -> MixedStrategy:
    return MixedStrategy(values)


def validate_game(A, B) -> BimatrixGame:
    A = tuple(tuple(map(parse_rational, row)) for row in A)
    B = tuple(tuple(map(parse_rational, row)) for row in B)
    n = len(A)
    if n == 0 or len(B) != n:
        raise ShapeMismatch("payoff matrices must be nonempty and the same size")
    for M in (A, B):
        if any(len(row) != n for row in M):
            raise ShapeMismatch("payoff matrices must be square")
    for M, name in ((A, "A"), (B, "B")):
        for row in M:
            if any(v < -1 or v > 1 for v in row):
                raise NotNormalized(f"matrix {name} has an entry outside [-1, 1]")
        for i, row in enumerate(M):
            if sum(1 for v in row if v != 0) > SPARSITY_LIMIT:
                raise NotSparse(f"row {i} of {name} has more than {SPARSITY_LIMIT} nonzeros")
        for j in range(n):
            if sum(1 for row in M if row[j] != 0) > SPARSITY_LIMIT:
                raise NotSparse(f"column {j} of {name} has more than {SPARSITY_LIMIT} nonzeros")
    return BimatrixGame(n, A, B)


@dataclass(frozen=True)
class WsneResult:
    passed: bool
    witness: tuple[int, int, str] | None = None  # (better-off index pair, side)


def check_wsne(g: BimatrixGame, x: MixedStrategy, y: MixedStrategy, eps) -> WsneResult:
    """Well-supported check: any action eps-worse than an alternative must
    carry zero probability.  Returns the first violating (i, j, side).
    Each profile must have one weight per action (else ShapeMismatch)."""
    eps = parse_epsilon(eps)
    n = g.n
    if len(x.weights) != n or len(y.weights) != n:
        raise ShapeMismatch(
            f"profiles must have {n} weights, got {len(x.weights)} and {len(y.weights)}"
        )
    row_pay = [sum((g.A[i][k] * y.weights[k] for k in range(n)), Fraction(0)) for i in range(n)]
    col_pay = [sum((x.weights[k] * g.B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
    for payoffs, weights, side in ((row_pay, x.weights, "row"), (col_pay, y.weights, "col")):
        for i in range(n):
            for j in range(n):
                if i != j and payoffs[i] + eps < payoffs[j] and weights[i] > 0:
                    return WsneResult(False, (i, j, side))
    return WsneResult(True)


# --- exact linear algebra over integers --------------------------------------


def _cancel(row, pivot_row, c):
    """row with column c cancelled against pivot_row, divided by its gcd."""
    k, m = pivot_row[c], row[c]
    row = [k * a - m * b for a, b in zip(row, pivot_row)]
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _gauss_jordan(rows, base=()):
    """Gauss-Jordan over integer rows [coeffs..., rhs], extending base.

    Returns (pivot column, row) pairs, each row zero in the other pivot
    columns, or None when a row reduces to 0 = nonzero."""
    out = list(base)
    for row in rows:
        for c, p in out:
            if row[c]:
                row = _cancel(row, p, c)
        c = next((c for c, v in enumerate(row[:-1]) if v), None)
        if c is None:
            if row[-1]:
                return None
            continue
        out = [(pc, _cancel(p, row, c) if p[c] else p) for pc, p in out]
        out.append((c, row))
    return out


def _integral(M):
    """(L, M scaled to integers by L), L the lcm of M's denominators; a
    positive scale moves only the payoff level, never the equilibrium
    strategies."""
    scale = lcm(*(v.denominator for row in M for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in M]


def _vertices(rows, n):
    """Nonzero vertices of {z in R^n : Rz <= r}, given as integer rows
    [R_k..., r_k], each once: {z scaled to a primitive integer vector:
    labels}, bit k of the labels set when row k is tight there.  A vertex
    makes n independent rows tight, so solving every n-subset of the rows as
    equalities and keeping the feasible solutions finds each one; when the
    origin is feasible, as in P and Q, no two vertices share a direction."""
    found = {}
    for active in combinations(rows, n):
        pivots = _gauss_jordan(active)
        if pivots is None or len(pivots) < n:
            continue
        den = lcm(*(p[c] for c, p in pivots))  # z = num / den, den > 0
        num = [p[-1] * den // p[c] for c, p in sorted(pivots)]  # one pivot per column
        slack = [row[-1] * den - sum(map(mul, row, num)) for row in rows]
        if min(slack) < 0 or not any(num):
            continue
        g = gcd(*num)
        found[tuple(v // g for v in num)] = sum(1 << k for k, s in enumerate(slack) if not s)
    return found


def solve_game_support_enum(g: BimatrixGame):
    """Enumerate exact Nash equilibria as complementary vertex pairs.

    With both payoff matrices shifted to positive integers (a shift moves no
    equilibrium), the equilibria's extreme points are the pairs x, y of
    nonzero vertices of P = {x >= 0 : B^T x <= 1} and Q = {y >= 0 : Ay <= 1}
    whose tight constraints together cover all 2n actions: each row action
    is unplayed in x or a best response to y, and each column action is
    unplayed in y or a best response to x.  Each pair is normalized to
    probabilities, so a degenerate game yields the vertices of its
    equilibrium components.
    """
    if g.n > MAX_SUPPORT_ENUM_N:
        raise NTooLarge(f"support enumeration capped at n = {MAX_SUPPORT_ENUM_N}")
    n = g.n

    def bounded(M):  # rows [M_k..., 1] of M in integers shifted to entries >= 1
        M = _integral(M)[1]
        low = min(map(min, M))
        return [[v - low + 1 for v in row] + [1] for row in M]

    unplayed = [[-(k == i) for i in range(n)] + [0] for k in range(n)]  # -z_k <= 0
    # labels: bits 0..n-1 are the row actions, bits n..2n-1 the column actions
    xs = _vertices(unplayed + bounded([*zip(*g.B)]), n)
    ys = _vertices(bounded(g.A) + unplayed, n)
    full = (1 << 2 * n) - 1

    def distribution(z):
        total = sum(z)
        return tuple(Fraction(v, total) for v in z)

    found = sorted(
        (distribution(x), distribution(y)) for x, lx in xs.items() for y, ly in ys.items() if lx | ly == full
    )
    return [(MixedStrategy(x), MixedStrategy(y)) for x, y in found]

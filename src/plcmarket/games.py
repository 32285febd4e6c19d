"""Bimatrix games: validation, well-supported equilibrium checking, and an
exact integer support-enumeration solver for desk-scale oracles.

Games are square with rational payoffs; the sparse-normalized contract caps
entries at [-1, 1] and nonzeros at 10 per row and column of each matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .errors import InvalidStrategy, NotNormalized, NotSparse, NTooLarge, ShapeMismatch
from .rational import parse_epsilon, parse_rational

SPARSITY_LIMIT = 10
MAX_SUPPORT_ENUM_N = 4  # support enumeration is exponential in n


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


def basic_feasible_points(eq_rows, ineq_rows, nvars) -> list[tuple[Fraction, ...]]:
    """All vertices of {z : Ez = e, Gz <= g} for integer (coeffs, rhs) rows.

    Every vertex solves the equalities plus some (nvars - rank(E))-subset of
    the inequalities turned active, so extending the reduced equalities by
    each such subset and keeping the unique, feasible solutions is
    exhaustive.  Intended for tiny dimensions.
    """
    base = _gauss_jordan([*coeffs, rhs] for coeffs, rhs in eq_rows)
    if base is None:
        return []
    found: dict[tuple, None] = {}
    for active in combinations(ineq_rows, nvars - len(base)):
        rows = _gauss_jordan(([*coeffs, rhs] for coeffs, rhs in active), base)
        if rows is None or len(rows) < nvars:
            continue
        den = lcm(*(p[c] for c, p in rows))  # z = num / den, den > 0
        num = [0] * nvars
        for c, p in rows:
            num[c] = p[-1] * den // p[c]
        if all(sum(map(mul, coeffs, num)) <= rhs * den for coeffs, rhs in ineq_rows):
            found[tuple(Fraction(v, den) for v in num)] = None
    return list(found)


# --- support enumeration -----------------------------------------------------


def _support_candidates(payoff_rows, own_support, opp_support, n):
    """Vertices of one side's equilibrium region for fixed supports.

    payoff_rows[i][j] is the integer payoff of own action i against opponent
    action j; variables are the opponent's probabilities on opp_support plus
    the common payoff level v.  Own supported actions are indifferent at v,
    own unsupported actions do no better, probabilities are nonnegative and
    sum to one.  Returns full-length probability vectors.
    """
    k = len(opp_support)

    def payoff_row(i):
        return ([payoff_rows[i][j] for j in opp_support] + [-1], 0)

    eq_rows = [payoff_row(i) for i in own_support]
    eq_rows.append(([1] * k + [0], 1))
    ineq_rows = [payoff_row(i) for i in range(n) if i not in own_support]
    ineq_rows += [([-(idx == j) for j in range(k + 1)], 0) for idx in range(k)]

    out = []
    for z in basic_feasible_points(eq_rows, ineq_rows, k + 1):
        full = [Fraction(0)] * n
        for idx, j in enumerate(opp_support):
            full[j] = z[idx]
        out.append(tuple(full))
    return out


def _integral(M):
    """(L, M scaled to integers by L), L the lcm of M's denominators; a
    positive scale moves only the payoff level, never the equilibrium
    strategies."""
    scale = lcm(*(v.denominator for row in M for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in M]


def solve_game_support_enum(g: BimatrixGame):
    """Enumerate exact Nash equilibria by support pairs.

    For each support pair, the two players' constraint polytopes are
    independent, so the equilibria with those supports are the product of
    the two vertex sets.  Degenerate games yield the vertices of their
    equilibrium components; duplicates across support pairs are removed.
    """
    if g.n > MAX_SUPPORT_ENUM_N:
        raise NTooLarge(f"support enumeration capped at n = {MAX_SUPPORT_ENUM_N}")
    n = g.n
    _, row_payoffs = _integral(g.A)  # row player: A[i][j] vs column j
    _, col_payoffs = _integral(list(zip(*g.B)))  # column player: own action j vs row i

    supports = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    found: set[tuple] = set()
    for sup_x in supports:
        for sup_y in supports:
            ys = _support_candidates(row_payoffs, sup_x, sup_y, n)
            if ys:
                found.update(product(_support_candidates(col_payoffs, sup_y, sup_x, n), ys))
    return [(MixedStrategy(x), MixedStrategy(y)) for x, y in sorted(found)]

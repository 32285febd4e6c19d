"""Bimatrix games: validation, well-supported equilibrium checking, and an
exact support-enumeration solver for desk-scale oracles.

Games are square with rational payoffs; the sparse-normalized contract caps
entries at [-1, 1] and nonzeros at 10 per row and column of each matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
    carry zero probability.  Returns the first violating (i, j, side)."""
    eps = parse_epsilon(eps)
    n = g.n
    row_pay = [sum((g.A[i][k] * y.weights[k] for k in range(n)), Fraction(0)) for i in range(n)]
    col_pay = [sum((x.weights[k] * g.B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
    for payoffs, weights, side in ((row_pay, x.weights, "row"), (col_pay, y.weights, "col")):
        for i in range(n):
            for j in range(n):
                if i != j and payoffs[i] + eps < payoffs[j] and weights[i] > 0:
                    return WsneResult(False, (i, j, side))
    return WsneResult(True)


# --- exact linear algebra over Fractions ------------------------------------


def _echelon(rows, nvars):
    """Reduced row echelon over [coeffs | rhs]; returns (matrix, pivot
    columns), with None for the pivots when the system is inconsistent."""
    M = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivots = []
    r = 0
    for c in range(nvars):
        pivot_row = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    if any(M[i][nvars] != 0 for i in range(r, len(M))):
        return M, None  # a row 0 = nonzero is left below the pivots
    return M, pivots


def solve_unique(rows, nvars) -> tuple[Fraction, ...] | None:
    """Unique solution of a rational linear system, or None when the system
    is inconsistent or underdetermined."""
    M, pivots = _echelon(rows, nvars)
    if pivots is None or len(pivots) < nvars:
        return None
    sol = [Fraction(0)] * nvars
    for i, c in enumerate(pivots):
        sol[c] = M[i][nvars]
    return tuple(sol)


def system_rank(rows, nvars) -> int | None:
    """Rank of a consistent equality system; None when inconsistent."""
    _, pivots = _echelon(rows, nvars)
    return None if pivots is None else len(pivots)


def basic_feasible_points(eq_rows, ineq_rows, nvars) -> list[tuple[Fraction, ...]]:
    """All vertices of {z : Ez = e, Gz <= g}.

    Every vertex solves the equalities plus some (nvars - rank(E))-subset of
    the inequalities turned active, so enumerating those square systems and
    filtering by feasibility is exhaustive.  Intended for tiny dimensions.
    """
    rank = system_rank(eq_rows, nvars)
    if rank is None:
        return []

    def feasible(z):
        for coeffs, rhs in eq_rows:
            if sum((c * v for c, v in zip(coeffs, z)), Fraction(0)) != rhs:
                return False
        for coeffs, rhs in ineq_rows:
            if sum((c * v for c, v in zip(coeffs, z)), Fraction(0)) > rhs:
                return False
        return True

    found: dict[tuple, None] = {}
    for active in combinations(ineq_rows, nvars - rank):
        z = solve_unique(list(eq_rows) + list(active), nvars)
        if z is not None and z not in found and feasible(z):
            found[z] = None
    return list(found)


# --- support enumeration -----------------------------------------------------


def _support_candidates(payoff_rows, own_support, opp_support, n):
    """Vertices of one side's equilibrium region for fixed supports.

    payoff_rows[i][j] is the payoff of own action i against opponent action
    j; variables are the opponent's probabilities on opp_support plus the
    common payoff level v.  Own supported actions are indifferent at v, own
    unsupported actions do no better, probabilities are nonnegative and sum
    to one.  Returns full-length probability vectors.
    """
    nvars = len(opp_support) + 1
    zero = Fraction(0)

    def payoff_row(i):
        coeffs = [payoff_rows[i][j] for j in opp_support] + [Fraction(-1)]
        return (tuple(coeffs), zero)

    eq_rows = [payoff_row(i) for i in own_support]
    eq_rows.append((tuple([Fraction(1)] * len(opp_support) + [zero]), Fraction(1)))
    ineq_rows = [payoff_row(i) for i in range(n) if i not in own_support]
    for idx in range(len(opp_support)):
        coeffs = [zero] * nvars
        coeffs[idx] = Fraction(-1)
        ineq_rows.append((tuple(coeffs), zero))

    out = []
    for z in basic_feasible_points(eq_rows, ineq_rows, nvars):
        full = [zero] * n
        for idx, j in enumerate(opp_support):
            full[j] = z[idx]
        out.append(tuple(full))
    return out


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
    row_payoffs = g.A  # row player: A[i][j] vs column j
    col_payoffs = tuple(
        tuple(g.B[i][j] for i in range(n)) for j in range(n)
    )  # column player: payoff of own action j against row i

    supports = []
    for size in range(1, n + 1):
        supports.extend(combinations(range(n), size))

    found: dict[tuple, tuple[MixedStrategy, MixedStrategy]] = {}
    for sup_x in supports:
        for sup_y in supports:
            ys = _support_candidates(row_payoffs, sup_x, sup_y, n)
            if not ys:
                continue
            xs = _support_candidates(col_payoffs, sup_y, sup_x, n)
            for xv in xs:
                for yv in ys:
                    key = (xv, yv)
                    if key not in found:
                        found[key] = (MixedStrategy(xv), MixedStrategy(yv))
    return [found[k] for k in sorted(found)]

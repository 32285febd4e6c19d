"""The price-regulating market family.

For n >= 2 the market M_n has n goods and one trader per ordered pair (i, j)
of distinct goods: she owns 1/n of good i, values good i at slope 2 and good
j at slope 1, and nothing else.  A normalized price vector is a (1/n)-approx
equilibrium of M_n exactly when every entry lies in [1, 2], which is what
lets prices encode free variables x_k = p_k - 1 in [0, 1].
"""

from fractions import Fraction

from .clearing import APPROXIMATE, Certificate, check_witness, clearing_report, clearing_windows
from .demand import Bundle, int_demand
from .errors import NTooSmall, OutOfRegulationBox
from .model import Market, PriceVector, TraderSpec, normalize_prices, trusted
from .plc import linear_plc


def regulating_block(n_goods: int, share: Fraction) -> tuple[TraderSpec, ...]:
    """The S(i, j) traders over n_goods goods, lexicographic in (i, j): each
    owns `share` (a positive Fraction) of good i and values good i at slope 2
    and good j at slope 1.  All of them share the two rays."""
    two, one = linear_plc(2), linear_plc(1)
    traders = []
    for i in range(n_goods):
        owned = ((i, share),)
        for j in range(n_goods):
            if i != j:
                wanted = ((i, two), (j, one)) if i < j else ((j, one), (i, two))
                traders.append(trusted(TraderSpec, owned=owned, wanted=wanted, label=f"S({i + 1},{j + 1})"))
    return tuple(traders)


def build_mn(n: int) -> Market:
    """Construct M_n; traders are ordered lexicographically by (i, j)."""
    if n < 2:
        raise NTooSmall(f"price-regulating market needs n >= 2, got {n}")
    return Market(n, regulating_block(n, Fraction(1, n)))


def check_regulation_box(n: int, p: PriceVector) -> bool:
    """True iff p has length n and every entry lies in [1, 2]."""
    return len(p.prices) == n and all(1 <= q <= 2 for q in p.prices)


def regulation_forward_witness(n: int, p: PriceVector) -> Certificate:
    """Accept certificate for an in-box price vector of M_n.

    Normalizes first (the box is closed under normalization), then checks
    that the identity allocation x_s = w_s is optimal for every trader.  A
    failed optimality check here would falsify the forward direction of the
    price-regulation property, so it raises instead of rejecting.
    """
    p = normalize_prices(p)
    if not check_regulation_box(n, p):
        raise OutOfRegulationBox(f"prices {p.prices} not in [1,2]^{n}")
    m = build_mn(n)
    eps = Fraction(1, n)
    bundles = tuple(Bundle(t.owned) for t in m.traders)
    demands = [int_demand(t, p.scaled[1], i) for i, t in enumerate(m.traders)]
    supplies = m.supplies()
    totals = check_witness(m, p, bundles, demands, set(), clearing_windows(supplies, p, APPROXIMATE, eps))
    return Certificate("accept", None, APPROXIMATE, eps, bundles, clearing_report(supplies, totals, eps))

"""The price-regulating market family.

For n >= 2 the market M_n has n goods and one trader per ordered pair (i, j)
of distinct goods: she owns 1/n of good i, values good i at slope 2 and good
j at slope 1, and nothing else.  A normalized price vector is a (1/n)-approx
equilibrium of M_n exactly when every entry lies in [1, 2], which is what
lets prices encode free variables x_k = p_k - 1 in [0, 1].
"""

from fractions import Fraction

from .errors import NTooSmall
from .model import Market, PriceVector, TraderSpec, trusted
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

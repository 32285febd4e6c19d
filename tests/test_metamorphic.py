"""Metamorphic referees for `verify`, the grid walk and the reduction
builder at the benchmark's sizes.

The brute-force oracles stop at tiny markets, so nothing else referees a
verdict on `M_16` or on the reduced market of an n = 8 game.  These tests
check relations instead: the verdict, and the kind of its reason, must not
change when the goods are permuted together with the prices, when the
traders are permuted, when every trader is duplicated (each demand set is
convex, so half of a doubled market's allocation is one of the original),
or when the prices are scaled by a positive rational.  A reason names
trader and good indices, which the relations move, so only its kind is
compared.  Scaling the prices moves no index, and `verify` takes them as
given, so there the whole certificate must keep its bytes; that is checked
on `M_n`, on reduced markets and on small random and tie-rich markets.
The prices are drawn as the benchmark draws them: in the box [1, 2], with
one entry pushed out of it, or with one entry zero.

The relations are checked at two sizes: on `M_16` and the reduced market of
an n = 8 game, and, under hypothesis, on `M_n` for n = 3..8 and on reduced
markets of seeded games at n = 2..4.

Permuting the goods together with the grid's axes permutes the points
`grid_scores` walks and must skip the same ones; reversing the axes and
shuffling the traders walks the same points in another order and must
leave each point's score as it was.  The walk's totals count good k on a
scale that moves with P_k, so the relations are also drawn under
hypothesis, on boxes whose lower ends are 0, 1/2 or 1 and whose axes have
mixed denominators.  The walk reads its int axes on a scale it never
needs, so multiplying every axis by a positive int must keep the indices
it walks, their order and their scores.  Permuting a game's row and
column actions must relabel its reduced market's goods and traders and
change nothing else; that is checked on seeded games at n = 16 and 32
and, under hypothesis, on games drawn at n = 2..5.
"""

import functools
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from plcmarket.clearing import APPROXIMATE, EXACT, QUASI, verify
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.search import grid_scores
from plcmarket.serialize import dumps

from oracles import (
    axis_points,
    grid_walk,
    int_axes,
    mixed_denominator_game_matrices,
    random_market,
    random_sparse_game_matrices,
    tie_rich_market,
)

PRICE_DEN = 1000


@functools.cache
def _market(name: str):
    """The market and its small approximate eps: 1/n for M_n, N^-13 for a
    reduced market with N goods."""
    if name == "M16":
        return build_mn(16), F(1, 16)
    market, meta = build_reduced_market(validate_game(*random_sparse_game_matrices(random.Random(8), 8)))
    return market, F(1, meta.n_goods**13)


def _prices(kind: str, rng: random.Random, n: int) -> list:
    p = [F(rng.randint(PRICE_DEN, 2 * PRICE_DEN), PRICE_DEN) for _ in range(n)]
    k = rng.randrange(n)
    if kind == "pushed":  # above twice every other entry, so outside the box
        p[k] = 2 * min(p[:k] + p[k + 1:]) + F(rng.randint(1, PRICE_DEN), PRICE_DEN)
    elif kind == "zero":
        p[k] = F(0)
    return p


def _permute_goods(m: Market, perm) -> Market:
    """m with good k renamed perm[k]."""
    return Market(m.n_goods, tuple(
        TraderSpec([(perm[k], w) for k, w in t.owned], [(perm[k], f) for k, f in t.wanted], t.label)
        for t in m.traders
    ))


def _kind(cert) -> tuple:
    """The verdict and the reason up to the indices it names."""
    return cert.verdict, None if cert.reason is None else cert.reason.split(" (")[0]


def _check_verify_relations(m: Market, small: F, kind: str, seed: int, scale: F):
    """The four relations at one drawn price vector, in every mode and at
    both approximate epsilons; the doubled market shares each trader, and
    so each amount and piece object, twice."""
    rng = random.Random(seed)
    n = m.n_goods
    p = _prices(kind, rng, n)
    perm = rng.sample(range(n), n)
    permuted = [F(0)] * n
    for k, q in enumerate(p):
        permuted[perm[k]] = q
    order = rng.sample(m.traders, len(m.traders))
    variants = [
        (_permute_goods(m, perm), permuted),
        (Market(n, tuple(order)), p),
        (Market(n, m.traders + m.traders), p),
        (m, [scale * q for q in p]),
    ]
    for mode, eps in ((EXACT, 0), (QUASI, 0), (APPROXIMATE, small), (APPROXIMATE, F(1, 2))):
        want = _kind(verify(m, PriceVector(p), mode, eps))
        for market, q in variants:
            assert _kind(verify(market, PriceVector(q), mode, eps)) == want, (mode, eps)


SCALES = st.fractions(F(1, 1000), 1000, max_denominator=1000)


@pytest.mark.parametrize("kind", ["inbox", "pushed", "zero"])
@pytest.mark.parametrize("name", ["M16", "reduced8"])
@given(seed=st.integers(0, 2**32 - 1), scale=SCALES)
@settings(max_examples=2, phases=[Phase.generate])  # no shrinking: an example is 20 verify calls
def test_verify_verdict_survives_relabelling_duplication_and_scaling(name, kind, seed, scale):
    _check_verify_relations(*_market(name), kind, seed, scale)


@functools.cache
def _small_market(family: str, k: int):
    """M_k, or the reduced market of the game seeded k with the family's
    number of actions, with its small approximate eps as in `_market`."""
    if family == "M":
        return build_mn(k), F(1, k)
    game = validate_game(*random_sparse_game_matrices(random.Random(k), int(family[-1])))
    market, meta = build_reduced_market(game)
    return market, F(1, meta.n_goods**13)


SMALL_MARKETS = st.one_of(
    st.tuples(st.just("M"), st.integers(3, 8)),
    st.tuples(st.sampled_from(["reduced2", "reduced3", "reduced4"]), st.integers(0, 7)),
)


@given(market=SMALL_MARKETS, kind=st.sampled_from(["inbox", "pushed", "zero"]),
       seed=st.integers(0, 2**32 - 1), scale=SCALES)
@settings(max_examples=120)
def test_verify_relations_hold_on_drawn_small_markets(market, kind, seed, scale):
    """The same relations on M_n for n = 3..8 and on the reduced markets of
    eight seeded games each at n = 2, 3 and 4."""
    _check_verify_relations(*_small_market(*market), kind, seed, scale)


def _certificate_bytes(m: Market, p, mode: str, eps) -> str:
    return dumps(verify(m, PriceVector(p), mode, eps))


@given(family=st.sampled_from(["M", "reduced2", "reduced3", "reduced4", "random", "tie"]),
       k=st.integers(0, 7), kind=st.sampled_from(["inbox", "pushed", "zero"]),
       seed=st.integers(0, 2**32 - 1), scale=SCALES)
@settings(max_examples=120)
def test_verify_certificate_bytes_survive_scaling_the_prices(family, k, kind, seed, scale):
    """verify(m, c * p) writes the bytes verify(m, p) writes, in every mode
    and at eps N^-13 and 1/2, on M_n for n = 3..8, the reduced markets of
    seeded games at n = 2, 3 and 4, and seeded random and tie-rich markets
    (whose slopes are drawn at p, a zero entry read as 1, so offers share
    rates there)."""
    rng = random.Random(seed)
    if family == "tie":
        p = _prices(kind, rng, rng.randint(2, 4))
        m = tie_rich_market(random.Random(k), [q or 1 for q in p])
    else:
        if family == "M":
            m = build_mn(3 + k % 6)
        elif family == "random":
            m = random_market(random.Random(k), max_goods=4)
        else:
            m = _small_market(family, k)[0]
        p = _prices(kind if m.n_goods > 1 else "inbox", rng, m.n_goods)
    n = m.n_goods
    scaled = [scale * q for q in p]
    for mode, eps in ((EXACT, 0), (QUASI, 0), (APPROXIMATE, F(1, n**13)), (APPROXIMATE, F(1, 2))):
        assert _certificate_bytes(m, scaled, mode, eps) == _certificate_bytes(m, p, mode, eps), (mode, eps)


def _walk(m: Market, axes, perm=None) -> Counter:
    """The (point, score) pairs the grid walk yields, each point read back in
    the original goods' order when the goods were renamed by perm; with
    perm, only the points, since canonical demand fills ties in good order
    and renaming goods may change a point's score."""
    walk = grid_walk(m, axes)
    if perm is None:
        return Counter((p.prices, score) for p, score in walk)
    return Counter(tuple(p.prices[k] for k in perm) for p, _ in walk)


def _check_walk_relations(m: Market, axes, rng: random.Random):
    """Renaming the goods together with the axes keeps the points walked;
    reversing each axis and shuffling the traders walks the same points in
    another order, and each keeps its score.  Returns the walk."""
    n = m.n_goods
    perm = rng.sample(range(n), n)
    permuted_axes = [None] * n
    for k, axis in enumerate(axes):
        permuted_axes[perm[k]] = axis
    want = _walk(m, axes)
    assert _walk(_permute_goods(m, perm), permuted_axes, perm) == Counter(p for p, _ in want.elements())
    shuffled = Market(n, tuple(rng.sample(m.traders, len(m.traders))))
    assert _walk(shuffled, [axis[::-1] for axis in axes]) == want
    return want


@pytest.mark.parametrize("name", [f"reduced{n}-{seed}" for n in (2, 3) for seed in range(3)] + ["M4"])
def test_grid_walk_survives_permuting_goods_axes_and_traders(name):
    """On [1, 2] at grid_k 1 for reduced markets of seeded n = 2, 3 games;
    on [0, 2] at grid_k 2 for M_4, where the origin and the points with an
    unbounded demand are skipped."""
    if name == "M4":
        m, axes = build_mn(4), [axis_points(F(0), F(2), 2)] * 4
    else:
        n, seed = map(int, name.removeprefix("reduced").split("-"))
        m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(random.Random(seed), n)))
        axes = [axis_points(F(1), F(2), 1)] * m.n_goods
    want = _check_walk_relations(m, axes, random.Random(name))
    if name == "M4":
        assert sum(want.values()) == 2**4  # every point with a zero price is skipped


AXIS = st.tuples(st.sampled_from([F(0), F(1, 2), F(1)]),
                 st.fractions(0, 2, max_denominator=7))  # (lower end, width)


@given(market=st.one_of(st.tuples(st.just("M"), st.integers(2, 5)),
                        st.tuples(st.sampled_from(["reduced2", "reduced3"]), st.integers(0, 7))),
       grid_k=st.integers(1, 2), intervals=st.lists(AXIS, min_size=8, max_size=8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_grid_walk_relations_hold_on_drawn_boxes(market, grid_k, intervals, seed):
    """The walk relations on M_n for n = 2..5 (grid_k 1 or 2) and on the
    reduced markets of seeded n = 2, 3 games (grid_k 1), on drawn boxes:
    each axis starts at 0, 1/2 or 1 and spans a width with denominator up
    to 7, possibly 0, so one point's prices mix denominators and a zero
    lower end skips points midway for unbounded demand."""
    m = _small_market(*market)[0]
    k = grid_k if market[0] == "M" else 1
    axes = [axis_points(lo, lo + width, k) for lo, width in intervals[:m.n_goods]]
    _check_walk_relations(m, axes, random.Random(seed))


@given(market=st.one_of(st.tuples(st.just("M"), st.integers(2, 5)),
                        st.tuples(st.sampled_from(["reduced2", "reduced3"]), st.integers(0, 7))),
       grid_k=st.integers(1, 2), intervals=st.lists(AXIS, min_size=8, max_size=8), c=st.integers(2, 60))
def test_grid_walk_is_unchanged_by_scaling_the_int_axes(market, grid_k, intervals, c):
    """The walk reads its int axes as prices over a denominator it never
    needs, so multiplying every axis by c walks the same indices in the same
    order and gives each point the same score, though its (num, den) pair,
    its rate scale and its field width all grow with c.  On the markets and
    boxes of the relations above."""
    m = _small_market(*market)[0]
    k = grid_k if market[0] == "M" else 1
    axes = int_axes([axis_points(lo, lo + width, k) for lo, width in intervals[:m.n_goods]])

    def walk(axes):
        return [(idx, None if score is None else F(*score)) for idx, score in grid_scores(m, axes)]

    assert walk([[c * q for q in axis] for axis in axes]) == walk(axes)


def _permute_game(A, B, sigma, tau):
    """The game with row action i renamed sigma[i] and column action j tau[j]."""
    n = len(A)
    A2, B2 = [[F(0)] * n for _ in range(n)], [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            A2[sigma[i]][tau[j]], B2[sigma[i]][tau[j]] = A[i][j], B[i][j]
    return A2, B2


def _relabelled(m: Market, good, action) -> dict:
    """m's traders as label -> (owned, wanted) with every good k renamed
    good[k] and every label's indices renamed to match: an S or I index
    names a good, a U or V index an action of that block (action[kind]).
    Labels are distinct, so equal dicts are equal multisets of traders."""

    def label(text):
        kind, *idx = re.fullmatch(r"([SUVI])\((\d+)(?:,(\d+))?\)", text).groups()
        rename = good if kind in "SI" else action[kind]
        return f"{kind}({','.join(str(rename[int(i) - 1] + 1) for i in idx if i)})"

    traders = {
        label(t.label): (sorted((good[k], w) for k, w in t.owned), sorted((good[k], f) for k, f in t.wanted))
        for t in m.traders
    }
    assert len(traders) == len(m.traders)
    return traders


def _check_builder_relation(A, B, sigma, tau):
    """Permuting the actions by sigma and tau relabels the reduced market's
    goods and traders and changes nothing else."""
    n = len(A)
    m, _ = build_reduced_market(validate_game(A, B))
    permuted, _ = build_reduced_market(validate_game(*_permute_game(A, B, sigma, tau)))
    good = sigma + [n + j for j in tau] + [2 * n, 2 * n + 1]
    same = _relabelled(permuted, range(2 * n + 2), {"U": range(n), "V": range(n)})
    assert _relabelled(m, good, {"U": sigma, "V": tau}) == same


@pytest.mark.parametrize("n", [16, 32])
def test_reduced_market_survives_permuting_the_actions(n):
    rng = random.Random(n)
    A, B = random_sparse_game_matrices(rng, n)
    _check_builder_relation(A, B, rng.sample(range(n), n), rng.sample(range(n), n))


@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), mixed=st.booleans(), data=st.data())
def test_reduced_market_survives_permuting_the_actions_of_drawn_games(n, seed, mixed, data):
    """The builder relation on games drawn at n = 2..5, with entries over
    denominator 8 or over mixed denominators, under drawn permutations."""
    draw = mixed_denominator_game_matrices if mixed else random_sparse_game_matrices
    A, B = draw(random.Random(seed), n)
    sigma, tau = (data.draw(st.permutations(range(n))) for _ in range(2))
    _check_builder_relation(A, B, list(sigma), list(tau))

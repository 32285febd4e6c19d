"""The code that visits trader supports and nonzero entries, against dense
references over all N goods, plus a pin on the utility work of one verify."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plcmarket import demand
from plcmarket.clearing import APPROXIMATE, EXACT, MODES, verify
from plcmarket.demand import Bundle, int_demand
from plcmarket.errors import UnboundedDemand
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec, is_strongly_connected, normalize_prices, prices
from plcmarket.plc import PLCFunction, linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market

from oracles import (
    bundle_in_demand,
    canonical_bundle,
    dense_demand,
    dense_in_demand,
    dense_strongly_connected,
    dense_supplies,
    dense_totals,
    dense_view,
    endowment_row,
    nonzeros,
    optimal_demand,
    own_scale_view,
    prices_with_zeros,
    random_instance,
    random_market,
    random_sparse_game_matrices,
    support,
    utility_row,
)


def _check_against_dense(m: Market, p: PriceVector):
    assert m.supplies() == dense_supplies(m)
    assert is_strongly_connected(m) == dense_strongly_connected(m)
    for i, t in enumerate(m.traders):
        endow, utils = endowment_row(t, m.n_goods), utility_row(t, m.n_goods)
        owned = [(k, endow[k]) for k in range(m.n_goods) if endow[k] != 0]
        wanted = [(k, utils[k]) for k in range(m.n_goods) if utils[k].slopes != ()]
        assert list(t.owned) == owned
        assert list(t.wanted) == wanted
        v = m.view[i]  # the view row lists the same goods, which the grid search keys its memo on
        assert sorted({k for k, _ in v.owned}.union(k for k, *_ in v.wanted)) == sorted({k for k, _ in owned + wanted})
        try:
            want = dense_demand(t, p, i)
        except UnboundedDemand as exc:
            with pytest.raises(UnboundedDemand) as got:
                optimal_demand(t, p, i)
            assert got.value.args == exc.args
            continue
        got = optimal_demand(t, p, i)
        # forced purchases are the nonzeros of the dense row, ascending by good
        assert got.forced == nonzeros(want.forced)
        assert replace(got, forced=want.forced) == want


def _demand_or_zero(t, p, i, n):
    try:
        return dense_view(canonical_bundle(optimal_demand(t, p, i)).amounts, n)
    except UnboundedDemand:
        return (F(0),) * n


def _check_reports(m: Market, p: PriceVector):
    """Each report's allocated column is the dense sum of the bundles it was
    built from: the witness on accept, the canonical bundles on a clearing
    reject (zero for a trader whose unbounded demand quasi mode waived)."""
    for mode in MODES:
        cert = verify(m, p, mode, F(1, 4))
        if cert.report is None:
            continue
        if cert.accepted:
            rows = [dense_view(b.amounts, m.n_goods) for b in cert.allocation]
        else:
            q = normalize_prices(p)
            rows = [_demand_or_zero(t, q, i, m.n_goods) for i, t in enumerate(m.traders)]
        assert [r.allocated for r in cert.report] == dense_totals(rows, m.n_goods)


@given(seed=st.integers(0, 2**32 - 1))
def test_support_code_matches_dense_references(seed):
    rng = random.Random(seed)
    m = random_market(rng)
    p = prices_with_zeros(rng, m.n_goods)
    _check_against_dense(m, p)
    _check_reports(m, p)


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2)])
def test_support_code_matches_dense_references_on_reduced_markets(n, seed):
    rng = random.Random(seed)
    m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, n)))
    assert max(len(support(t)) for t in m.traders) < m.n_goods
    for p in (
        PriceVector(tuple(F(rng.randint(1001, 1999), 1000) for _ in range(m.n_goods))),
        prices_with_zeros(rng, m.n_goods),
    ):
        _check_against_dense(m, p)
        _check_reports(m, p)


def test_strong_connectivity_matches_networkx_on_random_markets():
    verdicts = []

    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        m = random_market(random.Random(seed), max_goods=4, max_traders=5)
        verdicts.append(is_strongly_connected(m))
        assert verdicts[-1] == dense_strongly_connected(m)

    check()
    assert set(verdicts) == {True, False}


def test_witness_totals_count_a_free_top_up_off_the_support():
    # good 1 is free and wanted by nobody; trader 0 gets the top-up to its window
    a = TraderSpec([(0, F(1))], [(0, linear_plc(1))])
    b = TraderSpec([(1, F(1))], [])
    m = Market(2, (a, b))
    cert = verify(m, prices([1, 0]), APPROXIMATE, F(1, 2))
    assert cert.accepted
    assert support(a) == (0,)
    assert cert.allocation[0].amounts == ((0, F(1)), (1, F(1, 2)))
    assert [r.allocated for r in cert.report] == [F(1), F(1, 2)]


def test_witness_totals_count_residual_money_off_the_support():
    # trader 0 satiates on good 0 and must clear good 1 with its residual money
    a = TraderSpec([(0, F(2))], [(0, validate_plc([1, 0], [1]))])
    b = TraderSpec([(1, F(1))], [(0, linear_plc(1))])
    m = Market(2, (a, b))
    cert = verify(m, prices([1, 1]), EXACT)
    assert cert.accepted
    assert support(a) == (0,)
    assert cert.allocation[0].amounts == ((0, F(1)), (1, F(1)))
    assert [r.allocated for r in cert.report] == [F(2), F(1)]


def _witness_market():
    """An exact accept whose witness leaves canonical demand both on and off
    the traders' supports.  Trader 0 satiates on good 0 and must clear good 1,
    off its support, with residual money; traders 2 and 3 tie between goods 2
    and 3, and canonical demand puts both on good 2."""
    tie = ((2, linear_plc(1)), (3, linear_plc(1)))
    return Market(4, (
        TraderSpec([(0, F(2))], [(0, validate_plc([1, 0], [1]))]),
        TraderSpec([(1, F(1))], [(0, linear_plc(1))]),
        TraderSpec([(2, F(1))], tie),
        TraderSpec([(3, F(1))], tie),
    ))


def test_accepting_verify_evaluates_pieces_on_supports_only(monkeypatch):
    market, p = _witness_market(), prices([1, 1, 1, 1])
    cert = verify(market, p, EXACT)
    assert cert.accepted
    canonical = [canonical_bundle(optimal_demand(t, p, i)) for i, t in enumerate(market.traders)]
    n = market.n_goods
    differ = [
        (k in support(t), i, k)
        for i, (t, x, c) in enumerate(zip(market.traders, cert.allocation, canonical))
        for k in range(n)
        if dense_view(x.amounts, n)[k] != dense_view(c.amounts, n)[k]
    ]
    on_support = sum(1 for on, _, _ in differ if on)
    assert on_support >= 2 and (False, 0, 1) in differ
    calls = 0
    original = demand._utility

    def counted(segments, x, u):
        nonlocal calls
        calls += 1
        return original(segments, x, u)

    monkeypatch.setattr(demand, "_utility", counted)
    monkeypatch.setattr(PLCFunction, "__call__", None)  # the re-check reads the view's integers only
    assert verify(market, p, EXACT) == cert
    # the witness re-check evaluates f_k(x_k) and f_k(c_k) on the support
    # goods where the witness x and the canonical bundle c differ, and nothing
    # off the support; two full utilities per trader would be 2 * 4 * 4 = 32
    assert calls == 2 * on_support
    # a witness equal to the canonical bundles costs no evaluation at all
    calls = 0
    reduced, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(random.Random(0), 2)))
    assert verify(reduced, prices([1] * 6), APPROXIMATE, F(1, 2)).accepted
    assert calls == 0


def _moved_tie_money(t, p, d, x):
    """x with half of its money above the forced purchase on the first tie
    good moved to the priced good of lowest marginal rate, or None."""
    forced = dense_view(d.forced, len(p.prices))
    k = next((o.good for o in d.tie_offers if x[o.good] > forced[o.good]), None)
    if k is None or d.cutoff_rate == 0:
        return None

    def rate(g):  # right derivative of f_g at x_g per unit of money
        f = utility_row(t, len(p.prices))[g]
        lefts = (F(0),) + f.breaks
        seg = max((s for s in range(len(f.slopes)) if lefts[s] <= x[g]), default=None)
        return (F(0) if seg is None else f.slopes[seg]) / p.prices[g]

    others = [g for g, q in enumerate(p.prices) if q > 0 and g != k]
    if not others:
        return None
    g = min(others, key=rate)
    money = (x[k] - forced[k]) * p.prices[k] / 2
    y = list(x)
    y[k] -= money / p.prices[k]
    y[g] += money / p.prices[g]
    return tuple(y)


def _in_demand_candidates(t, p, d, x):
    """x itself, then x with tie money moved to a lower-rate offer, one entry
    made negative, one entry raised past the budget, one canonical entry
    removed, and a satiated free good topped up."""
    k = next(g for g, q in enumerate(p.prices) if q > 0)
    yield x, None
    yield _moved_tie_money(t, p, d, x), None
    yield (F(-1, 8),) + x[1:], False
    yield x[:k] + (x[k] + (d.budget + 1) / p.prices[k],) + x[k + 1:], False
    c = canonical_bundle(d).amounts
    if c:
        g = c[0][0]
        yield x[:g] + (F(0),) + x[g + 1:], None
    free = [g for g, _ in d.forced if p.prices[g] == 0]
    if free:
        g = free[-1]
        yield x[:g] + (x[g] + F(1, 3),) + x[g + 1:], True


@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["random", "tie-rich", "mn", "reduced", "coprime"]))
def test_sparse_demand_sets_match_dense_oracles(seed, family):
    """optimal_demand's forced pairs fill dense_demand's forced row, and
    in_demand agrees with dense_in_demand on canonical bundles, accept
    witnesses and their perturbations, on every instance family."""
    rng = random.Random(seed)
    m, p = random_instance(rng, family)
    n = m.n_goods
    cert = verify(m, p, APPROXIMATE, F(1, 2))
    for i, t in enumerate(m.traders):
        try:
            d = optimal_demand(t, p, i)
        except UnboundedDemand:
            continue
        assert dense_view(d.forced, n) == dense_demand(t, p, i).forced
        core = int_demand(own_scale_view(t), p.scaled[1], i)
        bundles = [dense_view(canonical_bundle(d).amounts, n)]
        if cert.accepted:
            bundles.append(dense_view(cert.allocation[i].amounts, n))
        for x in bundles:
            assert bundle_in_demand(t, p, core, Bundle(nonzeros(x)))
            for y, expect in _in_demand_candidates(t, p, d, x):
                if y is None:
                    continue
                got = bundle_in_demand(t, p, core, Bundle(nonzeros(y)))
                assert got == dense_in_demand(t, p, d, y)
                assert expect is None or got == expect
            assert not bundle_in_demand(t, p, core, Bundle(nonzeros(x) + ((n, F(0)),)))


def test_in_demand_rejects_a_good_outside_the_market():
    t = TraderSpec([(0, F(1))], [(0, linear_plc(1))])
    p = prices([1, 1])
    d = int_demand(own_scale_view(t), p.scaled[1])
    assert bundle_in_demand(t, p, d, Bundle(((0, F(1)),)))
    for k in (-1, 2, 3):
        assert not bundle_in_demand(t, p, d, Bundle(((0, F(1)), (k, F(0)))))
        assert not bundle_in_demand(t, p, d, Bundle(((k, F(1)),)))

"""The code that visits trader supports and nonzero entries, against dense
references over all N goods, plus a pin on the utility work of one verify."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plcmarket.clearing import APPROXIMATE, EXACT, MODES, verify
from plcmarket.demand import Bundle, budget, canonical_bundle, in_demand, optimal_demand
from plcmarket.errors import UnboundedDemand
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec, is_strongly_connected, normalize_prices, prices
from plcmarket.plc import ZERO_PLC, PLCFunction, linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market

from oracles import (
    dense_budget,
    dense_cost,
    dense_demand,
    dense_in_demand,
    dense_strongly_connected,
    dense_supplies,
    dense_totals,
    random_market,
    random_sparse_game_matrices,
    tie_rich_market,
)


def _prices_with_zeros(rng, n):
    while True:
        vec = [F(0) if rng.random() < 0.25 else F(rng.randint(1, 16), 8) for _ in range(n)]
        if any(vec):
            return PriceVector(tuple(vec))


def _bundle(rng, n):
    """Dense bundle, zero on about half the goods whatever the supports."""
    return tuple(F(0) if rng.random() < 0.5 else F(rng.randint(1, 16), 8) for _ in range(n))


def _check_against_dense(m: Market, p: PriceVector, rng):
    assert m.supplies() == dense_supplies(m)
    assert is_strongly_connected(m) == dense_strongly_connected(m)
    for i, t in enumerate(m.traders):
        owned = [(k, t.endowment[k]) for k in range(m.n_goods) if t.endowment[k] != 0]
        wanted = [(k, t.utilities[k]) for k in range(m.n_goods) if t.utilities[k].slopes != ()]
        assert list(t.owned) == owned
        assert list(t.wanted) == wanted
        assert list(t.support) == sorted({k for k, _ in owned + wanted})
        assert budget(t, p) == dense_budget(t, p)
        x = _bundle(rng, m.n_goods)
        assert Bundle(x).cost(p) == dense_cost(x, p)
        try:
            want = dense_demand(t, p, i)
        except UnboundedDemand as exc:
            with pytest.raises(UnboundedDemand) as got:
                optimal_demand(t, p, i)
            assert got.value.args == exc.args
            continue
        assert optimal_demand(t, p, i) == want


def _demand_or_zero(t, p, i, n):
    try:
        return canonical_bundle(optimal_demand(t, p, i)).quantities
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
            rows = [b.quantities for b in cert.allocation]
        else:
            q = normalize_prices(p)
            rows = [_demand_or_zero(t, q, i, m.n_goods) for i, t in enumerate(m.traders)]
        assert [r.allocated for r in cert.report] == dense_totals(rows, m.n_goods)


@given(seed=st.integers(0, 2**32 - 1))
def test_support_code_matches_dense_references(seed):
    rng = random.Random(seed)
    m = random_market(rng)
    p = _prices_with_zeros(rng, m.n_goods)
    _check_against_dense(m, p, rng)
    _check_reports(m, p)


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2)])
def test_support_code_matches_dense_references_on_reduced_markets(n, seed):
    rng = random.Random(seed)
    m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, n)))
    assert max(len(t.support) for t in m.traders) < m.n_goods
    for p in (
        PriceVector(tuple(F(rng.randint(1001, 1999), 1000) for _ in range(m.n_goods))),
        _prices_with_zeros(rng, m.n_goods),
    ):
        _check_against_dense(m, p, rng)
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
    a = TraderSpec((F(1), F(0)), (linear_plc(1), ZERO_PLC))
    b = TraderSpec((F(0), F(1)), (ZERO_PLC, ZERO_PLC))
    m = Market(2, (a, b))
    cert = verify(m, prices([1, 0]), APPROXIMATE, F(1, 2))
    assert cert.accepted
    assert a.support == (0,)
    assert cert.allocation[0].quantities == (F(1), F(1, 2))
    assert [r.allocated for r in cert.report] == [F(1), F(1, 2)]


def test_witness_totals_count_residual_money_off_the_support():
    # trader 0 satiates on good 0 and must clear good 1 with its residual money
    a = TraderSpec((F(2), F(0)), (validate_plc([1, 0], [1]), ZERO_PLC))
    b = TraderSpec((F(0), F(1)), (linear_plc(1), ZERO_PLC))
    m = Market(2, (a, b))
    cert = verify(m, prices([1, 1]), EXACT)
    assert cert.accepted
    assert a.support == (0,)
    assert cert.allocation[0].quantities == (F(1), F(1))
    assert [r.allocated for r in cert.report] == [F(2), F(1)]


def _witness_market():
    """An exact accept whose witness leaves canonical demand both on and off
    the traders' supports.  Trader 0 satiates on good 0 and must clear good 1,
    off its support, with residual money; traders 2 and 3 tie between goods 2
    and 3, and canonical demand puts both on good 2."""
    tie = (ZERO_PLC, ZERO_PLC, linear_plc(1), linear_plc(1))
    return Market(4, (
        TraderSpec((F(2), F(0), F(0), F(0)), (validate_plc([1, 0], [1]),) + (ZERO_PLC,) * 3),
        TraderSpec((F(0), F(1), F(0), F(0)), (linear_plc(1),) + (ZERO_PLC,) * 3),
        TraderSpec((F(0), F(0), F(1), F(0)), tie),
        TraderSpec((F(0), F(0), F(0), F(1)), tie),
    ))


def test_accepting_verify_evaluates_pieces_on_supports_only(monkeypatch):
    market, p = _witness_market(), prices([1, 1, 1, 1])
    cert = verify(market, p, EXACT)
    assert cert.accepted
    canonical = [canonical_bundle(optimal_demand(t, p, i)) for i, t in enumerate(market.traders)]
    differ = [
        (k in t.support, i, k)
        for i, (t, x, c) in enumerate(zip(market.traders, cert.allocation, canonical))
        for k in range(market.n_goods)
        if x.quantities[k] != c.quantities[k]
    ]
    on_support = sum(1 for on, _, _ in differ if on)
    assert on_support >= 2 and (False, 0, 1) in differ
    calls = 0
    original = PLCFunction.__call__

    def counted(self, x):
        nonlocal calls
        calls += 1
        return original(self, x)

    monkeypatch.setattr(PLCFunction, "__call__", counted)
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
    k = next((o.good for o in d.tie_offers if x[o.good] > d.forced[o.good]), None)
    if k is None or d.cutoff_rate == 0:
        return None

    def rate(g):  # right derivative of f_g at x_g per unit of money
        f = t.utilities[g]
        lefts = (F(0),) + f.breaks
        seg = max((s for s in range(len(f.slopes)) if lefts[s] <= x[g]), default=None)
        return (F(0) if seg is None else f.slopes[seg]) / p.prices[g]

    others = [g for g, q in enumerate(p.prices) if q > 0 and g != k]
    if not others:
        return None
    g = min(others, key=rate)
    money = (x[k] - d.forced[k]) * p.prices[k] / 2
    y = list(x)
    y[k] -= money / p.prices[k]
    y[g] += money / p.prices[g]
    return tuple(y)


def _in_demand_candidates(t, p, d, x):
    """x itself, then x with tie money moved to a lower-rate offer, one entry
    made negative, one entry raised past the budget, and a wrong length."""
    k = next(g for g, q in enumerate(p.prices) if q > 0)
    yield x, None
    yield _moved_tie_money(t, p, d, x), None
    yield (F(-1, 8),) + x[1:], False
    yield x[:k] + (x[k] + (d.budget + 1) / p.prices[k],) + x[k + 1:], False
    yield x + (F(0),), False
    yield x[:-1], False


@given(seed=st.integers(0, 2**32 - 1), tie_rich=st.booleans())
def test_in_demand_matches_dense_reference(seed, tie_rich):
    rng = random.Random(seed)
    if tie_rich:
        vec = [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        m = tie_rich_market(rng, vec)
        p = normalize_prices(prices(vec))
    else:
        m = random_market(rng)
        p = normalize_prices(_prices_with_zeros(rng, m.n_goods))
    cert = verify(m, p, APPROXIMATE, F(1, 2))
    for i, t in enumerate(m.traders):
        try:
            d = optimal_demand(t, p, i)
        except UnboundedDemand:
            continue
        bundles = [canonical_bundle(d).quantities]
        if cert.accepted:
            bundles.append(cert.allocation[i].quantities)
        for x in bundles:
            assert in_demand(t, p, d, Bundle(x))
            for y, expect in _in_demand_candidates(t, p, d, x):
                if y is None:
                    continue
                got = in_demand(t, p, d, Bundle(y))
                assert got == dense_in_demand(t, p, d, y)
                assert expect is None or got == expect

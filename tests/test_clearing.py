import random
from fractions import Fraction as F

import pytest

from plcmarket import clearing, demand
from plcmarket.clearing import (
    APPROXIMATE,
    EXACT,
    QUASI,
    clearing_feasibility,
    imbalance_profile,
    verify,
)
from plcmarket.demand import Bundle, in_demand, int_demand, optimal_demand
from plcmarket.errors import AllZeroPrices, InputError, InvalidMarket, ShapeMismatch, UnboundedDemand
from plcmarket.model import Market, TraderSpec, normalize_prices, prices
from plcmarket.plc import linear_plc, validate_plc
from plcmarket.regulating import build_mn
from plcmarket.serialize import certificate_to_obj, dumps

from oracles import brute_force_clearing, random_market


def test_single_self_sufficient_trader_exact():
    m = Market(1, (TraderSpec([(0, F(1))], [(0, linear_plc(1))]),))
    for p in ([1], [F(7, 3)]):
        alloc = clearing_feasibility(m, prices(p), 0)
        assert alloc is not None
        assert alloc[0].amounts == ((0, F(1)),)


def test_m2_box_prices_feasible():
    m = build_mn(2)
    p = prices([1, 1], normalized=True)
    alloc = clearing_feasibility(m, p, F(1, 2))
    assert alloc is not None
    # and the endowment allocation itself is a valid witness
    for i, t in enumerate(m.traders):
        assert in_demand(t, p, optimal_demand(t, p, i), Bundle(t.owned))


def test_m2_out_of_box_infeasible():
    m = build_mn(2)
    assert clearing_feasibility(m, prices([1, 3], normalized=True), F(1, 2)) is None


def test_m2_tie_splitting_needed_at_corner():
    # at p = (1, 2) the (2,1) trader is indifferent; only a tie split clears
    m = build_mn(2)
    cert = verify(m, prices([1, 2]), EXACT)
    assert cert.accepted
    assert all(r.imbalance == 0 for r in cert.report)


def test_m4_example_modes():
    m = build_mn(4)
    p = prices([1, 2, 1, 2])
    assert verify(m, p, APPROXIMATE, F(1, 4)).accepted
    assert verify(m, p, QUASI).accepted


def test_verify_normalizes_input():
    m = build_mn(3)
    assert verify(m, prices([2, 2, 2]), EXACT).accepted


def test_all_zero_prices_rejected():
    m = build_mn(2)
    with pytest.raises(AllZeroPrices):
        verify(m, prices([0, 1]).__class__((F(0), F(0)), False), EXACT)


def test_unbounded_demand_rejects():
    m = build_mn(2)
    cert = verify(m, prices([0, 1]), APPROXIMATE, F(1, 2))
    assert not cert.accepted
    assert "unbounded" in cert.reason


def test_quasi_vs_exact_zero_income_trader():
    # B has zero income and a satiated want for good 2 that supply cannot meet
    a = TraderSpec([(0, F(1)), (1, F(3))], [(0, linear_plc(1))], "A")
    b = TraderSpec([], [(1, validate_plc([1, 0], [5]))], "B")
    m = Market(2, (a, b))
    p = prices([1, 0], normalized=True)
    assert verify(m, p, QUASI).accepted
    assert not verify(m, p, EXACT).accepted


def test_quasi_equals_exact_when_incomes_positive():
    m = build_mn(3)
    for vec in ([1, 1, 1], [1, 2, F(3, 2)], [1, 3, 1]):
        assert verify(m, prices(vec), EXACT).accepted == verify(m, prices(vec), QUASI).accepted


def test_every_entry_point_checks_price_length():
    m = build_mn(2)
    for vec in ([1, 2, 2], [1]):
        p = prices(vec)
        for call in (
            lambda: verify(m, p, APPROXIMATE, F(1, 2)),
            lambda: clearing_feasibility(m, p, F(1, 2)),
            lambda: imbalance_profile(m, p),
        ):
            with pytest.raises(ShapeMismatch, match="expected 2 prices"):
                call()


def test_every_entry_point_takes_an_exact_nonnegative_epsilon():
    m, p = build_mn(2), prices([1, 1])
    for call in (
        lambda eps: verify(m, p, APPROXIMATE, eps),
        lambda eps: clearing_feasibility(m, p, eps),
        lambda eps: imbalance_profile(m, p, eps),
    ):
        with pytest.raises(InputError, match="float"):
            call(0.5)
        for eps in (-1, F(-1, 2), "-1/2"):
            with pytest.raises(InvalidMarket, match="nonnegative"):
                call(eps)
        assert call("1/2") == call(F(1, 2))
    assert verify(m, p, EXACT, 0.5).epsilon == 0  # exact mode pins eps to 0


def test_accepting_verify_computes_each_demand_once(monkeypatch):
    calls, supplies_calls = [], []
    supplies = Market.supplies

    def counting(trader, P, trader_idx=None):
        calls.append(trader_idx)
        return int_demand(trader, P, trader_idx)

    def fraction_path(*args):
        raise AssertionError("verify reached the Fraction demand oracle")

    monkeypatch.setattr(clearing, "int_demand", counting)
    monkeypatch.setattr(clearing, "optimal_demand", fraction_path)
    monkeypatch.setattr(demand, "optimal_demand", fraction_path)
    m = build_mn(4)
    monkeypatch.setattr(Market, "supplies", lambda self: supplies_calls.append(1) or supplies(self))
    assert verify(m, prices([1, 2, F(5, 4), F(11, 8)]), APPROXIMATE, F(1, 4)).accepted
    assert calls == list(range(len(m.traders)))
    assert len(supplies_calls) == 1


def test_imbalance_profile_m2():
    m = build_mn(2)
    prof = imbalance_profile(m, prices([1, 1], normalized=True))
    assert all(r.imbalance == 0 for r in prof)
    prof2 = imbalance_profile(m, prices([1, 3], normalized=True))
    assert any(r.imbalance != 0 for r in prof2)


def test_imbalance_profile_indifferent_traders():
    # nobody buys anything: allocated 0, imbalance equals -supply
    t = TraderSpec([(0, F(2)), (1, F(1))], [])
    m = Market(2, (t,))
    prof = imbalance_profile(m, prices([1, 1]))
    assert [r.imbalance for r in prof] == [F(-2), F(-1)]


def test_epsilon_monotonicity():
    m = build_mn(3)
    rng = random.Random(5)
    for _ in range(20):
        vec = [1 + F(rng.randint(0, 24), 16) for _ in range(3)]
        p = normalize_prices(prices(vec))
        feasible_small = clearing_feasibility(m, p, F(1, 8)) is not None
        feasible_big = clearing_feasibility(m, p, F(1, 2)) is not None
        if feasible_small:
            assert feasible_big


def test_mode_hierarchy_on_exact_accepts():
    m = build_mn(3)
    p = prices([1, F(3, 2), 2])
    assert verify(m, p, EXACT).accepted
    for eps in (0, F(1, 3), F(1, 2)):
        assert verify(m, p, APPROXIMATE, eps).accepted
    assert verify(m, p, QUASI).accepted


def test_witness_revalidates():
    m = build_mn(4)
    p = normalize_prices(prices([1, 2, F(5, 4), F(11, 8)]))
    cert = verify(m, p, APPROXIMATE, F(1, 4))
    assert cert.accepted
    for i, t in enumerate(m.traders):
        assert in_demand(t, p, optimal_demand(t, p, i), cert.allocation[i])
    for row in cert.report:
        assert abs(row.imbalance) <= row.bound


def test_certificates_deterministic():
    m = build_mn(3)
    p = prices([1, F(5, 4), 2])
    a = dumps(certificate_to_obj(verify(m, p, APPROXIMATE, F(1, 3))))
    b = dumps(certificate_to_obj(verify(m, p, APPROXIMATE, F(1, 3))))
    assert a == b


def test_zero_supply_good_requires_zero_allocation():
    # good 2 exists but nobody owns it; a trader wants it at a positive price
    a = TraderSpec([(0, F(1))], [(0, linear_plc(2)), (1, linear_plc(1))], "A")
    m = Market(2, (a,))
    # at p=(1,1) the trader spends everything on good 1: feasible
    assert clearing_feasibility(m, prices([1, 1]), 0) is not None
    # at p=(2,1) the rates tie, so keeping the endowment still clears
    assert clearing_feasibility(m, prices([2, 1]), 0) is not None
    # at p=(3,1) the unsupplied good is strictly better per unit money: infeasible
    assert clearing_feasibility(m, prices([3, 1]), 0) is None


def test_flow_matches_brute_force_smoke():
    rng = random.Random(11)
    agree = 0
    for _ in range(40):
        m = random_market(rng, max_goods=2, max_traders=2)
        p = prices([F(rng.choice([1, 2, 3, 4]), 2) for _ in range(m.n_goods)])
        eps = rng.choice([F(0), F(1, 4), F(1, 2)])
        try:
            got = clearing_feasibility(m, p, eps) is not None
        except UnboundedDemand:
            continue
        assert got == brute_force_clearing(m, p, eps)
        agree += 1
    assert agree >= 25

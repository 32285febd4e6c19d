import json
import random
from fractions import Fraction as F

import pytest

from plcmarket import serialize
from plcmarket.clearing import APPROXIMATE, verify
from plcmarket.errors import InputError, InvalidMarket, NTooSmall
from plcmarket.games import mixed, validate_game
from plcmarket.model import prices
from plcmarket.rational import format_rational, parse_rational
from plcmarket.reduction import ReducedMarketMeta, build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.search import SearchConfig, search_equilibrium, unit_box

from oracles import game_to_obj, random_sparse_game_matrices


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/6") == F(-1, 2)  # auto-reduced
    assert parse_rational("5") == F(5)
    assert parse_rational(7) == F(7)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(5)) == "5/1"


def test_parse_rational_rejections():
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational(0.5)
    with pytest.raises(InputError):
        parse_rational("abc")
    with pytest.raises(InputError):
        parse_rational(True)


def test_market_round_trip():
    m = build_mn(3)
    obj = json.loads(serialize.dumps(m))
    back = serialize.market_from_obj(obj)
    assert back == m


def test_reduced_market_round_trip():
    game = validate_game([[1, F(-1, 2)], [0, F(1, 4)]], [[0, 1], [-1, 0]])
    market, meta = build_reduced_market(game)
    assert serialize.market_from_obj(json.loads(serialize.dumps(market))) == market
    assert serialize.meta_from_obj(serialize.meta_to_obj(meta)) == meta


def test_meta_ints_reject_bool_and_pairs_must_match():
    game = validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    obj = serialize.meta_to_obj(build_reduced_market(game)[1])
    assert obj["v_pairs"] == obj["u_pairs"]
    for key in ("game_n", "n_goods", "s_count", "i_count"):
        with pytest.raises(InputError):
            serialize.meta_from_obj({**obj, key: True})
    with pytest.raises(InputError):
        serialize.meta_from_obj({**obj, "v_pairs": [[1, 0], [0, 1]]})
    with pytest.raises(InputError):
        serialize.meta_from_obj({**obj, "u_pairs": [[0, True], [1, 0]]})


@pytest.mark.parametrize("stale", [
    {"game_n": 3},
    {"n_goods": 99},
    {"s_count": 7},
    {"i_count": 0},
    {"u_pairs": [[1, 0], [0, 1]], "v_pairs": [[1, 0], [0, 1]]},
    {"u_pairs": [], "v_pairs": []},
], ids=["game_n", "n_goods", "s_count", "i_count", "pair-order", "no-pairs"])
def test_meta_keys_must_agree_with_game_n(stale):
    obj = serialize.meta_to_obj(ReducedMarketMeta(2))
    with pytest.raises(InputError):
        serialize.meta_from_obj({**obj, **stale})


def test_meta_of_a_game_too_small_or_too_large_is_rejected_promptly():
    with pytest.raises(NTooSmall):
        serialize.meta_from_obj(
            {"game_n": 1, "n_goods": 99, "s_count": 7, "i_count": 0, "u_pairs": [[5, 5]], "v_pairs": [[5, 5]]}
        )
    n = 10**9  # its pairs would never fit in memory; the stored ones must be rejected unlisted
    meta = ReducedMarketMeta(n)
    obj = {"game_n": n, "n_goods": meta.n_goods, "s_count": meta.s_count, "i_count": meta.i_count,
           "u_pairs": [[0, 1]], "v_pairs": [[0, 1]]}
    with pytest.raises(InputError):
        serialize.meta_from_obj(obj)


def test_prices_round_trip():
    p = prices([1, F(3, 2), 0], normalized=True)
    assert serialize.prices_from_obj(serialize.prices_to_obj(p)) == p


def test_game_and_strategy_round_trip():
    g = validate_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    assert serialize.game_from_obj(game_to_obj(g)) == g
    x, y = mixed([F(1, 3), F(2, 3)]), mixed([1, 0])
    assert serialize.strategies_from_obj(serialize.strategies_to_obj(x, y)) == (x, y)


def test_game_declared_size_must_match():
    obj = {"n": 3, "A": [["0", "0"], ["0", "0"]], "B": [["0", "0"], ["0", "0"]]}
    with pytest.raises(InputError):
        serialize.game_from_obj(obj)


def test_game_rows_must_be_lists():
    # a number row used to crash with TypeError; a string row was read digit by digit
    for bad_row in ("10", 5):
        obj = {"n": 2, "A": [bad_row, ["0", "0"]], "B": [["0", "0"], ["0", "0"]]}
        with pytest.raises(InputError, match="row of A"):
            serialize.game_from_obj(obj)
        obj = {"n": 2, "A": [["0", "0"], ["0", "0"]], "B": [["0", "0"], bad_row]}
        with pytest.raises(InputError, match="row of B"):
            serialize.game_from_obj(obj)


def test_certificate_serialization_shape():
    m = build_mn(2)
    cert = verify(m, prices([1, 2]), APPROXIMATE, F(1, 2))
    obj = serialize.certificate_to_obj(cert)
    assert obj["verdict"] == "accept"
    assert obj["epsilon"] == "1/2"
    assert len(obj["allocation"]) == len(m.traders)
    assert {row["good"] for row in obj["report"]} == {0, 1}


def test_search_report_serialization():
    rep = search_equilibrium(
        build_mn(2), SearchConfig(box=unit_box(2), grid_k=2, refine_rounds=0, epsilon=F(1, 2))
    )
    obj = serialize.search_report_to_obj(rep)
    assert obj["accepted"] is True
    assert obj["best_price"]["normalized"] is True


def test_malformed_market_objects():
    with pytest.raises(InputError):
        serialize.market_from_obj({"traders": []})
    with pytest.raises(InputError):
        serialize.market_from_obj({"n_goods": 1, "traders": [{"endowment": ["1"]}]})
    with pytest.raises(InputError):
        serialize.market_from_obj(
            {"n_goods": 1, "traders": [{"endowment": [0.5], "utilities": [{"kind": "zero"}]}]}
        )
    with pytest.raises(InputError):
        serialize.market_from_obj(
            {"n_goods": True, "traders": [{"endowment": ["1"], "utilities": [{"kind": "zero"}]}]}
        )


BAD_ROWS = [
    ("endowment", ["1/2"]),
    ("endowment", ["1/2", "0/1", "0/1"]),
    ("utilities", [{"kind": "zero"}]),
    ("utilities", [{"kind": "zero"}] * 3),
]


@pytest.mark.parametrize("key, row", BAD_ROWS, ids=["short-endowment", "long-endowment",
                                                    "short-utilities", "long-utilities"])
def test_market_rows_must_have_n_goods_entries(key, row):
    obj = json.loads(serialize.dumps(build_mn(2)))
    obj["traders"][1][key] = row
    with pytest.raises(InvalidMarket):
        serialize.market_from_obj(obj)


def test_parse_shares_identical_values_within_one_call_only():
    rng = random.Random(0)
    reduced, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, 2)))
    for market in (build_mn(4), reduced):
        obj = json.loads(serialize.dumps(market))
        first, second = serialize.market_from_obj(obj), serialize.market_from_obj(obj)
        assert first == market and second == market
        pieces = [f for t in first.traders for _, f in t.wanted if not f.is_zero]
        assert len({id(f) for f in pieces}) == len(set(pieces)) < len(pieces)
        again = {f: f for t in second.traders for _, f in t.wanted if not f.is_zero}
        assert all(again[f] is not f for f in pieces)
        shares = [w for t in first.traders for _, w in t.owned if w]
        assert len({id(w) for w in shares}) == len(set(shares)) < len(shares)
        rows = [t.owned for t in first.traders if t.owned]
        assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)
        assert not {id(r) for r in rows} & {id(t.owned) for t in second.traders}


def test_parse_rejects_true_after_an_equal_entry():
    one = {"slopes": [1], "breaks": []}
    for w, u in (([1, True], [one, one]), (["1", "1"], [one, {"slopes": [True], "breaks": []}])):
        obj = {"n_goods": 2, "traders": [{"endowment": w, "utilities": u}]}
        with pytest.raises(InputError, match="True"):
            serialize.market_from_obj(obj)
    # two rows that are equal and hash alike, the second with true in it
    obj = {"n_goods": 2, "traders": [{"endowment": w, "utilities": [one, one]} for w in ([1, 0], [True, 0])]}
    with pytest.raises(InputError, match="True"):
        serialize.market_from_obj(obj)

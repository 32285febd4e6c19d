import gc
import json
import random
import sys
import time

import pytest
from click.testing import CliRunner

from plcmarket import serialize
from plcmarket.cli import main
from plcmarket.clearing import APPROXIMATE, verify
from plcmarket.errors import InternalInvariantViolation, InvalidMarket
from plcmarket.games import validate_game
from plcmarket.model import PriceVector, normalize_prices, prices
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.search import SearchReport

from oracles import game_to_obj, random_sparse_game_matrices


def run(*args):
    return CliRunner().invoke(main, list(args))


def write(path, obj):
    path.write_text(json.dumps(obj))


COORD = {"n": 2, "A": [["1", "0"], ["0", "1"]], "B": [["1", "0"], ["0", "1"]]}


def test_gen_mn_and_validate(tmp_path):
    out = tmp_path / "m2.json"
    assert run("gen-mn", "--n", "2", "-o", str(out)).exit_code == 0
    res = run("validate", str(out))
    assert res.exit_code == 0
    assert "OK" in res.output


def test_gen_mn_prints_the_bytes_it_writes(tmp_path):
    out = tmp_path / "m4.json"
    assert run("gen-mn", "--n", "4", "-o", str(out)).exit_code == 0
    res = run("gen-mn", "--n", "4", "--json")
    assert res.exit_code == 0 and res.output == out.read_text()


def test_out_and_json_print_the_written_bytes_encoding_once(tmp_path, monkeypatch):
    """With both -o and --json, a command echoes the text it wrote, and
    encodes its artifact once."""
    calls = []
    dumps = serialize.dumps

    def counting(obj):
        calls.append(obj)
        return dumps(obj)

    monkeypatch.setattr(serialize, "dumps", counting)
    market, cert = tmp_path / "m4.json", tmp_path / "cert.json"
    res = run("gen-mn", "--n", "4", "-o", str(market), "--json")
    assert res.exit_code == 0 and res.output == market.read_text() and len(calls) == 1
    write(tmp_path / "p.json", {"prices": ["1", "2", "3/2", "1"], "normalized": True})
    calls.clear()
    res = run("verify", "--market", str(market), "--prices", str(tmp_path / "p.json"),
              "--mode", "approximate", "--eps", "1/2", "-o", str(cert), "--json")
    assert res.exit_code == 0 and res.output == cert.read_text() and len(calls) == 1
    assert json.loads(res.output)["verdict"] == "accept"


def test_gen_mn_rejects_small_n():
    assert run("gen-mn", "--n", "1").exit_code == 2


def test_verify_exit_codes(tmp_path):
    market = tmp_path / "m.json"
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    assert run("gen-mn", "--n", "2", "-o", str(market)).exit_code == 0
    write(good, {"prices": ["1", "2"], "normalized": True})
    write(bad, {"prices": ["1", "3"], "normalized": True})
    assert run("verify", "--market", str(market), "--prices", str(good),
               "--mode", "approximate", "--eps", "1/2").exit_code == 0
    assert run("verify", "--market", str(market), "--prices", str(bad),
               "--mode", "approximate", "--eps", "1/2").exit_code == 1
    assert run("verify", "--market", str(market), "--prices", str(good),
               "--mode", "exact").exit_code == 0


def test_malformed_json_is_input_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    res = run("validate", str(broken))
    assert res.exit_code == 2
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    res = run("verify", "--market", str(market), "--prices", str(broken))
    assert res.exit_code == 2


def test_validate_rejects_negative_endowment(tmp_path):
    bad = tmp_path / "bad_market.json"
    write(bad, {
        "n_goods": 1,
        "traders": [{"endowment": ["-1"], "utilities": [{"kind": "zero"}]}],
    })
    assert run("validate", str(bad)).exit_code == 2


def test_market_row_of_the_wrong_length_is_input_error(tmp_path):
    market = tmp_path / "m2.json"
    assert run("gen-mn", "--n", "2", "-o", str(market)).exit_code == 0
    good = json.loads(market.read_text())
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"], "normalized": True})
    for key, row in (("endowment", ["1/2"]), ("endowment", ["1/2", "0/1", "0/1"]),
                     ("utilities", [{"kind": "zero"}])):
        bad = tmp_path / f"bad_{key}_{len(row)}.json"
        obj = json.loads(json.dumps(good))
        obj["traders"][1][key] = row
        write(bad, obj)
        res = run("verify", "--market", str(bad), "--prices", str(p), "--eps", "1/2")
        assert res.exit_code == 2 and "trader 1" in res.output
        res = run("validate", str(bad))
        assert res.exit_code == 2 and "INVALID" in res.output


def test_meta_that_contradicts_its_game_size_is_input_error(tmp_path):
    meta = tmp_path / "meta.json"
    write(meta, {"game_n": 1, "n_goods": 99, "s_count": 7, "i_count": 0, "u_pairs": [[5, 5]], "v_pairs": [[5, 5]]})
    res = run("validate", str(meta))
    assert res.exit_code == 2 and "INVALID" in res.output
    stale = tmp_path / "stale.json"
    write(stale, {"game_n": 2, "n_goods": 99, "s_count": 30, "i_count": 4,
                  "u_pairs": [[0, 1], [1, 0]], "v_pairs": [[0, 1], [1, 0]]})
    res = run("validate", str(stale))
    assert res.exit_code == 2 and "n_goods disagrees with game_n=2" in res.output
    p = tmp_path / "p.json"
    write(p, {"prices": ["2", "1", "1", "2", "1", "1"], "normalized": True})
    res = run("extract", "--prices", str(p), "--meta", str(stale))
    assert res.exit_code == 2 and "n_goods" in res.output


def test_reduce_extract_check_nash(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    market = tmp_path / "market.json"
    meta = tmp_path / "meta.json"
    assert run("reduce", "--game", str(game), "-o", str(market), "--meta", str(meta)).exit_code == 0
    assert run("validate", str(market), str(meta), str(game)).exit_code == 0

    p = tmp_path / "prices.json"
    write(p, {"prices": ["2", "1", "2", "1", "1", "1"], "normalized": True})
    strat = tmp_path / "strat.json"
    assert run("extract", "--prices", str(p), "--meta", str(meta), "-o", str(strat)).exit_code == 0
    loaded = json.loads(strat.read_text())
    assert loaded["x"] == ["1/1", "0/1"] and loaded["y"] == ["1/1", "0/1"]

    # (e1, e1) is an exact equilibrium of the coordination game
    assert run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "0").exit_code == 0
    # the mismatched pure profile fails at eps = 0
    write(strat, {"x": ["1", "0"], "y": ["0", "1"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "0", "--json")
    assert res.exit_code == 1
    assert json.loads(res.output)["witness"] is not None


def test_verify_of_a_parsed_market_never_builds_its_traders(tmp_path, monkeypatch):
    """`verify` reads a parsed market's integer view only: a CLI verify of a
    reduced n = 4 market, accepting at eps 1/2 and rejecting at N^-13,
    leaves the market's traders, its Fraction layer, unbuilt."""
    game, market, meta, p = (tmp_path / name for name in ("game.json", "market.json", "meta.json", "p.json"))
    rng = random.Random(4)
    write(game, game_to_obj(validate_game(*random_sparse_game_matrices(rng, 4))))
    assert run("reduce", "--game", str(game), "-o", str(market), "--meta", str(meta)).exit_code == 0
    write(p, {"prices": ["1"] * 10, "normalized": True})
    parsed = []
    parse = serialize.market_from_obj
    monkeypatch.setattr(serialize, "market_from_obj", lambda obj: parsed.append(parse(obj)) or parsed[-1])
    for eps, code in (("1/2", 0), ("N^-13", 1)):
        res = run("verify", "--market", str(market), "--prices", str(p), "--mode", "approximate", "--eps", eps)
        assert res.exit_code == code, res.output
        assert "traders" not in vars(parsed[-1])
    assert parsed[-1].traders == serialize.market_from_obj(json.loads(market.read_text())).traders


def test_check_nash_wrong_length_profile_is_input_error(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["0", "0", "1"], "y": ["1", "0"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "0")
    assert res.exit_code == 2 and "weights" in res.output


def test_check_nash_relative_eps(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["1", "0"], "y": ["1", "0"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "n^-6", "--json")
    assert res.exit_code == 0
    assert json.loads(res.output)["epsilon"] == "1/64"


def test_solve_game_cli(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    res = run("solve-game", "--game", str(game), "--json")
    assert res.exit_code == 0
    assert len(json.loads(res.output)["equilibria"]) == 3


def test_solve_game_past_the_support_enumeration_cap_is_input_error(tmp_path):
    game = tmp_path / "game.json"
    write(game, {"n": 5, "A": [["0"] * 5] * 5, "B": [["0"] * 5] * 5})
    res = run("solve-game", "--game", str(game))
    assert res.exit_code == 2 and "capped at n = 4" in res.output


def test_search_eq_cli(tmp_path):
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    out = tmp_path / "report.json"
    res = run("search-eq", "--market", str(market), "--eps", "1/2",
              "--grid-k", "4", "--rounds", "0", "-o", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert report["accepted"] is True
    assert report["best_price"]["normalized"] is True


def test_pipeline_artifacts(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    outdir = tmp_path / "run"
    res = run("pipeline", "--game", str(game), "--outdir", str(outdir),
              "--grid-k", "1", "--rounds", "1")
    assert res.exit_code in (0, 1)  # finding an equilibrium at N^-13 is not promised
    for name in ("market.json", "meta.json", "search.json", "summary.json"):
        assert (outdir / name).exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["n_goods"] == 6
    assert summary["support_enum"] is not None
    if not summary["equilibrium_found"]:
        assert summary["nash_check"] == {"status": "skipped-by-precision"}


ONE_GOOD = {"n_goods": 1, "traders": [
    {"endowment": ["1"], "utilities": [{"slopes": ["1"], "breaks": []}]}]}


def test_verify_rejects_wrong_length_prices(tmp_path):
    market = tmp_path / "m.json"
    write(market, ONE_GOOD)
    long_p = tmp_path / "long.json"
    write(long_p, {"prices": ["1", "5"]})
    res = run("verify", "--market", str(market), "--prices", str(long_p))
    assert res.exit_code == 2 and "expected 1 prices" in res.output
    m2 = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(m2))
    short_p = tmp_path / "short.json"
    write(short_p, {"prices": ["1"]})
    res = run("verify", "--market", str(m2), "--prices", str(short_p))
    assert res.exit_code == 2 and "expected 2 prices" in res.output


def test_json_true_is_not_an_int(tmp_path):
    market = tmp_path / "m.json"
    write(market, {**ONE_GOOD, "n_goods": True})
    p = tmp_path / "p.json"
    write(p, {"prices": ["1"]})
    assert run("verify", "--market", str(market), "--prices", str(p)).exit_code == 2
    assert run("validate", str(market)).exit_code == 2
    game = tmp_path / "game.json"
    write(game, {**COORD, "n": True})
    assert run("validate", str(game)).exit_code == 2


def test_json_true_after_an_equal_entry_is_still_rejected(tmp_path):
    # true == 1 and hash(true) == hash(1): the parser must not reuse the value
    # it parsed for an earlier 1 when it meets true
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "1"]})
    market = tmp_path / "m.json"
    one = {"slopes": [1], "breaks": []}
    bad = (
        ([1, 1], [one, one], [1, True], [one, one]),
        (["1", 1], [one, one], ["1", True], [one, one]),
        (["1", "0"], [one, one], ["0", "1"], [one, {"slopes": [True], "breaks": []}]),
        (["1", "0"], [{"slopes": ["1"], "breaks": []}] * 2, ["0", "1"],
         [{"slopes": ["1"], "breaks": []}, {"slopes": [True], "breaks": []}]),
    )
    for w0, u0, w1, u1 in bad:
        traders = [{"endowment": w0, "utilities": u0}, {"endowment": w1, "utilities": u1}]
        write(market, {"n_goods": 2, "traders": traders})
        assert run("validate", str(market)).exit_code == 2
        res = run("verify", "--market", str(market), "--prices", str(p))
        assert res.exit_code == 2 and "true" in res.output.lower()


def test_game_row_that_is_not_a_list_is_input_error(tmp_path):
    game = tmp_path / "game.json"
    for A in ([5, 5], ["10", "01"]):
        write(game, {**COORD, "A": A})
        res = run("reduce", "--game", str(game), "-o", str(tmp_path / "m.json"),
                  "--meta", str(tmp_path / "meta.json"))
        assert res.exit_code == 2 and "row of A" in res.output
        assert run("validate", str(game)).exit_code == 2


def test_huge_eps_exponent_is_rejected_promptly(tmp_path):
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"]})
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["1", "0"], "y": ["1", "0"]})
    start = time.perf_counter()
    res = run("verify", "--market", str(market), "--prices", str(p), "--eps", "N^-1000000000")
    assert res.exit_code == 2 and "[-64, 0]" in res.output
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "n^-65")
    assert res.exit_code == 2 and "[-64, 0]" in res.output
    assert time.perf_counter() - start < 5
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "n^-64", "--json")
    assert res.exit_code == 0 and json.loads(res.output)["epsilon"] == f"1/{2 ** 64}"


def test_undecodable_json_is_input_error(tmp_path):
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"prices": ["1", "2"], "label": "\xe9"}')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for bad in (latin, nested):
        res = run("validate", str(bad))
        assert res.exit_code == 2 and "INVALID" in res.output
        res = run("verify", "--market", str(market), "--prices", str(bad))
        assert res.exit_code == 2 and "invalid JSON" in res.output


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no int-digit limit")
def test_integer_past_the_digit_limit_is_input_error(tmp_path):
    # json.load raises a plain ValueError on an integer literal it cannot convert
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    market, game, p = tmp_path / "m.json", tmp_path / "game.json", tmp_path / "p.json"
    market.write_text('{"n_goods": ' + digits + ', "traders": []}')
    game.write_text('{"n": ' + digits + ', "A": [["1"]], "B": [["1"]]}')
    write(p, {"prices": ["1", "2"]})
    res = run("verify", "--market", str(market), "--prices", str(p))
    assert res.exit_code == 2 and f"error: {market}: invalid JSON" in res.output
    res = run("validate", str(game))
    assert res.exit_code == 2 and f"{game}: INVALID - {game}: invalid JSON" in res.output


def test_price_past_the_digit_limit_names_the_limit(tmp_path):
    # int() refuses the string; the message says why, and echoes only its head
    limit = sys.get_int_max_str_digits()
    market, p = tmp_path / "m.json", tmp_path / "p.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    n_goods = json.loads(market.read_text())["n_goods"]
    for price in ("7" * (limit + 700), "1/" + "7" * (limit + 700)):
        write(p, {"prices": [price] + ["1"] * (n_goods - 1)})
        res = run("verify", "--market", str(market), "--prices", str(p))
        assert res.exit_code == 2
        assert f"({limit + 700} digits)" in res.output and f"at most {limit} digits" in res.output
        assert len(res.output) < 200
    write(p, {"prices": ["7" * limit] + ["1"] * (n_goods - 1)})  # at the limit: parsed
    assert run("verify", "--market", str(market), "--prices", str(p)).exit_code in (0, 1)


def test_unexpected_exception_exits_3(tmp_path, monkeypatch):
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"]})

    def crash(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("plcmarket.cli.verify", crash)
    res = run("verify", "--market", str(market), "--prices", str(p))
    assert res.exit_code == 3 and "internal error" in res.output
    monkeypatch.setattr("plcmarket.cli._validate_one", crash)
    assert run("validate", str(p)).exit_code == 3


def test_bad_search_config_is_input_error(tmp_path):
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    game = tmp_path / "game.json"
    write(game, COORD)
    res = run("search-eq", "--market", str(market), "--rounds", "-1")
    assert res.exit_code == 2 and "refine_rounds" in res.output
    res = run("pipeline", "--game", str(game), "--outdir", str(tmp_path / "run"), "--rounds", "-1")
    assert res.exit_code == 2 and "refine_rounds" in res.output
    res = run("search-eq", "--market", str(market), "--box-lo", "0", "--box-hi", "0")
    assert res.exit_code == 2 and "nonzero" in res.output


def test_too_many_rounds_is_input_error_promptly(tmp_path):
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    game = tmp_path / "game.json"
    write(game, COORD)
    for rounds in ("65", "1000000000"):
        start = time.perf_counter()
        res = run("search-eq", "--market", str(market), "--grid-k", "1", "--eps", "1/2", "--rounds", rounds)
        assert res.exit_code == 2 and "refine_rounds" in res.output
        res = run("pipeline", "--game", str(game), "--outdir", str(tmp_path / "run"), "--rounds", rounds)
        assert res.exit_code == 2 and "refine_rounds" in res.output
        assert time.perf_counter() - start < 5


HUGE_GRID_K = str(10**1100)  # (grid_k + 1)^N has far more than the 4300 digits Python turns into text


def test_huge_grid_k_is_input_error_on_search(tmp_path):
    market = tmp_path / "m4.json"
    run("gen-mn", "--n", "4", "-o", str(market))
    res = run("search-eq", "--market", str(market), "--grid-k", HUGE_GRID_K)
    assert res.exit_code == 2 and "cap of 10000000" in res.output


def test_huge_grid_k_is_input_error_on_pipeline(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    outdir = tmp_path / "run"
    res = run("pipeline", "--game", str(game), "--outdir", str(outdir), "--grid-k", HUGE_GRID_K)
    assert res.exit_code == 2 and "cap of 10000000" in res.output
    assert not outdir.exists()


def test_pipeline_checks_its_settings_before_writing_anything(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    for flag, value, word in (("--rounds", "65", "refine_rounds"), ("--grid-k", "0", "grid_k"),
                              ("--eps", "-1/2", "nonnegative"), ("--eps", "N^-65", "exponent")):
        outdir = tmp_path / f"run{flag}{value}".replace("/", "_")
        res = run("pipeline", "--game", str(game), "--outdir", str(outdir), flag, value)
        assert res.exit_code == 2 and word in res.output
        assert not (outdir / "market.json").exists() and not outdir.exists()


def test_negative_eps_is_input_error(tmp_path, monkeypatch):
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["1", "0"], "y": ["1", "0"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "-1/2")
    assert res.exit_code == 2 and "nonnegative" in res.output
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    calls = []
    monkeypatch.setattr("plcmarket.search.packed_fill", lambda *args: calls.append(args))
    monkeypatch.setattr("plcmarket.search.grid_scores", lambda *args: calls.append(args) or [])
    res = run("search-eq", "--market", str(market), "--eps", "-1/2")
    assert res.exit_code == 2 and "nonnegative" in res.output
    assert calls == []


def _endowment(value):
    def corrupt(obj):
        obj["traders"][1]["endowment"][0] = value
    return corrupt


def _piece(piece):
    def corrupt(obj):
        obj["traders"][1]["utilities"][1] = piece
    return corrupt


def _short_row(obj):
    obj["traders"][1]["endowment"].pop()


def _int_label(obj):
    obj["traders"][1]["label"] = 7


def _no_endowment(obj):
    for entry in obj["traders"]:
        entry["endowment"] = ["0/1", "0"]


MALFORMED_MARKETS = [
    ("float", _endowment(0.5), "floats are not accepted as rationals: 0.5"),
    ("list", _endowment(["1"]), "cannot parse rational from list: ['1']"),
    ("string-utility", _piece("1"), "utility entry must be an object"),
    ("true", _endowment(True), "not a rational: True"),
    ("negative", _endowment("-1/2"), "trader 1 has a negative endowment entry"),
    ("zero-denominator", _endowment("1/0"), "zero denominator in rational: '1/0'"),
    ("non-concave", _piece({"slopes": ["1", "2"], "breaks": ["1"]}), "slopes must strictly decrease, got 1 then 2"),
    ("short-row", _short_row, "trader 1 has a row whose length is not n_goods=2"),
    ("non-string-label", _int_label, "trader 1: label must be a string"),
    ("all-zero-endowment", _no_endowment, "total endowment is zero for every good"),
]


@pytest.mark.parametrize("corrupt, message", [row[1:] for row in MALFORMED_MARKETS],
                         ids=[row[0] for row in MALFORMED_MARKETS])
def test_malformed_market_file_exits_2_with_its_message(tmp_path, corrupt, message):
    # every check runs where the file is read, whichever layer holds it
    market = tmp_path / "m2.json"
    assert run("gen-mn", "--n", "2", "-o", str(market)).exit_code == 0
    obj = json.loads(market.read_text())
    corrupt(obj)
    write(market, obj)
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"]})
    res = run("verify", "--market", str(market), "--prices", str(p), "--eps", "1/2")
    assert res.exit_code == 2 and f"error: {message}" in res.output


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case, code", [("accept", 0), ("reject", 1), ("malformed", 2), ("invariant", 3),
                                        ("crash", 3)])
def test_command_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, case, code, enabled):
    market = tmp_path / "m2.json"
    assert run("gen-mn", "--n", "2", "-o", str(market)).exit_code == 0
    if case == "malformed":
        obj = json.loads(market.read_text())
        _endowment("-1/2")(obj)
        write(market, obj)
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "3" if case == "reject" else "2"]})
    seen = []

    def watched(*args):
        seen.append(gc.isenabled())
        if case == "invariant":
            raise InternalInvariantViolation("planted")
        if case == "crash":
            raise ZeroDivisionError("boom")
        return verify(*args)

    monkeypatch.setattr("plcmarket.cli.verify", watched)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        res = run("verify", "--market", str(market), "--prices", str(p), "--eps", "1/2")
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert res.exit_code == code
    assert after is enabled
    assert seen == ([] if case == "malformed" else [False])


def test_command_garbage_does_not_grow_with_its_work(tmp_path):
    # what a command leaves to the collector is its own few cycles, not its work
    game = tmp_path / "game.json"
    write(game, COORD)

    def cycles_left(grid_k):
        gc.collect()
        code = run("pipeline", "--game", str(game), "--outdir", str(tmp_path / grid_k), "--grid-k", grid_k).exit_code
        assert code == 1  # nothing verifies at the default N^-13
        return gc.collect()

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cycles_left("2")  # a first run also fills lazy caches
        found = [cycles_left("2"), cycles_left("3")]
    finally:
        if was_enabled:
            gc.enable()
    assert found[0] == found[1]


# (label, command line, exit code, text of the output); a name in braces is
# a file the test writes: market is M_2, the others are in _BOUNDARY_FILES
CLI_BOUNDARY = [
    ("eps-bad-exponent", ["verify", "--market", "{market}", "--prices", "{prices}", "--eps", "N^x"], 2,
     "error: bad epsilon exponent in 'N^x'"),
    ("eps-exponent-out-of-range", ["verify", "--market", "{market}", "--prices", "{prices}", "--eps", "N^-100"], 2,
     "error: epsilon exponent must lie in [-64, 0] in 'N^-100'"),
    ("eps-game-size-on-verify", ["verify", "--market", "{market}", "--prices", "{prices}", "--eps", "n^-6"], 2,
     "error: epsilon uses n but no game size is in scope"),
    ("eps-unknown-base", ["verify", "--market", "{market}", "--prices", "{prices}", "--eps", "q^-2"], 2,
     "error: epsilon base must be n or N, got 'q'"),
    ("prices-list", ["verify", "--market", "{market}", "--prices", "{list}", "--eps", "1/2"], 2,
     "error: prices: expected an object, got an array"),
    ("prices-int-normalized", ["verify", "--market", "{market}", "--prices", "{int_normalized}", "--eps", "1/2"], 2,
     "error: prices: normalized must be a boolean"),
    ("validate-artifacts", ["validate", "{prices}", "{profile}", "{meta}"], 0, "meta: game n=2, goods=6"),
    ("validate-unknown-schema", ["validate", "{unknown}"], 2, "INVALID - unrecognized schema"),
]
_BOUNDARY_FILES = {
    "prices": {"prices": ["1", "2"], "normalized": True},
    "profile": {"x": ["1", "0"], "y": ["1/2", "1/2"]},
    "meta": serialize.meta_to_obj(build_reduced_market(validate_game(COORD["A"], COORD["B"]))[1]),
    "list": [],
    "int_normalized": {"prices": ["1", "2"], "normalized": 1},
    "unknown": {"foo": 1},
}


@pytest.mark.parametrize("args, code, text", [row[1:] for row in CLI_BOUNDARY], ids=[row[0] for row in CLI_BOUNDARY])
def test_cli_boundary(tmp_path, args, code, text):
    files = {name: tmp_path / f"{name}.json" for name in ("market", *_BOUNDARY_FILES)}
    assert run("gen-mn", "--n", "2", "-o", str(files["market"])).exit_code == 0
    for name, obj in _BOUNDARY_FILES.items():
        write(files[name], obj)
    res = run(*(arg.format(**files) for arg in args))
    assert res.exit_code == code and text in res.output


def test_verify_rejects_an_unknown_mode():
    with pytest.raises(InvalidMarket, match="unknown verification mode 'bogus'"):
        verify(build_mn(2), prices([1, 2]), "bogus")


def test_pipeline_writes_the_accepted_branch(tmp_path, monkeypatch):
    # the grid rarely finds an equilibrium at N^-13, so the search returns
    # the 2x2 identity game's vertex (2, 1, 2, 1, 1, 2), which verifies there
    game = tmp_path / "game.json"
    write(game, COORD)

    def found(market, cfg):
        p = normalize_prices(PriceVector([2, 1, 2, 1, 1, 2]))
        cert = verify(market, p, APPROXIMATE, cfg.epsilon)
        assert cert.accepted
        worst = max(abs(g.imbalance) / g.supply for g in cert.report if g.supply)
        return SearchReport(p, worst, True, ((0, worst),), cert)

    monkeypatch.setattr("plcmarket.cli.search_equilibrium", found)
    runs = []
    for outdir in (tmp_path / "a", tmp_path / "b"):
        res = run("pipeline", "--game", str(game), "--outdir", str(outdir))
        assert res.exit_code == 0 and "equilibrium found" in res.output
        runs.append({path.name: path.read_bytes() for path in sorted(outdir.iterdir())})
    assert runs[0] == runs[1]
    assert {"prices.json", "strat.json"} <= set(runs[0])
    summary = json.loads(runs[0]["summary.json"])
    strat = {"x": ["1/1", "0/1"], "y": ["1/1", "0/1"]}
    assert json.loads(runs[0]["strat.json"]) == strat
    assert summary["equilibrium_found"] is True
    assert summary["extraction"] == {"clamped": False, **strat}
    assert summary["nash_check"] == {"status": "checked", "passed": True, "witness": None}

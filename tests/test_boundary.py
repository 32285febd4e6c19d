"""The file boundary against its references.

`serialize.market_from_obj` checks a market file in one pass and builds its
traders and market with `model.trusted`; `reference_market_from_obj` checks
through the public constructors.  On every market object, well formed or
corrupted in one entry, both must return equal markets, whose integer view
(`Market.view`, `Market.scaled`) equals the one the definition gives
(`reference_market_view`), or raise the same error.  `serialize.dumps`
must give the bytes of `reference_dumps` on any JSON tree without a float
and refuse a float, and, on every market family the program writes, the
bytes of `reference_dumps` of the market's dense object tree
(`market_to_obj`), and on certificates of every mode, alone or nested, of
the certificate's object tree (`certificate_to_obj`).  Every object the program builds without the public checks (witness bundles, parsed traders,
normalized prices) must equal what the public constructor makes of the
same values, and a parsed market must have the view of the same market
rebuilt through the public constructors.
`model.check_market` must raise where `reference_check_market` raises,
with the same message, on public traders with goods out of range and
amounts of either sign, and on parsed markets.
"""

import copy
import json
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcmarket import serialize
from plcmarket.clearing import MODES, Certificate, GoodBalance, verify
from plcmarket.demand import Bundle
from plcmarket.errors import InvalidMarket
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec, check_market, normalize_prices, prices
from plcmarket.plc import ZERO_PLC, linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn

from oracles import (
    certificate_to_obj,
    dense_supplies,
    market_to_obj,
    mixed_denominator_game_matrices,
    prices_with_zeros,
    random_market,
    random_plc,
    random_sparse_game_matrices,
    reference_check_market,
    reference_dumps,
    reference_market_from_obj,
    reference_market_view,
    tie_rich_market,
)
from test_acceptance import _in_box_samples, _tiny_instance


def _reduced(seed: int, n: int) -> Market:
    rng = random.Random(seed)
    return build_reduced_market(validate_game(*random_sparse_game_matrices(rng, n)))[0]


def _pooled(seed: int) -> Market:
    """Traders that mostly want the same pieces and own amounts of many
    denominators: parsed pieces are shared by traders of unlike scales."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    pool = [random_plc(rng) for _ in range(2)]
    common = [(k, pool[k % 2]) for k in range(n)]
    traders = []
    for _ in range(rng.randint(2, 6)):
        goods = rng.sample(range(n), rng.randint(1, n))
        owned = [(k, F(rng.randint(1, 6), rng.choice([1, 2, 3, 4, 6, 9]))) for k in goods]
        wanted = common if rng.random() < 0.7 else [(k, rng.choice(pool)) for k in range(n)]
        traders.append(TraderSpec(owned, wanted))
    return Market(n, tuple(traders))


def _market(family: str, seed: int) -> Market:
    if family == "random":
        return random_market(random.Random(seed), max_goods=4, max_traders=4)
    if family == "pooled":
        return _pooled(seed)
    return _reduced(seed, int(family[-1]))


FAMILIES = st.sampled_from(["random", "pooled", "reduced2", "reduced3", "reduced4"])


def _file_obj(m: Market):
    """The market as read back from its file: every entry a distinct object."""
    return json.loads(serialize.dumps(m))


def _parse_both(obj):
    """(market or exception) from the parser and from the reference."""
    out = []
    for parse in (serialize.market_from_obj, reference_market_from_obj):
        try:
            out.append(parse(copy.deepcopy(obj)))
        except Exception as exc:  # compared below, class and message
            out.append(exc)
    return out


def _assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert isinstance(got, Market) and got == want
    view = reference_market_view(want)
    assert got.view == view
    assert got.scaled == (view[0].den, tuple(int(s * view[0].den) for s in dense_supplies(want)))
    assert all(type(w) is F for t in got.traders for _, w in t.owned)


@given(seed=st.integers(0, 2**32 - 1), family=FAMILIES)
@settings(max_examples=60)
def test_parser_matches_reference(seed, family):
    _assert_same(*_parse_both(_file_obj(_market(family, seed))))


def _set_entry(value):
    def corrupt(obj, i, k):
        obj["traders"][i]["endowment"][k] = value
    return corrupt


def _set_piece(piece):
    def corrupt(obj, i, k):
        obj["traders"][i]["utilities"][k] = piece
    return corrupt


def _short_row(key):
    def corrupt(obj, i, k):
        del obj["traders"][i][key][k]
    return corrupt


def _label(obj, i, k):
    obj["traders"][i]["label"] = k


def _zero_endowment(obj, i, k):
    obj["traders"][i]["endowment"] = ["0/1"] * obj["n_goods"]


def _zero_endowments(obj, i, k):
    for entry in obj["traders"]:
        entry["endowment"] = ["0"] * obj["n_goods"]


CORRUPTIONS = {  # the last three are zeros written another way, which both parsers drop
    "float": _set_entry(0.5),
    "list-entry": _set_entry(["1"]),
    "object-entry": _set_entry({"num": "1"}),
    "list-slope": _set_piece({"slopes": [["1"]], "breaks": []}),
    "object-break": _set_piece({"slopes": ["2", "1"], "breaks": [{"at": "1"}]}),
    "string-utility": _set_piece("1"),
    "number-utility": _set_piece(1),
    "float-slope": _set_piece({"slopes": [0.5], "breaks": []}),
    "true": _set_entry(True),
    "true-slope": _set_piece({"slopes": ["2", True], "breaks": ["1"]}),
    "negative": _set_entry("-1/3"),
    "negative-slope": _set_piece({"slopes": ["-1"], "breaks": []}),
    "zero-denominator": _set_entry("1/0"),
    "non-concave": _set_piece({"slopes": ["1/2", "1"], "breaks": ["1"]}),
    "unsorted-breaks": _set_piece({"slopes": ["3", "2", "1"], "breaks": ["2", "1"]}),
    "short-endowment": _short_row("endowment"),
    "short-utilities": _short_row("utilities"),
    "non-string-label": _label,
    "zero-endowment": _zero_endowment,
    "all-zero-endowments": _zero_endowments,
    "unreduced-zero": _set_entry("0/5"),
    "zero-slope": _set_piece({"slopes": ["0"], "breaks": []}),
    "zero-with-keys": _set_piece({"kind": "zero", "slopes": ["1"], "breaks": []}),
}


@given(seed=st.integers(0, 2**32 - 1), family=FAMILIES, kind=st.sampled_from(sorted(CORRUPTIONS)),
       where=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
@settings(max_examples=2 * settings.default.max_examples)  # 200, and ten times that under the deep profile
def test_parser_matches_reference_on_corrupted_markets(seed, family, kind, where):
    obj = _file_obj(_market(family, seed))
    i = where[0] % len(obj["traders"])
    CORRUPTIONS[kind](obj, i, where[1] % obj["n_goods"])
    got, want = _parse_both(obj)
    _assert_same(got, want)


def test_a_zero_piece_ignores_its_other_keys():
    # the corrupted-market referee reaches this through its zero-with-keys
    # corruption, when it draws it; here it is pinned on its own
    assert serialize.plc_from_obj({"kind": "zero", "slopes": ["1"], "breaks": []}) is ZERO_PLC


def _json_trees():
    text = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f/é€😀'))
    leaves = st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | text

    def nest(children):
        return (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                | st.dictionaries(text, children, max_size=5))

    return st.recursive(leaves, nest, max_leaves=40)


def _encode(write, obj):
    try:
        return write(obj)
    except Exception as exc:  # compared by class
        return type(exc)


@given(tree=_json_trees())
@settings(max_examples=2 * settings.default.max_examples)  # 200, and ten times that under the deep profile
def test_dumps_matches_json_module(tree):
    assert _encode(serialize.dumps, tree) == _encode(reference_dumps, tree)
    # the same containers met again, at the same depth and at others
    shared = [tree, {"a": tree, "b": [tree, tree]}, tree, (tree,)]
    assert _encode(serialize.dumps, shared) == _encode(reference_dumps, shared)


def test_dumps_rejects_what_json_rejects():
    for bad in (F(1, 2), [F(1, 2)], {"a": [1, F(1, 2)]}, {(1,): 2}, {1: "a", "b": 2}, {"a"}, b"x"):
        for write in (serialize.dumps, reference_dumps):
            try:
                write(bad)
            except TypeError:
                continue
            raise AssertionError(f"{write.__name__} wrote {bad!r}")


def test_dumps_refuses_floats():
    # json writes these; no file of the program holds a float
    for bad in (0.5, [float("nan")], {0.5: 1}):
        with pytest.raises(TypeError):
            serialize.dumps(bad)


def test_dumps_refuses_keys_that_are_not_strings():
    # json writes these keys as strings; every key of a program file is one
    for bad in ({1: "a"}, {None: 1}, {True: 1}, {"a": {2: "b"}}):
        with pytest.raises(TypeError):
            serialize.dumps(bad)


_LABELS = st.none() | st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\n\x00é€😀'),
                              max_size=6)


_BUILT = ("random", "tie-rich", "mn", "reduced", "mixed-denominator", "labelled")


@st.composite
def _written_markets(draw, families=(*_BUILT, "parsed")):
    """Markets of every family the program writes, small labelled ones with
    satiated pieces, one good at times, and a trader that owns nothing, and
    markets parsed from the file of one of those: the parsed traders, built
    on first read, share the parser's rows, amounts and pieces, so writing
    one again must give the first write's bytes."""
    family = draw(st.sampled_from(families))
    if family == "parsed":
        return serialize.market_from_obj(json.loads(serialize.dumps(draw(_written_markets(_BUILT)))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if family == "random":
        return random_market(rng, max_goods=4, max_traders=4)
    if family == "tie-rich":
        return tie_rich_market(rng, [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
    if family == "mn":
        return build_mn(draw(st.integers(2, 16)))
    if family != "labelled":
        matrices = random_sparse_game_matrices if family == "reduced" else mixed_denominator_game_matrices
        return build_reduced_market(validate_game(*matrices(rng, draw(st.integers(2, 8)))))[0]
    n = draw(st.integers(1, 3))
    traders = [TraderSpec([], [(n - 1, validate_plc([2, 0], [F(3, 2)]))], draw(_LABELS))]
    for label in draw(st.lists(_LABELS, min_size=1, max_size=3)):
        owned = [(k, F(rng.randint(k == 0, 4), rng.choice([1, 2, 3, 7]))) for k in range(n)]
        traders.append(TraderSpec(owned, [(k, random_plc(rng)) for k in range(n)], label))
    return Market(n, tuple(traders))


def _first_difference(got: str, want: str):
    """None, or the first line number where the texts differ with both lines;
    a failing `==` on two market files would make pytest diff them whole."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, pair in enumerate(zip(got_lines + [None], want_lines + [None])):
        if pair[0] != pair[1]:
            return i + 1, *pair
    return None


@given(m=_written_markets())
@settings(max_examples=3 * settings.default.max_examples // 2)  # 150, and ten times that under the deep profile
def test_market_writer_matches_reference(m):
    assert _first_difference(serialize.dumps(m), reference_dumps(market_to_obj(m))) is None


@st.composite
def _verdicts(draw):
    """Certificates of criterion 6's tiny tie-rich and random markets, of
    criterion 8's M_n at in-box prices, and of random markets at prices
    with zeros (unbounded-demand rejects among them), in every mode."""
    family = draw(st.sampled_from(["criterion 6", "criterion 8", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if family == "criterion 6":
        m, p = _tiny_instance(rng)
    elif family == "criterion 8":
        n = draw(st.integers(2, 8))
        m, p = build_mn(n), prices(rng.choice(_in_box_samples(rng, n, 1)))
    else:
        m = random_market(rng, max_goods=4, max_traders=4)
        p = prices_with_zeros(rng, m.n_goods)
    return verify(m, p, draw(st.sampled_from(MODES)), draw(st.sampled_from([F(0), F(1, 8), F(1, 2)])))


_SHARED_BUNDLE = Bundle([(0, F(1, 2))])
# the program's own modes and reasons hold nothing to escape; these hold a
# quote, a backslash, a newline and characters outside ASCII
_ESCAPED = Certificate(
    "reject", 'good 0: "over" \\ by 1/2\n€ é', 'mode "\\\n" ñ', F(1, 8),
    (_SHARED_BUNDLE, Bundle([(1, F(3))]), _SHARED_BUNDLE),
    (GoodBalance(0, F(1), F(1), F(0), F(1, 8)), GoodBalance(1, F(3), F(3), F(0), F(3, 8))))


@given(cert=_verdicts(), depth=st.integers(0, 2))
@example(cert=_ESCAPED, depth=1)
@example(cert=_ESCAPED, depth=2)
def test_certificate_writer_matches_reference(cert, depth):
    """`serialize.dumps` writes a certificate, alone or nested in a tree as
    a search report nests it, in the bytes of `reference_dumps` of its
    object tree (`certificate_to_obj`), also where its mode and reason
    need escaping."""
    obj = certificate_to_obj(cert)
    assert serialize.dumps(cert) == reference_dumps(obj) == serialize.dumps(obj)
    tree, ref = cert, obj
    for _ in range(depth):
        tree, ref = {"certificate": tree, "rest": [tree]}, {"certificate": ref, "rest": [ref]}
    assert _first_difference(serialize.dumps(tree), reference_dumps(ref)) is None


@given(seed=st.integers(0, 2**32 - 1), family=FAMILIES, mode=st.sampled_from(MODES),
       eps=st.sampled_from([F(0), F(1, 4), F(1, 2)]))
@settings(max_examples=60)
def test_trusted_objects_equal_public_ones(seed, family, mode, eps):
    m = serialize.market_from_obj(_file_obj(_market(family, seed)))
    for t in m.traders:
        assert TraderSpec(t.owned, t.wanted, t.label) == t
    public = Market(m.n_goods, tuple(TraderSpec(t.owned, t.wanted, t.label) for t in m.traders))
    assert public == m and public.view == m.view == reference_market_view(m) and public.scaled == m.scaled

    rng = random.Random(seed)
    if family == "random":  # zero prices too, for unbounded and free goods
        vec = [F(rng.randint(0, 8), 4) for _ in range(m.n_goods)]
        vec[rng.randrange(m.n_goods)] = F(1)
    else:
        vec = [1 + F(rng.randint(0, 4), 4) for _ in range(m.n_goods)]
    p = prices(vec)
    for b in verify(m, p, mode, eps).allocation or ():
        assert Bundle(b.amounts) == b
        assert all(type(k) is int and type(x) is F for k, x in b.amounts)
        assert [k for k, _ in b.amounts] == sorted({k for k, _ in b.amounts})
    q = normalize_prices(p)
    assert q == PriceVector(q.prices, True) and all(type(x) is F for x in q.prices)


def _check_message(check, n_goods, traders):
    """None, or the message of the InvalidMarket that check raises."""
    try:
        check(n_goods, traders)
    except InvalidMarket as exc:
        return str(exc)
    return None


_PIECES = st.sampled_from([ZERO_PLC, linear_plc(F(1, 2)), validate_plc([2, 1], [F(3, 2)]), validate_plc([1, 0], [1])])


@st.composite
def _checked_traders(draw):
    """n_goods and public traders whose goods lie in [-2, n_goods + 2) and
    whose amounts have either sign."""
    n_goods = draw(st.integers(0, 4))
    goods = st.integers(-2, n_goods + 1)
    amounts = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    trader = st.builds(
        lambda owned, wanted: TraderSpec(owned.items(), wanted.items()),
        st.dictionaries(goods, amounts, max_size=4),
        st.dictionaries(goods, _PIECES, max_size=4),
    )
    return n_goods, draw(st.lists(trader, max_size=4))


@given(case=_checked_traders())
@settings(max_examples=300)
def test_check_market_matches_reference(case):
    n_goods, traders = case
    assert _check_message(check_market, n_goods, traders) == _check_message(reference_check_market, n_goods, traders)


def _parse_message(obj):
    """(market, None) from the parser, or (None, its InvalidMarket message)."""
    try:
        return serialize.market_from_obj(copy.deepcopy(obj)), None
    except InvalidMarket as exc:
        return None, str(exc)


@given(seed=st.integers(0, 2**32 - 1), family=FAMILIES,
       kind=st.sampled_from([None, "negative", "zero-endowment", "all-zero-endowments", "unreduced-zero"]),
       where=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
@settings(max_examples=100)
def test_check_market_matches_reference_on_parsed_markets(seed, family, kind, where):
    obj = _file_obj(_market(family, seed))
    if kind is not None:
        CORRUPTIONS[kind](obj, where[0] % len(obj["traders"]), where[1] % obj["n_goods"])
    m, got = _parse_message(obj)
    with mock.patch.object(serialize, "check_market", reference_check_market):
        _, want = _parse_message(obj)
    assert got == want
    if m is not None:  # the parsed traders against narrower ranges, and none of them
        for n_goods in range(m.n_goods + 1):
            for traders in (m.traders, m.traders[1:], ()):
                assert (_check_message(check_market, n_goods, traders)
                        == _check_message(reference_check_market, n_goods, traders))

"""JSON schemas for all file formats.

Rationals travel as "num/den" strings (plain integer strings are accepted on
input).  Serialization is deterministic: sorted keys, two-space indent, one
trailing newline, the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, written by `dumps`, which encodes each distinct string once
per call, writes each list object once per depth, and writes a `Market`'s
file, dense rows of mostly zeros, from its traders' nonzeros.  No file
holds a float or a key that is not a string, so `dumps` raises TypeError
on either.

Every check on a market file runs in `market_from_obj`: one pass over its
entries parses them, each distinct string and endowment row of strings
once, drops zeros and checks row lengths, then `model.check_market` checks
signs and the total endowment.  The traders and the market it returns are
built with `model.trusted`, so nothing downstream checks them again; the
market's integer view (`Market.view`) is built on first use, by the same
code as for a market built in Python.

Values repeat: in `M_n` n endowment rows serve the n(n - 1) traders, and
at an in-box price vector n witness bundles do.  So the parser shares each
repeated row, and `certificate_to_obj` builds one dense row per distinct
`Bundle` object, which `dumps` then writes once.  Sharing is exact: the
shared values are immutable, and equal inputs give equal outputs.  A
value made from its key alone, a string's JSON text, an amount's text or
a rational string's Fraction, is kept in a `model.Memo`; a memo keyed by
an object's id, or one that keeps only some of its keys, is a plain dict.
"""

import json
from fractions import Fraction

from .clearing import Certificate
from .errors import InputError, InvalidMarket
from .games import BimatrixGame, MixedStrategy, validate_game
from .model import Market, Memo, PriceVector, TraderSpec, check_market, trusted
from .plc import ZERO_PLC, PLCFunction
from .rational import format_rational, parse_rational
from .reduction import ReducedMarketMeta
from .search import SearchReport


_LEAVES = {None: "null", True: "true", False: "false"}


def _join(texts: list[str], depth: int, brackets: str) -> str:
    """A container at depth from its items' texts, laid out as
    ``json.dumps(indent=2)`` lays it out; brackets is "[]" or "{}"."""
    if not texts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(texts) + inner[:-2] + brackets[1]


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, byte for byte;
    a `Market` is written as its market file (`_market_text`).

    Each distinct string is encoded once per call, a list of strings is
    joined in one pass, and each list object is written once per depth,
    keyed by its id: its text depends only on its items and its depth, and
    obj, which holds it, keeps its id unique while the call runs, so a
    certificate's repeated allocation rows are written once.  obj must hold
    no cycle: json raises ValueError on one, this writer RecursionError.  A
    float, which json would write, and a key that is not a string, which
    json would write as one, raise TypeError."""
    if isinstance(obj, Market):
        return _market_text(obj)
    strings = Memo(json.encoder.encode_basestring_ascii)  # raises TypeError on a value that is not a str
    lists: dict[tuple[int, int], str] = {}  # (id of a list, depth) -> its text

    def write(o, depth: int) -> str:
        if isinstance(o, str):
            return strings[o]
        if o is None or o is True or o is False:
            return _LEAVES[o]
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, dict):
            return _join([strings[k] + ": " + write(v, depth + 1) for k, v in sorted(o.items())], depth, "{}")
        if not isinstance(o, (list, tuple)):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        key = (id(o), depth)  # o, inside obj, stays alive while obj is written
        if key not in lists:
            try:
                lists[key] = _join(list(map(strings.__getitem__, o)), depth, "[]")
            except TypeError:  # not every item is a string
                lists[key] = _join([write(v, depth + 1) for v in o], depth, "[]")
        return lists[key]

    return write(obj, 0) + "\n"


def write_json(path, obj) -> str:
    """Write `dumps`'s text of obj to path, and return that text."""
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def read_json(path):
    # bad JSON, bytes that are not UTF-8 and an over-long int literal raise ValueError
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where}: missing key {key!r}")
    value = obj[key]
    # JSON true/false arrive as bool, a subclass of int, but are never counts
    if kind is not None and (not isinstance(value, kind) or kind is int and isinstance(value, bool)):
        raise InputError(f"{where}: key {key!r} has wrong type")
    return value


# --- PLC / market -------------------------------------------------------------


def plc_from_obj(obj) -> PLCFunction:
    if not isinstance(obj, dict):
        raise InputError("utility entry must be an object")
    if obj.get("kind") == "zero":
        return ZERO_PLC
    # PLCFunction parses every entry
    return PLCFunction(_require(obj, "slopes", list, "utility"), _require(obj, "breaks", list, "utility"))


_ZERO = "0/1"
_ZERO_OBJ = {"kind": "zero"}  # most entries of a sparse market are these two
_ZERO_PIECE_TEXT = _join(['"kind": "zero"'], 4, "{}")  # a utility entry sits at depth 4 of a market file


def _dense_row(pairs, n_goods: int) -> list[str]:
    """An n_goods-length row of rational strings from (good, amount) pairs;
    every other entry is zero."""
    row = [_ZERO] * n_goods
    for k, w in pairs:
        row[k] = format_rational(w)
    return row


def _market_text(m: Market) -> str:
    """The text `dumps` gives m's dense rows, ``{"n_goods", "traders":
    [{"endowment", "label", "utilities"}]}``, written from each trader's
    nonzeros.  Each distinct amount is encoded once per call, and each piece
    object once, keyed by its id, which the market keeps alive."""
    amounts = Memo(lambda q: f'"{format_rational(q)}"')
    pieces: dict[int, str] = {}  # id of a piece -> its text
    zero_endowment, zero_utilities = [f'"{_ZERO}"'] * m.n_goods, [_ZERO_PIECE_TEXT] * m.n_goods
    traders = []
    for t in m.traders:
        endow, utils = zero_endowment.copy(), zero_utilities.copy()
        for k, w in t.owned:
            endow[k] = amounts[w]
        for k, f in t.wanted:
            if id(f) not in pieces:
                pieces[id(f)] = _join([f'"breaks": {_join([amounts[a] for a in f.breaks], 5, "[]")}',
                                       f'"slopes": {_join([amounts[s] for s in f.slopes], 5, "[]")}'], 4, "{}")
            utils[k] = pieces[id(f)]
        fields = ['"endowment": ' + _join(endow, 3, "[]")]
        if t.label is not None:
            fields.append('"label": ' + json.encoder.encode_basestring_ascii(t.label))
        traders.append(_join(fields + ['"utilities": ' + _join(utils, 3, "[]")], 2, "{}"))
    return _join([f'"n_goods": {m.n_goods}', '"traders": ' + _join(traders, 1, "[]")], 0, "{}") + "\n"


def _piece_key(u):
    """(slopes, breaks) of a piece object whose two keys hold lists, else None."""
    if type(u) is dict and u.get("kind") != "zero":
        slopes, breaks = u.get("slopes"), u.get("breaks")
        if type(slopes) is list and type(breaks) is list:
            return tuple(slopes), tuple(breaks)
    return None


def market_from_obj(obj) -> Market:
    """Parse and check a market in one pass over its entries.

    Markets repeat a few values many times, so each distinct rational
    string, string-valued piece and endowment row of strings is parsed once
    per call and shared: in `M_n`, n endowment rows serve n(n - 1) traders.
    Sharing is exact, since the values are immutable and a string equals
    only a string; any other entry or row is parsed, and rejected, as it
    stands, so a row with true in it never finds the pairs of an equal row
    with 1 in it.  The same pass drops zero amounts and pieces;
    `model.check_market`, which `Market` runs too, follows."""
    n_goods = _require(obj, "n_goods", int, "market")
    amounts = Memo(parse_rational)  # rational string -> its Fraction
    rows: dict[tuple, tuple] = {}  # all-string endowment row -> its (good, amount) pairs
    pieces: dict[tuple, PLCFunction] = {}  # string-valued (slopes, breaks) -> piece
    traders = []
    for idx, entry in enumerate(_require(obj, "traders", list, "market")):
        where = f"trader {idx}"
        endow = _require(entry, "endowment", list, where)
        utils = _require(entry, "utilities", list, where)
        if len(endow) != n_goods or len(utils) != n_goods:
            raise InvalidMarket(f"{where} has a row whose length is not n_goods={n_goods}")
        row = tuple(endow)
        try:
            owned = rows.get(row)
        except TypeError:  # a list or object among the entries
            owned = None
        if owned is None:
            owned = []
            # most entries are the zeros a market file holds; any other zero is dropped too
            for k, w in [(k, w) for k, w in enumerate(endow) if w != _ZERO]:
                q = amounts[w] if type(w) is str else parse_rational(w)
                if q:
                    owned.append((k, q))
            owned = tuple(owned)
            if all(type(w) is str for w in endow):
                rows[row] = owned
        wanted = []
        for k, u in [(k, u) for k, u in enumerate(utils) if u != _ZERO_OBJ]:
            key = _piece_key(u)
            try:
                f = pieces.get(key)
            except TypeError:  # a list or object among the values: not a string-valued piece
                key = f = None
            if f is None:
                f = plc_from_obj(u)
                # only string-valued keys are kept, so no key with true in it can
                # find the piece of an equal key with 1 in it
                if key is not None and all(type(v) is str for v in key[0] + key[1]):
                    pieces[key] = f
            if f.slopes:
                wanted.append((k, f))
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise InputError(f"{where}: label must be a string")
        traders.append(trusted(TraderSpec, owned=owned, wanted=tuple(wanted), label=label))
    check_market(n_goods, traders)
    return trusted(Market, n_goods=n_goods, traders=tuple(traders))


# --- prices -------------------------------------------------------------------


def prices_to_obj(p: PriceVector):
    return {
        "prices": [format_rational(q) for q in p.prices],
        "normalized": p.normalized,
    }


def prices_from_obj(obj) -> PriceVector:
    values = _require(obj, "prices", list, "prices")  # PriceVector parses each entry
    normalized = obj.get("normalized", False)
    if not isinstance(normalized, bool):
        raise InputError("prices: normalized must be a boolean")
    return PriceVector(values, normalized)


# --- games / strategies ---------------------------------------------------------


def _matrix(obj, key) -> list[list[Fraction]]:
    rows = _require(obj, key, list, "game")
    if not all(isinstance(row, list) for row in rows):
        raise InputError(f"game: every row of {key} must be a list")
    return [[parse_rational(v) for v in row] for row in rows]


def game_from_obj(obj) -> BimatrixGame:
    n = _require(obj, "n", int, "game")
    g = validate_game(_matrix(obj, "A"), _matrix(obj, "B"))
    if g.n != n:
        raise InputError(f"game: declared n={n} but matrices are {g.n}x{g.n}")
    return g


def strategies_to_obj(x: MixedStrategy, y: MixedStrategy):
    return {
        "x": [format_rational(w) for w in x.weights],
        "y": [format_rational(w) for w in y.weights],
    }


def strategies_from_obj(obj) -> tuple[MixedStrategy, MixedStrategy]:
    # MixedStrategy parses each entry
    return tuple(MixedStrategy(_require(obj, key, list, "profile")) for key in "xy")


# --- metadata, certificates, search reports -------------------------------------


def meta_to_obj(meta: ReducedMarketMeta):
    return {
        "game_n": meta.game_n,
        "n_goods": meta.n_goods,
        "s_count": meta.s_count,
        "u_pairs": [list(p) for p in meta.u_pairs],
        "v_pairs": [list(p) for p in meta.v_pairs],
        "i_count": meta.i_count,
    }


def _pairs(obj, key) -> tuple[tuple[int, int], ...]:
    pairs = _require(obj, key, list, "meta")
    if not all(isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in pairs):
        raise InputError(f"meta: {key} must be a list of [i, j] integer pairs")
    return tuple((i, j) for i, j in pairs)


def meta_from_obj(obj) -> ReducedMarketMeta:
    """The layout of the stored game_n; every other stored key must equal it."""
    meta = ReducedMarketMeta(_require(obj, "game_n", int, "meta"))
    n = meta.game_n
    for key in ("n_goods", "s_count", "i_count"):
        if _require(obj, key, int, "meta") != getattr(meta, key):
            raise InputError(f"meta: {key} disagrees with game_n={n}")
    for key in ("u_pairs", "v_pairs"):
        pairs = _pairs(obj, key)
        # lengths first, so a huge stored game_n never lists its own pairs
        if len(pairs) != n * (n - 1) or pairs != meta.u_pairs:
            raise InputError(f"meta: {key} disagrees with game_n={n}")
    return meta


def certificate_to_obj(cert: Certificate):
    obj = {
        "verdict": cert.verdict,
        "mode": cert.mode,
        "epsilon": format_rational(cert.epsilon),
        "reason": cert.reason,
        "allocation": None,
        "report": None,
    }
    if cert.allocation is not None:  # an allocation comes with its per-good report
        rows: dict[int, list[str]] = {}  # id of a bundle, which cert keeps alive -> its dense row
        for b in cert.allocation:
            if id(b) not in rows:
                rows[id(b)] = _dense_row(b.amounts, len(cert.report))
        obj["allocation"] = [rows[id(b)] for b in cert.allocation]
    if cert.report is not None:
        obj["report"] = [
            {
                "good": row.good,
                "supply": format_rational(row.supply),
                "allocated": format_rational(row.allocated),
                "imbalance": format_rational(row.imbalance),
                "bound": format_rational(row.bound),
            }
            for row in cert.report
        ]
    return obj


def score_str(score: Fraction | None) -> str:
    return "inf" if score is None else format_rational(score)


def search_report_to_obj(rep: SearchReport):
    return {
        "best_price": None if rep.best_price is None else prices_to_obj(rep.best_price),
        "best_max_relative_imbalance": score_str(rep.best_max_relative_imbalance),
        "accepted": rep.accepted,
        "trace": [[rnd, score_str(score)] for rnd, score in rep.trace],
        "certificate": None if rep.certificate is None else certificate_to_obj(rep.certificate),
    }

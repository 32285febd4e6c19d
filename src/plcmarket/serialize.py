"""JSON schemas for all file formats.

Rationals travel as "num/den" strings (plain integer strings are accepted on
input).  Serialization is deterministic: sorted keys, two-space indent, one
trailing newline, the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, written by `dumps`.  It writes a tree by plain recursion,
each string through json's own ASCII string encoder, and the two files of
dense rows of mostly zeros from their nonzeros: a `Market`'s from its
traders', and a `Certificate`'s, at any depth of the tree, from its
bundles'.  No file holds a float or a key that is not a string, so `dumps`
raises TypeError on either.

Every check on a market file runs in `market_from_obj`: one pass over its
entries parses each distinct rational string, string-valued piece and
endowment row of strings once, drops zeros and checks row lengths.  When
the pass ends, the scales of the market's integer view (`Market.view`)
are known, so `model.integer_view` scales each distinct row and piece once
and builds each trader's row, and `model.check_market` checks signs and
the total endowment on those rows.  The market it returns holds the view
from the start; its traders, the Fraction layer, are built from the
pass's tables on first read, and `verify` never reads them.  Everything is
built with `model.trusted`, so nothing downstream checks it again.

Values repeat: in `M_n` n endowment rows serve the n(n - 1) traders, and
at an in-box price vector n witness bundles do.  So the parser shares each
repeated row, the market writer writes the text of each distinct amount,
endowment row and piece object once, and the certificate writer writes
one allocation row per distinct `Bundle` object.  Sharing is exact: the
shared values are immutable, and equal inputs give equal outputs.  The
writers keep each text by its object's id, which the market or the
certificate keeps alive while they run: a lookup by value would hash a
Fraction every time, which costs more.  Memos keyed by id, or that keep
only some of their keys, are plain dicts; a value the parser makes from
its key alone, a rational string's Fraction, is kept in a `model.Memo`.
"""

import json
from fractions import Fraction

from .clearing import Certificate
from .errors import InputError, InvalidMarket
from .games import BimatrixGame, MixedStrategy, validate_game
from .model import Market, Memo, PriceVector, check_market, integer_view, trusted
from .plc import ZERO_PLC, PLCFunction
from .rational import format_rational, parse_rational
from .reduction import ReducedMarketMeta
from .search import SearchReport


_LEAVES = {None: "null", True: "true", False: "false"}
_string = json.encoder.encode_basestring_ascii  # a str's JSON text, as json.dumps writes it


def _join(texts: list[str], depth: int, brackets: str) -> str:
    """A container at depth from its items' texts, laid out as
    ``json.dumps(indent=2)`` lays it out; brackets is "[]" or "{}"."""
    if not texts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(texts) + inner[:-2] + brackets[1]


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, byte for byte;
    a `Market` is written as its market file (`_market_text`), and a
    `Certificate`, at any depth, as its object (`_certificate_text`).

    Every other value is written by recursion: each string and key through
    json's own ASCII string encoder, and each list, tuple and object from
    its items' texts.  obj must hold no cycle: json raises ValueError on
    one, this writer RecursionError.  A float, which json would write, and
    a key that is not a string, which json would write as one, raise
    TypeError."""
    if isinstance(obj, Market):
        return _market_text(obj)
    return _text(obj, 0) + "\n"


def _text(o, depth: int) -> str:
    """The text of o at depth of the tree `dumps` writes."""
    if isinstance(o, str):
        return _string(o)
    if o is None or o is True or o is False:
        return _LEAVES[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, dict):  # _string raises TypeError on a key that is not a str
        return _join([_string(k) + ": " + _text(v, depth + 1) for k, v in sorted(o.items())], depth, "{}")
    if isinstance(o, (list, tuple)):
        return _join([_text(v, depth + 1) for v in o], depth, "[]")
    if isinstance(o, Certificate):
        return _certificate_text(o, depth)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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


# what a value that should have been an object is, in JSON's words
_JSON_TYPES = {list: "an array", str: "a string", bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}


def _require(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object, got {_JSON_TYPES.get(type(obj), type(obj).__name__)}")
    if key not in obj:
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
# a market file's line breaks before a trader (depth 2), a trader's field (3) and a row's entry (4)
_NL2, _NL3, _NL4 = "\n    ", "\n      ", "\n        "
_ENTRY = "," + _NL4  # between the entries of a row


def _market_text(m: Market) -> str:
    """The text `dumps` gives m's dense rows, ``{"n_goods", "traders":
    [{"endowment", "label", "utilities"}]}``, written from each trader's
    nonzeros; each trader's object is one f-string from the line breaks of
    its fixed depths.  The text of each amount object, of each endowment
    row object (`regulating_block` and the parser share rows among
    traders) and of each piece object is made once per call and kept by
    the object's id, which the market keeps alive: a Fraction's hash,
    which a lookup by value pays each time, costs more than its id."""
    amounts: dict[int, str] = {}  # id of an amount -> its text
    rows: dict[int, str] = {}  # id of an endowment row -> the text of its entries
    pieces: dict[int, str] = {}  # id of a piece -> its text

    def amount(w) -> str:
        return amounts.get(id(w)) or amounts.setdefault(id(w), _rational_text(w))

    zero_endowment, zero_utilities = [f'"{_ZERO}"'] * m.n_goods, [_ZERO_PIECE_TEXT] * m.n_goods
    traders = []
    for t in m.traders:
        if id(t.owned) not in rows:
            endow = zero_endowment.copy()
            for k, w in t.owned:
                endow[k] = amount(w)
            rows[id(t.owned)] = _ENTRY.join(endow)
        utils = zero_utilities.copy()
        for k, f in t.wanted:
            if id(f) not in pieces:
                pieces[id(f)] = _join([f'"breaks": {_join([amount(a) for a in f.breaks], 5, "[]")}',
                                       f'"slopes": {_join([amount(s) for s in f.slopes], 5, "[]")}'], 4, "{}")
            utils[k] = pieces[id(f)]
        label = "" if t.label is None else f'"label": {_string(t.label)},{_NL3}'
        traders.append(f'{{{_NL3}"endowment": [{_NL4}{rows[id(t.owned)]}{_NL3}],{_NL3}{label}'
                       f'"utilities": [{_NL4}{_ENTRY.join(utils)}{_NL3}]{_NL2}}}')
    return f'{{\n  "n_goods": {m.n_goods},\n  "traders": [{_NL2}{("," + _NL2).join(traders)}\n  ]\n}}\n'


def _rational_text(q) -> str:
    """q's JSON text: its "num/den" string holds nothing to escape."""
    return '"' + format_rational(q) + '"'


def _certificate_text(cert: Certificate, depth: int) -> str:
    """The text `dumps` gives cert at depth of the tree it writes: the
    object ``{"allocation": [dense row per bundle], "epsilon", "mode",
    "reason", "report": [{"allocated", "bound", "good", "imbalance",
    "supply"}], "verdict"}``, null for an absent reason, allocation or
    report.  Each allocation row is written from its `Bundle`'s nonzeros
    into a row of zeros, once per distinct `Bundle` object, keyed by its
    id, which cert keeps alive."""
    rows: dict[int, str] = {}  # id of a bundle -> its text
    for b in cert.allocation or ():  # an allocation comes with its per-good report
        if id(b) not in rows:
            row = [f'"{_ZERO}"'] * len(cert.report)
            for k, w in b.amounts:
                row[k] = _rational_text(w)
            rows[id(b)] = _join(row, depth + 2, "[]")
    allocation = "null" if cert.allocation is None else _join([rows[id(b)] for b in cert.allocation], depth + 1, "[]")
    report = "null" if cert.report is None else _join(
        [_join([f'"allocated": {_rational_text(r.allocated)}', f'"bound": {_rational_text(r.bound)}',
                f'"good": {r.good}', f'"imbalance": {_rational_text(r.imbalance)}',
                f'"supply": {_rational_text(r.supply)}'], depth + 2, "{}")
         for r in cert.report], depth + 1, "[]")
    reason = "null" if cert.reason is None else _string(cert.reason)
    return _join([f'"allocation": {allocation}', f'"epsilon": {_rational_text(cert.epsilon)}',
                  f'"mode": {_string(cert.mode)}', f'"reason": {reason}', f'"report": {report}',
                  f'"verdict": {_string(cert.verdict)}'], depth, "{}")


def _piece_key(u):
    """(slopes, breaks) of a piece object whose two keys hold lists, else None."""
    if type(u) is dict and u.get("kind") != "zero":
        slopes, breaks = u.get("slopes"), u.get("breaks")
        if type(slopes) is list and type(breaks) is list:
            return tuple(slopes), tuple(breaks)


def market_from_obj(obj) -> Market:
    """Parse and check a market in one pass over its entries, and build its
    integer view (`Market.view`) from what the pass kept.

    Markets repeat a few values many times, so each distinct rational
    string, string-valued piece and endowment row of strings is parsed and
    checked once per call and shared: in `M_n`, n endowment rows serve
    n(n - 1) traders.  Sharing is exact, since the values are immutable and
    a string equals only a string; any other entry or row is parsed, and
    rejected, as it stands, so a row with true in it never finds the pairs
    of an equal row with 1 in it.  The same pass drops zero amounts and
    pieces.  When it ends, the amount scale M and the slope scale are
    known, so each distinct row and piece is scaled once, each trader's
    view row is built from them, and `model.check_market` checks the rows.
    The market's traders, its Fraction layer, are built from the same
    tables on first read."""
    n_goods = _require(obj, "n_goods", int, "market")
    amounts = Memo(parse_rational)  # rational string -> its Fraction
    rows: dict[tuple, int] = {}  # all-string endowment row -> its key in owned
    owned: dict[int, tuple] = {}  # each distinct row's (good, amount) pairs
    slots: dict[tuple, PLCFunction] = {}  # string-valued (slopes, breaks) -> its piece
    pieces: dict[int, PLCFunction] = {}  # id of each distinct piece -> the piece
    parsed = []  # per trader: its key in owned, its (good, piece) pairs, its label
    for idx, entry in enumerate(_require(obj, "traders", list, "market")):
        where = f"trader {idx}"
        endow = _require(entry, "endowment", list, where)
        utils = _require(entry, "utilities", list, where)
        if len(endow) != n_goods or len(utils) != n_goods:
            raise InvalidMarket(f"{where} has a row whose length is not n_goods={n_goods}")
        try:
            r = rows.get(tuple(endow))
        except TypeError:  # a list or object among the entries
            r = None
        if r is None:
            r, pairs, strings = len(owned), [], True  # the zeros skipped equal a string
            for k, w in enumerate(endow):
                if w != _ZERO:  # most entries are the zeros a market file holds; any other zero is dropped too
                    q = amounts[w] if type(w) is str else parse_rational(w)
                    strings = strings and type(w) is str
                    if q:
                        pairs.append((k, q))
            owned[r] = tuple(pairs)
            if strings:
                rows[tuple(endow)] = r
        wanted = []
        for k, u in enumerate(utils):
            if u != _ZERO_OBJ:
                key = _piece_key(u)
                try:
                    f = slots.get(key)
                except TypeError:  # a list or object among the values: not a string-valued piece
                    key = f = None
                if f is None:
                    f = plc_from_obj(u)
                    pieces[id(f)] = f  # keyed by its id, which the parse keeps alive
                    # only string-valued keys are kept, so no key with true in it can
                    # find the piece of an equal key with 1 in it
                    if key is not None and all(type(v) is str for v in key[0] + key[1]):
                        slots[key] = f
                if f.slopes:
                    wanted.append((k, f))
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise InputError(f"{where}: label must be a string")
        parsed.append((r, wanted, label))

    view = integer_view(owned, pieces, parsed)
    check_market(n_goods, view)
    return trusted(Market, n_goods=n_goods, view=view, _tables=(owned, parsed))


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


def score_str(score: Fraction | None) -> str:
    return "inf" if score is None else format_rational(score)


def search_report_to_obj(rep: SearchReport):
    return {
        "best_price": None if rep.best_price is None else prices_to_obj(rep.best_price),
        "best_max_relative_imbalance": score_str(rep.best_max_relative_imbalance),
        "accepted": rep.accepted,
        "trace": [[rnd, score_str(score)] for rnd, score in rep.trace],
        "certificate": rep.certificate,  # `dumps` writes a Certificate at any depth
    }

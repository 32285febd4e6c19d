"""JSON schemas for all file formats.

Rationals travel as "num/den" strings (plain integer strings are accepted on
input).  Serialization is deterministic: sorted keys, two-space indent, one
trailing newline.
"""

import json

from fractions import Fraction

from .clearing import Certificate
from .errors import InputError, InvalidMarket
from .games import BimatrixGame, MixedStrategy, validate_game
from .model import Market, PriceVector, TraderSpec
from .plc import PLCFunction, validate_plc
from .rational import format_rational, parse_rational
from .reduction import ReducedMarketMeta
from .search import SearchReport


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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


def plc_to_obj(f: PLCFunction):
    if f.is_zero:
        return {"kind": "zero"}
    return {
        "slopes": [format_rational(s) for s in f.slopes],
        "breaks": [format_rational(a) for a in f.breaks],
    }


def plc_from_obj(obj) -> PLCFunction:
    if not isinstance(obj, dict):
        raise InputError("utility entry must be an object")
    if obj.get("kind") == "zero":
        return validate_plc([], [])
    slopes = [parse_rational(s) for s in _require(obj, "slopes", list, "utility")]
    breaks = [parse_rational(a) for a in _require(obj, "breaks", list, "utility")]
    return validate_plc(slopes, breaks)


_ZERO_OBJ = {"kind": "zero"}  # fast path for most pieces of a sparse market


def _dense_row(pairs, n_goods: int) -> list[str]:
    """An n_goods-length row of rational strings from (good, amount) pairs;
    every other entry is zero."""
    row = ["0/1"] * n_goods
    for k, w in pairs:
        row[k] = format_rational(w)
    return row


def market_to_obj(m: Market):
    """Dense rows from each trader's nonzeros; every other entry is zero."""
    traders = []
    for t in m.traders:
        endow = _dense_row(t.owned, m.n_goods)
        utils = [dict(_ZERO_OBJ) for _ in range(m.n_goods)]
        for k, f in t.wanted:
            utils[k] = plc_to_obj(f)
        entry = {"endowment": endow, "utilities": utils}
        if t.label is not None:
            entry["label"] = t.label
        traders.append(entry)
    return {"n_goods": m.n_goods, "traders": traders}


def _piece_key(u):
    """(slopes, breaks) of a piece given as lists of strings, else None; a key
    over raw JSON values would let true stand in for 1, which it equals."""
    if type(u) is dict and u.get("kind") != "zero":
        slopes, breaks = u.get("slopes"), u.get("breaks")
        if type(slopes) is list and type(breaks) is list and all(type(v) is str for v in slopes + breaks):
            return tuple(slopes), tuple(breaks)
    return None


def market_from_obj(obj) -> Market:
    """A reduced market repeats a few values many times, so each distinct
    rational string and string-valued piece is parsed once per call and
    shared; any other entry is parsed, and rejected, as it stands."""
    n_goods = _require(obj, "n_goods", int, "market")
    parsed: dict = {}  # rational string -> Fraction, _piece_key -> piece

    def cached(key, parse, value):
        if key is None:
            return parse(value)
        if key not in parsed:
            parsed[key] = parse(value)
        return parsed[key]

    traders = []
    for idx, entry in enumerate(_require(obj, "traders", list, "market")):
        where = f"trader {idx}"
        endow = _require(entry, "endowment", list, where)
        utils = _require(entry, "utilities", list, where)
        if len(endow) != n_goods or len(utils) != n_goods:
            raise InvalidMarket(f"{where} has a row whose length is not n_goods={n_goods}")
        # most entries are the zeros market_to_obj writes; TraderSpec drops any other zero
        owned = [(k, cached(w if type(w) is str else None, parse_rational, w))
                 for k, w in enumerate(endow) if w != "0/1"]
        wanted = [(k, cached(_piece_key(u), plc_from_obj, u)) for k, u in enumerate(utils) if u != _ZERO_OBJ]
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise InputError(f"{where}: label must be a string")
        traders.append(TraderSpec(owned, wanted, label))
    return Market(n_goods, tuple(traders))


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


def game_to_obj(g: BimatrixGame):
    return {
        "n": g.n,
        "A": [[format_rational(v) for v in row] for row in g.A],
        "B": [[format_rational(v) for v in row] for row in g.B],
    }


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
        obj["allocation"] = [_dense_row(b.amounts, len(cert.report)) for b in cert.allocation]
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

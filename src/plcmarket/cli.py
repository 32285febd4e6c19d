"""Command-line toolkit.

Exit codes: 0 accept/success, 1 reject/not-found, 2 input error, 3 internal
invariant violation or any other crash.  All artifacts are deterministic; every
price vector written to disk is normalized.

Each command runs with the cyclic garbage collector paused, and the caller's
setting is restored on every exit.  A command's large objects (the decoded
JSON tree, the parsed market, the flow network) live until it returns and are
freed by reference counting, so collections during a command would rescan
them and free nothing; the few cycles a command leaves do not grow with its
work and are collected after it.

Every command and its options are named in one table, `COMMANDS`, which
`main` parses a command line against.  A usage error, such as an unknown
command or option, a missing required option or a value of the wrong type,
exits 2 with an `error:` message, as a bad input file does.
"""

import functools
import gc
import inspect
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import serialize
from .clearing import APPROXIMATE, MODES, verify
from .errors import InputError, InternalInvariantViolation, MarketError
from .games import MAX_SUPPORT_ENUM_N, check_wsne, solve_game_support_enum
from .model import classify_market
from .rational import format_rational, parse_epsilon, parse_rational
from .reduction import ReducedMarketMeta, build_reduced_market, extract_strategies
from .regulating import build_mn
from .search import SearchConfig, search_equilibrium, unit_box


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        except InternalInvariantViolation as exc:
            print(f"internal invariant violation: {exc}", file=sys.stderr)
            sys.exit(3)
        except (MarketError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except Exception as exc:  # a crash must not exit 1, which means "reject"
            traceback.print_exc()
            print(f"internal error: {exc!r}", file=sys.stderr)
            sys.exit(3)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


def _emit(obj, out: str | None, as_json: bool, human: str | None = None):
    text = serialize.write_json(out, obj) if out else None
    if as_json or not out and human is None:
        sys.stdout.write(text or serialize.dumps(obj))
    elif human is not None:
        print(human)


MAX_EPS_EXPONENT = 64  # bounds the big-integer work of n^-K; the paper needs K <= 13


def _resolve_eps(text: str, n_goods: int, game_n: int | None = None) -> Fraction:
    """Parse an epsilon flag: a nonnegative rational literal, or n^-K / N^-K
    relative to the game size / goods count, with K at most MAX_EPS_EXPONENT."""
    text = text.strip()
    if "^" in text:
        base_s, exp_s = text.split("^", 1)
        base_s = base_s.strip()
        try:
            exp = int(exp_s)
        except ValueError as exc:
            raise InputError(f"bad epsilon exponent in {text!r}") from exc
        if not -MAX_EPS_EXPONENT <= exp <= 0:
            raise InputError(f"epsilon exponent must lie in [-{MAX_EPS_EXPONENT}, 0] in {text!r}")
        if base_s == "n":
            if game_n is None:
                raise InputError("epsilon uses n but no game size is in scope")
            base = game_n
        elif base_s == "N":
            base = n_goods
        else:
            raise InputError(f"epsilon base must be n or N, got {base_s!r}")
        return Fraction(1, base ** (-exp))
    return parse_epsilon(text)


@_guard
def gen_mn(n: int, out, as_json):
    """Generate the price-regulating market M_n."""
    _emit(build_mn(n), out, as_json,
          f"wrote M_{n} to {out}" if out else None)


@_guard
def reduce_cmd(game_path, out, meta_path):
    """Compile a sparse normalized game into its reduced market."""
    game = serialize.game_from_obj(serialize.read_json(game_path))
    market, meta = build_reduced_market(game)
    serialize.write_json(out, market)
    serialize.write_json(meta_path, serialize.meta_to_obj(meta))
    print(f"reduced {game.n}x{game.n} game to market with {market.n_goods} goods, {len(market.traders)} traders")


@_guard
def verify_cmd(market_path, prices_path, mode, eps, out, as_json):
    """Check whether a price vector is an equilibrium; exit 0 iff accepted."""
    market = serialize.market_from_obj(serialize.read_json(market_path))
    p = serialize.prices_from_obj(serialize.read_json(prices_path))
    cert = verify(market, p, mode, _resolve_eps(eps, n_goods=market.n_goods))
    human = f"{cert.verdict} (mode={mode}, eps={format_rational(cert.epsilon)})"
    if cert.reason:
        human += f": {cert.reason}"
    _emit(cert, out, as_json, human)
    sys.exit(0 if cert.accepted else 1)


@_guard
def extract_cmd(prices_path, meta_path, out, as_json):
    """Read the encoded strategy pair off a reduced-market price vector."""
    p = serialize.prices_from_obj(serialize.read_json(prices_path))
    meta = serialize.meta_from_obj(serialize.read_json(meta_path))
    ex = extract_strategies(p, meta)
    obj = serialize.strategies_to_obj(ex.x, ex.y)
    note = " (clamped negative encodings)" if ex.clamped else ""
    _emit(obj, out, as_json, f"extracted strategies to {out}{note}" if out else None)


@_guard
def check_nash(game_path, profile_path, eps, as_json):
    """Well-supported Nash check; exit 0 iff the profile passes."""
    game = serialize.game_from_obj(serialize.read_json(game_path))
    x, y = serialize.strategies_from_obj(serialize.read_json(profile_path))
    eps_val = _resolve_eps(eps, game_n=game.n, n_goods=2 * game.n + 2)
    result = check_wsne(game, x, y, eps_val)
    obj = {
        "passed": result.passed,
        "epsilon": format_rational(eps_val),
        "witness": list(result.witness) if result.witness else None,
    }
    human = f"pass (eps={format_rational(eps_val)})" if result.passed else (
        f"fail (eps={format_rational(eps_val)}): action {result.witness[0]} is beaten by"
        f" {result.witness[1]} on the {result.witness[2]} side"
    )
    _emit(obj, None, as_json, human)
    sys.exit(0 if result.passed else 1)


@_guard
def solve_game(game_path, out, as_json):
    """Enumerate exact equilibria of a game with n <= 4 by support pairs."""
    game = serialize.game_from_obj(serialize.read_json(game_path))
    eqs = solve_game_support_enum(game)
    obj = {"equilibria": [serialize.strategies_to_obj(x, y) for x, y in eqs]}
    _emit(obj, out, as_json, f"{len(eqs)} equilibria written to {out}" if out else None)


@_guard
def search_eq(market_path, eps, grid_k, rounds, box_lo, box_hi, out, as_json):
    """Grid search for an approximate equilibrium; exit 0 iff one verifies."""
    market = serialize.market_from_obj(serialize.read_json(market_path))
    cfg = SearchConfig(
        box=unit_box(market.n_goods, parse_rational(box_lo), parse_rational(box_hi)),
        grid_k=grid_k,
        refine_rounds=rounds,
        epsilon=_resolve_eps(eps, n_goods=market.n_goods),
    )
    rep = search_equilibrium(market, cfg)
    score = serialize.score_str(rep.best_max_relative_imbalance)
    _emit(
        serialize.search_report_to_obj(rep),
        out,
        as_json,
        f"{'accepted' if rep.accepted else 'not found'} (best score {score})",
    )
    sys.exit(0 if rep.accepted else 1)


def _validate_one(path: str) -> tuple[bool, str]:
    obj = serialize.read_json(path)
    if not isinstance(obj, dict):
        return False, "top-level JSON must be an object"
    if "n_goods" in obj and "traders" in obj:
        market = serialize.market_from_obj(obj)
        rep = classify_market(market, 27, 23)
        return True, (
            f"market: {market.n_goods} goods, {len(market.traders)} traders,"
            f" 2-linear={rep.is_2_linear}, 27-bounded={rep.alpha_ok},"
            f" 23-sparse={rep.sparsity_ok}, strongly-connected={rep.strongly_connected}"
        )
    if "A" in obj and "B" in obj:
        game = serialize.game_from_obj(obj)
        return True, f"game: {game.n}x{game.n}, sparse normalized"
    if "prices" in obj:
        p = serialize.prices_from_obj(obj)
        return True, f"prices: {len(p.prices)} entries, normalized={p.normalized}"
    if "x" in obj and "y" in obj:
        x, y = serialize.strategies_from_obj(obj)
        return True, f"profile: {len(x.weights)} actions"
    if "game_n" in obj:
        meta = serialize.meta_from_obj(obj)
        return True, f"meta: game n={meta.game_n}, goods={meta.n_goods}"
    return False, "unrecognized schema"


@_guard
def validate_cmd(paths):
    """Validate artifact files; exit 0 iff all are valid."""
    all_ok = True
    for path in paths:
        try:
            ok, detail = _validate_one(path)
        except (MarketError, OSError) as exc:
            ok, detail = False, str(exc)
        all_ok &= ok
        print(f"{path}: {'OK' if ok else 'INVALID'} - {detail}")
    sys.exit(0 if all_ok else 2)


@_guard
def pipeline(game_path, outdir, eps, nash_eps, grid_k, rounds):
    """Reduce, search, extract, and Nash-check a game end to end.

    Writes market.json, meta.json, search.json, summary.json, and (when an
    equilibrium verifies) prices.json and strat.json into --outdir.
    """
    # every setting is checked before the reduction runs or a file is written
    game = serialize.game_from_obj(serialize.read_json(game_path))
    n_goods = ReducedMarketMeta(game.n).n_goods
    eps_val = _resolve_eps(eps, game_n=game.n, n_goods=n_goods)
    nash_eps_val = _resolve_eps(nash_eps, game_n=game.n, n_goods=n_goods)
    cfg = SearchConfig(box=unit_box(n_goods), grid_k=grid_k, refine_rounds=rounds, epsilon=eps_val)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    market, meta = build_reduced_market(game)
    serialize.write_json(outdir / "market.json", market)
    serialize.write_json(outdir / "meta.json", serialize.meta_to_obj(meta))
    rep = search_equilibrium(market, cfg)
    serialize.write_json(outdir / "search.json", serialize.search_report_to_obj(rep))

    summary = {
        "game_n": game.n,
        "n_goods": market.n_goods,
        "epsilon": format_rational(eps_val),
        "nash_epsilon": format_rational(nash_eps_val),
        "equilibrium_found": rep.accepted,
        "best_max_relative_imbalance": serialize.score_str(rep.best_max_relative_imbalance),
        "extraction": None,
        "nash_check": {"status": "skipped-by-precision"},
        "support_enum": None,
    }
    ok = rep.accepted
    if rep.accepted:
        serialize.write_json(outdir / "prices.json", serialize.prices_to_obj(rep.best_price))
        ex = extract_strategies(rep.best_price, meta)
        serialize.write_json(outdir / "strat.json", serialize.strategies_to_obj(ex.x, ex.y))
        summary["extraction"] = {
            "clamped": ex.clamped,
            **serialize.strategies_to_obj(ex.x, ex.y),
        }
        result = check_wsne(game, ex.x, ex.y, nash_eps_val)
        summary["nash_check"] = {
            "status": "checked",
            "passed": result.passed,
            "witness": list(result.witness) if result.witness else None,
        }
        ok = result.passed
    if game.n <= MAX_SUPPORT_ENUM_N:
        eqs = solve_game_support_enum(game)
        summary["support_enum"] = [
            {
                **serialize.strategies_to_obj(x, y),
                "wsne_at_0": check_wsne(game, x, y, 0).passed,
            }
            for x, y in eqs
        ]
    serialize.write_json(outdir / "summary.json", summary)
    print(
        f"pipeline done: equilibrium {'found' if rep.accepted else 'not found'}"
        f" at eps={format_rational(eps_val)}; artifacts in {outdir}"
    )
    sys.exit(0 if ok else 1)


REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    """One option of a command: its flag, the keyword it fills, how its value
    is read (str; int; a tuple of the allowed values; bool for a flag, which
    takes no value; list for the positional arguments, whose flag is their
    name) and its default."""

    flag: str
    dest: str
    kind: object = str
    default: object = None
    help: str = ""


COMMANDS = {
    "gen-mn": (gen_mn, (
        Option("--n", "n", int, REQUIRED, "Number of goods (>= 2)."),
        Option("-o", "out", help="Output market JSON."),
        Option("--json", "as_json", bool, False, "Print JSON to stdout."),
    )),
    "reduce": (reduce_cmd, (
        Option("--game", "game_path", default=REQUIRED),
        Option("-o", "out", default=REQUIRED, help="Output market JSON."),
        Option("--meta", "meta_path", default=REQUIRED, help="Output metadata JSON."),
    )),
    "verify": (verify_cmd, (
        Option("--market", "market_path", default=REQUIRED),
        Option("--prices", "prices_path", default=REQUIRED),
        Option("--mode", "mode", MODES, APPROXIMATE),
        Option("--eps", "eps", default="0", help="Tolerance (rational, approximate mode only)."),
        Option("-o", "out", help="Write certificate JSON."),
        Option("--json", "as_json", bool, False, "Print certificate JSON to stdout."),
    )),
    "extract": (extract_cmd, (
        Option("--prices", "prices_path", default=REQUIRED),
        Option("--meta", "meta_path", default=REQUIRED),
        Option("-o", "out", help="Output strategy JSON."),
        Option("--json", "as_json", bool, False),
    )),
    "check-nash": (check_nash, (
        Option("--game", "game_path", default=REQUIRED),
        Option("--profile", "profile_path", default=REQUIRED),
        Option("--eps", "eps", default="n^-6", help='Tolerance: rational or "n^-6" style.'),
        Option("--json", "as_json", bool, False),
    )),
    "solve-game": (solve_game, (
        Option("--game", "game_path", default=REQUIRED),
        Option("-o", "out"),
        Option("--json", "as_json", bool, False),
    )),
    "search-eq": (search_eq, (
        Option("--market", "market_path", default=REQUIRED),
        Option("--eps", "eps", default="0"),
        Option("--grid-k", "grid_k", int, 4, "Subdivisions per coordinate."),
        Option("--rounds", "rounds", int, 2, "Refinement rounds."),
        Option("--box-lo", "box_lo", default="1"),
        Option("--box-hi", "box_hi", default="2"),
        Option("-o", "out"),
        Option("--json", "as_json", bool, False),
    )),
    "validate": (validate_cmd, (
        Option("PATHS", "paths", list, REQUIRED, "Artifact files."),
    )),
    "pipeline": (pipeline, (
        Option("--game", "game_path", default=REQUIRED),
        Option("--outdir", "outdir", default=REQUIRED),
        Option("--eps", "eps", default="N^-13", help="Market tolerance (N = goods, n = game size)."),
        Option("--nash-eps", "nash_eps", default="n^-6", help="Well-supported Nash tolerance."),
        Option("--grid-k", "grid_k", int, 1),
        Option("--rounds", "rounds", int, 2),
    )),
}


def _usage_error(message: str, command: str | None = None):
    print(f"error: {message} (see plcmarket {command + ' ' if command else ''}--help)", file=sys.stderr)
    sys.exit(2)


def _help(command: str | None = None):
    if command is None:
        usage, doc, header = "COMMAND [OPTIONS]", main.__doc__.splitlines()[0], "commands:"
        rows = [(name, fn.__doc__.splitlines()[0]) for name, (fn, _) in COMMANDS.items()]
    else:
        fn, options = COMMANDS[command]
        usage = f"{command} [OPTIONS]" + "".join(f" {opt.flag}..." for opt in options if opt.kind is list)
        doc, header, rows = inspect.cleandoc(fn.__doc__), "options:", []
        for opt in options:
            metavar = ("" if opt.kind is bool else "..." if opt.kind is list else
                       " {" + ",".join(opt.kind) + "}" if isinstance(opt.kind, tuple) else " " + opt.dest.upper())
            note = ("[required]" if opt.default is REQUIRED else
                    f"[default: {opt.default}]" if opt.default is not None and opt.kind is not bool else "")
            rows.append((opt.flag + metavar, " ".join(filter(None, (opt.help, note)))))
    rows.append(("--help", "Show this message and exit."))
    width = max(len(head) for head, _ in rows)
    print(f"usage: plcmarket {usage}\n\n{doc}\n\n{header}")
    for head, text in rows:
        print(f"  {head:<{width}}  {text}")
    sys.exit(0)


def _parse(command: str, args) -> dict:
    """The keyword arguments of one command line, by the usual rules: a value
    option takes the text after `=` or else the next token, whatever it starts
    with; a flag takes no value; the last occurrence wins; values are
    converted once every token is read."""
    options = COMMANDS[command][1]
    by_flag = {opt.flag: opt for opt in options}
    given, rest = {}, []
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("-"):
            rest.append(token)
        elif token == "--help":
            _help(command)
        else:
            flag, eq, value = token.partition("=")
            opt = by_flag.get(flag)
            if opt is None:
                _usage_error(f"no such option: {flag}", command)
            if opt.kind is bool:
                if eq:
                    _usage_error(f"option {flag} does not take a value", command)
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None:
                    _usage_error(f"option {flag} requires a value", command)
            given[opt.dest] = value
    if rest:
        if options[0].kind is not list:
            _usage_error(f"unexpected extra argument {rest[0]!r}", command)
        given[options[0].dest] = rest
    kwargs = {}
    for opt in options:
        value = given.get(opt.dest, opt.default)
        if value is REQUIRED:
            _usage_error(f"missing {'argument' if opt.kind is list else 'option'} {opt.flag}", command)
        if opt.dest in given and opt.kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"invalid value for {opt.flag}: {value!r} is not an integer", command)
        elif isinstance(opt.kind, tuple) and value not in opt.kind:
            _usage_error(f"invalid value for {opt.flag}: {value!r} is not one of {', '.join(opt.kind)}", command)
        kwargs[opt.dest] = value
    return kwargs


def main(argv=None, standalone_mode: bool = True):
    """Exchange-market equilibrium verifier and game-reduction toolkit.

    Runs the command line argv (sys.argv[1:] when None).  A command that
    decides a verdict ends in SystemExit with its exit code; one that returns
    ends in SystemExit(0) in standalone mode, and returns otherwise."""
    args = sys.argv[1:] if argv is None else argv
    if not args:
        _usage_error("missing command")
    command, *rest = args
    if command == "--help":
        _help()
    if command not in COMMANDS:
        _usage_error(f"no such {'option' if command[:1] == '-' else 'command'}: {command}")
    COMMANDS[command][0](**_parse(command, rest))
    if standalone_mode:
        sys.exit(0)


if __name__ == "__main__":
    main()

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
"""

import functools
import gc
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import click

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
            click.echo(f"internal invariant violation: {exc}", err=True)
            sys.exit(3)
        except (MarketError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # a crash must not exit 1, which means "reject"
            traceback.print_exc()
            click.echo(f"internal error: {exc!r}", err=True)
            sys.exit(3)
        finally:
            if was_enabled:
                gc.enable()

    return wrapper


def _emit(obj, out: str | None, as_json: bool, human: str | None = None):
    text = serialize.write_json(out, obj) if out else None
    if as_json or not out and human is None:
        click.echo(text or serialize.dumps(obj), nl=False)
    elif human is not None:
        click.echo(human)


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


@click.group()
def main():
    """Exchange-market equilibrium verifier and game-reduction toolkit."""


@main.command("gen-mn")
@click.option("--n", "n", type=int, required=True, help="Number of goods (>= 2).")
@click.option("-o", "out", type=click.Path(), default=None, help="Output market JSON.")
@click.option("--json", "as_json", is_flag=True, help="Print JSON to stdout.")
@_guard
def gen_mn(n: int, out, as_json):
    """Generate the price-regulating market M_n."""
    _emit(build_mn(n), out, as_json,
          f"wrote M_{n} to {out}" if out else None)


@main.command("reduce")
@click.option("--game", "game_path", type=click.Path(exists=True), required=True)
@click.option("-o", "out", type=click.Path(), required=True, help="Output market JSON.")
@click.option("--meta", "meta_path", type=click.Path(), required=True, help="Output metadata JSON.")
@_guard
def reduce_cmd(game_path, out, meta_path):
    """Compile a sparse normalized game into its reduced market."""
    game = serialize.game_from_obj(serialize.read_json(game_path))
    market, meta = build_reduced_market(game)
    serialize.write_json(out, market)
    serialize.write_json(meta_path, serialize.meta_to_obj(meta))
    click.echo(f"reduced {game.n}x{game.n} game to market with {market.n_goods} goods, {len(market.traders)} traders")


@main.command("verify")
@click.option("--market", "market_path", type=click.Path(exists=True), required=True)
@click.option("--prices", "prices_path", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice(MODES), default=APPROXIMATE, show_default=True)
@click.option("--eps", default="0", show_default=True, help="Tolerance (rational, approximate mode only).")
@click.option("-o", "out", type=click.Path(), default=None, help="Write certificate JSON.")
@click.option("--json", "as_json", is_flag=True, help="Print certificate JSON to stdout.")
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


@main.command("extract")
@click.option("--prices", "prices_path", type=click.Path(exists=True), required=True)
@click.option("--meta", "meta_path", type=click.Path(exists=True), required=True)
@click.option("-o", "out", type=click.Path(), default=None, help="Output strategy JSON.")
@click.option("--json", "as_json", is_flag=True)
@_guard
def extract_cmd(prices_path, meta_path, out, as_json):
    """Read the encoded strategy pair off a reduced-market price vector."""
    p = serialize.prices_from_obj(serialize.read_json(prices_path))
    meta = serialize.meta_from_obj(serialize.read_json(meta_path))
    ex = extract_strategies(p, meta)
    obj = serialize.strategies_to_obj(ex.x, ex.y)
    note = " (clamped negative encodings)" if ex.clamped else ""
    _emit(obj, out, as_json, f"extracted strategies to {out}{note}" if out else None)


@main.command("check-nash")
@click.option("--game", "game_path", type=click.Path(exists=True), required=True)
@click.option("--profile", "profile_path", type=click.Path(exists=True), required=True)
@click.option("--eps", default="n^-6", show_default=True, help='Tolerance: rational or "n^-6" style.')
@click.option("--json", "as_json", is_flag=True)
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


@main.command("solve-game")
@click.option("--game", "game_path", type=click.Path(exists=True), required=True)
@click.option("-o", "out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
@_guard
def solve_game(game_path, out, as_json):
    """Enumerate exact equilibria of a game with n <= 4 by support pairs."""
    game = serialize.game_from_obj(serialize.read_json(game_path))
    eqs = solve_game_support_enum(game)
    obj = {"equilibria": [serialize.strategies_to_obj(x, y) for x, y in eqs]}
    _emit(obj, out, as_json, f"{len(eqs)} equilibria written to {out}" if out else None)


@main.command("search-eq")
@click.option("--market", "market_path", type=click.Path(exists=True), required=True)
@click.option("--eps", default="0", show_default=True)
@click.option("--grid-k", type=int, default=4, show_default=True, help="Subdivisions per coordinate.")
@click.option("--rounds", type=int, default=2, show_default=True, help="Refinement rounds.")
@click.option("--box-lo", default="1", show_default=True)
@click.option("--box-hi", default="2", show_default=True)
@click.option("-o", "out", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
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


@main.command("validate")
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
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
        click.echo(f"{path}: {'OK' if ok else 'INVALID'} - {detail}")
    sys.exit(0 if all_ok else 2)


@main.command("pipeline")
@click.option("--game", "game_path", type=click.Path(exists=True), required=True)
@click.option("--outdir", type=click.Path(), required=True)
@click.option("--eps", default="N^-13", show_default=True, help="Market tolerance (N = goods, n = game size).")
@click.option("--nash-eps", default="n^-6", show_default=True, help="Well-supported Nash tolerance.")
@click.option("--grid-k", type=int, default=1, show_default=True)
@click.option("--rounds", type=int, default=2, show_default=True)
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
    click.echo(
        f"pipeline done: equilibrium {'found' if rep.accepted else 'not found'}"
        f" at eps={format_rational(eps_val)}; artifacts in {outdir}"
    )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

"""Seeded inputs and the fixed case list of each workload.

Everything the program receives is generated here from the workload seed and
written to files; market files are produced through the program's own CLI
(`gen-mn`, `reduce`), which is part of the timed set-up.  Every instance draws
from its own random stream, so restricting a workload to its smallest size
leaves the remaining inputs unchanged.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from plcmarket import serialize

WORKLOADS = ("verify-mn", "verify-reduced", "pipeline")
MN_MODES = ("exact", "approximate", "quasi")
# The counts set each workload's mix: the median operation falls inside a
# group of like-sized operations rather than between two groups, and enough
# distinct inputs of the costliest size are drawn that one unlucky draw
# moves no percentile much.
# M_n size -> price vectors (in-box, pushed, zero); modes rotate over each kind.
MN_VECTORS = {4: (3, 3, 3), 8: (12, 3, 3), 16: (15, 3, 3)}
# game size -> (games, in-box price vectors per game); each vector runs at both eps.
REDUCED_GAMES = {2: (1, 1), 4: (6, 1), 8: (4, 1)}
# game size -> games; each game runs at both eps.
PIPELINE_GAMES = {2: 4, 3: 1}
PRICE_DEN = 1000
GAME_DEN = 8
GAME_DENSITY = 0.8
SPARSITY_LIMIT = 10  # nonzeros per row and column of a sparse normalized game


@dataclass
class Case:
    """One CLI invocation and what the oracle needs to judge its outcome."""

    id: str
    argv: list
    expect: dict
    files: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, key: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{key}")


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def in_box_prices(rng: random.Random, n: int, strict: bool = False) -> list:
    """Entries in [1, 2] (open (1, 2) when strict), so every ratio is at most 2."""
    lo, hi = (PRICE_DEN + 1, 2 * PRICE_DEN - 1) if strict else (PRICE_DEN, 2 * PRICE_DEN)
    return [Fraction(rng.randint(lo, hi), PRICE_DEN) for _ in range(n)]


def pushed_prices(rng: random.Random, n: int) -> list:
    """An in-box vector with one entry pushed above twice the smallest of the
    others, so that the vector is outside the box whichever entry is pushed."""
    p = in_box_prices(rng, n)
    idx = rng.randrange(n)
    others = p[:idx] + p[idx + 1:]
    p[idx] = 2 * min(others) + Fraction(rng.randint(1, PRICE_DEN), PRICE_DEN)
    return p


def zero_prices(rng: random.Random, n: int) -> list:
    """An in-box vector with one entry set to zero."""
    p = in_box_prices(rng, n)
    p[rng.randrange(n)] = Fraction(0)
    return p


def sparse_game(rng: random.Random, n: int) -> dict:
    """Game JSON: entries in [-1, 1] with denominator GAME_DEN, each nonzero
    with probability GAME_DENSITY; n <= SPARSITY_LIMIT keeps every row and
    column within the sparsity contract."""
    if n > SPARSITY_LIMIT:
        raise ValueError(f"game size {n} exceeds the sparsity limit {SPARSITY_LIMIT}")

    def matrix():
        return [
            [
                _fmt(Fraction(rng.randint(-GAME_DEN, GAME_DEN), GAME_DEN))
                if rng.random() < GAME_DENSITY else "0"
                for _ in range(n)
            ]
            for _ in range(n)
        ]

    return {"n": n, "A": matrix(), "B": matrix()}


def _write_prices(path: Path, p: list):
    serialize.write_json(path, {"prices": [_fmt(q) for q in p], "normalized": False})


def build_cases(workload: str, seed: int, workdir: Path, invoke, smallest: bool = False):
    """Write the inputs of one workload into workdir and return its case list.

    `invoke(argv)` runs one CLI command; set-up uses it for `gen-mn` and
    `reduce`, and raises if either does not exit 0.  `smallest` keeps only
    the smallest instance size.
    """
    builders = {"verify-mn": (_verify_mn, MN_VECTORS),
                "verify-reduced": (_verify_reduced, REDUCED_GAMES),
                "pipeline": (_pipeline, PIPELINE_GAMES)}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    build, sizes = builders[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for n in sorted(sizes)[:1] if smallest else sorted(sizes):
        cases += build(seed, workdir, invoke, n, sizes[n])
    return cases


def _setup_cli(invoke, argv):
    code = invoke(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}")


def _verify_mn(seed, workdir, invoke, n, counts):
    market = workdir / f"mn{n}.json"
    _setup_cli(invoke, ["gen-mn", "--n", str(n), "-o", str(market)])
    rng = _rng("verify-mn", seed, f"n{n}")
    cases = []
    for (kind, draw), count in zip(
        (("inbox", in_box_prices), ("pushed", pushed_prices), ("zero", zero_prices)), counts
    ):
        for j in range(count):
            p = draw(rng, n)
            mode = MN_MODES[j % len(MN_MODES)]
            eps = f"1/{n}" if mode == "approximate" else "0"
            prices = workdir / f"mn{n}-{kind}{j}.json"
            _write_prices(prices, p)
            cert = workdir / f"cert-mn{n}-{kind}{j}.json"
            cases.append(Case(
                id=f"verify-mn/n{n}/{kind}{j}/{mode}",
                argv=["verify", "--market", str(market), "--prices", str(prices),
                      "--mode", mode, "--eps", eps, "-o", str(cert)],
                expect={"kind": "verify-mn", "prices": p},
                files={"cert": cert, "market": market},
            ))
    return cases


def _reduce(invoke, workdir, name, game):
    game_path = workdir / f"{name}-game.json"
    serialize.write_json(game_path, game)
    market, meta = workdir / f"{name}-market.json", workdir / f"{name}-meta.json"
    _setup_cli(invoke, ["reduce", "--game", str(game_path), "-o", str(market),
                        "--meta", str(meta)])
    return game_path, market, meta


def _eps_flags(n: int):
    """The two tolerances every reduced-market case runs at: N^-13 and 1/2."""
    return (("N^-13", Fraction(1, (2 * n + 2) ** 13)), ("1/2", Fraction(1, 2)))


def _verify_reduced(seed, workdir, invoke, n, counts):
    games, vectors = counts
    cases = []
    for g in range(games):
        rng = _rng("verify-reduced", seed, f"n{n}/g{g}")
        _, market, meta = _reduce(invoke, workdir, f"r{n}g{g}", sparse_game(rng, n))
        for v in range(vectors):
            p = in_box_prices(rng, 2 * n + 2, strict=True)
            prices = workdir / f"r{n}g{g}-p{v}.json"
            _write_prices(prices, p)
            for eps_flag, eps in _eps_flags(n):
                cert = workdir / f"cert-r{n}g{g}p{v}-{eps_flag.replace('/', '_')}.json"
                cases.append(Case(
                    id=f"verify-reduced/n{n}/g{g}/p{v}/eps={eps_flag}",
                    argv=["verify", "--market", str(market), "--prices", str(prices),
                          "--mode", "approximate", "--eps", eps_flag, "-o", str(cert)],
                    expect={"kind": "verify-reduced", "prices": p, "eps": eps},
                    files={"cert": cert, "market": market, "meta": meta},
                ))
    return cases


def _pipeline(seed, workdir, invoke, n, games):
    cases = []
    for g in range(games):
        game = sparse_game(_rng("pipeline", seed, f"n{n}/g{g}"), n)
        game_path, market, meta = _reduce(invoke, workdir, f"p{n}g{g}", game)
        for eps_flag, eps in _eps_flags(n):
            outdir = workdir / f"out-p{n}g{g}-{eps_flag.replace('/', '_')}"
            cases.append(Case(
                id=f"pipeline/n{n}/g{g}/eps={eps_flag}",
                argv=["pipeline", "--game", str(game_path), "--outdir", str(outdir),
                      "--grid-k", "1", "--rounds", "2", "--eps", eps_flag],
                expect={"kind": "pipeline", "n": n, "eps": eps, "game": game},
                files={"outdir": outdir, "market": market, "meta": meta},
            ))
    return cases

"""Timing wrappers installed from outside the program.

`install` replaces the public functions of each plcmarket module (and the
few methods that carry a layer's work) with wrappers that record spans, and
rebinds every name under which another plcmarket module imported them, e.g.
`clearing.optimal_demand`, `search.verify` or `cli.build_reduced_market`.
A target the program no longer has is skipped, so that the other layers
still report.  Spans stay in memory as parallel arrays (name, parent span, operation,
start, duration, duration covered by children) and are written out once at
the end.  Self time is a span's duration minus its children's.
"""

import gzip
import importlib
import os
import sys
from array import array
from time import perf_counter

# Per-layer metrics in the order they are reported: (metric, unit).
PER_LAYER = (
    ("flow.max_flow.self_s", "s"),
    ("flow.feasible_circulation.self_s", "s"),
    ("flow.feasible_circulation.calls", "count"),
    ("flow.feasible_circulation.infeasible", "count"),
    ("flow.arcs", "count"),
    ("flow.add_edge.calls", "count"),
    ("clearing.verify.calls", "count"),
    ("clearing.verify.accept", "count"),
    ("clearing.verify.reject", "count"),
    ("clearing.verify.self_s", "s"),
    ("clearing.imbalance_profile.calls", "count"),
    ("clearing.imbalance_profile.self_s", "s"),
    ("demand.optimal_demand.calls", "count"),
    ("demand.optimal_demand.self_s", "s"),
    ("demand.budget.calls", "count"),
    ("demand.in_opt.calls", "count"),
    ("demand.in_opt.total_s", "s"),
    ("demand.canonical_bundle.self_s", "s"),
    ("demand.unbounded", "count"),
    ("plc.eval.calls", "count"),
    ("plc.eval.total_s", "s"),
    ("model.supplies.calls", "count"),
    ("model.supplies.total_s", "s"),
    ("model.normalize_prices.calls", "count"),
    ("search.search_equilibrium.self_s", "s"),
    ("search.points_scored", "count"),
    ("search.points_skipped", "count"),
    ("serialize.read_json.total_s", "s"),
    ("serialize.market_from_obj.total_s", "s"),
    ("serialize.write_json.total_s", "s"),
    ("serialize.bytes_written", "count"),
    ("reduction.build_reduced_market.total_s", "s"),
    ("reduction.extract_strategies.total_s", "s"),
    ("games.solve_game_support_enum.total_s", "s"),
    ("games.check_wsne.total_s", "s"),
    ("cli.verify.total_s", "s"),
    ("cli.pipeline.total_s", "s"),
    ("trace.overhead_s", "s"),
)


def _lookup(target: str):
    """(owner, object) named by target, "module:attr[.attr]" under plcmarket;
    (None, None) when the module or an attribute is not there."""
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(f"plcmarket.{modname}")
    except ImportError:
        return None, None
    obj = owner
    for attr in path.split("."):
        owner, obj = obj, getattr(obj, attr, None)
        if obj is None:
            return None, None
    return owner, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.current_op = -1
        self._restore: list[tuple] = []

    def bump(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    def span(self, name: str, fn, after=None, on_error=None):
        """Wrap fn in a span; after(result, args) and on_error(exc) feed counters."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, dur, child = self.stack, self.dur, self.child

        def wrapper(*args, **kwargs):
            idx = len(dur)
            parent = stack[-1] if stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(self.current_op)
            dur.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                d = perf_counter() - t0
                stack.pop()
                dur[idx] = d
                if parent >= 0:
                    child[parent] += d
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn in a call counter only; its time stays in the caller's self time."""
        key = f"{name}.calls"
        self.counts.setdefault(key, 0)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installing and removing the wrappers --------------------------------

    def _rebind(self, original, wrapper):
        """Replace original under every name a plcmarket module binds it to."""
        for modname, module in list(sys.modules.items()):
            if modname != "plcmarket" and not modname.startswith("plcmarket."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _patch_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> list[str]:
        """Install every wrapper.  Returns the targets that the program no
        longer has; they are skipped, and their metrics read 0."""
        _, unbounded_error = _lookup("errors:UnboundedDemand")

        def unbounded(key):
            def on_error(exc):
                if unbounded_error is not None and isinstance(exc, unbounded_error):
                    self.bump(key)
            return on_error

        def after_circulation(result, args):
            self.bump("flow.arcs", len(args[0]))
            if result is None:
                self.bump("flow.feasible_circulation.infeasible")

        def after_verify(cert, args):
            self.bump("clearing.verify.accept" if cert.accepted else "clearing.verify.reject")

        def after_write(result, args):
            self.bump("serialize.bytes_written", os.path.getsize(args[0]))

        spans = [  # (target, span name, after, on_error)
            ("flow:feasible_circulation", "flow.feasible_circulation", after_circulation, None),
            ("flow:FlowNetwork.max_flow", "flow.max_flow", None, None),
            ("clearing:verify", "clearing.verify", after_verify, None),
            ("clearing:imbalance_profile", "clearing.imbalance_profile",
             lambda r, a: self.bump("search.points_scored"), unbounded("search.points_skipped")),
            ("demand:optimal_demand", "demand.optimal_demand", None, unbounded("demand.unbounded")),
            ("demand:in_opt", "demand.in_opt", None, None),
            ("demand:canonical_bundle", "demand.canonical_bundle", None, None),
            ("model:Market.supplies", "model.supplies", None, None),
            ("plc:PLCFunction.__call__", "plc.eval", None, None),
            ("search:search_equilibrium", "search.search_equilibrium", None, None),
            ("serialize:read_json", "serialize.read_json", None, None),
            ("serialize:market_from_obj", "serialize.market_from_obj", None, None),
            ("serialize:write_json", "serialize.write_json", after_write, None),
            ("reduction:build_reduced_market", "reduction.build_reduced_market", None, None),
            ("reduction:extract_strategies", "reduction.extract_strategies", None, None),
            ("games:solve_game_support_enum", "games.solve_game_support_enum", None, None),
            ("games:check_wsne", "games.check_wsne", None, None),
        ]
        counters = [  # (target, counter name)
            ("flow:FlowNetwork.add_edge", "flow.add_edge"),
            ("demand:budget", "demand.budget"),
            ("model:normalize_prices", "model.normalize_prices"),
        ]
        missing = []

        def wrap(target, make):
            owner, fn = _lookup(target)
            if fn is None:
                missing.append(target)
            elif isinstance(owner, type):
                self._patch_method(owner, target.rpartition(".")[2], make(fn))
            else:
                self._rebind(fn, make(fn))

        for target, name, after, on_error in spans:
            wrap(target, lambda fn: self.span(name, fn, after, on_error))
        for target, name in counters:
            wrap(target, lambda fn: self.counter(name, fn))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for nid, d, c in zip(self.name, self.dur, self.child):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += d
            row[2] += d - c
        return {name: tuple(row) for name, row in out.items()}

    def metrics(self, overhead_s: float, scale: float = 1.0) -> dict:
        """The PER_LAYER metrics; span seconds are multiplied by `scale`."""
        totals = self.totals()
        values = {"trace.overhead_s": overhead_s}
        for metric, _ in PER_LAYER:
            if metric in values:
                continue
            if metric in self.counts:
                values[metric] = self.counts[metric]
                continue
            name, _, stat = metric.rpartition(".")
            calls, total_s, self_s = totals.get(name, (0, 0.0, 0.0))
            values[metric] = {"calls": calls, "total_s": total_s * scale,
                              "self_s": self_s * scale}.get(stat, 0)
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tdur_s\tself_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i, (nid, parent, op, start, d, c) in enumerate(
                zip(self.name, self.parent, self.op, self.start, self.dur, self.child)
            ):
                fh.write(f"{i}\t{parent}\t{op}\t{self.names[nid]}\t{start - t0:.9f}\t{d:.9f}\t{d - c:.9f}\n")

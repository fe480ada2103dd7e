"""Per-layer tracing of the ``hypermaps`` package, installed from outside.

``Tracer.install()`` wraps every function and method that the package's
modules define (its layers) and rebinds each wrapper in every module that
imported the original by name, so calls through ``from .x import f`` are
seen too.  Each call is a span on one stack; a span's self time is its
duration minus the time of the spans nested in it.  Counts and self times
are aggregated per round as the run goes.  Full spans (name, start, end,
parent, operation) are kept only for operations and for calls that cross
from one layer into another, only in the first traced round, and only up
to ``SPAN_CAP``; ``perm`` and ``poly`` calls are aggregated, never kept.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "perm", "hypermap", "nclattice", "whitney", "charflow", "medial", "poly")
FINE = {"perm", "poly"}
SPAN_CAP = 20000

# Tiny helpers called per point; their time stays with their caller.
SKIP = {"medial": {"minus", "plus", "base", "is_plus", "signed_name"}}
DUNDERS = {"__init__", "__mul__", "__add__", "__sub__", "__neg__", "__pow__", "__str__"}

PARSE = {
    "cli.build_parser", "cli.parse_args", "cli.load_document", "cli.parse_hypermap_text",
    "cli.parse_hypermap_json", "cli._parse_cycle_text", "cli._build_document",
    "cli.parse_digraph", "cli._read_input",
}
RENDER = {
    "cli._emit", "cli._whitney_payload", "cli._signed_render", "cli.HypermapDocument.render_perm",
    "cli.HypermapDocument.cycles_json", "cli.HypermapDocument.echo",
}
POLY_OPS = {
    f"poly.{cls}.{m}"
    for cls in ("BiPoly", "UniPoly")
    for m in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scalar_multiply")
}
ROUTES = {"whitney.whitney_bruteforce", "whitney.whitney_phi", "whitney.whitney_psi"}


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [key, layer, start, child_time, span_id]
        self.spans = []
        self.spans_dropped = 0
        self.recording = False
        self.op = None
        self._next_id = 0
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -------------------------------------------------------------- spans

    def enter(self, key, layer):
        self.calls[key] += 1
        self._next_id += 1
        self.stack.append([key, layer, time.perf_counter(), 0.0, self._next_id])

    def leave(self):
        end = time.perf_counter()
        key, layer, start, child, sid = self.stack.pop()
        dur = end - start
        self.self_s[key] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if self.recording and layer not in FINE and (parent is None or parent[1] != layer):
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent[4] if parent else None, self.op, key, start, end))
            else:
                self.spans_dropped += 1

    def wrap(self, layer, name, fn, on_result=None):
        key = f"{layer}.{name}"
        tr = self
        if inspect.isgeneratorfunction(fn):
            count_key = {"nclattice.refinements": "nclattice.betas",
                         "medial.coherent_matchings": "medial.states"}.get(key)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tr.enter(key, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tr.leave()
                    if count_key:
                        tr.counts[count_key] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.enter(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.leave()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # ------------------------------------------------------------ install

    def _hooks(self):
        def interval(res):
            self.counts["nclattice.interval.elements"] += len(res)

        def recursion(res):
            self.counts["whitney.nodes"] += res.stats.nodes
            self.counts["whitney.memo_hits"] += res.stats.memo_hits

        def parser(res):
            res.parse_args = self.wrap("cli", "parse_args", res.parse_args)

        return {
            "nclattice.interval": interval,
            "whitney.whitney_phi": recursion,
            "whitney.whitney_psi": recursion,
            "cli.build_parser": parser,
        }

    def install(self):
        import importlib

        hooks = self._hooks()
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hypermaps.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj, hooks)
                elif callable(obj) and name not in SKIP.get(layer, ()):
                    replaced[id(obj)] = self.wrap(layer, name, obj, hooks.get(f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "hypermaps" or modname.startswith("hypermaps."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, layer, cls, hooks):
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in DUNDERS:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.wrap(layer, qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qual, attr, hooks.get(f"{layer}.{qual}")))

    # ------------------------------------------------------------ metrics

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def merge(snapshots):
    """Sum snapshots (one per operation process) into one round."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counts": defaultdict(int)}
    for snap in snapshots:
        for part in out:
            for k, v in snap[part].items():
                out[part][k] += v
    return out


def layer_metrics(snap, ops_per_round):
    """Per-layer figures of one round, named as in BENCHMARK.json."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    def keys_self(keys):
        return sum(self_s.get(k, 0.0) for k in keys)

    nodes = counts.get("whitney.nodes", 0)
    return {
        "cli.parse_s": keys_self(PARSE),
        "cli.render_s": keys_self(RENDER),
        "cli.self_s": layer_self("cli"),
        "perm.built": calls.get("perm.Permutation.__init__", 0),
        "perm.self_s": layer_self("perm"),
        "hypermap.built": calls.get("hypermap.Hypermap.__init__", 0),
        "hypermap.orbit_count.calls": calls.get("hypermap.orbit_count", 0),
        "hypermap.orbit_count.self_s": self_s.get("hypermap.orbit_count", 0.0),
        "hypermap.canonical_key.calls": calls.get("hypermap.Hypermap.canonical_key", 0),
        "hypermap.canonical_key.self_s": self_s.get("hypermap.Hypermap.canonical_key", 0.0),
        "hypermap.self_s": layer_self("hypermap"),
        "nclattice.betas": counts.get("nclattice.betas", 0),
        "nclattice.refinements.self_s": self_s.get("nclattice.refinements", 0.0),
        "nclattice.is_refinement.calls": calls.get("nclattice.is_refinement", 0),
        "nclattice.is_refinement.self_s": self_s.get("nclattice.is_refinement", 0.0),
        "nclattice.interval.elements": counts.get("nclattice.interval.elements", 0),
        "nclattice.mobius.calls": calls.get("nclattice.mobius", 0),
        "nclattice.mobius.self_s": self_s.get("nclattice.mobius", 0.0),
        "nclattice.self_s": layer_self("nclattice"),
        "whitney.nodes": nodes,
        "whitney.memo_hits": counts.get("whitney.memo_hits", 0),
        "whitney.memo_hit_ratio": counts.get("whitney.memo_hits", 0) / nodes if nodes else 0.0,
        "whitney.passes": sum(calls.get(k, 0) for k in ROUTES) / ops_per_round,
        "whitney.branch.calls": calls.get("whitney.branch", 0),
        "whitney.self_s": layer_self("whitney"),
        "charflow.self_s": layer_self("charflow"),
        "medial.states": counts.get("medial.states", 0),
        "medial.circuits_of_state.self_s": self_s.get("medial.circuits_of_state", 0.0),
        "medial.self_s": layer_self("medial"),
        "poly.ops": sum(calls.get(k, 0) for k in POLY_OPS),
        "poly.self_s": layer_self("poly"),
    }


def summarize(rounds):
    """Times as the median over traced rounds; counts from the first one.

    Every traced round starts from the same warm state, so counts repeat
    exactly from run to run.
    """
    return {
        k: statistics.median(r[k] for r in rounds) if k.endswith("_s") else rounds[0][k]
        for k in rounds[0]
    }

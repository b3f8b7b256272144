"""Spans around the calls into each layer, kept in memory.

The tracer wraps the public entry points of every layer (and the two private
ones the CLI sweep reaches directly) from the benchmark's side: each wrapper
replaces every binding of the original function inside the ``facevec``
package, so calls from one layer into another are spanned too.  A span
records its name, start, end and parent.  A span whose parent has the same
name is not recorded, so counts are not doubled when an entry point calls
another one of the same stage.

A layer's self time is the time of its spans minus the spans beneath them;
self times of spans named ``bench.*`` (the timed loop and the output sink)
are reported as ``unattributed_s``.  Self times plus ``unattributed_s`` sum
to the traced wall time by construction; the episode checks that they do.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time

LAYERS = ("graphs", "combinat", "revlex", "complexes", "construct", "verify", "cli")


def _cone_steps(result) -> int:
    trace, steps = result[1], 0
    while trace is not None:
        steps += len(trace.steps)
        trace = trace.sub
    return steps


# (module, attribute, span name, work counter or "iter" for generators).
TARGETS = (
    ("graphs", "parse_graph", "graphs.decode", None),
    ("graphs", "Graph.from_edge_mask", "graphs.decode", None),
    ("graphs", "clique_vector", "graphs.count", sum),
    ("graphs", "_clique_counts", "graphs.count", sum),
    ("graphs", "graph_link", "graphs.link", None),
    ("graphs", "remove_vertices", "graphs.link", None),
    ("graphs", "graph6_encode", "graphs.encode", None),
    ("combinat", "kk_canonical", "combinat.kk", None),
    ("combinat", "ffk_canonical", "combinat.ffk", None),
    ("combinat", "CanonicalRep.successor_bound", "combinat.bound", None),
    ("revlex", "first_ksets", "revlex.segment", len),
    ("revlex", "first_permissible_ksets", "revlex.segment", len),
    ("revlex", "revlex_complex", "revlex.complex", None),
    ("revlex", "colored_revlex_complex", "revlex.complex", None),
    ("complexes", "Complex.from_faces", "complexes.from_faces", None),
    ("complexes", "closure", "complexes.closure", len),
    ("complexes", "face_vector", "complexes.face_vector", None),
    ("complexes", "one_skeleton", "complexes.skeleton", None),
    ("complexes", "check_coloring", "complexes.coloring", None),
    ("complexes", "chromatic_number", "complexes.chromatic", None),
    ("construct", "construct_balanced", "construct.balanced", None),
    ("construct", "construct_from_vector", "construct.balanced", None),
    ("construct", "construct_pair", "construct.pair", _cone_steps),
    ("verify", "verify_graph", "verify.graph", None),
    ("verify", "iter_exhaustive_records", "verify.records", "iter"),
    ("cli", "run", "cli.run", None),
    ("cli", "_record_line", "cli.format", None),
    ("cli", "_print_complex", "cli.print", None),
)


class Tracer:
    """Span store; recording happens only while ``on`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self.stack: list[int] = []
        self.on = False
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.work.append(0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def start(self) -> None:
        """Open the root span of the timed section and start recording."""
        self.on = True
        self.open("bench.episode")

    def stop(self) -> None:
        """Close the root span; later calls (the output checks) go unrecorded."""
        self.close(0)
        self.on = False

    def _skip(self, name: str) -> bool:
        return not self.on or (bool(self.stack) and self.names[self.stack[-1]] == name)

    def wrap(self, name: str, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._skip(name):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if work is not None:
                tracer.work[idx] = work(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """Span every ``next()`` of the generator ``fn`` returns."""
        tracer = self

        def step(it):
            while True:
                if tracer._skip(name):
                    item = next(it, StopIteration)
                else:
                    idx = tracer.open(name)
                    try:
                        item = next(it, StopIteration)
                    finally:
                        tracer.close(idx)
                    tracer.work[idx] = item is not StopIteration
                if item is StopIteration:
                    return
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return step(fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        """Wrap every target found; record the ones this version lacks."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "facevec" or key.startswith("facevec.")]
        for module, attr, name, work in TARGETS:
            owner = sys.modules.get(f"facevec.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(method) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{module}.{attr}")
                elif isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(name, raw.__func__, work)))
                else:
                    setattr(cls, method, self.wrap(name, raw, work))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = (self.wrap_iter(name, original) if work == "iter"
                       else self.wrap(name, original, work))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def aggregate(self) -> dict:
        """Per-name totals over outermost spans, and per-layer self times."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        time_by: dict[str, float] = {}
        calls_by: dict[str, int] = {}
        work_by: dict[str, int] = {}
        self_by: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        unattributed = 0.0
        constructs_in_verify = 0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            layer = name.split(".", 1)[0]
            if layer in self_by:
                self_by[layer] += dur - child[i]
            else:
                unattributed += dur - child[i]
            ancestors = []
            p = self.parents[i]
            while p >= 0:
                ancestors.append(self.names[p])
                p = self.parents[p]
            if name in ancestors:
                continue
            time_by[name] = time_by.get(name, 0.0) + dur
            calls_by[name] = calls_by.get(name, 0) + 1
            work_by[name] = work_by.get(name, 0) + self.work[i]
            if name == "construct.balanced" and any(a.startswith("verify.") for a in ancestors):
                constructs_in_verify += 1
        roots = [i for i in range(n) if self.parents[i] < 0]
        wall = sum(self.ends[i] - self.starts[i] for i in roots)
        return {
            "time": time_by,
            "calls": calls_by,
            "work": work_by,
            "self": self_by,
            "unattributed_s": unattributed,
            "wall_s": wall,
            "spans": n,
            "constructs_in_verify": constructs_in_verify,
            "missing": self.missing,
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first."""
        base = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i] - base,
                                     self.ends[i] - base, self.parents[i]]) + "\n")


def merge(aggs: list[dict]) -> dict:
    """Sum the aggregates of the episodes that make one round."""
    out = {"time": {}, "calls": {}, "work": {}, "self": {layer: 0.0 for layer in LAYERS},
           "unattributed_s": 0.0, "wall_s": 0.0, "spans": 0, "constructs_in_verify": 0,
           "bytes_out": 0, "distinct_vectors": 0}
    for agg in aggs:
        for key in ("time", "calls", "work", "self"):
            for name, value in agg[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for key in ("unattributed_s", "wall_s", "spans", "constructs_in_verify",
                    "bytes_out", "distinct_vectors"):
            out[key] += agg.get(key, 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric name -> unit.  Self times are derived: span time minus the
# spans beneath it.  Layers a workload never reaches read 0.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unattributed_s": "s",
    "graphs.decode_s": "s", "graphs.count_s": "s", "graphs.cliques": "count",
    "graphs.cliques_per_s": "1/s", "graphs.link_s": "s", "graphs.link_calls": "count",
    "combinat.kk_us": "us", "combinat.ffk_us": "us", "combinat.bound_us": "us",
    "combinat.calls": "count",
    "revlex.segment_s": "s", "revlex.ksets": "count", "revlex.ksets_per_s": "1/s",
    "complexes.from_faces_s": "s", "complexes.closure_s": "s",
    "complexes.faces_closed": "count", "complexes.closure_faces_per_s": "1/s",
    "complexes.coloring_s": "s", "complexes.chromatic_s": "s",
    "construct.balanced_s": "s", "construct.pair_s": "s", "construct.pair_calls": "count",
    "construct.cone_steps": "count",
    "verify.graph_s": "s", "verify.records_per_s": "1/s", "verify.distinct_vectors": "count",
    "verify.memo_hit_ratio": "ratio",
    "cli.bytes_out": "bytes",
    "spans": "count",
}


def derive(agg: dict) -> dict[str, float]:
    """The per-layer metrics of one round's merged aggregate."""
    t, c, w = agg["time"], agg["calls"], agg["work"]
    get = lambda d, k: d.get(k, 0)  # noqa: E731
    records = get(w, "verify.records") + get(c, "verify.graph")
    out = {f"{layer}.self_s": agg["self"][layer] for layer in LAYERS}
    out.update({
        "unattributed_s": agg["unattributed_s"],
        "graphs.decode_s": get(t, "graphs.decode"),
        "graphs.count_s": get(t, "graphs.count"),
        "graphs.cliques": get(w, "graphs.count"),
        "graphs.cliques_per_s": _ratio(get(w, "graphs.count"), get(t, "graphs.count")),
        "graphs.link_s": get(t, "graphs.link"),
        "graphs.link_calls": get(c, "graphs.link"),
        "combinat.kk_us": 1e6 * _ratio(get(t, "combinat.kk"), get(c, "combinat.kk")),
        "combinat.ffk_us": 1e6 * _ratio(get(t, "combinat.ffk"), get(c, "combinat.ffk")),
        "combinat.bound_us": 1e6 * _ratio(get(t, "combinat.bound"), get(c, "combinat.bound")),
        "combinat.calls": sum(get(c, k) for k in ("combinat.kk", "combinat.ffk",
                                                  "combinat.bound")),
        "revlex.segment_s": get(t, "revlex.segment"),
        "revlex.ksets": get(w, "revlex.segment"),
        "revlex.ksets_per_s": _ratio(get(w, "revlex.segment"), get(t, "revlex.segment")),
        "complexes.from_faces_s": get(t, "complexes.from_faces"),
        "complexes.closure_s": get(t, "complexes.closure"),
        "complexes.faces_closed": get(w, "complexes.closure"),
        "complexes.closure_faces_per_s": _ratio(get(w, "complexes.closure"),
                                                get(t, "complexes.closure")),
        "complexes.coloring_s": get(t, "complexes.coloring"),
        "complexes.chromatic_s": get(t, "complexes.chromatic"),
        "construct.balanced_s": get(t, "construct.balanced"),
        "construct.pair_s": get(t, "construct.pair"),
        "construct.pair_calls": get(c, "construct.pair"),
        "construct.cone_steps": get(w, "construct.pair"),
        "verify.graph_s": get(t, "verify.graph"),
        "verify.records_per_s": _ratio(records, get(t, "verify.graph") + get(t, "verify.records")),
        "verify.distinct_vectors": agg["distinct_vectors"],
        "verify.memo_hit_ratio": _ratio(records - agg["constructs_in_verify"], records),
        "cli.bytes_out": agg["bytes_out"],
        "spans": agg["spans"],
    })
    return out

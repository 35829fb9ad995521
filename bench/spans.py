"""In-memory span recorder for the traced run, and the per-layer metrics
derived from its spans.

``install`` replaces every binding of every public stashpeel function in the
layer modules (and the package namespace) with a wrapper that records a span,
plus ``Hypergraph.copy``.  The other ``Hypergraph`` methods (``add_edge``,
``degree`` and the like) stay unwrapped: they run millions of times per pass
and a span each would swamp what is measured.  ``uninstall`` puts the
original functions back, so the untraced run always calls the package as it
is.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("hypergraph", "peeling", "stash_solvers", "gadgets", "reductions", "cli")


class SpanRecorder:
    """Spans as lists [name, start, end, parent index, op id, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "counters": counters}) + "\n")


# Extra counts taken after a call returns, outside its span.
_COUNTS = {
    "peeling.k_core": lambda args, result: args[0].d * args[0].num_edges,
    "peeling.peel_edges": lambda args, result: (len(args[0]), len(result)),
    "hypergraph.parse": lambda args, result: len(args[0]),
}


def _function_id(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(recorder: SpanRecorder, sp) -> list[tuple[object, str, object]]:
    """Wrap every public function binding; returns what ``uninstall`` restores."""
    saved = []
    for module in [sp] + [getattr(sp, layer) for layer in LAYERS]:
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or not fn.__module__.startswith("stashpeel."):
                continue
            fid = _function_id(fn)
            saved.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(fid, fn, _COUNTS.get(fid)))
    copy = sp.Hypergraph.copy
    saved.append((sp.Hypergraph, "copy", copy))
    sp.Hypergraph.copy = recorder.wrap("hypergraph.copy", copy)
    return saved


def uninstall(saved) -> None:
    for owner, attr, fn in saved:
        setattr(owner, attr, fn)


def _durations(spans):
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur, [dur[i] - child[i] for i in range(n)]


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def layer_metrics(spans: list[list], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric, derived from the spans of the traced run.

    ``<f>.s`` is the inclusive time of a function's outermost spans, and
    ``<f>.self_s`` its time minus the time of the spans it caused.
    """
    dur, self_t = _durations(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_t[i]
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_t[i]
        if name not in set(_ancestors(spans, i)):
            total[name] = total.get(name, 0.0) + dur[i]

    def group(names, key=total):
        return sum(v for k, v in key.items() if k in names)

    def outermost(pred) -> float:
        return sum(dur[i] for i, s in enumerate(spans)
                   if pred(s[0]) and not any(pred(a) for a in _ancestors(spans, i)))

    def under(name_pred, anc_pred) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if name_pred(s[0]) and any(anc_pred(a) for a in _ancestors(spans, i)))

    exact = {"stash_solvers.min_vertex_stash_exact", "stash_solvers.min_edge_stash_exact"}
    is_exact = exact.__contains__
    is_greedy = "stash_solvers.greedy_stash".__eq__
    is_peel = "peeling.peel_edges".__eq__
    is_kcore = "peeling.k_core".__eq__
    is_build = lambda n: n.startswith("gadgets.build_") and n != "gadgets.build_harness"
    is_check = lambda n: n.startswith("gadgets.check_")

    peel_io = [s[5] for s in spans if s[0] == "peeling.peel_edges" and s[5]]
    edges_in = sum(a for a, _ in peel_io)
    edges_out = sum(b for _, b in peel_io)
    parse_chars = sum(s[5] for s in spans if s[0] == "hypergraph.parse" and s[5])
    parse_s = total.get("hypergraph.parse", 0.0)
    n_exact = sum(calls.get(f, 0) for f in exact)

    m = {
        "peeling.peel_edges.calls": calls.get("peeling.peel_edges", 0),
        "peeling.peel_edges.self_s": selfs.get("peeling.peel_edges", 0.0),
        "peeling.peel_edges.edges_in": edges_in,
        "peeling.peel_edges.peeled_share": (edges_in - edges_out) / edges_in if edges_in else 0.0,
        "stash_solvers.exact_vertex.s": total.get("stash_solvers.min_vertex_stash_exact", 0.0),
        "stash_solvers.exact_edge.s": total.get("stash_solvers.min_edge_stash_exact", 0.0),
        "stash_solvers.exact.self_s": group(exact, selfs),
        "stash_solvers.exact.peel_calls_per_instance": under(is_peel, is_exact) / n_exact if n_exact else 0.0,
        "stash_solvers.greedy.s": total.get("stash_solvers.greedy_stash", 0.0),
        "stash_solvers.greedy.peel_calls": under(is_peel, is_greedy),
        "hypergraph.parse.s": parse_s,
        "hypergraph.parse.mb_per_s": parse_chars / 1e6 / parse_s if parse_s else 0.0,
        "hypergraph.serialize.s": total.get("hypergraph.serialize", 0.0),
        "hypergraph.copy.calls": calls.get("hypergraph.copy", 0),
        "hypergraph.copy.s": total.get("hypergraph.copy", 0.0),
        "peeling.k_core.calls": calls.get("peeling.k_core", 0),
        "peeling.k_core.self_s": selfs.get("peeling.k_core", 0.0),
        "peeling.k_core.incidences": sum(s[5] for s in spans if s[0] == "peeling.k_core" and s[5]),
        "peeling.verify_trace.s": total.get("peeling.verify_trace", 0.0),
        "peeling.core_subgraph.s": total.get("peeling.core_subgraph", 0.0),
        "peeling.k_core_after.calls": calls.get("peeling.k_core_after", 0),
        "peeling.k_core_after.s": total.get("peeling.k_core_after", 0.0),
        "gadgets.build.s": outermost(is_build),
        "gadgets.check.s": outermost(is_check),
        "gadgets.check.k_core_calls": under(is_kcore, is_check),
        "reductions.reduce_vc.s": total.get("reductions.reduce_vc_to_vertex_stash", 0.0),
        "reductions.reduce_vstash.s": total.get("reductions.reduce_vertex_to_edge_stash", 0.0),
        "reductions.serialize_map.s": total.get("reductions.serialize_map", 0.0),
        "reductions.parse_map.s": total.get("reductions.parse_map", 0.0),
        "reductions.push.s": total.get("reductions.push_vertex_stash", 0.0),
        "reductions.lift.s": total.get("reductions.lift_edge_stash", 0.0),
        "reductions.normalize.s": total.get("reductions.normalize_stash", 0.0),
        "reductions.audit.s": group({"reductions.audit_p1", "reductions.audit_pk_properties"}),
        "cli.run.calls": calls.get("cli.run", 0),
        "cli.run.self_s": selfs.get("cli.run", 0.0),
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    return m

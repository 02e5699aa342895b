"""Span tracing of calls into `percolate`'s layers, installed from outside.

`Tracer.install()` replaces module attributes (and two class attributes)
with timing wrappers; `uninstall()` puts the originals back, so an
untraced run executes the program exactly as shipped.  Each call opens a
span with its parent; calls that happen thousands of times per trial (the
hash kernels, `connection_prob`, `cost_row`) are folded into one span per
parent so the trace stays small.  A span's self time is its duration minus
the time of its child spans.
"""

from __future__ import annotations

import functools
import os
from functools import cached_property
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "parent", "calls", "start", "end", "total", "child", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.calls = 0
        self.start = None
        self.end = None
        self.total = 0.0
        self.child = 0.0
        self.counts: dict[str, float] = {}

    def to_dict(self) -> dict:
        return {
            "name": self.name, "parent": self.parent, "calls": self.calls,
            "start": self.start, "end": self.end, "total_s": self.total,
            "self_s": self.total - self.child, "counts": self.counts,
        }


def _edges_kept(args, kwargs, graph):
    """Long-range edges: all edges minus the lattice grid (none for GIRG)."""
    box, model = args[0], str(getattr(args[2], "value", args[2]))
    grid = 0 if model == "girg" else box.d * box.side ** (box.d - 1) * (box.side - 1)
    return {"edges_kept": len(graph.edges) - grid}


def _hop_settled(args, kwargs, dist):
    return {"vertices_settled": int(np.count_nonzero(dist >= 0))}


def _cost_settled(args, kwargs, dist):
    t_max = kwargs.get("t_max", args[3] if len(args) > 3 else None)
    reached = np.isfinite(dist) if t_max is None else dist <= t_max
    return {"vertices_settled": int(np.count_nonzero(reached))}


def _blowup_pairs(args, kwargs, out):
    return {"pairs_binned": out[2].trials}


def _file_bytes(args, kwargs, out):
    return {"file_bytes": os.path.getsize(args[1])}


# (module, attribute, span name, fold per parent, counter).  A module's
# imported names are patched in the module that calls them: the hash kernels
# and connection_prob in `sampler`, sample_graph in `estimators` and
# `couplings`, and so on.
HOOKS = [
    ("sampler", "absorb_indices", "rng.absorb_indices", True, None),
    ("sampler", "uniforms_from_states", "rng.uniforms_from_states", True,
     lambda a, k, out: {"pairs_hashed": len(out)}),
    ("sampler", "edge_uniforms", "rng.edge_uniforms", True,
     lambda a, k, out: {"pairs_hashed": len(out)}),
    ("sampler", "vertex_uniforms", "rng.vertex_uniforms", True, None),
    ("sampler", "position_uniforms", "rng.position_uniforms", True, None),
    ("sampler", "connection_prob", "kernels.connection_prob", True, None),
    ("estimators", "sample_graph", "sampler.sample_graph", False, _edges_kept),
    ("couplings", "sample_graph", "sampler.sample_graph", False, _edges_kept),
    ("estimators", "sample_fpp_costs", "sampler.sample_fpp_costs", False, None),
    ("estimators", "hop_distances_from", "metrics.hop_distances_from", False, _hop_settled),
    ("estimators", "cost_distances_from", "metrics.cost_distances_from", False, _cost_settled),
    ("estimators", "_fit_loglinear", "estimators.fit", False, None),
    ("estimators", "_fit_stretched", "estimators.fit", False, None),
    ("estimators", "mc_tail_grid", "estimators.mc_tail_grid", False, None),
    ("estimators", "mc_ball_growth", "estimators.mc_ball_growth", False, None),
    ("estimators", "bound_compliance", "estimators.bound_compliance", False, None),
    ("couplings", "couple_alpha", "couplings.couple_alpha", False, None),
    ("couplings", "blowup_lrp", "couplings.blowup_lrp", False, _blowup_pairs),
    ("sampler", "sample_graph", "sampler.sample_graph", False, _edges_kept),
    ("sampler", "sample_fpp_costs", "sampler.sample_fpp_costs", False, None),
    ("sampler", "save_graph", "sampler.save_graph", False, _file_bytes),
    ("sampler", "load_graph", "sampler.load_graph", False, None),
]


class Tracer:
    """Holds the spans of one traced stretch of work in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._folded: dict[tuple[int, str], int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, fold: bool = False, count=None):
        spans, stack, folded = self.spans, self._stack, self._folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = folded.get((parent, name)) if fold else None
            if idx is None:
                idx = len(spans)
                spans.append(Span(name, parent))
                if fold:
                    folded[(parent, name)] = idx
            span = spans[idx]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if span.start is None:
                    span.start = t0
                span.end = t1
                span.calls += 1
                span.total += t1 - t0
                if parent >= 0:
                    spans[parent].child += t1 - t0
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    span.counts[key] = span.counts.get(key, 0) + value
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from percolate import couplings, estimators, sampler

        modules = {"sampler": sampler, "estimators": estimators, "couplings": couplings}
        for mod_name, attr, name, fold, count in HOOKS:
            mod = modules[mod_name]
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), fold, count))
        row = sampler.CffpRealization.cost_row
        self._patch(sampler.CffpRealization, "cost_row",
                    self.wrap("sampler.cost_row", row, fold=True))
        prop = sampler.SampledGraph.__dict__["neighbors"]
        traced = cached_property(self.wrap("sampler.neighbors", prop.func))
        traced.__set_name__(sampler.SampledGraph, "neighbors")
        self._patch(sampler.SampledGraph, "neighbors", traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive time, self time and counts."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}})
            agg["calls"] += s.calls
            agg["total"] += s.total
            agg["self"] += s.total - s.child
            for key, value in s.counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out


def layer_metrics(totals: dict[str, dict], trials: int, overhead_s: float) -> dict[str, tuple]:
    """Per-trial layer metrics (value, unit) from aggregated span totals."""

    def get(name, key="total"):
        return totals.get(name, {}).get(key, 0.0)

    def count(name, key):
        return totals.get(name, {}).get("counts", {}).get(key, 0)

    rng_names = [n for n in totals if n.startswith("rng.")]
    pairs = sum(count(n, "pairs_hashed") for n in rng_names)
    scan_pairs = count("rng.uniforms_from_states", "pairs_hashed")
    kept = count("sampler.sample_graph", "edges_kept")
    search = ["metrics.hop_distances_from", "metrics.cost_distances_from"]
    per = 1.0 / trials
    return {
        "rng.hash_s": (sum(get(n, "self") for n in rng_names) * per, "s"),
        "rng.pairs_hashed": (pairs * per, "count"),
        "sampler.sample_graph_s": (get("sampler.sample_graph") * per, "s"),
        "sampler.scan_self_s": (get("sampler.sample_graph", "self") * per, "s"),
        "sampler.edges_kept": (kept * per, "count"),
        "sampler.keep_ratio": (kept / scan_pairs if scan_pairs else 0.0, "ratio"),
        "kernels.prob_s": (get("kernels.connection_prob") * per, "s"),
        "sampler.adjacency_s": (get("sampler.neighbors") * per, "s"),
        "sampler.fpp_costs_s": (get("sampler.sample_fpp_costs") * per, "s"),
        "sampler.cost_row_s": (get("sampler.cost_row") * per, "s"),
        "sampler.cost_rows": (get("sampler.cost_row", "calls") * per, "count"),
        "sampler.save_s": (get("sampler.save_graph") * per, "s"),
        "sampler.load_s": (get("sampler.load_graph") * per, "s"),
        "sampler.file_bytes": (count("sampler.save_graph", "file_bytes") * per, "bytes"),
        "metrics.search_s": (sum(get(n, "self") for n in search) * per, "s"),
        "metrics.vertices_settled": (sum(count(n, "vertices_settled") for n in search) * per,
                                     "count"),
        "estimators.self_s": ((get("estimators.mc_tail_grid", "self")
                               + get("estimators.mc_ball_growth", "self")) * per, "s"),
        "estimators.compliance_s": (get("estimators.bound_compliance") * per, "s"),
        "estimators.fit_s": (get("estimators.fit") * per, "s"),
        "couplings.alpha_s": (get("couplings.couple_alpha", "self") * per, "s"),
        "couplings.blowup_self_s": (get("couplings.blowup_lrp", "self") * per, "s"),
        "couplings.pairs_binned": (count("couplings.blowup_lrp", "pairs_binned") * per,
                                   "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }

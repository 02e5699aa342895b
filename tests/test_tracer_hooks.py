"""The benchmark's tracer (`perfbench/tracer.py`) patches names in `percolate`'s
modules; a renamed or no longer imported name must fail here, not in a traced
benchmark run."""

import importlib
import math
from pathlib import Path

import numpy as np

from percolate import (BoxSpec, CffpRealization, Model, ModelConfig, ModelParams, SampledGraph,
                       estimators, rng, sample_graph, sampler)


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    row = CffpRealization.cost_row
    real = CffpRealization(box=BoxSpec(d=1, side=10), weights=np.ones(10),
                           params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0), seed=3)
    try:
        tracer.install()
        for u in (0, 4, 9):
            real.cost_row(u)
    finally:
        tracer.uninstall()
    assert CffpRealization.cost_row is row
    totals = tracer.totals()
    assert totals["sampler.cost_row"]["calls"] == 3
    hashed = sum(t["counts"].get("pairs_hashed", 0) for name, t in totals.items()
                 if name.startswith("rng."))
    assert hashed == 3 * 9
    assert sampler.uniforms_from_states is rng.uniforms_from_states


def test_estimator_trials_reach_the_traced_layers(monkeypatch):
    """A traced tail grid and two traced growth series record every layer that
    the benchmark's per-trial metrics read."""
    trials = 3
    lrp = ModelConfig(box=BoxSpec(d=1, side=33), model=Model.LRP,
                      params=ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.2))
    sfp = ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0)
    fpp, cffp = (ModelConfig(box=BoxSpec(d=1, side=21), params=sfp, model=Model.SFP,
                             metric=metric) for metric in ("fpp", "cffp"))
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        estimators.mc_tail_grid(lrp, 16, [20, 24], [1, 2, 3], trials, 5)
        estimators.mc_ball_growth(fpp, 10, [0.2, 0.4], trials, 5)
        estimators.mc_ball_growth(cffp, 10, [0.2, 0.4], trials, 5)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["metrics.hop_distances_from"]["calls"] == trials
    assert totals["metrics.cost_distances_from"]["calls"] == 2 * trials
    assert totals["sampler.sample_graph"]["calls"] == trials
    assert totals["sampler.sample_fpp_costs"]["calls"] == trials
    assert totals["sampler.cost_row"]["calls"] >= trials
    layers = tracer_module.layer_metrics(totals, 3 * trials, 0.0)
    for name in ("rng.pairs_hashed", "sampler.cost_rows", "metrics.vertices_settled",
                 "metrics.search_s", "estimators.self_s"):
        assert layers[name][0] > 0, name


def test_traced_neighbors_are_the_adjacency_and_stay_cached(monkeypatch):
    """The tracer re-wraps `SampledGraph.neighbors`, a `cached_property` of
    `sampler._adjacency`: one read under it is one span call, and the wrapped
    function's result is cached on the graph."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    g = sample_graph(BoxSpec(d=1, side=12), ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.5),
                     Model.LRP, 4)
    try:
        tracer.install()
        adj = g.neighbors
        assert g.neighbors is adj
    finally:
        tracer.uninstall()
    assert tracer.totals()["sampler.neighbors"]["calls"] == 1
    assert adj == sampler._adjacency(g)
    assert g.__dict__["neighbors"] is adj
    assert SampledGraph.__dict__["neighbors"].func is sampler._adjacency

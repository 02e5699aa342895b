"""The benchmark's tracer (`perfbench/tracer.py`) patches names in `percolate`'s
modules; a renamed or no longer imported name must fail here, not in a traced
benchmark run."""

import importlib
from pathlib import Path

import numpy as np

from percolate import BoxSpec, CffpRealization, ModelParams, rng, sampler


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

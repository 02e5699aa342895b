"""What a fresh interpreter imports: scipy only once a search or fit calls it.

One subprocess runs the steps below in order and records, after each, which
of the watched scipy modules are in `sys.modules`.  The hop estimators search
a `LazyRealization` by BFS and BK is exact enumeration, so none of these
steps needs scipy; the last step searches a `SampledGraph`, which does, and
so shows that the test sees an import when one happens.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import percolate

WATCHED = ("scipy.sparse", "scipy.sparse.csgraph", "scipy.optimize")

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return [m for m in %r if m in sys.modules]

steps = {}
import percolate
steps["import percolate"] = loaded()
import percolate.cli
steps["import percolate.cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = percolate.cli.main(["bk", "--n", "3", "--p", "0.4",
                               "--eventA", "open:1", "--eventB", "open:2"])
assert code == 0, code
steps["cli bk"] = loaded()
from percolate import BoxSpec, Model, ModelConfig, ModelParams, mc_tail_grid, sample_graph
from percolate.metrics import hop_distances_from
config = ModelConfig(BoxSpec(d=1, side=33), ModelParams(d=1, alpha=1.5, tau=float("inf"),
                                                        lam=0.3), Model.LRP)
mc_tail_grid(config, 0, [8, 24], [1, 2, 3], trials=4, seed=5)
steps["mc_tail_grid on 1-d LRP"] = loaded()
hop_distances_from(sample_graph(config.box, config.params, Model.LRP, 5), 0)
steps["hop search on a SampledGraph"] = loaded()
print(json.dumps(steps))
""" % (WATCHED,)


@pytest.fixture(scope="module")
def steps():
    src = str(Path(percolate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", ["import percolate", "import percolate.cli", "cli bk",
                                  "mc_tail_grid on 1-d LRP"])
def test_step_loads_no_scipy_search_or_fit(steps, step):
    assert not {"scipy.sparse", "scipy.optimize"} & set(steps[step])


def test_a_search_on_a_sampled_graph_loads_csgraph(steps):
    assert "scipy.sparse.csgraph" in steps["hop search on a SampledGraph"]

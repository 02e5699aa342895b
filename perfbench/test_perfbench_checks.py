"""Self-test of the benchmark's output checks.

Each check must pass on the program's own output for a tiny input and
fail when handed a planted wrong answer: one changed distance, one
dropped edge or one altered weight.  Runs in a few seconds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import oracles as O
from percolate import couplings, estimators, kernels, metrics, rng, sampler
from percolate.sampler import BoxSpec, CffpRealization, Model


def _midpoints(*dists) -> list[float]:
    """Thresholds between consecutive distinct finite distances of all arrays."""
    vals = np.unique(np.concatenate([d[np.isfinite(d)] for d in dists]))
    return ((vals[:-1] + vals[1:]) / 2).tolist() + [float(vals[-1]) + 1.0]


def test_hop_tail_check_catches_a_changed_distance():
    params = kernels.ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.3)
    box, x, ys, ks = BoxSpec(d=1, side=64), 10, [14, 30, 50], [1, 2, 3, 4]
    rows, oracle_rows = [], []
    for i in range(6):
        g = sampler.sample_graph(box, params, Model.LRP, rng.trial_seed(5, i))
        dist = metrics.hop_distances_from(g, x, max_depth=4).astype(float)
        dist[dist < 0] = np.inf
        rows.append(dist[ys])
        oracle_rows.append(O.hop_distances(O.edge_array(g.edges), g.n, x, 4)[ys])
    rows, oracle_rows = np.array(rows), np.array(oracle_rows)

    def estimates(r):
        return [estimators.TailEstimate.from_counts(float(y - x), k, len(r),
                                                    int(np.count_nonzero(r[:, j] <= k)))
                for j, y in enumerate(ys) for k in ks]

    assert O.check_tail_successes(estimates(rows), ys, ks, oracle_rows) == []
    planted = rows.copy()
    j = int(np.argmin(planted[0]))
    planted[0, j] = 1.0 if planted[0, j] > 1 else 5.0
    assert O.check_tail_successes(estimates(planted), ys, ks, oracle_rows)


def test_fpp_ball_check_catches_an_altered_weight():
    params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
    g = sampler.sample_graph(BoxSpec(d=2, side=8), params, Model.SFP, 3)
    costs = sampler.sample_fpp_costs(g, 3)
    root = 27
    pairs = O.edge_array(g.edges)
    c = np.array([costs.costs[(u, v)] for u, v in pairs.tolist()])
    oracle = O.fpp_distances(pairs, c, g.n, root, 100.0)
    program = metrics.cost_distances_from(g, costs, root, t_max=100.0)
    altered = dict(costs.costs)
    nearest = min((e for e in altered if root in e), key=altered.get)
    altered[nearest] *= 10.0
    wrong = metrics.cost_distances_from(g, sampler.CostMap(altered, costs.rate_model), root,
                                        t_max=100.0)
    assert not np.array_equal(wrong, oracle)
    ts = _midpoints(oracle, wrong)
    lo, hi = O.ball_size_bounds(oracle, ts)
    assert O.check_ball_sums("fpp", O.ball_size_bounds(program, ts)[0], 1, lo, hi) == []
    assert O.check_ball_sums("fpp", O.ball_size_bounds(wrong, ts)[0], 1, lo, hi)


def test_cffp_ball_check_catches_an_altered_weight():
    params = kernels.ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0)
    n, root, s = 41, 20, 12
    w = sampler.sample_weights(n, params.tau, s)
    real = CffpRealization(box=BoxSpec(d=1, side=n), weights=w, params=params, seed=s)
    program = metrics.cost_distances_from(real, None, root, t_max=5.0)
    cost_seed = rng.stream_seed(s, rng.COST_STREAM)

    def oracle(weights):
        mat = O.cffp_cost_matrix(lambda us, vs: rng.edge_uniforms(cost_seed, us, vs),
                                 weights, params.alpha)
        return O.cffp_distances(mat, root, 5.0)

    good = oracle(O.pareto_weights(rng.vertex_uniforms(s, np.arange(n)), params.tau))
    w_bad = w.copy()
    w_bad[root + 1] *= 4.0
    bad = oracle(w_bad)
    ts = _midpoints(good, bad)
    sizes = O.ball_size_bounds(program, ts)[0]
    assert O.check_ball_sums("cffp", sizes, 1, *O.ball_size_bounds(good, ts)) == []
    assert O.check_ball_sums("cffp", sizes, 1, *O.ball_size_bounds(bad, ts))


def test_subset_check_catches_a_dropped_edge():
    params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
    g_orig, g_red, report = couplings.couple_alpha(BoxSpec(d=2, side=6), params, 1.5, 4)
    assert O.check_subset(g_orig.edges, g_red.edges, report) == []
    dropped = g_red.edges - {next(iter(g_orig.edges))}
    assert O.check_subset(g_orig.edges, dropped, report)


def test_blowup_check_catches_a_dropped_edge():
    spec = couplings.BlowupSpec(
        r=2, params_small=kernels.ModelParams(d=2, alpha=1.5, tau=math.inf, lam=0.1))
    fine, coarse, report = couplings.blowup_lrp(BoxSpec(d=2, side=5), spec, 0.15, 8)
    assert O.check_blowup(fine, coarse, report, 2, 5) == []
    e = max(coarse.edges, key=lambda p: p[1] - p[0])
    planted = dataclasses.replace(coarse, edges=coarse.edges - {e})
    assert O.check_blowup(fine, planted, report, 2, 5)


def test_reload_check_catches_a_dropped_edge_and_an_altered_weight(tmp_path):
    params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
    g = sampler.sample_graph(BoxSpec(d=2, side=6), params, Model.GIRG, 9)
    costs = sampler.sample_fpp_costs(g, 9)
    path = tmp_path / "g.txt"
    sampler.save_graph(g, path, costs)
    g2, costs2 = sampler.load_graph(path)
    assert O.check_reload(g, costs, g2, costs2) == []
    dropped = dataclasses.replace(g2, edges=g2.edges - {next(iter(g2.edges))})
    assert O.check_reload(g, costs, dropped, costs2)
    w = g2.weights.copy()
    w[3] = np.nextafter(w[3], np.inf)
    assert O.check_reload(g, costs, dataclasses.replace(g2, weights=w), costs2)
    c = dict(costs2.costs)
    k = next(iter(c))
    c[k] = np.nextafter(c[k], 0.0)
    assert O.check_reload(g, costs, g2, sampler.CostMap(c, costs2.rate_model))


def test_lrp_offset_check_catches_a_wrong_kernel_and_a_dropped_grid_edge():
    n, samples, lam = 256, 20, 0.3
    params = kernels.ModelParams(d=1, alpha=1.5, tau=math.inf, lam=lam)
    pooled = np.concatenate([
        O.edge_array(sampler.sample_graph(BoxSpec(d=1, side=n), params, Model.LRP, s).edges)
        for s in range(samples)])
    assert O.check_lrp_offsets(pooled, samples, n, 1.5, lam) == []
    assert O.check_lrp_offsets(pooled, samples, n, 1.5, 3 * lam)
    grid = np.nonzero(pooled[:, 1] - pooled[:, 0] == 1)[0][0]
    assert O.check_lrp_offsets(np.delete(pooled, grid, axis=0), samples, n, 1.5, lam)


def test_kernel_sum_check_catches_a_wrong_kernel_and_a_dropped_grid_edge():
    params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
    g = sampler.sample_graph(BoxSpec(d=2, side=16), params, Model.SFP, 2)
    pairs = O.edge_array(g.edges)
    w = O.pareto_weights(rng.vertex_uniforms(2, np.arange(g.n)), params.tau)
    assert O.check_kernel_sum("sfp", pairs, g.positions, w, 2.0, 1.0, True) == []
    assert O.check_kernel_sum("sfp", pairs, g.positions, w, 2.0, 3.0, True)
    diff = g.positions[pairs[:, 0]] - g.positions[pairs[:, 1]]
    grid = np.nonzero(np.einsum("ij,ij->i", diff, diff) == 1.0)[0][0]
    assert O.check_kernel_sum("sfp", np.delete(pairs, grid, axis=0), g.positions, w,
                              2.0, 1.0, True)


def test_statistical_checks_catch_planted_values():
    costs = -np.log1p(-rng.vertex_uniforms(1, np.arange(20_000)))
    assert O.check_cost_mean(costs) == []
    assert O.check_cost_mean(1.5 * costs)
    ts, big_c, n = [0.1, 0.2], 13.06, 2001
    assert O.check_growth_bound(ts, [2.5, 7.0], 150, big_c, n, 150) == []
    assert O.check_growth_bound(ts, [4.0, 7.0], 150, big_c, n, 150)
    assert O.check_growth_bound(ts, [2.5, 7.0], 20, big_c, n, 150)
    assert O.check_growth_bound(ts, [2.5, 7.0], 150, big_c, 3, 150)
    assert O.check_growth_shape("g", [1.0, 3.0, 2.0], 10)


def test_compliance_check_catches_an_altered_margin():
    params = kernels.ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
    ests = [estimators.TailEstimate.from_counts(d, k, 50, s)
            for d, k, s in [(8.0, 1, 3), (8.0, 2, 9), (32.0, 2, 1), (32.0, 3, 4)]]
    grid = [0.05, 0.2, 0.5]
    report = estimators.bound_compliance(
        ests, lambda k, d, e: kernels.tail_bound_lrp(int(k), d, e, params), grid)
    assert O.check_estimates(ests, 50) == []
    assert O.check_compliance(report, ests, grid, 1.5, 1) == []
    assert O.check_compliance(dataclasses.replace(report, margin=report.margin + 1e-3),
                              ests, grid, 1.5, 1)
    wrong = dataclasses.replace(ests[0], ci_low=ests[0].ci_low * 1.01)
    assert O.check_estimates([wrong], 50)


@pytest.mark.parametrize("name", ["lrp_tail", "cffp_growth", "sfp2d_fpp_growth", "edge_set"])
def test_workload_inputs_build(name, tmp_path):
    import workloads

    assert workloads.build(name, str(tmp_path)).name == name

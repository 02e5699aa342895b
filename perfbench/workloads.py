"""The four benchmark workloads: fixed inputs, one operation, and its checks.

An operation is one call of the workload's top-level public function at a
fixed number of trials (`trials_per_op`); `edge_set` counts one seed as
one trial.  The program is always reached through its module attributes
(`estimators.mc_tail_grid`, ...), so a traced run sees the same calls.

Checks come in three tiers: `check` runs after every operation and is
cheap; `finish` runs once on what all operations pooled; `oracle` redoes
the first operation apart from the program and runs after the timed loop,
so that its memory does not count in the workload's peak.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import zeta

from percolate import couplings, estimators, kernels, rng, sampler
from percolate.sampler import BoxSpec, Model

import oracles as O


def _lattice(d: int, side: int) -> np.ndarray:
    n = side**d
    return np.stack(np.unravel_index(np.arange(n), (side,) * d), axis=1).astype(np.float64)


def _weights(seed: int, n: int, tau: float) -> np.ndarray:
    """Vertex weights from the vertex uniforms, through the weight law written out."""
    if math.isinf(tau):
        return np.ones(n)
    return O.pareto_weights(rng.vertex_uniforms(seed, np.arange(n)), tau)


def _kernel_check(label: str, graph, params, lattice: bool) -> list[str]:
    n = graph.n
    positions = _lattice(params.d, round(n ** (1 / params.d))) if lattice else graph.positions
    return O.check_kernel_sum(label, O.edge_array(graph.edges), positions,
                              _weights(graph.seed, n, params.tau), params.alpha,
                              params.lam, lattice)


class _Workload:
    min_ops = 1

    def finish(self) -> list[str]:
        return []


class LrpTail(_Workload):
    """Criterion 8's job: hop-distance tail grid on 1-d LRP, then compliance."""

    name = "lrp_tail"
    trials_per_op = 20

    def __init__(self):
        self.params = kernels.ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
        self.box = BoxSpec(d=1, side=2049)
        self.config = estimators.ModelConfig(box=self.box, params=self.params,
                                             model=Model.LRP, metric="hop")
        self.x = 512
        self.ys = [self.x + 8, self.x + 32, self.x + 128, self.x + 512]
        self.ks = list(range(1, 9))
        self.eps_grid = np.linspace(0.05, 0.5, 10).tolist()

    def _bound(self, k, dist, eps):
        return kernels.tail_bound_lrp(int(k), dist, eps, self.params)

    def op(self, seed: int):
        ests = estimators.mc_tail_grid(self.config, self.x, self.ys, self.ks,
                                       self.trials_per_op, seed)
        return ests, estimators.bound_compliance(ests, self._bound, self.eps_grid)

    def check(self, seed: int, out) -> list[str]:
        ests, report = out
        return (O.check_estimates(ests, self.trials_per_op)
                + O.check_compliance(report, ests, self.eps_grid, self.params.alpha,
                                     self.params.d))

    def oracle(self, seed: int, out) -> list[str]:
        n, rows, pooled = self.box.n_vertices, [], []
        for i in range(self.trials_per_op):
            g = sampler.sample_graph(self.box, self.params, Model.LRP, rng.trial_seed(seed, i))
            pairs = O.edge_array(g.edges)
            rows.append(O.hop_distances(pairs, n, self.x, max(self.ks))[self.ys])
            pooled.append(pairs)
        return (O.check_tail_successes(out[0], self.ys, self.ks, np.array(rows))
                + O.check_lrp_offsets(np.concatenate(pooled), self.trials_per_op, n,
                                      self.params.alpha, self.params.lam))


class _Growth(_Workload):
    """Shared shape of the two ball-growth workloads."""

    def op(self, seed: int):
        return estimators.mc_ball_growth(self.config, self.root, self.ts,
                                         self.trials_per_op, seed)

    def check(self, seed: int, out) -> list[str]:
        return O.check_growth_shape(self.name, out.mean_sizes, self.config.box.n_vertices)

    def oracle(self, seed: int, out) -> list[str]:
        lo_sum = hi_sum = 0
        problems = []
        for i in range(self.trials_per_op):
            dist, more = self._oracle_trial(rng.trial_seed(seed, i))
            lo, hi = O.ball_size_bounds(dist, self.ts)
            lo_sum, hi_sum = lo_sum + lo, hi_sum + hi
            problems += more
        return problems + O.check_ball_sums(self.name, out.mean_sizes, self.trials_per_op,
                                            lo_sum, hi_sum)


class CffpGrowth(_Growth):
    """Criterion 9's job at L = 2001: CFFP ball growth on 1-d SFP, below saturation."""

    name = "cffp_growth"
    trials_per_op = 10
    # g-hat(t) <= exp(C t) is checked on at least this many pooled trials:
    # at 20 trials one heavy root weight can lift g-hat(0.1) over the bound.
    min_pooled = 150
    min_ops = min_pooled // trials_per_op

    def __init__(self):
        self.params = kernels.ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0)
        self.config = estimators.ModelConfig(box=BoxSpec(d=1, side=2001), params=self.params,
                                             model=Model.SFP, metric="cffp")
        self.root = 1000
        self.ts = [round(0.1 * i, 1) for i in range(1, 11)]
        # The first-moment bound of criterion 9: C = lambda c 2 zeta(alpha d).
        c = estimators.calibrate_sum_exp_constant(self.params.alpha, self.params.tau)
        self.big_c = self.params.lam * c * 2.0 * float(zeta(self.params.alpha * self.params.d))
        self.mean_sizes = {}  # op seed -> mean ball sizes, pooled in `finish`

    def check(self, seed: int, out) -> list[str]:
        self.mean_sizes[seed] = out.mean_sizes
        return super().check(seed, out)

    def finish(self) -> list[str]:
        pooled = np.mean(list(self.mean_sizes.values()), axis=0)
        return O.check_growth_bound(self.ts, pooled, len(self.mean_sizes) * self.trials_per_op,
                                    self.big_c, self.config.box.n_vertices, self.min_pooled)

    def _oracle_trial(self, s: int):
        n = self.config.box.n_vertices
        cost_seed = rng.stream_seed(s, rng.COST_STREAM)
        mat = O.cffp_cost_matrix(lambda us, vs: rng.edge_uniforms(cost_seed, us, vs),
                                 _weights(s, n, self.params.tau), self.params.alpha)
        return O.cffp_distances(mat, self.root, self.ts[-1]), []


class Sfp2dFppGrowth(_Growth):
    """FPP ball growth on 2-d SFP up to balls covering most of the box."""

    name = "sfp2d_fpp_growth"
    trials_per_op = 2

    def __init__(self):
        self.params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
        self.config = estimators.ModelConfig(box=BoxSpec(d=2, side=64), params=self.params,
                                             model=Model.SFP, metric="fpp")
        self.root = 32 * 64 + 32
        self.ts = [round(0.1 * i, 1) for i in range(1, 11)]

    def _oracle_trial(self, s: int):
        g = sampler.sample_graph(self.config.box, self.params, Model.SFP, s)
        costs = sampler.sample_fpp_costs(g, s)
        pairs = O.edge_array(g.edges)
        c = np.array([costs.costs[(u, v)] for u, v in pairs.tolist()])
        dist = O.fpp_distances(pairs, c, g.n, self.root, self.ts[-1])
        return dist, (_kernel_check("SFP 2-d", g, self.params, lattice=True)
                      + O.check_cost_mean(c))


class EdgeSet(_Workload):
    """Callers that use the graph as a set of pairs: couplings and the text format."""

    name = "edge_set"
    trials_per_op = 1

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, f"edge_set_graph-{os.getpid()}.txt")
        self.alpha_box = BoxSpec(d=2, side=32)
        self.alpha_params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
        self.alpha_prime = 1.5
        self.coarse_box = BoxSpec(d=2, side=24)
        self.blowup = couplings.BlowupSpec(
            r=2, params_small=kernels.ModelParams(d=2, alpha=1.5, tau=math.inf, lam=0.1))
        self.lambda_goal = 0.15
        self.girg_box = BoxSpec(d=2, side=32)
        self.girg_params = kernels.ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)

    def op(self, seed: int):
        alpha = couplings.couple_alpha(self.alpha_box, self.alpha_params, self.alpha_prime,
                                       seed)
        blowup = couplings.blowup_lrp(self.coarse_box, self.blowup, self.lambda_goal, seed)
        g = sampler.sample_graph(self.girg_box, self.girg_params, Model.GIRG, seed)
        costs = sampler.sample_fpp_costs(g, seed)
        sampler.save_graph(g, self.path, costs)
        return alpha, blowup, (g, costs) + sampler.load_graph(self.path)

    def check(self, seed: int, out) -> list[str]:
        (g_orig, g_red, rep_a), (fine, coarse, rep_b), (g, costs, g2, costs2) = out
        os.remove(self.path)
        return (O.check_subset(g_orig.edges, g_red.edges, rep_a)
                + O.check_blowup(fine, coarse, rep_b, self.blowup.r, self.coarse_box.side)
                + O.check_reload(g, costs, g2, costs2))

    def oracle(self, seed: int, out) -> list[str]:
        (g_orig, g_red, _), (fine, _, _), (g, _, _, _) = out
        reduced = kernels.ModelParams(d=2, alpha=self.alpha_prime, tau=self.alpha_params.tau,
                                      lam=self.alpha_params.lam
                                      ** (self.alpha_prime / self.alpha_params.alpha))
        return (_kernel_check("alpha coupling, original", g_orig, self.alpha_params, True)
                + _kernel_check("alpha coupling, reduced", g_red, reduced, True)
                + _kernel_check("blow-up fine LRP", fine, self.blowup.params_small, True)
                + _kernel_check("GIRG", g, self.girg_params, False))


WORKLOADS = {cls.name: cls for cls in (LrpTail, CffpGrowth, Sfp2dFppGrowth, EdgeSet)}


def build(name: str, workdir: str):
    """The workload's fixed inputs; this is the set-up that `setup_s` times."""
    cls = WORKLOADS[name]
    return cls(workdir) if cls is EdgeSet else cls()

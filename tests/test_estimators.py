"""Monte Carlo estimators, compliance search, BK enumeration, fits."""

import math
from unittest import mock

import numpy as np
import pytest

from percolate import (
    BoxSpec,
    BudgetError,
    CffpRealization,
    DomainError,
    LazyRealization,
    Model,
    ModelConfig,
    ModelParams,
    TailEstimate,
    bk_brute_force,
    bk_brute_force_k,
    bound_compliance,
    calibrate_sum_exp_constant,
    connection_prob,
    fit_distance_exponent,
    fit_shape_constant,
    fkt_h_functional,
    mc_ball_growth,
    mc_tail,
    mc_tail_grid,
    sample_cffp_costs,
    sample_graph,
    sample_weights,
    shape_containment,
    sum_exp_tail,
    tail_bound_lrp,
    wilson_interval,
)
from percolate.estimators import (
    GrowthSeries,
    LogLinearFit,
    StretchedFit,
    fit_selfbound_constant,
    write_tail_csv,
)
from percolate import sampler
from percolate.metrics import cost_distances_from, hop_distances_from
from percolate.kernels import pareto_quantile
from percolate.rng import trial_seed, trial_seeds, uniforms_from_states, vertex_uniforms


def lrp_config(side, lam, alpha=1.5, metric="hop"):
    return ModelConfig(
        box=BoxSpec(d=1, side=side),
        params=ModelParams(d=1, alpha=alpha, tau=math.inf, lam=lam),
        model=Model.LRP,
        metric=metric,
    )


def synthetic_series(ts, gs):
    return GrowthSeries(
        thresholds=tuple(ts),
        mean_sizes=tuple(gs),
        loglinear=LogLinearFit(0.0, 0.0, 1.0, (0.0,)),
        stretched=StretchedFit(0.0, 0.0, 1.0, 1.0),
    )


class TestWilson:
    def test_basic_shape(self):
        lo, hi = wilson_interval(0, 2000)
        assert lo == 0.0
        assert hi == pytest.approx(0.001917, abs=1e-5)
        lo2, hi2 = wilson_interval(1000, 2000)
        assert lo2 < 0.5 < hi2

    def test_bounds_ordering(self):
        for s, n in [(0, 10), (3, 7), (10, 10), (50, 1000)]:
            lo, hi = wilson_interval(s, n)
            assert 0 <= lo <= s / n <= hi <= 1


class TestMcTail:
    def test_grid_exact_cases(self):
        config = lrp_config(16, 0.0)
        assert mc_tail(config, 2, 7, 4, 40, 1).p_hat == 0.0
        assert mc_tail(config, 2, 7, 5, 40, 1).p_hat == 1.0

    def test_direct_pair_matches_kernel(self):
        # non-grid pair (0, 2): d <= 1 iff the long edge is present
        config = lrp_config(3, 0.5)
        est = mc_tail(config, 0, 2, 1, 4000, 9)
        p = connection_prob(1, 1, 2, config.params)
        assert est.ci_low <= p <= est.ci_high

    def test_monotone_in_threshold_shared_seeds(self):
        config = lrp_config(64, 0.25)
        ests = mc_tail_grid(config, 16, [48], [1, 2, 3, 4, 6, 8, 12], 150, 3)
        ps = [e.p_hat for e in ests]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_csv(self, tmp_path):
        config = lrp_config(16, 0.0)
        ests = mc_tail_grid(config, 2, [7], [4, 5], 10, 1)
        path = tmp_path / "tail.csv"
        write_tail_csv(ests, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("dist,threshold")
        assert len(lines) == 3

    def test_grid_equals_untargeted_searches_and_hashes_only_the_last_level_targets(self):
        # the benchmark's lrp_tail grid: its last level pairs F = {dist == 7} with
        # the unvisited targets in place of every unvisited vertex U
        config = lrp_config(2049, 0.05)
        x, ys, ks, trials, seed = 512, [520, 544, 640, 1024], list(range(1, 9)), 3, 100
        hashed = []

        def counting(states, words, **kwargs):
            hashed.append(len(words))
            return uniforms_from_states(states, words, **kwargs)

        with mock.patch.object(sampler, "uniforms_from_states", counting):
            ests = mc_tail_grid(config, x, ys, ks, trials, seed)
        targeted, hashed[:] = sum(hashed), []
        rows, saved = [], 0
        with mock.patch.object(sampler, "uniforms_from_states", counting):
            for s in trial_seeds(seed, trials).tolist():
                real = LazyRealization(config.box, config.params, config.model, s)
                dist = hop_distances_from(real, x, max_depth=ks[-1])
                rows.append(np.where(dist[ys] < 0, np.inf, dist[ys]))
                unvisited = (dist == ks[-1]) | (dist < 0)
                saved += np.count_nonzero(dist == ks[-1] - 1) * (
                    np.count_nonzero(unvisited) - np.count_nonzero(unvisited[ys]))
        rows = np.array(rows)
        assert targeted == sum(hashed) - saved and saved > 0
        assert ests == [TailEstimate.from_counts(abs(y - x), k, trials,
                                                 int(np.count_nonzero(rows[:, j] <= k)))
                        for j, y in enumerate(ys) for k in ks]


def _unit_radius(k):
    return 1.0


# Vacuous or out-of-range inputs of the Monte Carlo estimators, on 1-d LRP, L = 33.
ESTIMATOR_INPUTS = [
    ("shape-trials-0", lambda c: shape_containment(c, 16, [2], _unit_radius, 0, 1)),
    ("shape-fit-trials-0", lambda c: fit_shape_constant(c, 16, 2, 1.5, 0, 1)),
    ("shape-negative-k", lambda c: shape_containment(c, 16, [-1], _unit_radius, 2, 1)),
    ("tail-target-99", lambda c: mc_tail_grid(c, 16, [99], [1], 2, 1)),
    ("tail-target-minus-1", lambda c: mc_tail_grid(c, 16, [-1], [1], 2, 1)),
    ("tail-target-1.5", lambda c: mc_tail_grid(c, 16, [1.5], [1], 2, 1)),
    ("tail-source-1.5", lambda c: mc_tail_grid(c, 1.5, [7], [1], 2, 1)),
    ("tail-negative-threshold", lambda c: mc_tail_grid(c, 16, [20], [-1], 2, 1)),
    ("growth-no-threshold", lambda c: mc_ball_growth(c, 16, [], 2, 1)),
    ("growth-negative-threshold", lambda c: mc_ball_growth(c, 16, [-1, 1], 2, 1)),
    ("growth-nan-threshold", lambda c: mc_ball_growth(c, 16, [math.nan, 1], 2, 1)),
    ("tail-inf-threshold", lambda c: mc_tail_grid(c, 16, [20], [1, math.inf], 2, 1)),
    ("growth-inf-threshold", lambda c: mc_ball_growth(c, 16, [1, math.inf], 2, 1)),
    ("shape-fit-k-0", lambda c: fit_shape_constant(c, 16, 0, 1.5, 2, 1)),
    ("shape-fit-delta-0", lambda c: fit_shape_constant(c, 16, 2, 0.0, 2, 1)),
]


@pytest.mark.parametrize("name, call", ESTIMATOR_INPUTS, ids=[c[0] for c in ESTIMATOR_INPUTS])
def test_estimator_inputs_are_checked(name, call):
    with pytest.raises(DomainError):
        call(lrp_config(33, 0.1))


def test_hop_thresholds_that_are_not_finite_are_named():
    with pytest.raises(DomainError, match="finite, got inf, nan$"):
        mc_tail_grid(lrp_config(33, 0.1), 16, [20], [1, math.inf, math.nan], 2, 1)


class TestBoundCompliance:
    def lrp_bound(self, params):
        return lambda k, dist, eps: tail_bound_lrp(int(k), dist, eps, params)

    def test_all_zero_estimates_comply(self):
        params = ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
        ests = [TailEstimate.from_counts(32.0, k, 500, 0) for k in (1, 2, 3)]
        rep = bound_compliance(ests, self.lrp_bound(params), [0.1, 0.3])
        assert rep.compliant
        assert rep.margin == math.inf

    def test_single_estimate_example(self):
        params = ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
        est = TailEstimate.from_counts(2.0, 1, 1000, 500)
        rep = bound_compliance([est], self.lrp_bound(params), [0.25])
        # bound = 2^-1.5 e^1.5 = 1.585 >= 0.5
        assert rep.records[0]["bound"] == pytest.approx(1.5845, abs=1e-3)
        assert rep.compliant and rep.margin > 0

    def test_violation_reported_negative(self):
        params = ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
        est = TailEstimate.from_counts(100.0, 1, 1000, 900)  # way above the bound
        rep = bound_compliance([est], self.lrp_bound(params), [0.1, 0.5])
        assert not rep.compliant
        assert rep.margin < 0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            bound_compliance([], lambda *a: 1.0, [0.1])

    @staticmethod
    def fold_per_estimate(estimates, bound_fn, grid):
        """The search with both logs of each estimate taken for every choice."""
        best = None
        for constants in grid:
            margin, margin_up, bounds = math.inf, math.inf, []
            for e in estimates:
                bound = bound_fn(e.threshold, e.dist, constants)
                m_low = math.inf if e.ci_low == 0 else math.log(bound) - math.log(e.ci_low)
                margin = min(margin, m_low)
                margin_up = min(margin_up, math.log(bound) - math.log(e.ci_high))
                bounds.append(bound)
            if best is None or margin > best[0]:
                best = margin, margin_up, constants, bounds
        return best

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_fold_per_estimate(self, seed):
        gen = np.random.default_rng(seed)
        params = ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
        ests = []
        for _ in range(int(gen.integers(1, 9))):
            trials = int(gen.integers(1, 60))
            successes = 0 if gen.random() < 0.3 else int(gen.integers(0, trials + 1))
            ests.append(TailEstimate.from_counts(float(gen.integers(1, 40)),
                                                 int(gen.integers(1, 6)), trials, successes))
        # repeated eps values tie, and the tag tells which tied choice won; a
        # NaN bound at k = 5 pins the order of each fold
        grid = [(float(eps), tag) for tag, eps in enumerate(gen.choice([0.05, 0.2, 0.6], 6))]
        bound_fn = lambda k, dist, c: math.nan if k == 5 else tail_bound_lrp(k, dist, c[0], params)
        rep = bound_compliance(ests, bound_fn, grid)
        got = rep.margin, rep.margin_upper, rep.best_constants, [r["bound"] for r in rep.records]
        assert got == self.fold_per_estimate(ests, bound_fn, grid)
        assert rep.compliant is (rep.margin >= 0)

    def test_the_first_of_tied_choices_wins(self):
        params = ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.05)
        ests = [TailEstimate.from_counts(8.0, k, 50, 0) for k in (1, 2)]
        rep = bound_compliance(ests, lambda k, dist, c: tail_bound_lrp(k, dist, c[0], params),
                               [(0.3, "a"), (0.1, "b"), (0.3, "c")])
        assert rep.margin == math.inf and rep.best_constants == (0.3, "a")

    def test_girg_tail_has_no_distance_to_bound(self):
        # GIRG positions are redrawn per trial, so its tail estimates carry
        # dist = NaN; compliance at NaN would pass vacuously.
        params = ModelParams(d=1, alpha=1.5, tau=3.5, lam=1.0)
        config = ModelConfig(box=BoxSpec(d=1, side=256), params=params,
                             model=Model.GIRG, metric="hop")
        ests = mc_tail_grid(config, 10, [200], [1, 2, 3], 20, 5)
        assert all(math.isnan(e.dist) for e in ests)
        with pytest.raises(DomainError):
            bound_compliance(ests, self.lrp_bound(params), [0.1, 0.3])


class TestBallGrowth:
    def test_grid_counts(self):
        config = lrp_config(101, 0.0)
        gs = mc_ball_growth(config, 50, [0, 1, 2, 3, 4], 3, 5)
        assert gs.mean_sizes == (1.0, 3.0, 5.0, 7.0, 9.0)

    def test_t_zero_is_one(self):
        config = ModelConfig(
            box=BoxSpec(d=1, side=21),
            params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0),
            model=Model.SFP,
            metric="cffp",
        )
        gs = mc_ball_growth(config, 10, [0.0, 0.1], 20, 3)
        assert gs.mean_sizes[0] == 1.0
        assert all(s >= 1 for s in gs.mean_sizes)
        assert all(b >= a for a, b in zip(gs.mean_sizes, gs.mean_sizes[1:]))

    def test_cffp_box_must_have_the_params_dimension(self):
        config = ModelConfig(
            box=BoxSpec(d=2, side=10),
            params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0),
            model=Model.SFP,
            metric="cffp",
        )
        with pytest.raises(DomainError, match="dimension"):
            mc_ball_growth(config, 0, [0.1, 0.2], 2, 1)

    def test_cffp_is_refused_on_girg(self):
        # CFFP rates live on the lattice; GIRG positions are random
        with pytest.raises(DomainError, match="GIRG"):
            ModelConfig(box=BoxSpec(d=1, side=21),
                        params=ModelParams(d=1, alpha=1.5, tau=3.5, lam=1.0),
                        model=Model.GIRG, metric="cffp")

    def test_budget_guard_for_cffp(self):
        config = ModelConfig(
            box=BoxSpec(d=1, side=5000),
            params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0),
            model=Model.SFP,
            metric="cffp",
        )
        with pytest.raises(BudgetError):
            mc_ball_growth(config, 0, [0.1], 1, 1)

    def test_fpp_trials_build_no_edge_set_or_cost_dict(self):
        config = ModelConfig(box=BoxSpec(d=2, side=12),
                             params=ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0),
                             model=Model.SFP, metric="fpp")
        cffp = ModelParams(d=2, alpha=1.5, tau=3.0, lam=1.0)

        def refuse(*args):
            raise AssertionError("a Python container was built")

        with mock.patch.multiple(sampler, _pair_set=refuse, _pair_dict=refuse):
            guarded = mc_ball_growth(config, 78, [0.2, 0.5, 1.0], 4, 7)
            cm = sample_cffp_costs(config.box, sample_weights(144, 3.0, 2), cffp, 2)
            assert len(cm) == 144 * 143 // 2
            g = sample_graph(config.box, cffp, Model.SFP, 2)
            dist = cost_distances_from(g, cm, 78)
        assert guarded.mean_sizes == mc_ball_growth(config, 78, [0.2, 0.5, 1.0], 4, 7).mean_sizes
        assert np.array_equal(dist, cost_distances_from(g, cm, 78))
        assert list(cm.costs)[:3] == [(0, 1), (0, 2), (0, 3)]

    def test_fits_skip_saturated_thresholds(self):
        # B(4, k) on the 9-vertex path has 2k + 1 vertices until it fills the box at k = 4
        path = lrp_config(9, 0.0)
        gs = mc_ball_growth(path, 4, [1, 2, 3, 4, 5, 6], 2, 1)
        assert gs.mean_sizes == (3.0, 5.0, 7.0, 9.0, 9.0, 9.0)
        slope, intercept = np.polyfit([1.0, 2.0, 3.0], np.log([3.0, 5.0, 7.0]), 1)
        assert gs.loglinear.slope == pytest.approx(slope)
        assert gs.loglinear.intercept == pytest.approx(intercept)
        assert len(gs.loglinear.residuals) == 3
        # a single unsaturated threshold leaves the flat one-point fit
        one = mc_ball_growth(path, 4, [1, 4, 5], 2, 1)
        assert one.loglinear == LogLinearFit(math.log(3.0), 0.0, 1.0, (0.0,))
        assert one.stretched == StretchedFit(math.log(3.0), 0.0, 1.0, 1.0)

    def test_one_full_trial_saturates_a_threshold(self):
        # at t = 0.8 the mean ball holds 16.6 of the 21 vertices, but one
        # of the 12 trials already holds all 21
        config = ModelConfig(
            box=BoxSpec(d=1, side=21),
            params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0),
            model=Model.SFP,
            metric="cffp",
        )
        ts = [0.2, 0.4, 0.6, 0.8, 1.0]
        gs = mc_ball_growth(config, 10, ts, 12, 4)
        assert gs.mean_sizes[3] < 21
        prefix = mc_ball_growth(config, 10, ts[:3], 12, 4)
        assert gs.mean_sizes[:3] == prefix.mean_sizes
        assert gs.loglinear == prefix.loglinear
        assert gs.stretched == prefix.stretched


class TestSumExpTail:
    def test_k1_closed_form(self):
        p_hat, bound = sum_exp_tail([1.0], 1.0, 100_000, 3, 1.2, 1, [1.0], c=1.0)
        target = 1 - math.exp(-1)
        assert abs(p_hat - target) < 3 * math.sqrt(target * (1 - target) / 100_000)
        assert bound == pytest.approx(math.e * 1.0 * 1.0)

    def test_t_zero(self):
        assert sum_exp_tail([1.0], 0.0, 100, 1, 1.2, 1, [1.0]) == (0.0, 0.0)

    def test_nan_t_is_rejected(self):
        with pytest.raises(DomainError):
            sum_exp_tail([1.0], math.nan, 100, 1, 1.2, 1, [1.0])

    @pytest.mark.parametrize("alpha, c", [(math.nan, math.e), (1.2, math.nan), (0.0, math.e),
                                          (1.2, -1.0)])
    def test_alpha_and_c_must_be_positive(self, alpha, c):
        # nan gave a p-hat beside a nan bound
        with pytest.raises(DomainError, match="^(alpha|c) must be positive"):
            sum_exp_tail([1.0], 1.0, 100, 1, alpha, 1, [1.0], c=c)

    @pytest.mark.parametrize("dists", [2.0, [[1.0, 2.0]]])
    def test_dists_must_be_a_1d_sequence(self, dists):
        with pytest.raises(DomainError, match="1-d sequence of hop distances"):
            sum_exp_tail([1.0], 1.0, 100, 1, 1.2, 1, dists)

    def test_k1_bound_linear_in_t(self):
        _, b1 = sum_exp_tail([1.0], 0.5, 10, 1, 1.2, 1, [2.0], c=2.0)
        _, b2 = sum_exp_tail([1.0], 1.0, 10, 1, 1.2, 1, [2.0], c=2.0)
        assert b2 == pytest.approx(2 * b1)

    def test_moment_condition_enforced(self):
        with pytest.raises(DomainError):
            sum_exp_tail(None, 1.0, 100, 1, 1.6, 1, [1.0, 1.0], tau=4.0)
        with pytest.raises(DomainError):
            calibrate_sum_exp_constant(1.6, 4.0)

    def test_calibrated_constant_value(self):
        # E[W^(2a)] = (tau-1)/(tau-1-2a)
        assert calibrate_sum_exp_constant(1.2, 5.0) == pytest.approx(4.0 / 1.6)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_equals_the_loop_over_labels(self, k):
        """Each trial's sum equals the one drawn label by label, summed in path order:
        p-hat at t = a reference sum and just below it counts the same trials."""
        alpha, tau, trials, dists = 1.1, 4.5, 25, np.array([1.0, 2.0, 5.0, 3.0][:k])
        for seed in range(40):
            seeds = trial_seeds(seed, trials)
            w = np.stack([pareto_quantile(vertex_uniforms(seeds, 1000 + j), tau)
                          for j in range(k + 1)], axis=1)
            rates = (w[:, :-1] * w[:, 1:]) ** alpha * dists ** -alpha
            total = np.zeros(trials)
            for i in range(k):
                total += -np.log1p(-vertex_uniforms(seeds, 2000 + i)) / rates[:, i]
            for t in total:
                for at in (t, np.nextafter(t, 0)):
                    p_hat, _ = sum_exp_tail(None, float(at), trials, seed, alpha, 1, dists,
                                            tau=tau)
                    assert p_hat == float(np.mean(total <= at))

    def test_respects_bound_with_e_constant(self):
        # sampled within tau - 1 >= 3.3 alpha, where c = e provably suffices
        rng = np.random.default_rng(17)
        for i in range(20):
            alpha = float(rng.uniform(1.02, 1.6))
            tau = float(1.0 + 3.3 * alpha + rng.uniform(0.0, 1.5))
            k = int(rng.integers(1, 6))
            t = float(rng.uniform(0.1, 2.0))
            dists = rng.uniform(1.0, 5.0, k).tolist()
            p_hat, bound = sum_exp_tail(
                None, t, 10_000, 100 + i, alpha, 1, dists, tau=tau, c=math.e
            )
            sigma = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / 10_000)
            assert p_hat <= bound + 3 * sigma


class TestBkBruteForce:
    def test_examples(self):
        assert bk_brute_force(2, [0.5, 0.5], lambda s: s[0], lambda s: s[1]) == (
            0.25,
            0.25,
        )
        pd, pp = bk_brute_force(1, [0.5], lambda s: s[0], lambda s: s[0])
        assert pd == 0.0 and pp == 0.25
        pd2, pp2 = bk_brute_force(2, [0.3, 0.7], lambda s: True, lambda s: s[1])
        assert pd2 == pytest.approx(0.7) and pp2 == pytest.approx(0.7)

    def test_non_monotone_rejected(self):
        with pytest.raises(DomainError):
            bk_brute_force(2, [0.5, 0.5], lambda s: s[0] ^ s[1], lambda s: s[0])

    def test_matches_naive_witness_search(self):
        # independent oracle: literal per-outcome split of open coordinates
        def naive(n, probs, ta, tb):
            total = 0.0
            for m in range(1 << n):
                s, hit = m, False
                while True:
                    if ta[s] and tb[m ^ s]:
                        hit = True
                        break
                    if s == 0:
                        break
                    s = (s - 1) & m
                if hit:
                    pr = 1.0
                    for b in range(n):
                        pr *= probs[b] if (m >> b) & 1 else 1 - probs[b]
                    total += pr
            return total

        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            probs = rng.uniform(0.1, 0.9, n)
            tabs = []
            for _ in range(2):
                gens = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, 4)))]
                tab = np.array(
                    [any((m & g) == g for g in gens) for m in range(1 << n)]
                )
                tabs.append(tab)
            got, _ = bk_brute_force(n, probs, tabs[0], tabs[1])
            assert got == pytest.approx(naive(n, probs, tabs[0], tabs[1]), abs=1e-12)

    def test_k_ary_corollary(self):
        # three independent single-edge events: disjoint occurrence factorizes
        pd, pp = bk_brute_force_k(
            3, [0.3, 0.5, 0.7], [lambda s: s[0], lambda s: s[1], lambda s: s[2]]
        )
        assert pd == pytest.approx(0.3 * 0.5 * 0.7)
        assert pd <= pp + 1e-12

    def test_budget(self):
        with pytest.raises(BudgetError):
            bk_brute_force(13, [0.5] * 13, lambda s: True, lambda s: True)


class TestDistanceExponentFit:
    def test_exact_powers(self):
        samples = [(10.0**i, math.log(10.0**i) ** 2) for i in range(1, 6)]
        delta_hat, diag = fit_distance_exponent(samples)
        assert delta_hat == pytest.approx(2.0, abs=1e-6)
        assert diag.r2 == pytest.approx(1.0)
        samples1 = [(10.0**i, math.log(10.0**i)) for i in range(1, 6)]
        assert fit_distance_exponent(samples1)[0] == pytest.approx(1.0, abs=1e-9)

    def test_reference_delta(self):
        params = ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0)
        samples = [(10.0**i, math.log(10.0**i) ** 2) for i in range(1, 6)]
        _, diag = fit_distance_exponent(samples, params)
        assert diag.reference_delta == pytest.approx(2.4094208, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            fit_distance_exponent([(10, 1), (10, 2), (10, 3), (10, 4)])
        with pytest.raises(DomainError):
            fit_distance_exponent([(10, 1), (20, 2), (30, 3), (40, 4)])
        with pytest.raises(DomainError):
            fit_distance_exponent([(10, 1), (100, 2), (1000, 3)])


class TestShapeContainment:
    def test_box_diameter_radius(self):
        config = lrp_config(65, 0.1, alpha=1.2)
        rows = shape_containment(config, 32, [2, 3], lambda k: 100.0, 30, 4)
        assert all(r["frequency"] == 1.0 for r in rows)

    def test_zero_radius(self):
        config = lrp_config(65, 0.1, alpha=1.2)
        rows = shape_containment(config, 32, [1, 2], lambda k: 0.0, 20, 4)
        # grid neighbours always exist, so the 1-ball sticks out of radius 0
        assert all(r["frequency"] == 0.0 for r in rows)

    def test_fit_constant_roundtrip(self):
        config = lrp_config(129, 0.05, alpha=1.2)
        c = fit_shape_constant(config, 64, 2, 1.357, 50, 11, quantile=0.9)
        assert c >= 0.0
        rows = shape_containment(
            config, 64, [2], lambda k: math.exp(c * k ** (1 / 1.357)), 50, 11
        )
        assert rows[0]["frequency"] >= 0.85

    def test_fit_constant_of_a_one_vertex_box(self):
        # every radius is 0, and the quantile is raised to 1, whose log is 0
        config = lrp_config(1, 0.1, alpha=1.2)
        assert fit_shape_constant(config, 0, 2, 1.357, 5, 11) == 0.0


class TestHFunctional:
    def test_constant_g(self):
        ts = np.linspace(0, 2, 41)
        series = synthetic_series(ts, np.ones_like(ts))
        assert fkt_h_functional(series, 1.5, 1.2, 1, 2.0) == pytest.approx(
            math.exp(-3.0)
        )

    def test_t_zero(self):
        ts = np.linspace(0, 1, 11)
        series = synthetic_series(ts, 1 + ts)
        assert fkt_h_functional(series, 0.0, 1.0, 1, 5.0) == 1.0

    def test_linear_g_closed_form(self):
        ts = np.linspace(0, 1, 201)
        series = synthetic_series(ts, 1 + ts)
        h = fkt_h_functional(series, 1.0, 1.0, 1, 1e9)
        assert h == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_quadrature_converges(self):
        coarse = np.linspace(0, 1, 51)
        fine = np.linspace(0, 1, 101)
        h_c = fkt_h_functional(synthetic_series(coarse, np.exp(coarse)), 1.0, 1.0, 1, 1.0)
        h_f = fkt_h_functional(synthetic_series(fine, np.exp(fine)), 1.0, 1.0, 1, 1.0)
        assert abs(h_c - h_f) / h_f < 0.01

    def test_range_check(self):
        series = synthetic_series([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            fkt_h_functional(series, 2.0, 1.0, 1, 1.0)

    @pytest.mark.parametrize("t, delta_rate", [(math.nan, 1.0), (0.5, math.nan), (0.0, math.nan)])
    def test_nan_is_rejected(self, t, delta_rate):
        series = synthetic_series([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            fkt_h_functional(series, t, 1.0, 1, delta_rate)

    def test_selfbound_constant_finite(self):
        ts = np.linspace(0, 2, 41)
        series = synthetic_series(ts, np.exp(1.3 * ts))
        c = fit_selfbound_constant(series, 1.4, 1)
        assert 1.0 <= c < 1e4


class TestCondWeightCoupling:
    def test_conditional_vs_unconditional_tail(self):
        # Pr[d_cost(0,u) <= t | w_u = w] <= 2 w^alpha Pr[d_cost(0,u) <= t];
        # statistically weak at desk scale, so the margin is generous.
        box = BoxSpec(d=1, side=15)
        params = ModelParams(d=1, alpha=1.2, tau=4.0, lam=1.0)
        u, t, w_forced = 7, 0.35, 2.0
        n = 1500
        cond = uncond = 0
        for i in range(n):
            s = trial_seed(77, i)
            w = sample_weights(15, 4.0, s)
            real = CffpRealization(box=box, weights=w, params=params, seed=s)
            uncond += cost_distances_from(real, None, 0, t_max=t)[u] <= t
            wf = w.copy()
            wf[u] = w_forced
            real_c = CffpRealization(box=box, weights=wf, params=params, seed=s)
            cond += cost_distances_from(real_c, None, 0, t_max=t)[u] <= t
        p_cond = cond / n
        p_unc = uncond / n
        bound = 2 * w_forced**params.alpha * p_unc
        sigma = math.sqrt(p_cond * (1 - p_cond) / n + (2 * w_forced**params.alpha) ** 2
                          * p_unc * (1 - p_unc) / n)
        assert p_cond <= bound + 5 * sigma

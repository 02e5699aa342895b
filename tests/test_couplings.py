"""Coupling constructions: exact containments, dominance statistics, blow-ups."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolate import (
    BlowupSpec,
    BoxSpec,
    CouplingKind,
    DomainError,
    Model,
    ModelParams,
    aggregate_weight,
    blowup_box_map,
    blowup_lrp,
    connection_prob,
    couple_alpha,
    fpp_cffp_edge_check,
    min_exp_inequality,
    path_stitch_bound,
    weight_dominance_test,
)
from percolate import sampler
from percolate.couplings import (
    _distance_bins,
    aggregate_weight_floor,
    combine_blowup_reports,
    stitch_fine_path,
)
from percolate.metrics import hop_distances_from
from percolate.kernels import pareto_quantile
from percolate.rng import trial_seed, trial_seeds, vertex_uniforms


def lrp_small(lam, alpha=1.5, d=1):
    return ModelParams(d=d, alpha=alpha, tau=math.inf, lam=lam)


class TestCoupleAlpha:
    def test_containment_across_seeds(self):
        box = BoxSpec(d=1, side=64)
        params = ModelParams(d=1, alpha=1.8, tau=4.0, lam=0.3)
        for s in range(25):
            g1, g2, rep = couple_alpha(box, params, 1.5, s)
            assert rep.violations == 0
            assert g1.edges <= g2.edges
            assert np.array_equal(g1.weights, g2.weights)

    def test_unit_lambda_still_contained(self):
        box = BoxSpec(d=1, side=48)
        params = ModelParams(d=1, alpha=1.9, tau=4.0, lam=1.0)
        for s in range(10):
            _, _, rep = couple_alpha(box, params, 1.3, s)
            assert rep.violations == 0

    def test_equal_alpha_rejected(self):
        params = ModelParams(d=1, alpha=1.8, tau=4.0, lam=0.3)
        with pytest.raises(DomainError):
            couple_alpha(BoxSpec(d=1, side=16), params, 1.8, 0)

    def test_report_shape(self):
        box = BoxSpec(d=1, side=32)
        params = ModelParams(d=1, alpha=1.6, tau=4.0, lam=0.5)
        _, _, rep = couple_alpha(box, params, 1.2, 3)
        assert rep.kind is CouplingKind.ALPHA_REDUCE
        assert rep.parameters["lambda_prime"] == pytest.approx(0.5 ** (1.2 / 1.6))


class TestMinExpInequality:
    def test_pinned_values(self):
        lhs, rhs = min_exp_inequality(0.5, 1.0)
        assert lhs == pytest.approx(0.31606027941427883, abs=1e-5)
        assert rhs == pytest.approx(0.3934693402873666, abs=1e-5)
        assert min_exp_inequality(0.0, 5.0) == (0.0, 0.0)
        assert min_exp_inequality(3.0, 0.0) == (0.0, 0.0)

    def test_inequality_holds_on_grid(self):
        grid = np.arange(0.0, 5.001, 0.1)
        for a in grid:
            for b in grid:
                lhs, rhs = min_exp_inequality(float(a), float(b))
                assert lhs <= rhs + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            min_exp_inequality(-0.1, 1.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_is_rejected(self, a, b):
        with pytest.raises(DomainError):
            min_exp_inequality(a, b)


class TestFppCffpEdgeCheck:
    def test_boundary_case_equal_sides(self):
        # kernel argument 1 with lam=1: both sides are 1 - e^-t
        params = ModelParams(d=1, alpha=1.7, tau=4.0, lam=1.0)
        rep = fpp_cffp_edge_check(1.0, 1.0, 1.0, 0.7, 50_000, 3, params)
        d = rep.details[0]
        assert rep.violations == 0
        assert d["lhs_exact"] == pytest.approx(d["rhs_exact"])
        assert abs(d["lhs"] - d["lhs_exact"]) < 4 * math.sqrt(0.25 / 50_000)

    def test_worked_example(self):
        params = ModelParams(d=1, alpha=1.0, tau=4.0, lam=1.0)
        rep = fpp_cffp_edge_check(1.0, 1.0, 2.0, 1.0, 100_000, 11, params)
        d = rep.details[0]
        assert d["lhs_exact"] == pytest.approx(0.5 * (1 - math.exp(-1)), abs=1e-12)
        assert d["rhs_exact"] == pytest.approx(1 - math.exp(-0.5), abs=1e-12)
        for key, exact in (("lhs", d["lhs_exact"]), ("rhs", d["rhs_exact"])):
            sigma = math.sqrt(exact * (1 - exact) / 100_000)
            assert abs(d[key] - exact) < 3 * sigma
        assert rep.violations == 0

    def test_t_zero(self):
        params = ModelParams(d=1, alpha=1.2, tau=4.0, lam=1.0)
        rep = fpp_cffp_edge_check(1.5, 2.0, 3.0, 0.0, 1000, 7, params)
        d = rep.details[0]
        assert d["lhs"] == 0.0 and d["rhs"] == 0.0
        assert rep.violations == 0

    def test_domain(self):
        params = ModelParams(d=1, alpha=1.2, tau=4.0, lam=1.0)
        with pytest.raises(DomainError):
            fpp_cffp_edge_check(0.5, 1.0, 2.0, 1.0, 100, 1, params)
        with pytest.raises(DomainError):
            fpp_cffp_edge_check(1.0, 1.0, 0.5, 1.0, 100, 1, params)

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_a_draw_of_u1_and_u2_by_separate_calls(self, seed):
        params = ModelParams(d=1, alpha=1.2, tau=4.0, lam=0.6)
        for wu, wv, dist, t in ((1.0, 1.0, 2.0, 1.0), (1.5, 2.0, 3.0, 0.4), (3.0, 1.2, 9.0, 2.5)):
            seeds = trial_seeds(seed, 300)
            u1, u2 = vertex_uniforms(seeds, 1), vertex_uniforms(seeds, 2)
            rate = params.lam * (wu * wv) ** params.alpha * dist ** (-params.alpha)
            lhs = np.count_nonzero((u1 < connection_prob(wu, wv, dist, params))
                                   & (u2 < -math.expm1(-t))) / 300
            rhs = np.count_nonzero(u2 < -math.expm1(-rate * t)) / 300
            d = fpp_cffp_edge_check(wu, wv, dist, t, 300, seed, params).details[0]
            assert (d["lhs"], d["rhs"]) == (lhs, rhs)

    @pytest.mark.parametrize("at", range(4), ids=["wu", "wv", "dist", "t"])
    def test_nan_is_rejected(self, at):
        params = ModelParams(d=1, alpha=1.2, tau=4.0, lam=1.0)
        args = [1.0, 1.0, 2.0, 1.0]
        args[at] = math.nan
        with pytest.raises(DomainError):
            fpp_cffp_edge_check(*args, 100, 1, params)


class TestBlowupBoxMap:
    def test_fig_caption_case(self):
        m = blowup_box_map((0, 0), 3, 2)
        assert len(m) == 9
        assert m == {(i, j) for i in range(3) for j in range(3)}

    def test_identity(self):
        assert blowup_box_map(5, 1, 1) == {(5,)}

    def test_tiling_partition(self):
        # 4x4 coarse box, r=2, d=2: 64 fine points, pairwise disjoint, covering
        boxes = [blowup_box_map((i, j), 2, 2) for i in range(4) for j in range(4)]
        union = set().union(*boxes)
        assert len(union) == 64
        assert sum(len(b) for b in boxes) == 64
        assert union == {(i, j) for i in range(8) for j in range(8)}

    def test_numpy_integers_are_integers(self):
        assert blowup_box_map(np.array([1, -2]), np.int64(2), np.int32(2)) == \
            blowup_box_map((1, -2), 2, 2)

    @pytest.mark.parametrize("u, r, d", [((1.5, 0), 2, 2), (2.7, 2, 1), ((1, 0), 2.0, 2),
                                         (1, 0, 1), ((1, 0), 2, 1), (1, 2, 2)])
    def test_non_integers_and_bad_shapes_are_refused(self, u, r, d):
        with pytest.raises(DomainError):
            blowup_box_map(u, r, d)


class TestBlowupLrp:
    def test_blowup_factor_is_an_integer(self):
        assert type(BlowupSpec(r=np.int64(2), params_small=lrp_small(0.1)).r) is int
        for r in (2.5, 2.0, "2", 0):
            with pytest.raises(DomainError):
                BlowupSpec(r=r, params_small=lrp_small(0.1))

    def test_pooling_refuses_reports_of_different_configs(self):
        _, _, a = blowup_lrp(BoxSpec(d=1, side=12), BlowupSpec(2, lrp_small(0.1)), 0.1, 1)
        _, _, b = blowup_lrp(BoxSpec(d=1, side=12), BlowupSpec(3, lrp_small(0.1, 1.9)), 0.3, 1)
        with pytest.raises(DomainError, match="'r'"):
            combine_blowup_reports([a, b])
        _, _, c = blowup_lrp(BoxSpec(d=1, side=12), BlowupSpec(2, lrp_small(0.1)), 0.3, 2)
        with pytest.raises(DomainError, match="'lambda_goal'"):
            combine_blowup_reports([a, c])

    def test_identity_blowup_matches_fine(self):
        spec = BlowupSpec(r=1, params_small=lrp_small(0.3))
        fine, coarse, rep = blowup_lrp(BoxSpec(d=1, side=32), spec, 0.3, 5)
        assert coarse.edges == fine.edges
        assert rep.kind is CouplingKind.BLOWUP_LRP

    @pytest.mark.parametrize("lambda_goal", [math.nan, 0.0, -1.0])
    def test_lambda_goal_must_be_positive(self, lambda_goal):
        # nan ran, and on a side-12 box reported 10 violations
        spec = BlowupSpec(r=2, params_small=lrp_small(0.1))
        with pytest.raises(DomainError, match="lambda_goal must be positive"):
            blowup_lrp(BoxSpec(d=1, side=12), spec, lambda_goal, 1)

    def test_zero_lambda_gives_only_grid(self):
        spec = BlowupSpec(r=3, params_small=lrp_small(0.0))
        fine, coarse, rep = blowup_lrp(BoxSpec(d=1, side=16), spec, 1e-6, 2)
        # fine grid edges join only adjacent boxes
        assert coarse.edges == {(i, i + 1) for i in range(15)}

    def test_effective_strength_scaling(self):
        # fitted lambda ~ lam_s * r^(d(2-alpha)): doubling r at alpha=1.5, d=1
        # multiplies it by 2^0.5.  Pool bins via a Poisson-regression estimate.
        expected = 2**0.5  # 2^(d(2-alpha)) at alpha=1.5, d=1
        lam_s = 0.004
        counts = {}
        for r in (4, 8):
            spec = BlowupSpec(r=r, params_small=lrp_small(lam_s))
            reports = []
            for i in range(60):
                _, _, rep = blowup_lrp(
                    BoxSpec(d=1, side=24), spec, 0.05, trial_seed(1000 + r, i)
                )
                reports.append(rep)
            combined = combine_blowup_reports(reports)
            hits = sum(rec["edges"] for rec in combined.details if rec["dist"] >= 2)
            expo = sum(
                rec["pairs"] * rec["dist"] ** -1.5
                for rec in combined.details
                if rec["dist"] >= 2
            )
            counts[r] = (hits, expo)
        lam4 = counts[4][0] / counts[4][1]
        lam8 = counts[8][0] / counts[8][1]
        ratio = lam8 / lam4
        # 3-sigma band from Poisson counting noise on both numerators
        rel = 3 * math.sqrt(1 / counts[4][0] + 1 / counts[8][0])
        assert abs(ratio - expected) / expected < rel + 0.15

    def test_witnesses_certify_coarse_edges(self):
        spec = BlowupSpec(r=3, params_small=lrp_small(0.05))
        fine, coarse, rep = blowup_lrp(BoxSpec(d=1, side=12), spec, 0.1, 7)
        wit = {
            tuple(int(x) for x in k.split(",")): tuple(v)
            for k, v in rep.parameters["witnesses"].items()
        }
        assert set(wit) == set(coarse.edges)
        for (cu, cv), (fu, fv) in wit.items():
            assert (min(fu, fv), max(fu, fv)) in fine.edges
            assert int(fine.positions[fu][0]) // 3 == cu
            assert int(fine.positions[fv][0]) // 3 == cv

    def test_witnesses_are_oriented_in_2d(self):
        # in 2-d the lower fine endpoint of an edge may lie in the higher box
        coarse_box = BoxSpec(d=2, side=8, origin=(1, -2))
        spec = BlowupSpec(r=2, params_small=lrp_small(0.3, d=2))
        fine, coarse, rep = blowup_lrp(coarse_box, spec, 0.2, 4)
        box_of = {tuple(p): i for i, p in enumerate(coarse_box.lattice_positions().tolist())}
        wit = rep.parameters["witnesses"]
        assert sorted(wit) == sorted(f"{u},{v}" for u, v in coarse.edges)
        flipped = 0
        for key, (fu, fv) in wit.items():
            cu, cv = (int(x) for x in key.split(","))
            assert (min(fu, fv), max(fu, fv)) in fine.edges
            assert box_of[tuple(np.floor(fine.positions[fu] / 2).tolist())] == cu
            assert box_of[tuple(np.floor(fine.positions[fv] / 2).tolist())] == cv
            flipped += fu > fv
        assert flipped > 0

    def test_witness_is_the_smallest_joining_edge(self):
        coarse_box = BoxSpec(d=2, side=6, origin=(2, -1))
        spec = BlowupSpec(r=2, params_small=lrp_small(0.4, d=2))
        fine, coarse, rep = blowup_lrp(coarse_box, spec, 0.2, 9)
        cell = {tuple(p): i for i, p in enumerate(coarse_box.lattice_positions().tolist())}
        box = [cell[tuple(np.floor(p / 2).tolist())] for p in fine.positions]
        smallest = {}
        for fu, fv in sorted(fine.edges):
            cu, cv = box[fu], box[fv]
            if cu != cv:
                smallest.setdefault(f"{min(cu, cv)},{max(cu, cv)}",
                                    [fu, fv] if cu < cv else [fv, fu])
        assert rep.parameters["witnesses"] == smallest


def _walked_distance_bins(box: BoxSpec, edges: np.ndarray) -> dict:
    """The reference bins: every pair of the box walked by `_pair_blocks`."""
    columns = sampler._coordinate_columns(box.lattice_positions())
    bins: dict = {}

    def add(lo, hi, slot):
        dists = np.sqrt(sampler._squared_distances(columns, lo, hi))
        values, counts = np.unique(dists, return_counts=True)
        for dist, count in zip(values.tolist(), counts.tolist()):
            bins.setdefault(round(dist, 9), [0, 0])[slot] += count

    for lo, hi in sampler._pair_blocks(box.n_vertices):
        add(lo, hi, 0)
    add(edges[:, 0], edges[:, 1], 1)
    return bins


@st.composite
def boxes_with_edges(draw):
    """A lattice box of dimension 1, 2 or 3 and a random set of its pairs."""
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(1, {1: 80, 2: 14, 3: 7}[d]))
    box = BoxSpec(d=d, side=side,
                  origin=tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))))
    n = box.n_vertices
    lo, hi = np.triu_indices(n, 1)
    keep = np.random.default_rng(draw(st.integers(0, 2**32))).random(len(lo)) < draw(
        st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    return box, np.stack([lo[keep], hi[keep]], axis=1).astype(np.int64)


class TestDistanceBins:
    @settings(max_examples=80, deadline=None)
    @given(case=boxes_with_edges())
    def test_counted_bins_equal_the_walked_bins(self, case):
        box, edges = case
        assert _distance_bins(box, edges) == _walked_distance_bins(box, edges)



class TestStitching:
    def test_bound_values(self):
        assert path_stitch_bound(3, 2, 5) == 90
        assert path_stitch_bound(1, 1, 1) == 3

    def test_monotone(self):
        base = path_stitch_bound(2, 2, 2)
        assert path_stitch_bound(3, 2, 2) > base
        assert path_stitch_bound(2, 3, 2) > base
        assert path_stitch_bound(2, 2, 3) > base

    def test_domain(self):
        with pytest.raises(DomainError):
            path_stitch_bound(0, 1, 1)

    def test_integers_only(self):
        assert path_stitch_bound(np.int64(2), np.int32(1), 1) == 6
        for args in ((2.5, 1, 1), (2, 1.0, 1), (2, 1, "3")):
            with pytest.raises(DomainError):
                path_stitch_bound(*args)

    def test_constructive_stitch_on_sampled_instances(self):
        r = 3
        coarse_box = BoxSpec(d=1, side=16)
        spec = BlowupSpec(r=r, params_small=lrp_small(0.08))
        for s in (1, 2, 3, 4, 5):
            fine, coarse, rep = blowup_lrp(coarse_box, spec, 0.2, s)
            # walk a shortest coarse path from 0 to the far corner
            dist = hop_distances_from(coarse, 0)
            target = 15
            assert dist[target] >= 0
            path = [target]
            while path[-1] != 0:
                here = path[-1]
                for nb in coarse.neighbors[here]:
                    if dist[nb] == dist[here] - 1:
                        path.append(nb)
                        break
            path.reverse()
            k = len(path) - 1
            fine_path = stitch_fine_path(fine, path, rep.parameters["witnesses"])
            assert all((min(a, b), max(a, b)) in fine.edges
                       for a, b in zip(fine_path, fine_path[1:]))
            assert len(fine_path) - 1 <= path_stitch_bound(r, 1, k)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), r=st.integers(1, 3), data=st.data())
    def test_stitched_walks_in_any_dimension(self, d, r, data):
        side = data.draw(st.integers(2, {1: 10, 2: 5, 3: 3}[d]))
        origin = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)
                                 .filter(any)))
        coarse_box = BoxSpec(d=d, side=side, origin=origin)
        spec = BlowupSpec(r=r, params_small=lrp_small(0.3, d=d))
        fine, coarse, rep = blowup_lrp(coarse_box, spec, 0.2, data.draw(st.integers(0, 99)))
        # a random walk on the coarse graph, back and forth steps included
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        path = [int(rng.integers(coarse_box.n_vertices))]
        for _ in range(data.draw(st.integers(1, 8))):
            path.append(int(rng.choice(coarse.neighbors[path[-1]])))
        fine_path = stitch_fine_path(fine, path, rep.parameters["witnesses"])
        assert all((min(a, b), max(a, b)) in fine.edges for a, b in zip(fine_path, fine_path[1:]))

        def box_of(u):
            return blowup_box_map(coarse.positions[u].astype(int), r, d)

        assert tuple(fine.positions[fine_path[0]].astype(int)) in box_of(path[0])
        assert tuple(fine.positions[fine_path[-1]].astype(int)) in box_of(path[-1])
        assert len(fine_path) - 1 <= path_stitch_bound(r, d, len(path) - 1)

    def test_refusals(self):
        fine, coarse, rep = blowup_lrp(BoxSpec(d=1, side=8), BlowupSpec(2, lrp_small(0.0)),
                                       0.1, 3)
        wit = rep.parameters["witnesses"]
        assert stitch_fine_path(fine, [1, 0], wit) == [2, 1]
        with pytest.raises(DomainError, match="at least two vertices"):
            stitch_fine_path(fine, [3], wit)
        with pytest.raises(DomainError, match=r"coarse pair \(0, 2\) has no witness edge"):
            stitch_fine_path(fine, [2, 0], wit)
        boxless = sampler.SampledGraph(model=fine.model, positions=fine.positions,
                                       weights=fine.weights, edges=fine.edge_array,
                                       seed=fine.seed, params=fine.params)
        with pytest.raises(DomainError):
            stitch_fine_path(boxless, [0, 1], wit)


class TestAggregateWeight:
    def test_pinned_value(self):
        assert aggregate_weight(np.ones(16), 1.0, 16, 1, 1.0) == pytest.approx(4.0)
        assert aggregate_weight_floor(1.0, 16, 1, 1.0) == pytest.approx(4.0)

    def test_single_sample(self):
        assert aggregate_weight([3.7], 1.4, 1, 1, 2.0) == pytest.approx(2.0 * 3.7)

    def test_floor_on_random_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            r = int(rng.integers(1, 5))
            d = int(rng.integers(1, 3))
            alpha = float(rng.uniform(1.0, 2.0))
            c = float(rng.uniform(0.5, 2.0))
            w = 1.0 + rng.pareto(2.5, r**d)
            assert aggregate_weight(w, alpha, r, d, c) >= aggregate_weight_floor(
                alpha, r, d, c
            ) - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            aggregate_weight(np.ones(5), 1.0, 2, 2, 1.0)

    def test_boxes_reduce_over_the_last_axis(self):
        w = 1.0 + np.random.default_rng(3).pareto(2.5, (4, 3, 9))
        got = aggregate_weight(w, 1.5, 3, 2, 0.7)
        assert got.shape == (4, 3)
        want = [[aggregate_weight(box, 1.5, 3, 2, 0.7) for box in row] for row in w]
        np.testing.assert_allclose(got, want, rtol=4e-16)
        with pytest.raises(DomainError):
            aggregate_weight(np.ones((9, 4)), 1.5, 3, 2, 0.7)

    def test_r_and_d_must_be_integers(self):
        with pytest.raises(DomainError):
            aggregate_weight(np.ones(4), 1.0, 2.0, 2)
        with pytest.raises(DomainError):
            aggregate_weight_floor(1.0, 2.5, 1)

    @pytest.mark.parametrize("alpha, c_agg", [(math.nan, 1.0), (1.0, math.nan), (0.0, 1.0),
                                              (1.0, 0.0), (-1.0, 1.0)])
    def test_alpha_and_c_agg_must_be_positive(self, alpha, c_agg):
        # nan returned nan, and the floor divided by alpha = 0
        with pytest.raises(DomainError, match="^(alpha|c_agg) must be positive"):
            aggregate_weight(np.ones(2), alpha, 2, 1, c_agg)
        with pytest.raises(DomainError, match="^(alpha|c_agg) must be positive"):
            aggregate_weight_floor(alpha, 2, 1, c_agg)


class TestWeightDominance:
    def test_valid_configuration_accepted(self):
        rep = weight_dominance_test(4.0, 3.4, 1.0, 8, 1, 1.0, 3000, 5)
        assert rep.kind is CouplingKind.WEIGHT_DOMINANCE
        # floor region: empirical tail is exactly 1 there
        floor = rep.parameters["floor"]
        for rec in rep.details:
            if rec["x"] <= floor:
                assert rec["empirical"] == 1.0
                assert not rec["flagged"]

    def test_tau_prime_contract(self):
        with pytest.raises(DomainError):
            weight_dominance_test(4.0, 3.6, 1.0, 8, 1, 1.0, 100, 5)
        with pytest.raises(DomainError):
            weight_dominance_test(4.0, 3.0, 1.0, 8, 1, 1.0, 100, 5)
        with pytest.raises(DomainError):
            weight_dominance_test(math.inf, 3.5, 1.0, 8, 1, 1.0, 100, 5)

    def test_passes_for_large_r(self):
        rep = weight_dominance_test(4.0, 3.2, 1.0, 16, 1, 1.0, 4000, 9)
        assert rep.violations == 0

    def test_blocks_equal_the_per_trial_loop(self):
        """Three blocks of 1000-weight boxes against one box per trial, as
        trial_seed draws them; the array pow may move a sample by one ulp."""
        tau_prime, alpha, r, d, c_agg, trials, seed = 3.2, 1.5, 10, 3, 0.7, 2500, 11
        samples = np.array([
            c_agg * (pareto_quantile(vertex_uniforms(trial_seed(seed, i), np.arange(r**d)),
                                     tau_prime) ** alpha).sum() ** (1.0 / alpha) / r ** (d / 2)
            for i in range(trials)])
        rep = weight_dominance_test(4.0, tau_prime, alpha, r, d, c_agg, trials, seed)
        assert [rec["empirical"] for rec in rep.details] == [
            float(np.mean(samples >= rec["x"])) for rec in rep.details]

    @pytest.mark.parametrize("r, d", [(0, 1), (-2, 1), (2, 0)])
    def test_box_shape_must_be_positive(self, r, d):
        with pytest.raises(DomainError):
            weight_dominance_test(4.0, 3.4, 1.0, r, d, 1.0, 100, 5)

"""Sampling: reproducibility, kernel frequencies, couplings under shared seeds,
cost laws, and the text serialization round-trip."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolate import (
    BoxSpec,
    BudgetError,
    CffpRealization,
    DomainError,
    KernelVariant,
    Model,
    ModelParams,
    RateModel,
    connection_prob,
    edge_uniform,
    load_graph,
    sample_cffp_costs,
    sample_fpp_costs,
    sample_graph,
    sample_weights,
    save_graph,
    vertex_uniform,
)
from percolate import rng
from percolate.sampler import grid_edges


def lrp(alpha=1.5, lam=0.5, d=1):
    return ModelParams(d=d, alpha=alpha, tau=math.inf, lam=lam)


class TestEdgeUniform:
    def test_symmetry_and_determinism(self):
        assert edge_uniform(5, 3, 9) == edge_uniform(5, 9, 3)
        assert edge_uniform(5, 3, 9) == edge_uniform(5, 3, 9)
        assert edge_uniform(5, 3, 9) != edge_uniform(6, 3, 9)

    def test_self_pair_rejected(self):
        with pytest.raises(DomainError):
            edge_uniform(5, 4, 4)

    def test_scalar_vector_agreement(self):
        us = np.arange(200)
        vs = us + 1 + (us % 7)
        vec = rng.edge_uniforms(99, us, vs)
        assert all(
            vec[i] == edge_uniform(99, int(us[i]), int(vs[i])) for i in range(len(us))
        )
        vv = rng.vertex_uniforms(3, np.arange(50))
        assert all(vv[i] == vertex_uniform(3, i) for i in range(50))

    def test_empirical_mean(self):
        n = 1_000_000
        u = rng.edge_uniforms(271828, np.arange(n), np.arange(n) + 1)
        assert abs(u.mean() - 0.5) < 0.002


class TestSampleWeights:
    def test_floor_and_determinism(self):
        w = sample_weights(5000, 3.5, 11)
        assert np.all(w >= 1.0)
        assert np.array_equal(w, sample_weights(5000, 3.5, 11))

    def test_tail_law(self):
        # Pr{W >= z} = z^(1-tau); tau=3, z=10 -> 0.01 (3 sigma at 1e5 draws)
        w = sample_weights(100_000, 3.0, 21)
        frac = float(np.mean(w >= 10.0))
        assert abs(frac - 0.01) < 3 * math.sqrt(0.01 * 0.99 / 100_000)

    def test_tau_monotonicity_shared_uniforms(self):
        lo = sample_weights(2000, 5.0, 7)   # larger tau -> smaller weights
        hi = sample_weights(2000, 3.0, 7)
        assert np.all(lo <= hi)


class TestSampleGraph:
    def test_zero_lambda_is_grid(self):
        box = BoxSpec(d=1, side=10)
        g = sample_graph(box, lrp(lam=0.0), Model.LRP, 7)
        assert g.edges == grid_edges(box)
        assert len(g.edges) == 9

    def test_saturated_kernel_is_complete(self):
        g = sample_graph(BoxSpec(d=1, side=5), lrp(lam=1e9), Model.LRP, 3)
        assert len(g.edges) == 10

    def test_lrp_weights_forced_to_one(self):
        g = sample_graph(BoxSpec(d=1, side=20), lrp(lam=0.3), Model.LRP, 5)
        assert np.all(g.weights == 1.0)

    def test_no_self_loops_and_symmetric_storage(self):
        g = sample_graph(BoxSpec(d=2, side=5), lrp(lam=0.5, d=2), Model.LRP, 13)
        for u, v in g.edges:
            assert u < v

    def test_edge_frequency_matches_kernel(self):
        # LRP pair at distance 2: empirical freq ~ lam * 2^(-alpha d)
        params = lrp(alpha=1.5, lam=0.5)
        target = connection_prob(1, 1, 2, params)
        box = BoxSpec(d=1, side=3)
        n = 20_000
        hits = sum((0, 2) in sample_graph(box, params, Model.LRP, s).edges
                   for s in range(n))
        sigma = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 3 * sigma

    def test_sfp_conditional_kernel_oracle(self):
        # Per-seed Bernoulli with p from the sampled weights: the total edge
        # count over seeds is Poisson-binomial around sum of those p.
        params = ModelParams(d=1, alpha=1.4, tau=4.0, lam=0.4)
        box = BoxSpec(d=1, side=4)
        pair = (0, 3)
        n = 4000
        hits = 0
        expected = 0.0
        var = 0.0
        for s in range(n):
            g = sample_graph(box, params, Model.SFP, s)
            p = connection_prob(g.weights[pair[0]], g.weights[pair[1]], 3.0, params)
            expected += p
            var += p * (1 - p)
            hits += pair in g.edges
        assert abs(hits - expected) < 3 * math.sqrt(var)

    def test_lambda_monotone_edge_containment(self):
        box = BoxSpec(d=1, side=64)
        for s in (1, 2, 3, 4, 5):
            g1 = sample_graph(box, lrp(lam=0.1), Model.LRP, s)
            g2 = sample_graph(box, lrp(lam=0.4), Model.LRP, s)
            assert g1.edges <= g2.edges

    def test_tau_monotone_edge_containment(self):
        box = BoxSpec(d=1, side=64)
        for s in (1, 2, 3):
            g1 = sample_graph(box, ModelParams(d=1, alpha=1.4, tau=5.0, lam=0.2),
                              Model.SFP, s)
            g2 = sample_graph(box, ModelParams(d=1, alpha=1.4, tau=3.2, lam=0.2),
                              Model.SFP, s)
            assert g1.edges <= g2.edges

    def test_sfp_dominates_lrp(self):
        # the spec's tau -> inf reading: SFP edge set contains LRP's
        box = BoxSpec(d=1, side=64)
        for s in (1, 2, 3):
            g_lrp = sample_graph(box, lrp(alpha=1.4, lam=0.2), Model.LRP, s)
            g_sfp = sample_graph(box, ModelParams(d=1, alpha=1.4, tau=4.0, lam=0.2),
                                 Model.SFP, s)
            assert g_lrp.edges <= g_sfp.edges

    def test_girg_positions_and_no_grid(self):
        params = ModelParams(d=2, alpha=1.5, tau=3.5, lam=0.5)
        g = sample_graph(BoxSpec(d=2, side=6), params, Model.GIRG, 17)
        assert g.n == 36
        assert np.all((g.positions >= 0) & (g.positions <= 6))
        # nothing forces lattice-adjacent indices to be linked
        assert g.weights.min() >= 1.0

    def test_dimension_mismatch_and_budget(self):
        with pytest.raises(DomainError):
            sample_graph(BoxSpec(d=2, side=4), lrp(d=1), Model.LRP, 1)
        with pytest.raises(BudgetError):
            sample_graph(BoxSpec(d=1, side=100), lrp(), Model.LRP, 1, budget=50)

    def test_degree_grows_with_weight(self):
        # E[deg | w] ~ w: check rank correlation on a log-binned split
        params = ModelParams(d=1, alpha=1.2, tau=3.0, lam=1.0)
        g = sample_graph(BoxSpec(d=1, side=3000), params, Model.SFP, 31)
        deg = np.zeros(g.n)
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        w = g.weights
        big = w > np.quantile(w, 0.9)
        assert deg[big].mean() > 2.0 * deg[~big].mean()


class TestFppCosts:
    def test_mean_and_nonnegativity(self):
        # ~1e6 edges: complete graph on 1415 lattice vertices
        g = sample_graph(BoxSpec(d=1, side=1415), lrp(lam=1e9), Model.LRP, 9)
        cm = sample_fpp_costs(g, 9)
        costs = np.fromiter(cm.costs.values(), dtype=np.float64)
        assert len(costs) >= 1_000_000
        assert np.all(costs >= 0)
        assert abs(costs.mean() - 1.0) < 0.003

    def test_reproducible_and_independent_of_existence_stream(self):
        g = sample_graph(BoxSpec(d=1, side=30), lrp(lam=0.4), Model.LRP, 4)
        a = sample_fpp_costs(g, 4)
        b = sample_fpp_costs(g, 4)
        assert a.costs == b.costs
        assert a.rate_model is RateModel.UNIT_RATE
        # cost uniforms differ from the existence uniforms of the same pairs
        (u, v) = next(iter(g.edges))
        assert a.cost(u, v) != -math.log1p(-edge_uniform(4, u, v))


class TestCffpCosts:
    def setup_method(self):
        self.params = ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0)

    def test_unit_weights_reduce_to_exp1(self):
        # cost * rate ~ Exp(1) over every pair of the box
        box = BoxSpec(d=1, side=448)
        w = np.ones(448)
        real = CffpRealization(box=box, weights=w, params=self.params, seed=77)
        normalized = []
        for u in range(0, 448, 2):
            row = real.cost_row(u)
            vs = np.arange(448) != u
            dist = np.abs(np.arange(448)[vs] - u).astype(float)
            normalized.append(row[vs] * dist ** (-1.5))
        z = np.concatenate(normalized)
        assert abs(z.mean() - 1.0) < 3.0 / math.sqrt(len(z))

    def test_weight_doubling_quarters_mean_cost(self):
        # alpha=1, d=1: doubling both endpoint weights scales the rate by 4
        p1 = ModelParams(d=1, alpha=1.0, tau=4.0, lam=1.0)
        box = BoxSpec(d=1, side=8)
        n = 10_000
        base, heavy = [], []
        for s in range(n):
            r1 = CffpRealization(box=box, weights=np.ones(8), params=p1, seed=s)
            r2 = CffpRealization(box=box, weights=np.full(8, 2.0), params=p1, seed=s)
            base.append(r1.cost(0, 5))
            heavy.append(r2.cost(0, 5))
        base, heavy = np.array(base), np.array(heavy)
        # identical uniforms: the ratio is exactly 4 pairwise
        assert np.allclose(base / heavy, 4.0)
        rate = 5.0 ** -1.0
        sigma = (1 / rate) / math.sqrt(n)
        assert abs(base.mean() - 1 / rate) < 3 * sigma

    def test_cdf_at_half(self):
        box = BoxSpec(d=1, side=4)
        w = np.array([1.0, 2.0, 1.5, 1.0])
        real0 = CffpRealization(box=box, weights=w, params=self.params, seed=0)
        rate = real0.rate(0, 2)
        n = 20_000
        hits = sum(
            CffpRealization(box=box, weights=w, params=self.params, seed=s).cost(0, 2)
            <= 0.5
            for s in range(n)
        )
        target = -math.expm1(-rate * 0.5)
        assert abs(hits / n - target) < 3 * math.sqrt(target * (1 - target) / n)

    def test_materialized_matches_lazy_and_budget(self):
        box = BoxSpec(d=1, side=10)
        w = sample_weights(10, 4.0, 3)
        cm = sample_cffp_costs(box, w, self.params, 3)
        real = CffpRealization(box=box, weights=w, params=self.params, seed=3)
        assert cm.rate_model is RateModel.CFFP_RATE
        assert len(cm) == 45
        for (u, v), c in cm.costs.items():
            assert c == pytest.approx(real.cost(u, v), rel=1e-15)
        with pytest.raises(BudgetError):
            sample_cffp_costs(BoxSpec(d=1, side=10), w, self.params, 3, budget=5)

    def test_lambda_must_be_one(self):
        with pytest.raises(DomainError):
            CffpRealization(
                box=BoxSpec(d=1, side=4),
                weights=np.ones(4),
                params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=0.5),
                seed=1,
            )


class TestSerialization:
    def test_round_trip_lattice(self, tmp_path):
        params = ModelParams(d=1, alpha=1.5, tau=4.0, lam=0.37)
        g = sample_graph(BoxSpec(d=1, side=40), params, Model.SFP, 123)
        costs = sample_fpp_costs(g, 123)
        path = tmp_path / "g.txt"
        save_graph(g, path, costs=costs)
        g2, c2 = load_graph(path)
        assert g2.model is Model.SFP
        assert g2.params == params
        assert g2.seed == 123
        assert g2.edges == g.edges
        assert np.array_equal(g2.weights, g.weights)
        assert c2.rate_model is RateModel.UNIT_RATE
        assert c2.costs == costs.costs
        # byte-exact re-save
        path2 = tmp_path / "g2.txt"
        save_graph(g2, path2, costs=c2)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_girg_positions(self, tmp_path):
        params = ModelParams(d=2, alpha=1.4, tau=3.5, lam=0.8)
        g = sample_graph(BoxSpec(d=2, side=5), params, Model.GIRG, 99)
        path = tmp_path / "girg.txt"
        save_graph(g, path)
        g2, c2 = load_graph(path)
        assert c2 is None
        assert np.array_equal(g2.positions, g.positions)
        assert g2.edges == g.edges

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(list(Model)),
        d=st.sampled_from([1, 2]),
        kernel=st.sampled_from(list(KernelVariant)),
        origin=st.lists(st.integers(-50, 50), min_size=2, max_size=2),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_round_trip_keeps_kernel_and_origin(self, model, d, kernel, origin, seed):
        params = ModelParams(d=d, alpha=1.6, tau=math.inf if model is Model.LRP else 3.0,
                             lam=0.7, kernel_variant=kernel)
        box = BoxSpec(d=d, side=12 if d == 1 else 4, origin=tuple(origin[:d]))
        g = sample_graph(box, params, model, seed)
        costs = sample_fpp_costs(g, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            save_graph(g, path, costs=costs)
            g2, c2 = load_graph(path)
        assert g2.model is model and g2.seed == seed
        assert g2.params == params
        assert g2.box == box
        assert np.array_equal(g2.positions, g.positions)
        assert np.array_equal(g2.weights, g.weights)
        assert g2.edges == g.edges
        assert c2.costs == costs.costs

    def test_17_digit_reals(self, tmp_path):
        params = ModelParams(d=1, alpha=1.0 + 1e-13, tau=4.0 / 3.0, lam=0.1 + 0.2)
        g = sample_graph(BoxSpec(d=1, side=4), params, Model.SFP, 5)
        path = tmp_path / "p.txt"
        save_graph(g, path)
        g2, _ = load_graph(path)
        assert g2.params.alpha == params.alpha
        assert g2.params.tau == params.tau
        assert g2.params.lam == params.lam

"""Sampling: reproducibility, kernel frequencies, couplings under shared seeds,
cost laws, and the text serialization round-trip."""

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import re
import sys
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolate import (
    BlowupSpec,
    BoxSpec,
    BudgetError,
    CffpRealization,
    CostMap,
    DomainError,
    KernelVariant,
    Model,
    ModelParams,
    RateModel,
    SampledGraph,
    blowup_lrp,
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
from percolate import rng, sampler
from percolate.kernels import apply_kernel
from percolate.metrics import cost_distances_from, hop_distances_from


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
        for seed in (3, 2**63 + 5):
            for n, d in ((20, 3), (20, 1), (1, 3), (1, 1)):
                pos = rng.position_uniforms(seed, n, d)
                assert pos.shape == (n, d)
                assert all(pos[i, a] == rng.position_uniform(seed, i, a)
                           for i in range(n) for a in range(d))
            seeds = rng.trial_seeds(seed, 30)
            assert seeds.tolist() == [rng.trial_seed(seed, i) for i in range(30)]
            each = rng.vertex_uniforms(seeds, 1000)
            assert all(each[i] == vertex_uniform(int(seeds[i]), 1000) for i in range(30))
            # (trials, 1) seeds against (n,) words, as `weight_dominance_test` draws them
            grid = rng.vertex_uniforms(seeds[:, None], np.arange(7)).reshape(30, 7)
            assert all(grid[i, j] == vertex_uniform(int(seeds[i]), j)
                       for i in range(30) for j in range(7))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_vertex_uniforms_refuse_a_scalar_seed_outside_its_range(self, seed):
        with pytest.raises(DomainError, match="^seed must be"):
            rng.vertex_uniforms(seed, np.arange(3))

    @pytest.mark.parametrize("shapes", [
        ((3, 4, 1), (3, 1, 5)), ((6, 7), (6, 7)), ((), (40,)), ((9,), ()), ((2, 1), (5,)),
    ])
    def test_uniforms_in_given_buffers_equal_fresh_ones(self, shapes):
        gen = np.random.default_rng(4)
        states, words = (gen.integers(0, 2**64, size=shape, dtype=np.uint64)
                         for shape in shapes)
        want = rng.uniforms_from_states(states, words)
        size = want.size
        buffers = (np.full(size + 9, 7, np.uint64), np.full(size + 9, 7, np.uint64))
        got = rng.uniforms_from_states(states, words, out=buffers)
        assert got.shape == (size,) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, buffers[1])
        assert (buffers[0][size:] == 7).all() and (buffers[1][size:] == 7).all()

    @pytest.mark.parametrize("shapes", [
        ((3, 4, 1), (3, 1, 5)), ((6, 7), (6, 7)), ((), (40,)), ((9,), ()), ((2, 1), (5,)),
    ])
    def test_numerators_are_the_uniforms_times_two_to_the_53(self, shapes):
        gen = np.random.default_rng(5)
        states, words = (gen.integers(0, 2**64, size=shape, dtype=np.uint64)
                         for shape in shapes)
        want = rng.uniforms_from_states(states, words)
        size = want.size
        buffers = (np.full(size + 9, 7, np.uint64), np.full(size + 9, 7, np.uint64))
        for out in (None, buffers):
            num = rng.uniforms_from_states(states, words, out=out, numerators=True)
            assert num.shape == (size,) and num.dtype == np.uint64
            assert (num < 2**53).all()
            assert (num * 2.0**-53).tobytes() == want.tobytes()
        assert np.shares_memory(num, buffers[0])  # the numerators end in the first buffer
        assert (buffers[0][size:] == 7).all() and (buffers[1][size:] == 7).all()

    def test_vectorized_states_are_offset_for_their_next_word(self):
        # the scalar chain adds the golden ratio before each absorb; the
        # vectorized states carry it already, folded by the finalizer's
        # first step, s ^ (s >> 30)
        gold = 0x9E3779B97F4A7C15

        def folded(h):
            s = (h + gold) % 2**64
            return s ^ (s >> 30)

        for seed in (0, 3, 2**64 - 1):
            assert int(rng.seed_state(seed)) == folded(rng._hash_words(seed))
            states = rng.absorb_indices(rng.seed_state(seed), np.arange(6))
            assert states.tolist() == [folded(rng._hash_words(seed, i)) for i in range(6)]

    @pytest.mark.parametrize("seed", [7, 2**63 + 1])
    def test_ids_at_and_above_the_word_bound_equal_the_scalar_hash(self, seed):
        # the vectorized functions fold their own words, so the fold's bound
        # of 2^30 holds no id of theirs
        ids = [0, 1, 2**30 - 1, 2**30, 2**30 + 1, 2**62, 2**63 - 1]
        lo, hi = np.array(ids[:-1]), np.array(ids[1:])
        assert rng.edge_uniforms(seed, lo, hi).tolist() == [
            edge_uniform(seed, u, v) for u, v in zip(ids[:-1], ids[1:])]
        assert rng.edge_uniforms(seed, hi, lo).tolist() == rng.edge_uniforms(seed, lo, hi).tolist()
        assert rng.vertex_uniforms(seed, np.array(ids)).tolist() == [
            vertex_uniform(seed, i) for i in ids]
        seeds = np.array([seed, 3], dtype=np.uint64)
        assert rng.vertex_uniforms(seeds[:, None], np.array(ids)).tolist() == [
            vertex_uniform(int(s), i) for s in seeds for i in ids]
        states = rng.absorb_indices(rng.seed_state(seed), np.array(ids, dtype=np.uint64))
        words = np.array([0, 5, 2**30 - 1], dtype=np.uint64)
        got = rng.uniforms_from_states(states[:, None], words)
        assert got.tolist() == [rng._u01(rng._hash_words(seed, i, int(w)))
                                for i in ids for w in words]

    # Integer literals of the parent implementation: the hash is integer
    # arithmetic only, so they hold on every CPU.
    TRIAL_SEEDS = {
        0: [18253729181879317217, 12906430961567432753, 11637527457398409095,
            7771127916401045594],
        2**64 - 1: [18208099556146590232, 13066046228206143105, 10588697855709136948,
                    1631359375883143720],
    }
    PINS = {  # seed: (numerators, edge, vertex and position uniforms as bit patterns)
        7: ([7309378499217909, 1983792177333755, 8615355579983083, 7409820413567165,
             7838883916329974, 6293039445784560, 3887063679564619, 6721583165348302,
             6327643505112885, 6868493084668091, 3787507555908653, 7568611105397778,
             3292439026489772, 7965334286655659, 7979876411638734],
            [4604028437005899072, 4577003742536253696, 4605219336928436733,
             4600097946751783926],
            [4605685639666592966, 4599785567053499218, 4603667262420962646,
             4596641219269835552, 4603682220689305935],
            [[4603642433562351038, 4603748263123296107],
             [4601296995646840496, 4606697036404062388],
             [4606989509455955053, 4598424500868971652]]),
        2**63 + 1: ([4048811916556422, 2295374621980721, 4551752381413198, 6844960218371156,
                     2006241904019577, 7809154683446282, 6932793597241268, 7816913557183101,
                     1521112198287906, 1898936306997046, 723640915112719, 2019764086799947,
                     1601765039124388, 5619620667403777, 8388327896754239],
                    [4606606858342081420, 4600820340447731522, 4604964370487776899,
                     4599586402401141400],
                    [4603572602696271530, 4604705748729642407, 4607141430150059840,
                     4605136603411997656, 4603161794119479174],
                    [[4576546244128966336, 4589972523806890976],
                     [4606810655988051977, 4602816825519808621],
                     [4604181203453933032, 4595310843596772220]]),
    }

    @pytest.mark.parametrize("seed", list(PINS))
    def test_the_hash_is_pinned_to_integer_literals(self, seed):
        ids = [0, 1, 2**30 - 1, 2**30, 2**62]
        states = rng.absorb_indices(rng.seed_state(seed), np.array(ids, dtype=np.uint64))
        words = np.array([0, 3, 2**30 - 1], dtype=np.uint64)
        numerators, edge, vertex, position = self.PINS[seed]
        assert rng.uniforms_from_states(states[:, None], words,
                                        numerators=True).tolist() == numerators
        us, vs = np.array([0, 2**30 - 1, 2**30, 5]), np.array([2**62, 2**30, 1, 2**30 - 1])
        assert rng.edge_uniforms(seed, us, vs).view(np.uint64).tolist() == edge
        assert rng.vertex_uniforms(seed, np.array(ids)).view(np.uint64).tolist() == vertex
        assert rng.position_uniforms(seed, 3, 2).view(np.uint64).tolist() == position
        for s, want in self.TRIAL_SEEDS.items():
            assert rng.trial_seeds(s, 4).tolist() == want
        seeds = np.array([0, 2**64 - 1], dtype=np.uint64)[:, None]
        assert rng.vertex_uniforms(seeds, np.array([1, 2**30])).view(np.uint64).tolist() == [
            4606612035275973214, 4594117971149753720, 4594453136895405048,
            4602343144980276258]

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
        assert g.edges == {(i, i + 1) for i in range(9)}
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

    def test_dimension_mismatch_and_budget(self, monkeypatch):
        with pytest.raises(DomainError):
            sample_graph(BoxSpec(d=2, side=4), lrp(d=1), Model.LRP, 1)
        # raised before any hashing, which would fail here with a TypeError
        monkeypatch.setattr(sampler, "absorb_indices", None)
        with pytest.raises(BudgetError):
            sample_graph(BoxSpec(d=1, side=sampler.DEFAULT_SPARSE_BUDGET + 1), lrp(),
                         Model.LRP, 1)

    def test_a_box_beyond_the_word_bound_is_refused_whatever_the_budget(self, monkeypatch):
        # the walks absorb vertex ids as words unfolded, exact below 2^30 only
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", str(2**40))
        # refused before anything is hashed or allocated: the box's arrays are lazy
        monkeypatch.setattr(sampler, "absorb_indices", None)
        for box in (BoxSpec(d=1, side=2**30 + 1), BoxSpec(d=2, side=2**15 + 1)):
            with pytest.raises(BudgetError, match="vertex ids the hash takes"):
                sampler.LazyRealization(box, lrp(d=box.d), Model.LRP, 1)
            with pytest.raises(BudgetError, match="vertex ids the hash takes"):
                sample_graph(box, lrp(d=box.d), Model.LRP, 1)
        # 2^30 vertices pass the check
        assert sampler.LazyRealization(BoxSpec(d=1, side=2**30), lrp(), Model.LRP, 1).n == 2**30

    def test_budget_env_applies_to_library_calls(self, monkeypatch):
        box, params = BoxSpec(d=1, side=16), ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0)
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", "10")
        with pytest.raises(BudgetError):
            sample_graph(box, params, Model.SFP, 1)
        with pytest.raises(BudgetError):
            CffpRealization(box=box, weights=np.ones(16), params=params, seed=1)
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", "16")
        sample_graph(box, params, Model.SFP, 1)
        CffpRealization(box=box, weights=np.ones(16), params=params, seed=1)
        monkeypatch.setenv("PERCOLATE_BUDGET_VERTICES", "1e3")
        with pytest.raises(DomainError, match="PERCOLATE_BUDGET_VERTICES"):
            sample_graph(box, params, Model.SFP, 1)

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
        assert a.costs[(u, v)] != -math.log1p(-edge_uniform(4, u, v))


class TestArrayViews:
    """A graph keeps its edges as `edge_array` and a cost map its pairs and costs
    as arrays; the frozenset `edges` and the dict `costs` are views of them."""

    @staticmethod
    def graph(model=Model.SFP, d=2, side=9, seed=3):
        params = ModelParams(d=d, alpha=1.5, tau=math.inf if model is Model.LRP else 3.0,
                             lam=0.5)
        return sample_graph(BoxSpec(d=d, side=side), params, model, seed)

    @pytest.mark.parametrize("model, d, side", [
        (Model.SFP, 2, 9), (Model.LRP, 1, 30), (Model.GIRG, 3, 4), (Model.LRP, 2, 1),
    ])
    def test_a_graph_from_the_array_equals_one_from_the_set(self, model, d, side):
        g = self.graph(model, d, side)
        fields = dict(model=g.model, positions=g.positions, weights=g.weights, seed=g.seed,
                      params=g.params, box=g.box)
        pairs = [tuple(e) for e in g.edge_array.tolist()]
        from_set = SampledGraph(edges=frozenset(pairs), **fields)
        from_array = SampledGraph(edges=g.edge_array.copy(), **fields)
        positional = SampledGraph(g.model, g.positions, g.weights, g.edge_array, g.seed,
                                  g.params, g.box)
        n = g.n
        adjacent = [[v for v in range(n) if v != u and (min(u, v), max(u, v)) in set(pairs)]
                    for u in range(n)]
        for h in (g, from_set, from_array, positional):
            assert h.edges == frozenset(pairs) and isinstance(h.edges, frozenset)
            assert h.edge_array.dtype == np.int64 and h.edge_array.shape == (len(pairs), 2)
            assert h.edge_array.tolist() == [list(e) for e in pairs]
            assert h.neighbors == adjacent
            assert all(((min(u, v), max(u, v)) in h.edges) == (v in adjacent[u])
                       for u in range(n) for v in range(n) if u != v)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.edges = frozenset()

    def test_replace_takes_a_set_or_an_array(self):
        g = self.graph()
        first = tuple(g.edge_array[0].tolist())
        for h in (g, dataclasses.replace(g, edges=g.edges)):
            heavier = dataclasses.replace(h, weights=2 * h.weights)
            assert heavier.edges == g.edges
            assert np.array_equal(heavier.edge_array, g.edge_array)
            assert np.array_equal(heavier.weights, 2 * g.weights)
            for dropped in (dataclasses.replace(h, edges=h.edges - {first}),
                            dataclasses.replace(h, edges=h.edge_array[1:])):
                assert dropped.edges == g.edges - {first}
                assert np.array_equal(dropped.edge_array, g.edge_array[1:])
                assert first not in dropped.edges and first in h.edges
                assert first[1] not in dropped.neighbors[first[0]]

    def test_a_cost_map_from_arrays_equals_one_from_a_dict(self):
        g = self.graph()
        cm = sample_fpp_costs(g, 3)
        assert cm.pair_array is g.edge_array
        items = list(zip(map(tuple, g.edge_array.tolist()), cm.cost_array.tolist()))
        reordered = dict(items[::-1])  # a dict is read in its own order
        from_dict = CostMap(reordered, RateModel.UNIT_RATE)
        assert len(cm) == len(from_dict) == len(items) > 0
        assert list(cm.costs.items()) == items
        assert list(from_dict.costs.items()) == items  # in pair order, as stored
        assert np.array_equal(from_dict.pair_array, cm.pair_array)
        assert np.array_equal(from_dict.cost_array, cm.cost_array)
        for (u, v), c in items:
            assert cm.costs[(u, v)] == from_dict.costs[(u, v)] == c
        for root in (0, 40):
            assert np.array_equal(cost_distances_from(g, cm, root),
                                  cost_distances_from(g, from_dict, root))

    def test_a_cffp_map_from_arrays_equals_one_from_a_dict(self):
        box, params = BoxSpec(d=2, side=5), ModelParams(d=2, alpha=1.5, tau=3.0, lam=1.0)
        cm = sample_cffp_costs(box, sample_weights(25, 3.0, 8), params, 8)
        assert len(cm) == 25 * 24 // 2
        assert list(cm.costs) == [(u, v) for u in range(25) for v in range(u + 1, 25)]
        from_dict = CostMap(dict(reversed(cm.costs.items())), RateModel.CFFP_RATE)
        g = self.graph(side=5)
        for root in (0, 12):
            assert np.array_equal(cost_distances_from(g, cm, root),
                                  cost_distances_from(g, from_dict, root))

    def test_a_map_that_misses_an_edge_raises_the_same_error(self):
        g = self.graph()
        cm = sample_fpp_costs(g, 3)
        edges, n = g.edge_array, g.n
        for missed in ([0], [len(edges) // 2, len(edges) - 1], [len(edges) - 1],
                       list(range(len(edges)))):
            keep = np.ones(len(edges), dtype=bool)
            keep[missed] = False
            u, v = edges[missed[0]].tolist()
            arrays = edges[keep], cm.cost_array[keep]
            as_dict = dict(zip(map(tuple, arrays[0].tolist()), arrays[1].tolist()))
            for costs in (CostMap(arrays, RateModel.UNIT_RATE),
                          CostMap(as_dict, RateModel.UNIT_RATE)):
                with pytest.raises(DomainError, match=re.escape(
                        f"cost map does not cover edge ({u}, {v})")):
                    cost_distances_from(g, costs, 0)
        # a pair beyond the graph's vertices whose key lo * n + hi is an edge's
        u, v = edges[len(edges) // 2].tolist()
        assert u > 0
        alias = {k: c for k, c in cm.costs.items() if k != (u, v)}
        alias[(u - 1, n + v)] = 0.0
        with pytest.raises(DomainError, match=re.escape(f"cover edge ({u}, {v})")):
            cost_distances_from(g, CostMap(alias, RateModel.UNIT_RATE), 0)

    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from([Model.SFP, Model.LRP, Model.GIRG]), d=st.sampled_from([1, 2]),
           as_set=st.booleans(), data=st.data())
    def test_edges_in_any_order_and_orientation_are_stored_canonically(self, model, d, as_set,
                                                                        data):
        g = self.graph(model, d, 12 if d == 1 else 5, data.draw(st.integers(0, 99)))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        shuffled = gen.permutation(g.edge_array)
        flip = gen.random(len(shuffled)) < 0.5
        shuffled[flip] = shuffled[flip][:, ::-1]
        edges = frozenset(map(tuple, shuffled.tolist())) if as_set else shuffled
        h = dataclasses.replace(g, edges=edges)
        assert h.edge_array.dtype == np.int64
        assert h.edge_array.tobytes() == g.edge_array.tobytes()
        assert h.edges == g.edges
        for root in (0, g.n - 1):
            assert np.array_equal(hop_distances_from(h, root), hop_distances_from(g, root))
        costs = sample_fpp_costs(g, 5)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("g.txt", "h.txt", "h2.txt")]
            save_graph(g, paths[0], costs=costs)
            save_graph(h, paths[1], costs=sample_fpp_costs(h, 5))
            h2, c2 = load_graph(paths[1])
            save_graph(h2, paths[2], costs=c2)
            texts = [open(path, "rb").read() for path in paths]
        assert texts[0] == texts[1] == texts[2]

    def test_a_cost_map_in_any_order_and_orientation_is_stored_canonically(self):
        g = self.graph()
        cm = sample_fpp_costs(g, 3)
        order = np.random.default_rng(1).permutation(len(cm))
        flipped = cm.pair_array.copy()
        flipped[::2] = flipped[::2, ::-1]
        shuffled = cm.pair_array[order], cm.cost_array[order]
        items = list(zip(map(tuple, shuffled[0][:, ::-1].tolist()), shuffled[1].tolist()))
        for other in (CostMap(shuffled, RateModel.UNIT_RATE),
                      CostMap((flipped, cm.cost_array), RateModel.UNIT_RATE),
                      CostMap(dict(items), RateModel.UNIT_RATE)):
            assert other.pair_array.tobytes() == cm.pair_array.tobytes()
            assert other.cost_array.tobytes() == cm.cost_array.tobytes()
            assert other.costs == cm.costs
            for root in (0, 40):
                assert np.array_equal(cost_distances_from(g, other, root),
                                      cost_distances_from(g, cm, root))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2)], "pair (2, 2) is a self pair"),
        ([(0, 1), (1, 9)], "outside [0, 9)"),
        ([(0, 1), (-1, 2)], "outside [0, 9)"),
        ([(3, 4), (0, 1), (3, 4)], "pair (3, 4) given twice"),
        ([(0, 1), (4, 3), (3, 4)], "pair (3, 4) given twice"),
        (np.array([[0, 1], [1, 0]]), "pair (0, 1) given twice"),
        (np.array([[0.0, 1.0]]), "need (m, 2) integer pairs"),
        (np.array([0, 1]), "need (m, 2) integer pairs"),
    ])
    def test_a_graph_refuses_a_bad_pair(self, edges, message):
        g = self.graph(side=3)
        with pytest.raises(DomainError, match=re.escape(message)):
            dataclasses.replace(g, edges=edges)

    def test_a_cost_map_refuses_a_bad_pair(self):
        for costs, message in [
            ((np.array([[0, 1], [1, 0]]), np.ones(2)), "pair (0, 1) given twice"),
            ({(0, 1): 1.0, (1, 0): 2.0}, "pair (0, 1) given twice"),
            ({(0, 1): 1.0, (5, 5): 2.0}, "pair (5, 5) is a self pair"),
            ({(0, 1): 1.0, (-1, 5): 2.0}, "outside [0, inf)"),
            ((np.array([[0, 1], [1, 2]]), np.ones(3)), "need (m, 2) integer pairs, m values"),
        ]:
            with pytest.raises(DomainError, match=re.escape(message)):
                CostMap(costs, RateModel.UNIT_RATE)

    def test_positions_weights_and_box_must_count_the_same_vertices(self):
        g = dataclasses.replace(self.graph(side=5), edges=[(0, 1)])
        for changes in (dict(weights=g.weights[:3]), dict(positions=g.positions[:5]),
                        dict(box=BoxSpec(d=2, side=4)), dict(box=None, weights=g.weights[:3])):
            with pytest.raises(DomainError, match="sizes differ"):
                dataclasses.replace(g, **changes)
        with pytest.raises(DomainError, match="sizes differ"):  # a side-5 box and 3 weights
            dataclasses.replace(g, positions=g.positions[:3], weights=g.weights[:3])


@st.composite
def cffp_rows(draw):
    """A CFFP realization in d = 1..3, side 1 up, at a nonzero origin, and an
    int array of its vertex ids that may repeat, hold 0 and n - 1, or be empty."""
    d = draw(st.sampled_from([1, 2, 3]))
    box = BoxSpec(d=d, side=draw(st.integers(1, {1: 50, 2: 8, 3: 4}[d])),
                  origin=tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)
                                    .filter(any))))
    n, tau, seed = box.n_vertices, draw(st.floats(2.05, 8.0)), draw(st.integers(0, 2**64 - 1))
    real = CffpRealization(box=box, weights=sample_weights(n, tau, seed), seed=seed,
                           params=ModelParams(d=d, alpha=draw(st.floats(1.0, 3.0)), tau=tau,
                                              lam=1.0))
    ids = draw(st.lists(st.sampled_from([0, n - 1]) | st.integers(0, n - 1), max_size=6))
    return real, np.array(ids, dtype=np.int64)


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

    @pytest.mark.parametrize("d, side", [(1, 40), (2, 7), (3, 4)])
    def test_batched_rows_equal_stacked_rows_and_hash_each_pair_once(self, d, side):
        params = ModelParams(d=d, alpha=1.5, tau=4.0, lam=1.0)
        box = BoxSpec(d=d, side=side)
        real = CffpRealization(box=box, weights=sample_weights(box.n_vertices, 4.0, 5),
                               params=params, seed=5)
        us = np.array([3, 0, box.n_vertices - 1, 3, 11])
        hashed = []

        def counting(states, words):
            out = rng.uniforms_from_states(states, words)
            hashed.append(len(out))
            return out

        with mock.patch.object(sampler, "uniforms_from_states", counting):
            rows = real.cost_row(us)
            assert hashed == [len(us) * (box.n_vertices - 1)]
            one = real.cost_row(np.int64(7))
        assert hashed[1:] == [box.n_vertices - 1]
        assert one.shape == (box.n_vertices,)
        assert rows.shape == (len(us), box.n_vertices)
        stacked = np.stack([real.cost_row(int(u)) for u in us])
        assert rows.tobytes() == stacked.tobytes()
        assert np.all(rows[np.arange(len(us)), us] == np.inf)

    @settings(max_examples=120, deadline=None)
    @given(case=cffp_rows())
    def test_rows_are_the_stacked_rows_and_the_scalar_costs(self, case):
        real, us = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0 / 0 on the diagonal
            rows = real.cost_row(us)
            stacked = [real.cost_row(u) for u in us]
        assert rows.shape == (len(us), real.n)
        assert rows.tobytes() == b"".join(row.tobytes() for row in stacked)
        for row, u in zip(rows.tolist(), us.tolist()):
            assert row[u] == math.inf
            assert row[:u] + row[u + 1:] == [real.cost(u, v) for v in range(real.n) if v != u]

    @settings(max_examples=150, deadline=None)
    @given(case=cffp_rows(), data=st.data())
    def test_capped_rows_are_the_dense_entries_within_the_cap(self, case, data):
        real, us = case
        dense = real.cost_row(us)
        costs = np.sort(dense[np.isfinite(dense)])
        caps = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, np.finfo(float).max]) | st.floats(0, 50)
        if costs.size:  # a cost itself, and the float just below it
            caps |= st.sampled_from(costs.tolist()).flatmap(
                lambda c: st.sampled_from([c, np.nextafter(c, 0)]))
        cap = data.draw(caps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in cap * rate, no 0 * inf at u
            indptr, vertices, capped = real.cost_row(us, cap=cap)
            one = [real.cost_row(u, cap=cap) for u in us.tolist()]
        assert vertices.dtype == np.int64 and capped.dtype == np.float64
        assert indptr.tolist() == [0] + np.cumsum((dense <= cap).sum(axis=1)).tolist()
        for b, row in enumerate(dense):
            want = np.flatnonzero(row <= cap)
            got = slice(indptr[b], indptr[b + 1])
            assert vertices[got].tobytes() == want.astype(np.int64).tobytes()
            assert capped[got].tobytes() == row[want].tobytes()
            assert [part.tobytes() for part in one[b]] == [
                np.array([0, len(want)]).tobytes(), vertices[got].tobytes(),
                capped[got].tobytes()]

    def test_a_cost_at_the_cap_is_kept_where_its_uniform_is_small(self):
        # -log1p(-x) exceeds x by about x^2 / 2, so a small uniform whose cost is the cap
        # sits just under the screen's bound cap * rate
        real = CffpRealization(box=BoxSpec(d=1, side=2001), params=self.params, seed=4,
                               weights=sample_weights(2001, 4.0, 4))
        u, row = 1000, real.cost_row(1000)
        vs = np.delete(np.arange(real.n), u)
        exp1 = row[vs] * np.array([real.rate(u, v) for v in vs.tolist()])  # -log1p(-uniform)
        for v in vs[np.argsort(exp1)[:20]].tolist():
            _, vertices, costs = real.cost_row(u, cap=row[v])
            assert costs[vertices == v].tobytes() == row[v].tobytes()

    def test_the_cap_must_be_a_nonnegative_finite_number(self):
        real = CffpRealization(box=BoxSpec(d=1, side=5), weights=np.ones(5),
                               params=self.params, seed=1)
        for bad in (-1.0, -5e-324, math.nan, math.inf):
            with pytest.raises(DomainError, match="cap"):
                real.cost_row(2, cap=bad)

    def test_the_rate_window_is_built_once_and_read_only(self):
        # once per (box, params), not per realization: every trial is a realization
        box = BoxSpec(d=2, side=5, origin=(1, 2))
        params = ModelParams(d=2, alpha=1.5, tau=3.0, lam=1.0)
        sampler._rate_window.cache_clear()
        view, made = sampler.sliding_window_view, []

        def building(*args, **kwargs):
            made.append(view(*args, **kwargs))
            return made[-1]

        with mock.patch.object(sampler, "sliding_window_view", building):
            a, b = (CffpRealization(box=box, weights=sample_weights(25, 3.0, s), params=params,
                                    seed=s) for s in (1, 2))
            assert a.cost_row(3).tobytes() != b.cost_row(np.array([3, 4]))[0].tobytes()
            a.cost_row(np.arange(25))
        window = sampler._rate_window(box, params)
        assert len(made) == 1 and window is made[0]
        with pytest.raises(ValueError, match="read-only"):
            window[0, 0, 0, 0] = 1.0

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

    def test_materialized_matches_lazy_and_budget(self, monkeypatch):
        box = BoxSpec(d=1, side=10)
        w = sample_weights(10, 4.0, 3)
        cm = sample_cffp_costs(box, w, self.params, 3)
        real = CffpRealization(box=box, weights=w, params=self.params, seed=3)
        assert cm.rate_model is RateModel.CFFP_RATE
        assert len(cm) == 45
        for (u, v), c in cm.costs.items():
            assert c == real.cost(u, v)
        # raised before any hashing, which would fail here with a TypeError
        monkeypatch.setattr(sampler, "absorb_indices", None)
        n = sampler.DEFAULT_COMPLETE_BUDGET + 1
        with pytest.raises(BudgetError):
            sample_cffp_costs(BoxSpec(d=1, side=n), np.ones(n), self.params, 3)

    def test_vertex_ids_are_checked(self):
        real = CffpRealization(box=BoxSpec(d=1, side=5), weights=np.ones(5),
                               params=self.params, seed=1)
        # -1 read vertex 4's state against every vertex, 7 was an IndexError,
        # and 2.7 read vertex 2's row
        for u in (-1, 5, 7, 2.7, np.array([0, 5]), np.array([-1, 2]), np.array([1.0])):
            with pytest.raises(DomainError, match=r"\[0, 5\)"):
                real.cost_row(u)
        for u, v in ((-1, 2), (2, 5), (1.5, 3), (3, 3)):  # rate(3, 3) divided by zero
            with pytest.raises(DomainError):
                real.rate(u, v)
            with pytest.raises(DomainError):
                real.cost(u, v)

    def test_the_diagonal_is_inf_without_warnings(self):
        box = BoxSpec(d=2, side=6, origin=(1, -1))
        real = CffpRealization(box=box, weights=sample_weights(36, 3.0, 2),
                               params=ModelParams(d=2, alpha=1.5, tau=3.0, lam=1.0), seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the diagonal's rate is 0: no 0 / 0
            rows = real.cost_row(np.arange(36))
        assert np.all(np.diag(rows) == np.inf)
        assert np.all(np.isfinite(rows[~np.eye(36, dtype=bool)]))

    def test_lambda_must_be_one(self):
        with pytest.raises(DomainError):
            CffpRealization(
                box=BoxSpec(d=1, side=4),
                weights=np.ones(4),
                params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=0.5),
                seed=1,
            )

    def test_box_must_have_the_params_dimension(self):
        with pytest.raises(DomainError, match="dimension"):
            CffpRealization(box=BoxSpec(d=2, side=10), weights=np.ones(100),
                            params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0), seed=1)


class TestSerialization:
    @pytest.mark.parametrize("d", [True, np.int64(1)], ids=["bool", "int64"])
    def test_any_integer_dimension_reloads(self, tmp_path, d):
        params = ModelParams(d=d, alpha=1.5, tau=4.0, lam=0.37)
        g = sample_graph(BoxSpec(d=d, side=12), params, Model.SFP, 5)
        save_graph(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt").read_text().startswith("sfp 1 12 ")
        g2, _ = load_graph(tmp_path / "g.txt")
        assert g2.params == params and g2.edges == g.edges

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

    # A saved 1-d LRP graph on L = 8 has its header on line 1, the weights of
    # vertices 0..7 on lines 2..9 and its edges from line 10; "+" appends a line.
    @pytest.mark.parametrize("change, where", [
        ("+e -1 2", "last"), ("+e 0 999", "last"), ("+e 3 3", "last"), ("+c 2 2 0.5", "last"),
        ("+w 2", "last"), ("+w 2 1.0", "last"), ("+e 1 x", "last"), ("+e 1 2 3", "last"),
        ("+x 1 2", "last"), ("+w 2.0 1.0", "last"),
        ("header 1.5", 1), ("header short", 1), ("header model", 1), ("header alpha", 1),
        ("drop w 3", None), ("empty", None),
    ])
    def test_malformed_file_is_rejected(self, tmp_path, change, where):
        g = sample_graph(BoxSpec(d=1, side=8), ModelParams(d=1, alpha=1.5, tau=math.inf,
                                                           lam=0.3), Model.LRP, 7)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        lines = path.read_text().splitlines()
        header = lines[0].split()
        if change.startswith("+"):
            lines.append(change[1:])
        elif change == "header 1.5":
            lines[0] = " ".join(header[:1] + ["1.5"] + header[2:])
        elif change == "header short":
            lines[0] = " ".join(header[:-1])
        elif change == "header model":
            lines[0] = " ".join(["tree"] + header[1:])
        elif change == "header alpha":
            lines[0] = " ".join(header[:3] + ["0.5"] + header[4:])
        elif change == "drop w 3":
            lines.remove(next(ln for ln in lines if ln.startswith("w 3 ")))
        else:
            lines = []
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError) as err:
            load_graph(path)
        if where is not None:
            assert f"line {len(lines) if where == 'last' else where}:" in str(err.value)

    # Faults that no one line shows: the last weight record is missing, or an id
    # that Python's int() reads (0_1 is 1) but numpy's parser does not.
    @pytest.mark.parametrize("change, message", [
        ("w 7 ", "no weight record for vertex 7"),
        ("w 1 ", "a number that numpy does not parse"),
    ])
    def test_fault_without_a_line_is_named(self, tmp_path, change, message):
        g = sample_graph(BoxSpec(d=1, side=8), ModelParams(d=1, alpha=1.5, tau=math.inf,
                                                           lam=0.3), Model.LRP, 7)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(change))
        lines[at] = "" if change == "w 7 " else lines[at].replace("w 1 ", "w 0_1 ")
        path.write_text("".join(lines))
        with pytest.raises(DomainError) as err:
            load_graph(path)
        assert str(err.value) == f"{path}: {message}"

    # The header's seventh field is the seed; GIRG positions are drawn from it.
    @pytest.mark.parametrize("model", [Model.LRP, Model.GIRG])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_stored_seed_outside_its_range_is_rejected(self, tmp_path, model, seed):
        params = ModelParams(d=1, alpha=1.5, tau=math.inf if model is Model.LRP else 3.5,
                             lam=0.3)
        path = tmp_path / "g.txt"
        save_graph(sample_graph(BoxSpec(d=1, side=8), params, model, 7), path)
        header, body = path.read_text().split("\n", 1)
        fields = header.split()
        fields[6] = str(seed)
        path.write_text(" ".join(fields) + "\n" + body)
        with pytest.raises(DomainError) as err:
            load_graph(path)
        assert str(err.value) == (f"{path}, line 1: malformed graph header (seed must be an "
                                  f"integer in [0, {2**64}), got {seed})")

    # A saved 1-d LRP graph on L = 8 with FPP costs; `bad` is the 0-based
    # index of the line that breaks the layout after the change.
    @pytest.mark.parametrize("change", ["swap e", "repeat e", "w after e", "c before e"])
    def test_record_out_of_layout_is_rejected(self, tmp_path, change):
        g = sample_graph(BoxSpec(d=1, side=8), ModelParams(d=1, alpha=1.5, tau=math.inf,
                                                           lam=0.3), Model.LRP, 7)
        path = tmp_path / "g.txt"
        save_graph(g, path, costs=sample_fpp_costs(g, 7))
        lines = path.read_text().splitlines()
        first_e = next(i for i, ln in enumerate(lines) if ln.startswith("e "))
        first_c = next(i for i, ln in enumerate(lines) if ln.startswith("c "))
        if change == "swap e":
            lines[first_e:first_e + 2] = lines[first_e + 1], lines[first_e]
            bad = first_e + 1
        elif change == "repeat e":
            lines.insert(first_e + 1, lines[first_e])
            bad = first_e + 1
        elif change == "w after e":
            lines.insert(first_c, "w 3 1.0")
            bad = first_c
        else:
            lines.insert(first_e, lines[first_c])
            bad = first_e
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=f"line {bad + 1}: "):
            load_graph(path)

    def test_reload_keeps_arrays(self, tmp_path):
        params = ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
        g = sample_graph(BoxSpec(d=2, side=8), params, Model.GIRG, 4)
        costs = sample_fpp_costs(g, 4)
        path, path2 = tmp_path / "g.txt", tmp_path / "g2.txt"
        save_graph(g, path, costs=costs)
        g2, c2 = load_graph(path)
        save_graph(g2, path2, costs=c2)
        assert path2.read_bytes() == path.read_bytes()
        assert "edges" not in g2.__dict__ and "costs" not in c2.__dict__
        m = len(g.edge_array)
        for saved, loaded, shape in [(g.edge_array, g2.edge_array, (m, 2)),
                                     (costs.pair_array, c2.pair_array, (m, 2)),
                                     (costs.cost_array, c2.cost_array, (m,)),
                                     (g.weights, g2.weights, (g.n,))]:
            assert loaded.dtype == saved.dtype and loaded.shape == saved.shape == shape
            assert loaded.tobytes() == saved.tobytes()

    def test_a_boxless_graph_saves_only_when_n_is_a_power_of_d(self, tmp_path):
        box = BoxSpec(d=2, side=3)
        g = SampledGraph(Model.LRP, box.lattice_positions(), np.ones(9), [(0, 1), (1, 4)], 2,
                         lrp(d=2))
        save_graph(g, tmp_path / "g.txt")
        g2, _ = load_graph(tmp_path / "g.txt")
        assert g2.box == box and g2.edges == g.edges
        ten = dataclasses.replace(g, positions=np.zeros((10, 2)), weights=np.ones(10))
        with pytest.raises(DomainError, match="n = 10, d = 2"):
            save_graph(ten, tmp_path / "ten.txt")
        assert not (tmp_path / "ten.txt").exists()

    @pytest.mark.parametrize("case", ["side 1", "no costs", "cffp", "fpp"])
    def test_edge_case_round_trips(self, tmp_path, case):
        box = BoxSpec(d=1, side=1 if case == "side 1" else 30)
        params = ModelParams(d=1, alpha=1.5, tau=3.5, lam=1.0)
        path, path2 = tmp_path / "g.txt", tmp_path / "g2.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = sample_graph(box, params, Model.SFP, 8)
            costs = (None if case == "no costs"
                     else sample_cffp_costs(box, g.weights, params, 8) if case == "cffp"
                     else sample_fpp_costs(g, 8))
            save_graph(g, path, costs=costs)
            g2, c2 = load_graph(path)
            save_graph(g2, path2, costs=c2)
        assert path2.read_bytes() == path.read_bytes()
        assert g2.edge_array.dtype == np.int64 and g2.edge_array.shape == g.edge_array.shape
        assert np.array_equal(g2.edge_array, g.edge_array)
        assert g2.weights.tobytes() == g.weights.tobytes()
        if case == "side 1":
            assert g.edge_array.shape == (0, 2) and len(costs) == 0 and c2 is None
        elif case == "no costs":
            assert c2 is None
        else:
            assert c2.rate_model is costs.rate_model is (
                RateModel.CFFP_RATE if case == "cffp" else RateModel.UNIT_RATE)
            assert np.array_equal(c2.pair_array, costs.pair_array)
            assert c2.cost_array.tobytes() == costs.cost_array.tobytes()


MIN, EXP = KernelVariant.MIN, KernelVariant.EXP

# (model, d, side, origin, alpha, tau, lambda, kernel, seed, edges, SHA-256 of
# the sorted (m, 2) little-endian int64 edge array, SHA-256 of the FPP costs
# of sample_fpp_costs(g, seed) as little-endian float64 in that edge order).
SEED_FINGERPRINTS = [
    ('lrp', 1, 300, (0,), 1.5, math.inf, 0.5, MIN, 11, 494,
     "f67162af9e910b3c71bcdd05b14b36ac3639441183d3a54107951b7e6fc2bb94",
     "1f5cef1b515ab87a89e2fb2a1ff10324b956461220e8a8aeb5c6b525882a2c91"),
    ('lrp', 1, 257, (7,), 1.2, math.inf, 0.8, EXP, 12, 775,
     "6af54dc253aa338ae41cf4279b70bdcc3b534d69b320249410aea07d3406f1a1",
     "d487494b39867d74c61584e54dcf92276e8cffc46d0fd6748b6c2b6ec2c20d3c"),
    ('sfp', 1, 200, (0,), 1.5, 3.5, 0.6, MIN, 13, 955,
     "f33ada0ab83e99f34762b4e9b32bba01e5c5ecba155f8ea5fccbaa7708610c4b",
     "24e4dbcd1417a0d6ca86ab505d84667148f4b1137ded86925079d7f42cbf79f6"),
    ('sfp', 1, 180, (-4,), 2.0, 2.8, 1.0, EXP, 14, 1135,
     "c2a0df2d11555462db80da51499464daea681399da3ed50d53979472ee0800fe",
     "8745b5d18acc7e8102eb26c685e9407f848b3ca44d252b3a1e8ff8593afdc3d9"),
    ('lrp', 2, 20, (0, 0), 1.3, math.inf, 0.8, MIN, 15, 1595,
     "c7ccb95d4eb4d032bb52fcd7201bcbe0606012f49fa167755c01b9fb81340701",
     "066c2e68fa8c9eb2cfc9ee0a5f98aa9cd249b2596953477663067390c3dd2079"),
    ('lrp', 2, 18, (3, -2), 1.6, math.inf, 1.5, EXP, 16, 1279,
     "6768f38382a0a09bb3a0ca45ad5d325e60a6a594e6cce1aa929ad3336cf13121",
     "3c8a4642ad84c1ebe375606db12da591e7c3cd15f53e1798cdf4dd20cf6339ef"),
    ('sfp', 2, 24, (-3, 5), 2.0, 3.5, 1.0, MIN, 17, 3728,
     "5d9a855405c845b0ddc6e28e5c04b29edb1a3ddcfb1c0710d11e52e2fd898fa8",
     "4f63d282e098fb67089a11cbb767028b9f6c712f48f4ee5ed8ea4f74d2e8ae0c"),
    ('sfp', 2, 20, (0, 0), 1.5, 2.6, 0.7, EXP, 18, 4768,
     "dce75143c18d27504f88a1ae3023f1b6f9fd1712131005c8941b664778e5852c",
     "a19ec80df4f6832f9035fd6f979e1fab5f4260ccfd7cc78f90199a9dfb67cb22"),
    ('lrp', 3, 8, (0, 0, 0), 1.4, math.inf, 1.0, MIN, 19, 2530,
     "47a2a9df9fbc4b42db945040be456bc3bb953ebf537cf22e29656a8e5883c038",
     "547151aa24b0016e3f07bd6f17b3f86b2ffd1ff1a89b06bc9a21e4c87bf7d833"),
    ('sfp', 3, 8, (1, 2, 3), 1.8, 3.2, 0.9, EXP, 20, 4130,
     "7fe772b748ded6c076ac59961fa123728aab540b95510966299a1c15626e0539",
     "c638a92eefee4c8f7428f11f2487c135cbab8ad22147def75be26cddcb10a089"),
    ('girg', 1, 300, (0,), 1.5, 3.5, 1.0, MIN, 21, 2187,
     "68a058ecbb49eb6d9950817fab702b3d7ec7bf688c6b2c3a5a81fed5fe6e59dc",
     "f330e80577eec16b91b6982b1ae90ff3d417eef0ed05b161bfc74d6a43b91339"),
    ('girg', 2, 20, (5, -5), 2.0, 3.5, 1.0, EXP, 22, 2891,
     "116c629fa54c4b90df3945fa020cdc3fe6b321825560934e5050b002bd4ce6f6",
     "2788516159aee29121f768f409e9dcc6d10e70b0faca04c046c6eaa9c6f0a794"),
    ('girg', 3, 7, (0, 0, 0), 1.7, 2.9, 0.8, MIN, 23, 3357,
     "37eeaa94df28f445d268cb410061d5a7f8045698cb301ade86ad8f1c0352a74a",
     "6fc44840650bb5f798ffadf29e45616fb952ab83fb1911ef8ed0108921da36a8"),
]

# (d, side, origin, alpha, tau, seed, SHA-256 of CffpRealization.cost_row(u) for
# u = 0, 7, 14, ... concatenated as little-endian float64); lambda is 1 and the
# weights are sample_weights(n, tau, seed).
CFFP_ROW_FINGERPRINTS = [
    (1, 200, (-7,), 1.5, 3.5, 41,
     "9b2bf6cca0993be455ceaa986fb2027cea349bc79c302f3efee7a0dc6d09ccf5"),
    (2, 15, (3, -4), 1.3, 2.8, 42,
     "c1492c2f5aa3a0543e55f46489351b6b80bc3fe86c422e8bb5eda09a12527f31"),
    (3, 6, (1, -2, 5), 1.7, 4.0, 43,
     "7bb6265fd9c59386931f28c1658e1c021feac458f772fcef1227ac34986426fa"),
]


class TestSeedPromise:
    """A seed names one realization: edges, FPP and CFFP costs and blow-up bins
    are pinned bit for bit."""

    @pytest.mark.parametrize("case", SEED_FINGERPRINTS, ids=lambda c: f"{c[0]}-{c[1]}d-{c[8]}")
    def test_edges_and_costs_are_pinned(self, case):
        model, d, side, origin, alpha, tau, lam, kernel, seed, m, edges_sha, costs_sha = case
        params = ModelParams(d=d, alpha=alpha, tau=tau, lam=lam, kernel_variant=kernel)
        g = sample_graph(BoxSpec(d=d, side=side, origin=origin), params, Model(model), seed)
        pairs = g.edge_array
        assert pairs.tolist() == [list(e) for e in sorted(g.edges)]
        assert pairs.shape == (m, 2)
        assert hashlib.sha256(pairs.astype("<i8").tobytes()).hexdigest() == edges_sha
        cm = sample_fpp_costs(g, seed)
        costs = np.array([cm.costs[e] for e in sorted(g.edges)], dtype="<f8")
        assert hashlib.sha256(costs.tobytes()).hexdigest() == costs_sha

    @pytest.mark.parametrize("d, side, origin, alpha, tau, seed, rows_sha", CFFP_ROW_FINGERPRINTS,
                             ids=["1d", "2d", "3d"])
    def test_cffp_cost_rows_are_pinned(self, d, side, origin, alpha, tau, seed, rows_sha):
        box = BoxSpec(d=d, side=side, origin=origin)
        real = CffpRealization(box=box, weights=sample_weights(box.n_vertices, tau, seed),
                               params=ModelParams(d=d, alpha=alpha, tau=tau, lam=1.0),
                               seed=seed)
        rows = np.concatenate([real.cost_row(u) for u in range(0, real.n, 7)])
        assert hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest() == rows_sha

    def test_cffp_cost_map_is_pinned(self):
        box = BoxSpec(d=2, side=6, origin=(2, 3))
        params = ModelParams(d=2, alpha=1.5, tau=3.0, lam=1.0)
        cm = sample_cffp_costs(box, sample_weights(36, 3.0, 44), params, 44)
        assert list(cm.costs) == [(u, v) for u in range(36) for v in range(u + 1, 36)]
        costs = np.array(list(cm.costs.values()), dtype="<f8")
        assert hashlib.sha256(costs.tobytes()).hexdigest() == (
            "67c3691ea48d075851a33216011cd1558ab307f23e9f90a9a2101ce344f0d16a")

    @pytest.mark.parametrize("d, side, origin, r, seed, details_sha", [
        (1, 40, (3,), 3, 45, "012592c78276e1bde77d8a2a58cb0fa7e62baf8ec1c85edb0b931b79a67132b7"),
        (2, 8, (1, -2), 2, 46, "88eb7eb5ac4f10c70ea4f9c1f01d38e5a6bb75ece50c1839910b90d1c7e0afed"),
    ], ids=["1d", "2d"])
    def test_blowup_bins_are_pinned(self, d, side, origin, r, seed, details_sha):
        spec = BlowupSpec(r=r, params_small=ModelParams(d=d, alpha=1.5, tau=math.inf, lam=0.05))
        rep = blowup_lrp(BoxSpec(d=d, side=side, origin=origin), spec, 0.1, seed)[2]
        text = json.dumps(rep.details, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == details_sha

    def test_squared_distances_keep_their_summation_order(self):
        # GIRG coordinates are not integers, so the order in which the squared
        # coordinate differences are added decides the last bit of a distance:
        # (even axes) + (odd axes), here (x0^2 + x2^2) + x1^2.
        pos = 5.0 * rng.position_uniforms(31, 400, 3)
        lo, hi = np.arange(0, 399), np.arange(1, 400)
        got = sampler._squared_distances(sampler._coordinate_columns(pos), lo, hi)
        sq = [[(float(a) - float(b)) * (float(a) - float(b)) for a, b in zip(pos[i], pos[j])]
              for i, j in zip(lo.tolist(), hi.tolist())]
        assert got.tolist() == [(s0 + s2) + s1 for s0, s1, s2 in sq]
        assert any((s0 + s1) + s2 != (s0 + s2) + s1 for s0, s1, s2 in sq)


@st.composite
def scanned_realizations(draw, girg_dims=(2, 3)):
    """A small LRP or SFP lattice realization of dimension 1, 2 or 3, or a
    GIRG of a dimension in `girg_dims`."""
    model = draw(st.sampled_from([Model.LRP, Model.SFP, Model.GIRG]))
    d = draw(st.sampled_from(list(girg_dims) if model is Model.GIRG else [1, 2, 3]))
    side = draw(st.integers(1, {1: 60, 2: 12, 3: 6}[d]))
    box = BoxSpec(d=d, side=side,
                  origin=tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))))
    params = ModelParams(
        d=d,
        alpha=draw(st.floats(1.0, 3.0)),
        tau=math.inf if model is Model.LRP else draw(st.floats(1.5, 5.0)),
        lam=draw(st.floats(0.0, 2.0)),
        kernel_variant=draw(st.sampled_from(list(KernelVariant))),
    )
    return box, params, model, draw(st.integers(0, 2**64 - 1))


class TestSlabScan:
    """`sample_graph` scans every box of d >= 2, lattice or GIRG, slab by
    slab; the block scan over `_pair_blocks`, which 1-d boxes use, is the
    reference it must equal."""

    # 4 M pairs: every box here is one block; the shipped block size; many small blocks
    @pytest.mark.parametrize("block_pairs", [4_000_000, sampler._BLOCK_PAIRS, 7, 100])
    @settings(max_examples=60, deadline=None)
    @given(case=scanned_realizations())
    def test_slab_scan_equals_the_block_scan(self, block_pairs, case):
        box, params, model, seed = case
        real = sampler.LazyRealization(box, params, model, seed)
        n = real.n
        lo, hi = sampler._scan(real, sampler._pair_blocks(n))
        want = np.unique(lo * n + hi)
        with mock.patch.object(sampler, "_BLOCK_PAIRS", block_pairs):
            g = sample_graph(box, params, model, seed)
        assert g.edge_array.tolist() == [[k // n, k % n] for k in want.tolist()]

    @pytest.mark.parametrize("block_pairs", [4_000_000, 50])
    @pytest.mark.parametrize("model, d, side", [
        (Model.LRP, 1, 40), (Model.SFP, 1, 33), (Model.LRP, 2, 9), (Model.SFP, 2, 11),
        (Model.LRP, 3, 5), (Model.SFP, 3, 4), (Model.GIRG, 1, 35), (Model.GIRG, 2, 10),
        (Model.GIRG, 3, 4),
    ])
    def test_every_pair_is_hashed_once(self, block_pairs, model, d, side):
        box = BoxSpec(d=d, side=side)
        params = ModelParams(d=d, alpha=1.5, tau=math.inf if model is Model.LRP else 3.0,
                             lam=0.5)
        hashed = []

        def counting(states, words, **kwargs):
            out = rng.uniforms_from_states(states, words, **kwargs)
            hashed.append(len(out))
            return out

        with mock.patch.object(sampler, "uniforms_from_states", counting), \
                mock.patch.object(sampler, "_BLOCK_PAIRS", block_pairs):
            sample_graph(box, params, model, 7)
        n = box.n_vertices
        assert sum(hashed) == n * (n - 1) // 2
        if block_pairs < n:
            assert max(hashed) <= max(block_pairs, side ** (d - 1))

    @staticmethod
    def cpus(count):
        """The process's CPU set patched to `count` CPUs."""
        return mock.patch.object(sampler.os, "sched_getaffinity",
                                 lambda pid: set(range(count)), create=True)

    @staticmethod
    def small_blocks():
        """Many small blocks, each sent to the pool however small the box."""
        return mock.patch.multiple(sampler, _BLOCK_PAIRS=50, _POOL_MIN_PAIRS=0)

    @pytest.mark.parametrize("model, d, side", [
        (Model.GIRG, 2, 10), (Model.GIRG, 3, 5), (Model.LRP, 2, 9), (Model.SFP, 2, 11),
        (Model.LRP, 3, 5), (Model.SFP, 3, 4),
    ])
    def test_the_edges_do_not_depend_on_the_cpus(self, model, d, side):
        box = BoxSpec(d=d, side=side)
        params = ModelParams(d=d, alpha=1.5, tau=math.inf if model is Model.LRP else 3.0,
                             lam=0.5)
        edges, threads = {}, {1: set(), 2: set(), 8: set()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches, more orders of completion
        try:
            for count in threads:  # 8: more workers than this machine may have CPUs
                def recording(states, words, count=count, **kwargs):
                    threads[count].add(threading.current_thread())
                    return rng.uniforms_from_states(states, words, **kwargs)

                with self.cpus(count), self.small_blocks(), \
                        mock.patch.object(sampler, "uniforms_from_states", recording):
                    edges[count] = sample_graph(box, params, model, 5).edge_array.tolist()
        finally:
            sys.setswitchinterval(interval)
        assert edges[1] == edges[2] == edges[8]
        assert edges[1] == sample_graph(box, params, model, 5).edge_array.tolist()
        # one CPU: every block is decided in the caller's thread, and no other starts
        assert threads[1] == {threading.current_thread()}
        assert threading.current_thread() not in threads[2] | threads[8]

    def test_an_error_in_a_block_reaches_the_caller(self):
        box, params = BoxSpec(d=2, side=9), ModelParams(d=2, alpha=1.5, tau=3.0, lam=0.5)
        raised, calls = [], itertools.count()

        def failing(states, words, **kwargs):
            if next(calls) == 4:  # the fifth block's hash, whichever thread asks
                raised.append(DomainError("a failure in the fifth block"))
                raise raised[0]
            return rng.uniforms_from_states(states, words, **kwargs)

        with self.cpus(2), self.small_blocks():
            with mock.patch.object(sampler, "uniforms_from_states", failing), \
                    pytest.raises(DomainError) as caught:
                sample_graph(box, params, Model.SFP, 3)
            assert caught.value is raised[0]
            # the pool decides the next scan as before
            edges = sample_graph(box, params, Model.SFP, 3).edge_array.tolist()
        assert edges == sample_graph(box, params, Model.SFP, 3).edge_array.tolist()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("d, sides", [(2, [3, 8, 15, 10, 4, 14]), (3, [2, 4, 5, 3, 4])])
    def test_back_to_back_scans_in_reused_buffers(self, cpus, d, sides):
        # blocks of 12 pairs, or a slab's m columns when more, so the buffers'
        # size follows the box
        scans = [(BoxSpec(d=d, side=side), model, seed)
                 for seed, (side, model) in enumerate(itertools.product(sides, Model))]
        returned = []
        with self.cpus(cpus), mock.patch.multiple(sampler, _BLOCK_PAIRS=12, _POOL_MIN_PAIRS=0):
            for i, (box, model, seed) in enumerate(scans):
                params = ModelParams(d=d, alpha=1.5 + 0.1 * i, lam=0.3,
                                     tau=math.inf if model is Model.LRP else 2.5)
                if i == len(scans) // 2:  # a scan whose third block raises, then the rest
                    calls = itertools.count()

                    def failing(states, words, **kwargs):
                        if next(calls) == 2:
                            raise DomainError("a failure in the third block")
                        return rng.uniforms_from_states(states, words, **kwargs)

                    with mock.patch.object(sampler, "uniforms_from_states", failing), \
                            pytest.raises(DomainError, match="third block"):
                        sample_graph(box, params, model, seed)
                real = sampler.LazyRealization(box, params, model, seed)
                lo, hi = sampler._scan(real, sampler._pair_blocks(real.n))
                want = np.unique(lo * real.n + hi)
                edges = sample_graph(box, params, model, seed).edge_array
                assert edges.tolist() == [[k // real.n, k % real.n] for k in want.tolist()]
                returned.append((edges, edges.copy()))
        # no scan wrote into the edges an earlier one returned
        assert all(np.array_equal(edges, kept) for edges, kept in returned)

    def test_each_worker_holds_one_block(self):
        box, params = BoxSpec(d=2, side=12), ModelParams(d=2, alpha=1.5, tau=3.0, lam=0.5)
        slab_blocks, slab_block = sampler._slab_blocks, sampler._slab_block
        read, done, held = [], [], []  # blocks read, blocks decided, samples of the difference

        def counted_blocks(box):
            for block in slab_blocks(box):
                read.append(block)
                yield block

        def watched_block(*args):
            held.append(len(read) - len(done))
            out = slab_block(*args)
            held.append(len(read) - len(done))
            done.append(args[2])
            return out

        with self.cpus(2), self.small_blocks(), \
                mock.patch.multiple(sampler, _slab_blocks=counted_blocks,
                                    _slab_block=watched_block):
            edges = sample_graph(box, params, Model.SFP, 4).edge_array.tolist()
        assert len(read) == len(done) > 200
        # while a block is decided, each of the two workers holds one block at most
        assert max(held) <= 2
        assert edges == sample_graph(box, params, Model.SFP, 4).edge_array.tolist()

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_an_error_stops_every_worker(self, cpus):
        box, params = BoxSpec(d=2, side=12), ModelParams(d=2, alpha=1.5, tau=3.0, lam=0.5)
        slab_block = sampler._slab_block
        calls, raised, after = itertools.count(), threading.Event(), []

        def failing_block(*args):
            if next(calls) == 10:
                raised.set()
                raise DomainError("a failure in the eleventh block")
            out = slab_block(*args)
            if raised.is_set():
                after.append(args[2])  # decided after the failure
            return out

        with self.cpus(cpus), self.small_blocks():
            with mock.patch.object(sampler, "_slab_block", failing_block), \
                    pytest.raises(DomainError, match="eleventh block"):
                sample_graph(box, params, Model.SFP, 4)
            blocks = sum(1 for _ in sampler._slab_blocks(box))
        # hundreds of blocks were left, and each worker decided one more at most
        assert blocks > 200
        assert len(after) <= cpus

    def test_without_affinity_masks_the_scan_uses_cpu_count(self, monkeypatch):
        box, params = BoxSpec(d=2, side=16), ModelParams(d=2, alpha=1.5, tau=3.0, lam=0.5)
        want = sample_graph(box, params, Model.SFP, 8).edge_array.tolist()
        threads = set()
        # each thread's first hash waits for a second thread's: one thread can
        # no longer take every block, and a lone worker breaks the barrier
        barrier = threading.Barrier(2, timeout=10)

        def recording(states, words, **kwargs):
            if threading.current_thread() not in threads:
                threads.add(threading.current_thread())
                barrier.wait()
            return rng.uniforms_from_states(states, words, **kwargs)

        monkeypatch.delattr(sampler.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sampler, "uniforms_from_states", recording)
        with self.small_blocks():
            assert sample_graph(box, params, Model.SFP, 8).edge_array.tolist() == want
        assert len(threads) == 2
        assert threading.current_thread() not in threads

    def test_a_forked_child_scans_after_its_parent(self):
        box, params = BoxSpec(d=2, side=16), ModelParams(d=2, alpha=1.5, tau=3.0, lam=0.5)
        with self.cpus(2), self.small_blocks():
            want = sample_graph(box, params, Model.SFP, 6).edge_array.tolist()

            def child():
                if sample_graph(box, params, Model.SFP, 6).edge_array.tolist() != want:
                    raise AssertionError("the child's edges differ from its parent's")

            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(timeout=30)
            hung = proc.is_alive()
            if hung:
                proc.kill()
                proc.join()
        assert not hung, "the forked child's scan hung"
        assert proc.exitcode == 0


class TestLazyRows:
    """`LazyRealization.frontier_neighbors` decides the frontier x unvisited
    pairs row by row, and finds the edges `sample_graph` scans."""

    @pytest.mark.parametrize("block_pairs", [sampler._BLOCK_PAIRS, 50])
    @settings(max_examples=60, deadline=None)
    @given(case=scanned_realizations(girg_dims=(1, 2, 3)), data=st.data())
    def test_frontier_neighbors_are_the_unvisited_neighbours_in_the_scanned_graph(
            self, block_pairs, case, data):
        box, params, model, seed = case
        n = box.n_vertices
        adjacent = np.zeros((n, n), dtype=bool)
        adjacent[tuple(sample_graph(box, params, model, seed).edge_array.T)] = True
        adjacent |= adjacent.T
        # a frontier in drawn order with the first and last vertices; any others unvisited
        vertices = st.integers(0, n - 1)
        frontier = np.unique([0, n - 1] + data.draw(st.lists(vertices, max_size=12)))
        frontier = frontier[data.draw(st.permutations(range(len(frontier))))]
        unvisited = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        unvisited[frontier] = False
        real = sampler.LazyRealization(box, params, model, seed)
        # each vertex's hash state, to name the lower vertex of a hashed pair
        order = np.argsort(real._states)
        hashed, calls = [], []

        def counting(states, words, **kwargs):  # two positional arrays, flat words
            assert words.ndim == 1 and len(words) == len(states)
            lo = order[np.searchsorted(real._states[order], states)]
            hashed.append(lo * n + words.astype(np.int64))
            calls.append(len(words))
            return rng.uniforms_from_states(states, words, **kwargs)

        with mock.patch.object(sampler, "uniforms_from_states", counting), \
                mock.patch.object(sampler, "_BLOCK_PAIRS", block_pairs):
            got = real.frontier_neighbors(frontier, unvisited)
            assert len(real.frontier_neighbors(frontier, np.zeros(n, dtype=bool))) == 0
        want = np.flatnonzero(adjacent[frontier].any(axis=0) & unvisited)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        # every frontier x unvisited pair is hashed once, as (lo, hi), lo < hi
        x, y = frontier[:, None], np.flatnonzero(unvisited)
        pairs = np.minimum(x, y) * n + np.maximum(x, y)
        hashed = np.concatenate([np.empty(0, dtype=np.int64), *hashed])
        assert np.array_equal(np.sort(hashed), np.sort(pairs.ravel()))
        assert max(calls, default=0) <= max(block_pairs, y.size)

    def test_one_vertex_id_is_a_one_vertex_frontier(self):
        real = sampler.LazyRealization(BoxSpec(d=1, side=8), lrp(), Model.LRP, 3)
        unvisited = np.ones(8, dtype=bool)
        unvisited[3] = False
        got = real.frontier_neighbors(3, unvisited)
        assert got.dtype == np.int64 and {2, 4} <= set(got.tolist())  # its grid neighbours
        assert np.array_equal(got, real.frontier_neighbors([3], unvisited))
        assert np.array_equal(real.frontier_neighbors(np.int64(3), unvisited), got)

    def test_lrp_builds_no_weights_for_its_pairs(self):
        real = sampler.LazyRealization(BoxSpec(d=1, side=30), lrp(), Model.LRP, 3)
        assert real._w_alpha is None and "weights" not in real.__dict__


class TestScalarOracle:
    """`sample_graph` against the definition, pair by pair, in scalar calls:
    {u, v} is an edge iff edge_uniform(seed, u, v) < connection_prob(w_u, w_v,
    |x_u - x_v|), or the pair is a lattice pair at distance 1."""

    @settings(max_examples=40, deadline=None)
    @given(case=scanned_realizations(girg_dims=(1, 2, 3)))
    def test_edges_are_the_definition(self, case):
        box, params, model, seed = case
        g = sample_graph(box, params, model, seed)
        pos, w = g.positions.tolist(), g.weights.tolist()
        want = []
        for u in range(g.n):
            for v in range(u + 1, g.n):
                dist = math.dist(pos[u], pos[v])
                if ((model is not Model.GIRG and dist == 1.0)
                        or edge_uniform(seed, u, v) < connection_prob(w[u], w[v], dist, params)):
                    want.append([u, v])
        assert g.edge_array.tolist() == want


class TestLrpKernel:
    """Every LRP and SFP pair, in every d, reads one table of the kernel's
    argument at unit weights, lam * |offset|^(-alpha d): its probability is
    `connection_prob` off the grid and 1 on it."""

    @pytest.mark.parametrize("kernel", list(KernelVariant))
    @pytest.mark.parametrize("lam", [0.0, 0.05, 3.0, math.inf])
    @pytest.mark.parametrize("d, side", [(1, 2049), (2, 23), (3, 9)])
    def test_offset_probs_are_connection_prob(self, d, side, lam, kernel):
        box = BoxSpec(d=d, side=side)
        dist2 = box.offset_dist2
        far = dist2 > 1  # offset 0 is no pair, and the grid's offsets read 1
        for model, tau in [(Model.LRP, math.inf), (Model.SFP, 2.5)]:
            params = ModelParams(d=d, alpha=1.5 if kernel is KernelVariant.MIN else 2.5,
                                 tau=tau, lam=lam, kernel_variant=kernel)
            real = sampler.LazyRealization(box, params, model, 1)
            w = real.weights
            want = np.zeros(box.n_vertices)
            want[far] = connection_prob(w[0], w[far], np.sqrt(dist2[far]), params)
            want[dist2 == 1] = 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no inf * 0, not even at lambda = inf
                # the offset from vertex 0 to vertex v has the id v
                got = sampler._pair_thresholds(real, 0, np.arange(box.n_vertices))
            # unit weights read ceil(2^53 p) as integers, weighted pairs 2^53 p as floats
            if model is Model.LRP:
                assert got.dtype == np.uint64
                assert np.array_equal(got, np.ceil(want * 2.0**53).astype(np.uint64))
            else:
                assert np.array_equal(got, want * 2.0**53)
            rates = sampler._offset_rates(box, params, True)
            assert not rates.flags.writeable
            assert rates[0] == 0.0 and np.all(rates[dist2 == 1] == np.inf)
            table = sampler._offset_thresholds(box, params)
            assert not table.flags.writeable and table.dtype == np.uint64
            probs = apply_kernel(rates.copy(), kernel)
            assert np.array_equal(table, np.ceil(probs * 2.0**53).astype(np.uint64))

    def test_offset_zero_reads_zero_at_infinite_lambda(self):
        params = ModelParams(d=2, alpha=1.5, tau=math.inf, lam=math.inf)
        for grid in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no inf * 0
                table = sampler._offset_rates(BoxSpec(d=2, side=5), params, grid)
            assert table[0] == 0.0
            assert np.all(table[1:] == np.inf)


class TestIntegerThresholds:
    """Every walk decides a pair by its hash numerator k against the pair's
    threshold T = ceil(2^53 p): k = T - 1 is an edge and k = T is not, as
    the float rule k 2^-53 < p says.  A stand-in hash gives each pair one of
    the two numerators."""

    CASES = [  # (model, tau, kernel): unit weights, weights and GIRG pairs
        (Model.LRP, math.inf, KernelVariant.MIN), (Model.LRP, math.inf, KernelVariant.EXP),
        (Model.SFP, 2.5, KernelVariant.MIN), (Model.SFP, 2.5, KernelVariant.EXP),
        (Model.GIRG, 2.5, KernelVariant.MIN), (Model.GIRG, 2.5, KernelVariant.EXP),
    ]

    @staticmethod
    def boundary_hash(real, params):
        """(stand-in for `uniforms_from_states`, numerators k, probabilities p),
        k and p as (n, n) tables of the pairs (lo, hi), lo < hi; k is T - 1 or T,
        by a fixed random pick, and T where T = 0."""
        n, pos, w = real.n, real.positions, real.weights
        # the squared distance summed over the axes in order, as the walks do for d <= 2
        diff = pos[:, None, :] - pos[None, :, :]
        dist2 = diff[..., 0] ** 2 + (diff[..., 1] ** 2 if real.box.d == 2 else 0.0)
        np.fill_diagonal(dist2, 1.0)  # no pair, read at distance 1
        p = connection_prob(w[:, None], w[None, :], np.sqrt(dist2), params)
        if real.model is not Model.GIRG:
            p[dist2 == 1] = 1.0  # the grid
        top = np.ceil(p * 2.0**53).astype(np.uint64)
        pick = (np.random.default_rng(n).random((n, n)) < 0.5) & (top > 0)
        k = top - pick.astype(np.uint64)
        order = np.argsort(real._states)

        def numerators(states, words, out=None, numerators=False):
            assert numerators  # every walk decides on numerators
            states, words = np.broadcast_arrays(states, words)
            lo = order[np.searchsorted(real._states[order], states.ravel())]
            return k[lo, words.ravel().astype(np.int64)]

        return numerators, k, p

    @classmethod
    def expected(cls, real, params):
        """The stand-in hash and the edges (lo, hi), lo < hi, by the float rule."""
        numerators, k, p = cls.boundary_hash(real, params)
        upper = np.triu(np.ones_like(p, dtype=bool), 1)
        edge = (k * 2.0**-53 < p) & upper
        # the rule's two sides at T: every T - 1 is an edge and every T is not
        top = np.ceil(p * 2.0**53).astype(np.uint64)
        assert np.array_equal(edge, (k < top) & upper)
        assert edge.any() and ((k == top) & (top > 0) & upper).any()
        return numerators, edge

    def realization(self, d, side, model, tau, kernel):
        params = ModelParams(d=d, alpha=1.5 if kernel is KernelVariant.MIN else 2.5,
                             tau=tau, lam=0.5, kernel_variant=kernel)
        return sampler.LazyRealization(BoxSpec(d=d, side=side), params, model, 11), params

    @pytest.mark.parametrize("model, tau, kernel", CASES)
    @pytest.mark.parametrize("d, side", [(1, 40), (2, 7)])  # the block scan, the slab scan
    def test_scans_decide_t_minus_one_as_an_edge_and_t_as_none(self, d, side, model, tau,
                                                                kernel):
        real, params = self.realization(d, side, model, tau, kernel)
        numerators, edge = self.expected(real, params)
        with mock.patch.object(sampler, "uniforms_from_states", numerators):
            got = sample_graph(real.box, params, model, real.seed).edge_array
        assert got.tolist() == np.argwhere(edge).tolist()

    @pytest.mark.parametrize("model, tau, kernel", CASES)
    @pytest.mark.parametrize("d, side", [(1, 40), (2, 7)])
    def test_lazy_rows_decide_t_minus_one_as_an_edge_and_t_as_none(self, d, side, model, tau,
                                                                   kernel):
        real, params = self.realization(d, side, model, tau, kernel)
        numerators, edge = self.expected(real, params)
        edge |= edge.T
        frontier = np.array([9, 0, real.n - 1, real.n // 2])  # unsorted
        unvisited = np.ones(real.n, dtype=bool)
        unvisited[frontier] = False
        with mock.patch.object(sampler, "uniforms_from_states", numerators):
            got = real.frontier_neighbors(frontier, unvisited)
        assert got.tolist() == np.flatnonzero(edge[frontier].any(axis=0) & unvisited).tolist()


class TestGrid:
    """The nearest-neighbour grid is the rate inf that `_offset_rates` gives
    the offsets at distance 1, so at lambda = 0 it is the whole edge set of
    every walk."""

    @staticmethod
    def grid_pairs(box):
        """The pairs [u, v], u < v, of lattice points at L1 distance 1, sorted."""
        pos = box.lattice_positions()
        return [[u, v] for u in range(len(pos)) for v in range(u + 1, len(pos))
                if np.abs(pos[u] - pos[v]).sum() == 1]

    @staticmethod
    def params(d, model, kernel=KernelVariant.MIN):
        return ModelParams(d=d, alpha=1.5, tau=math.inf if model is Model.LRP else 3.0,
                           lam=0.0, kernel_variant=kernel)

    @pytest.mark.parametrize("kernel", list(KernelVariant))
    @pytest.mark.parametrize("model", [Model.LRP, Model.SFP])
    @pytest.mark.parametrize("d, side", [(1, 30), (2, 7), (3, 5)])
    def test_zero_lambda_is_the_grid_in_every_walk(self, d, side, model, kernel):
        box = BoxSpec(d=d, side=side, origin=(-2,) * d)
        params = self.params(d, model, kernel)
        assert sample_graph(box, params, model, 9).edge_array.tolist() == self.grid_pairs(box)
        root = box.n_vertices // 3
        pos = box.lattice_positions()
        lattice_dist = np.abs(pos - pos[root]).sum(axis=1).astype(np.int64)
        lazy = sampler.LazyRealization(box, params, model, 9)
        assert hop_distances_from(lazy, root).tolist() == lattice_dist.tolist()

    def test_the_pool_scans_the_grid(self):
        box, threads = BoxSpec(d=2, side=9), set()

        def recording(states, words, **kwargs):
            threads.add(threading.current_thread())
            return rng.uniforms_from_states(states, words, **kwargs)

        with TestSlabScan.cpus(2), TestSlabScan.small_blocks(), \
                mock.patch.object(sampler, "uniforms_from_states", recording):
            edges = sample_graph(box, self.params(2, Model.SFP), Model.SFP, 4).edge_array
        assert edges.tolist() == self.grid_pairs(box)
        assert threading.current_thread() not in threads  # every block ran on the pool


@st.composite
def boxes(draw):
    """A lattice box of dimension 1, 2 or 3 with a random side and origin."""
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(1, {1: 60, 2: 12, 3: 6}[d]))
    origin = tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
    return BoxSpec(d=d, side=side, origin=origin)


class TestBoxLayout:
    """`BoxSpec` holds the lattice's row-major layout for every module."""

    @settings(max_examples=80, deadline=None)
    @given(box=boxes(), data=st.data())
    def test_layout_equals_numpy_row_major_order(self, box, data):
        shape, n = (box.side,) * box.d, box.n_vertices
        coords = np.stack(np.unravel_index(np.arange(n), shape))
        assert np.array_equal(box.coords, coords)
        assert not box.coords.flags.writeable
        assert np.array_equal(box.index(coords), np.ravel_multi_index(tuple(coords), shape))
        assert np.array_equal(box.lattice_positions(), coords.T + np.asarray(box.origin))
        lo, hi = (np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=5, max_size=5)))
                  for _ in range(2))
        offsets = np.abs(coords[:, lo] - coords[:, hi])
        index = box.offset_index(lo, hi)
        dist2 = box.offset_dist2[index]
        assert np.array_equal(index, np.ravel_multi_index(tuple(offsets), shape))
        assert np.array_equal(dist2, (offsets**2).sum(axis=0))
        u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assert box.offset_index(u, v) == np.ravel_multi_index(
            tuple(np.abs(coords[:, u] - coords[:, v])), shape)
        index = box.offset_index(u, slice(None))
        dist2 = box.offset_dist2[index]
        offsets = np.abs(coords - coords[:, [u]])
        assert np.array_equal(index, np.ravel_multi_index(tuple(offsets), shape))
        assert np.array_equal(dist2, (offsets**2).sum(axis=0))

    def test_offset_lengths_are_read_only(self):
        assert not BoxSpec(d=2, side=5).offset_dist2.flags.writeable

    def test_lattice_positions_are_built_once_and_read_only(self):
        box = BoxSpec(d=2, side=5, origin=(3, -1))
        assert box.lattice_positions() is box.lattice_positions()
        assert not box.lattice_positions().flags.writeable

    @pytest.mark.parametrize("side", [1, 2, 37])
    def test_1d_offset_ids_equal_the_coordinate_gather(self, side):
        box = BoxSpec(d=1, side=side, origin=(-4,))
        first = box.coords[0]
        ids = np.arange(side)
        for lo, hi in [(ids, ids[::-1]), (ids[:, None], ids), (0, side - 1), (side - 1, 0),
                       (ids[-1], slice(None)), (slice(None), 0), (slice(1, None), slice(0, -1)),
                       (slice(None, None, 2), ids[::2][::-1])]:
            got = box.offset_index(lo, hi)
            want = np.abs(np.asarray(first[lo] - first[hi]))
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("kwargs", [
        dict(d=1, side=8, origin=(0.5,)),  # would sample at 0.5, 1.5, ... and reload at 0, 1, ...
        dict(d=2, side=3.5),
        dict(d=2.0, side=4),
        dict(d=1, side=4, origin=1),
    ])
    def test_non_integers_are_rejected(self, kwargs):
        with pytest.raises(DomainError, match="integer"):
            BoxSpec(**kwargs)

    def test_integers_are_kept_as_python_ints(self):
        box = BoxSpec(d=np.int64(2), side=np.int32(6), origin=[np.int64(1), -2])
        assert box == BoxSpec(d=2, side=6, origin=(1, -2))
        assert all(type(x) is int for x in (box.d, box.side, *box.origin))
        # a list origin is a tuple, so `_offset_rates` can cache on the box
        g = sample_graph(BoxSpec(d=2, side=6, origin=[0, 0]), lrp(d=2), Model.LRP, 3)
        assert g.edges == sample_graph(BoxSpec(d=2, side=6), lrp(d=2), Model.LRP, 3).edges

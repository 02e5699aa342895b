"""Distances and balls against brute-force oracles and lattice closed forms."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percolate import (
    BallKind,
    BoxSpec,
    BudgetError,
    CffpRealization,
    CostMap,
    DomainError,
    KernelVariant,
    LazyRealization,
    Model,
    ModelParams,
    RateModel,
    SampledGraph,
    ball_series,
    brute_force_cost_distance,
    brute_force_distance,
    cost_distance,
    graph_distance,
    k_ball,
    load_graph,
    sample_graph,
    save_graph,
    t_ball,
)
from percolate import metrics, rng, sampler
from percolate.metrics import _dense_cost_search, cost_distances_from, hop_distances_from


def lrp(alpha=1.5, lam=0.0, d=1):
    return ModelParams(d=d, alpha=alpha, tau=math.inf, lam=lam)


def make_graph(n, edges, d=1):
    """Hand-built graph on the 1-d lattice for oracle tests."""
    box = BoxSpec(d=d, side=n)
    return SampledGraph(
        model=Model.LRP,
        positions=box.lattice_positions(),
        weights=np.ones(box.n_vertices),
        edges=frozenset((min(u, v), max(u, v)) for u, v in edges),
        seed=0,
        params=lrp(d=d),
    )


def random_graph(rng, n, extra_edges, with_path=True):
    edges = set()
    if with_path:
        edges |= {(i, i + 1) for i in range(n - 1)}
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return make_graph(n, edges)


class TestGraphDistance:
    def test_grid_line(self):
        g = sample_graph(BoxSpec(d=1, side=10), lrp(), Model.LRP, 7)
        assert graph_distance(g, 0, 7) == 7
        g2 = make_graph(10, {(i, i + 1) for i in range(9)} | {(0, 7)})
        assert graph_distance(g2, 0, 7) == 1

    def test_identity_and_symmetry(self):
        g = random_graph(np.random.default_rng(0), 30, 20)
        assert graph_distance(g, 4, 4) == 0
        for x, y in [(0, 29), (3, 17), (5, 25)]:
            assert graph_distance(g, x, y) == graph_distance(g, y, x)

    def test_unreachable_returns_none(self):
        g = make_graph(4, {(0, 1), (2, 3)})
        assert graph_distance(g, 0, 3) is None

    def test_invalid_vertex(self):
        g = make_graph(4, {(0, 1)})
        with pytest.raises(DomainError):
            graph_distance(g, 0, 4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(4, 13))
            g = random_graph(rng, n, int(rng.integers(0, n)), with_path=rng.random() < 0.7)
            x, y = rng.integers(0, n, 2)
            assert graph_distance(g, int(x), int(y)) == brute_force_distance(
                g, int(x), int(y)
            )

    def test_triangle_inequality(self):
        g = sample_graph(BoxSpec(d=1, side=128), lrp(lam=0.3), Model.LRP, 3)
        rng = np.random.default_rng(1)
        from percolate.metrics import hop_distances_from

        dist = {v: hop_distances_from(g, v) for v in range(0, 128, 8)}
        roots = list(dist)
        for _ in range(500):
            x, y, z = rng.choice(roots, 3)
            assert dist[x][y] <= dist[x][z] + dist[z][y]


class TestCostDistance:
    def test_triangle_example(self):
        g = make_graph(3, {(0, 1), (1, 2), (0, 2)})
        cm = CostMap(costs={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.5},
                     rate_model=RateModel.UNIT_RATE)
        assert cost_distance(g, cm, 0, 2) == pytest.approx(2.0)
        assert cost_distance(g, cm, 0, 0) == 0.0

    def test_direct_edge_upper_bound(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 12, 10)
        cm = CostMap(
            costs={e: float(rng.uniform(0.1, 2.0)) for e in g.edges},
            rate_model=RateModel.UNIT_RATE,
        )
        for u, v in g.edges:
            assert cost_distance(g, cm, u, v) <= cm.costs[(u, v)] + 1e-12

    def test_lowering_cost_never_increases_distance(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 15, 12)
        base = {e: float(rng.uniform(0.5, 2.0)) for e in g.edges}
        cm = CostMap(costs=base, rate_model=RateModel.UNIT_RATE)
        target_edge = next(iter(g.edges))
        lowered = dict(base)
        lowered[target_edge] = 0.01
        cm2 = CostMap(costs=lowered, rate_model=RateModel.UNIT_RATE)
        for x in range(0, 15, 3):
            for y in range(1, 15, 4):
                d1 = cost_distance(g, cm, x, y)
                d2 = cost_distance(g, cm2, x, y)
                assert d2 <= d1 + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n, int(rng.integers(0, 2 * n)))
            cm = CostMap(
                costs={e: float(rng.uniform(0.05, 3.0)) for e in g.edges},
                rate_model=RateModel.UNIT_RATE,
            )
            x, y = rng.integers(0, n, 2)
            got = cost_distance(g, cm, int(x), int(y))
            want = brute_force_cost_distance(g, cm, int(x), int(y))
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_missing_cost_rejected(self):
        g = make_graph(3, {(0, 1), (1, 2)})
        cm = CostMap(costs={(0, 1): 1.0}, rate_model=RateModel.UNIT_RATE)
        with pytest.raises(DomainError):
            cost_distance(g, cm, 0, 2)


@st.composite
def costed_graphs(draw):
    """A small graph, costs on its edges (zeros included), a root and a t_max."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    cost = st.just(0.0) | st.floats(0.0, 3.0, allow_subnormal=False)
    costs = {e: draw(cost) for e in edges}
    root = draw(st.integers(0, n - 1))
    t_max = draw(st.floats(0.0, 6.0, allow_subnormal=False))
    return make_graph(n, edges), CostMap(costs, RateModel.UNIT_RATE), root, t_max


class TestCostSearch:
    @settings(max_examples=200, deadline=None)
    @given(costed_graphs())
    def test_search_equals_brute_force_and_is_cut_at_t_max(self, case):
        g, cm, root, t_max = case
        dist = cost_distances_from(g, cm, root)
        cut = cost_distances_from(g, cm, root, t_max=t_max)
        for y in range(g.n):
            want = brute_force_cost_distance(g, cm, root, y)
            assert cost_distance(g, cm, root, y) == (
                None if want is None else pytest.approx(want, abs=1e-12))
            assert dist[y] == (np.inf if want is None else pytest.approx(want, abs=1e-12))
            assert cut[y] == (dist[y] if dist[y] <= t_max else np.inf)

    def test_sparse_search_reads_inf_beyond_t_max(self):
        params = ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
        g = sample_graph(BoxSpec(d=2, side=24), params, Model.SFP, 3)
        cm = sampler.sample_fpp_costs(g, 3)
        full = cost_distances_from(g, cm, 300)
        cut = cost_distances_from(g, cm, 300, t_max=0.3)
        inside = full <= 0.3
        assert 1 < np.count_nonzero(inside) < g.n
        assert np.array_equal(cut[inside], full[inside])
        assert np.all(cut[~inside] == np.inf)

    def test_dense_search_reads_inf_beyond_t_max(self):
        params = ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0)
        real = CffpRealization(box=BoxSpec(d=1, side=301), params=params, seed=3,
                               weights=sampler.sample_weights(301, 6.0, 3))
        full = cost_distances_from(real, None, 150)
        cut = cost_distances_from(real, None, 150, t_max=0.3)
        inside = full <= 0.3
        assert 1 < np.count_nonzero(inside) < real.n
        assert np.array_equal(cut[inside], full[inside])
        assert np.all(cut[~inside] == np.inf)

    def test_cffp_cost_map_is_searched_over_all_its_pairs(self):
        box, params = BoxSpec(d=1, side=40), ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0)
        w = sampler.sample_weights(40, 6.0, 3)
        g = sample_graph(box, params, Model.SFP, 3)
        cm = sampler.sample_cffp_costs(box, w, params, 3)
        real = CffpRealization(box=box, weights=w, params=params, seed=3)
        want = cost_distances_from(real, None, 0)
        assert np.array_equal(cost_distances_from(g, cm, 0), want)
        assert cost_distance(g, cm, 0, 39) == want[39]

    def test_sampled_costs_are_read_in_edge_order(self):
        # `sample_fpp_costs` shares the graph's edge_array, so the search takes
        # the costs as they are, with no lookup
        params = ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
        g = sample_graph(BoxSpec(d=2, side=12), params, Model.SFP, 3)
        cm = sampler.sample_fpp_costs(g, 3)
        assert cm.pair_array is g.edge_array
        with mock.patch.object(metrics, "_pair_dijkstra", wraps=metrics._pair_dijkstra) as spy:
            dist = cost_distances_from(g, cm, 5)
        _, pairs, values, _, _ = spy.call_args.args
        assert pairs is g.edge_array and values is cm.cost_array
        # the same costs in a map of its own are looked up, to the same distances
        own = CostMap(costs=(g.edge_array.copy(), cm.cost_array), rate_model=RateModel.UNIT_RATE)
        assert own.pair_array is not g.edge_array
        with mock.patch.object(metrics, "_pair_dijkstra", wraps=metrics._pair_dijkstra) as spy:
            assert cost_distances_from(g, own, 5).tobytes() == dist.tobytes()
        assert spy.call_args.args[2] is not own.cost_array

    def test_a_map_of_its_own_is_looked_up_and_must_cover_every_edge(self, tmp_path):
        params = ModelParams(d=2, alpha=2.0, tau=3.5, lam=1.0)
        g = sample_graph(BoxSpec(d=2, side=12), params, Model.SFP, 4)
        save_graph(g, tmp_path / "g.txt", sampler.sample_fpp_costs(g, 4))
        loaded, cm = load_graph(tmp_path / "g.txt")
        assert cm.pair_array is not loaded.edge_array
        want = cost_distances_from(g, sampler.sample_fpp_costs(g, 4), 7)
        assert cost_distances_from(loaded, cm, 7).tobytes() == want.tobytes()
        u, v = g.edge_array[len(g.edge_array) // 2].tolist()
        costs = dict(cm.costs)
        del costs[(u, v)]
        short = CostMap(costs=costs, rate_model=RateModel.UNIT_RATE)
        with pytest.raises(DomainError, match=rf"cost map does not cover edge \({u}, {v}\)"):
            cost_distances_from(loaded, short, 7)

    def test_t_max_must_be_a_nonnegative_number(self):
        g = make_graph(4, {(0, 1), (1, 2)})
        cm = CostMap({(0, 1): 1.0, (1, 2): 0.5}, RateModel.UNIT_RATE)
        real = CffpRealization(box=BoxSpec(d=1, side=4), weights=np.ones(4), seed=1,
                               params=ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0))
        for obj, costs in ((g, cm), (real, None)):
            for bad in (-0.5, math.nan):
                with pytest.raises(DomainError):
                    cost_distances_from(obj, costs, 0, t_max=bad)
            assert cost_distances_from(obj, costs, 0, t_max=0.0)[0] == 0.0


def per_row_search(real, x, t_max):
    """The dense search with one cost row per settled vertex, fetched when it
    settles: the reference for the batched search.  Returns the distances and
    the settled vertices."""
    dist = np.full(real.n, np.inf)
    dist[x] = 0.0
    done = np.zeros(real.n, dtype=bool)
    settled = []
    for _ in range(real.n):
        masked = np.where(done, np.inf, dist)
        u = int(np.argmin(masked))
        du = masked[u]
        if not np.isfinite(du) or (t_max is not None and du > t_max):
            break
        done[u] = True
        settled.append(u)
        np.minimum(dist, du + real.cost_row(u), out=dist)
    if t_max is not None:
        dist[dist > t_max] = np.inf
    return dist, settled


def recorded_search(real, x, t_max):
    """`_dense_cost_search`, with the vertices of each cost_row call."""
    calls = []
    row = CffpRealization.cost_row

    def recording(self, u, *args, **kwargs):
        calls.append(np.atleast_1d(u).tolist())
        return row(self, u, *args, **kwargs)

    with mock.patch.object(CffpRealization, "cost_row", recording):
        return _dense_cost_search(real, x, t_max), calls


@st.composite
def cffp_searches(draw):
    """A CFFP realization in d = 1..3, a root, a t_max or None, and a
    pairs-per-call constant that may batch fewer rows than the box has."""
    d = draw(st.sampled_from([1, 2, 3]))
    box = BoxSpec(d=d, side=draw(st.integers(1, {1: 80, 2: 9, 3: 5}[d])))
    tau = draw(st.floats(2.05, 8.0))
    seed = draw(st.integers(0, 2**64 - 1))
    real = CffpRealization(box=box, seed=seed,
                           weights=sampler.sample_weights(box.n_vertices, tau, seed),
                           params=ModelParams(d=d, alpha=draw(st.floats(1.0, 3.0)), tau=tau,
                                              lam=1.0))
    root = draw(st.integers(0, box.n_vertices - 1))
    t_max = draw(st.none() | st.floats(0.0, 3.0, allow_subnormal=False))
    pairs = draw(st.sampled_from([1, 3 * box.n_vertices, metrics._ROW_BATCH_PAIRS]))
    return real, root, t_max, pairs


class TestBatchedDenseSearch:
    """The dense search fetches cost rows in batches ahead of settling them,
    and is the per-row search bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(cffp_searches())
    def test_batched_search_equals_the_per_row_search(self, case):
        real, root, t_max, pairs = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # t_max=None caps rows at the largest float
            want, settled = per_row_search(real, root, t_max)
            with mock.patch.object(metrics, "_ROW_BATCH_PAIRS", pairs):
                dist, calls = recorded_search(real, root, t_max)
        assert dist.tobytes() == want.tobytes()
        fetched = [u for call in calls for u in call]
        assert sorted(fetched) == sorted(settled)
        assert all(1 <= len(call) <= max(1, pairs // real.n) for call in calls)

    @pytest.mark.parametrize("t_max", [0.3, None])
    def test_rows_fetched_are_the_vertices_settled(self, t_max):
        params = ModelParams(d=1, alpha=1.5, tau=6.0, lam=1.0)
        real = CffpRealization(box=BoxSpec(d=1, side=301), params=params, seed=3,
                               weights=sampler.sample_weights(301, 6.0, 3))
        hashed = []

        def counting(states, words):
            out = rng.uniforms_from_states(states, words)
            hashed.append(len(out))
            return out

        with mock.patch.object(sampler, "uniforms_from_states", counting):
            dist, calls = recorded_search(real, 150, t_max)
        fetched = [u for call in calls for u in call]
        settled = np.flatnonzero(np.isfinite(dist))
        assert sorted(fetched) == settled.tolist()
        assert sum(hashed) == len(settled) * (real.n - 1)
        assert calls[0] == [150]
        assert 2 < len(calls) < len(settled)


class TestBalls:
    def test_k_ball_trivia(self):
        g = sample_graph(BoxSpec(d=1, side=21), lrp(), Model.LRP, 2)
        assert k_ball(g, 10, 0) == {10}
        assert k_ball(g, 10, 3) == set(range(7, 14))
        assert len(k_ball(g, 10, 4)) == 9  # 2k+1 away from the boundary

    def test_k_ball_matches_distances(self):
        g = sample_graph(BoxSpec(d=1, side=64), lrp(lam=0.4), Model.LRP, 9)
        from percolate.metrics import hop_distances_from

        dist = hop_distances_from(g, 20)
        for k in (0, 1, 2, 5):
            assert k_ball(g, 20, k) == {
                int(v) for v in np.nonzero((dist >= 0) & (dist <= k))[0]
            }

    @pytest.mark.parametrize("depth", [1.5, 3.0, -1, "2", None])
    def test_k_ball_needs_a_nonnegative_integer_depth(self, depth):
        g = sample_graph(BoxSpec(d=1, side=21), lrp(), Model.LRP, 2)
        with pytest.raises(DomainError, match="k must be a nonnegative integer"):
            k_ball(g, 10, depth)

    @pytest.mark.parametrize("depth", [1.5, -1, np.int64(-2), np.float64(2.0)])
    def test_hop_depth_must_be_a_nonnegative_integer(self, depth):
        g = sample_graph(BoxSpec(d=1, side=21), lrp(), Model.LRP, 2)
        with pytest.raises(DomainError, match="max_depth must be a nonnegative integer"):
            hop_distances_from(g, 10, max_depth=depth)
        with pytest.raises(DomainError, match="max_depth"):
            hop_distances_from(LazyRealization(g.box, g.params, g.model, 2), 10,
                               max_depth=depth)

    def test_numpy_integer_depths_are_depths(self):
        g = sample_graph(BoxSpec(d=1, side=21), lrp(), Model.LRP, 2)
        assert k_ball(g, 10, np.int64(3)) == set(range(7, 14))
        assert k_ball(g, 10, np.uint8(0)) == {10}
        assert np.array_equal(hop_distances_from(g, 10, max_depth=np.int32(2)),
                              hop_distances_from(g, 10, max_depth=2))

    @pytest.mark.parametrize("v", [1.5, np.float64(1.0), "1", None])
    def test_vertex_ids_must_be_integers(self, v):
        box = BoxSpec(d=1, side=21)
        g = sample_graph(box, lrp(lam=0.3), Model.LRP, 2)
        costs = sampler.sample_fpp_costs(g, 3)
        real = CffpRealization(box=box, weights=np.ones(21), seed=1,
                               params=ModelParams(d=1, alpha=1.5, tau=math.inf, lam=1.0))
        calls = [lambda: graph_distance(g, v, 7), lambda: graph_distance(g, 7, v),
                 lambda: cost_distance(g, costs, v, 7), lambda: cost_distance(real, None, v, 7),
                 lambda: hop_distances_from(LazyRealization(box, g.params, g.model, 2), v),
                 lambda: k_ball(g, v, 2), lambda: t_ball(real, None, v, 1.0)]
        for call in calls:
            with pytest.raises(DomainError, match="vertex id must be an integer"):
                call()

    def test_numpy_integer_vertex_ids_are_vertices(self):
        g = sample_graph(BoxSpec(d=1, side=21), lrp(lam=0.3), Model.LRP, 2)
        assert graph_distance(g, np.int64(1), np.uint8(7)) == graph_distance(g, 1, 7)

    def test_t_ball_trivia_and_membership(self):
        box = BoxSpec(d=1, side=12)
        params = ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0)
        real = CffpRealization(
            box=box, weights=np.ones(12), params=params, seed=5
        )
        assert t_ball(real, None, 0, 0.0) == {0}
        from percolate.metrics import cost_distances_from

        dist = cost_distances_from(real, None, 0)
        for t in (0.05, 0.2, 1.0):
            assert t_ball(real, None, 0, t) == {
                int(v) for v in np.nonzero(dist <= t)[0]
            }

    def test_t_ball_total_cost_saturation(self):
        g = make_graph(5, {(i, i + 1) for i in range(4)})
        cm = CostMap(costs={e: 0.5 for e in g.edges}, rate_model=RateModel.UNIT_RATE)
        total = sum(cm.costs.values())
        assert t_ball(g, cm, 0, total) == set(range(5))

    def test_ball_nesting(self):
        g = sample_graph(BoxSpec(d=1, side=100), lrp(lam=0.3), Model.LRP, 17)
        balls = [k_ball(g, 50, k) for k in range(6)]
        for a, b in zip(balls, balls[1:]):
            assert a <= b


class TestBallSeries:
    def test_threshold_zero(self):
        g = sample_graph(BoxSpec(d=1, side=9), lrp(), Model.LRP, 1)
        s = ball_series(g, 4, [0])
        assert s.sizes == (1,) and s.max_geo_radius == (0.0,)
        assert s.radii_kind is BallKind.HOP

    def test_lattice_counts_d2(self):
        # hop balls on the bare 2-d grid: |B(x,k)| = 2k^2 + 2k + 1 inside
        g = sample_graph(BoxSpec(d=2, side=15), lrp(d=2), Model.LRP, 1)
        root = 7 * 15 + 7
        s = ball_series(g, root, [0, 1, 2, 3])
        assert s.sizes == (1, 5, 13, 25)
        assert s.max_geo_radius == (0.0, 1.0, 2.0, 3.0)

    def test_radius_bounded_by_box_diameter(self):
        g = sample_graph(BoxSpec(d=2, side=8), lrp(lam=0.5, d=2), Model.LRP, 3)
        s = ball_series(g, 0, [1, 2, 4, 8])
        limit = (8 - 1) * math.sqrt(2)
        assert all(r <= limit + 1e-12 for r in s.max_geo_radius)
        assert all(b >= a for a, b in zip(s.sizes, s.sizes[1:]))
        assert all(b >= a for a, b in zip(s.max_geo_radius, s.max_geo_radius[1:]))

    def test_csv_export(self, tmp_path):
        g = sample_graph(BoxSpec(d=1, side=9), lrp(), Model.LRP, 1)
        s = ball_series(g, 4, [0, 1, 2])
        path = tmp_path / "series.csv"
        s.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "threshold,size,max_geo_radius"
        assert len(lines) == 4

    def test_monotone_thresholds_required(self):
        g = sample_graph(BoxSpec(d=1, side=9), lrp(), Model.LRP, 1)
        with pytest.raises(DomainError):
            ball_series(g, 4, [2, 1])

    @pytest.mark.parametrize("thresholds", [[-1], [-0.5, 2], [-3, -1], [math.nan, 1]])
    def test_negative_thresholds_are_rejected(self, thresholds):
        g = sample_graph(BoxSpec(d=1, side=9), lrp(), Model.LRP, 1)
        with pytest.raises(DomainError, match="nonnegative"):
            ball_series(g, 4, thresholds)
        real = CffpRealization(box=g.box, weights=np.ones(9),
                               params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0), seed=1)
        with pytest.raises(DomainError, match="nonnegative"):
            ball_series(real, 4, thresholds)

    def test_hop_thresholds_must_be_finite_and_cost_thresholds_need_not(self):
        g = sample_graph(BoxSpec(d=1, side=9), lrp(lam=0.5), Model.LRP, 1)
        lazy = LazyRealization(g.box, g.params, g.model, g.seed)
        for obj in (g, lazy):
            with pytest.raises(DomainError, match="finite"):
                ball_series(obj, 4, [1, math.inf])
        cm = CostMap(costs={e: 0.5 for e in g.edges}, rate_model=RateModel.UNIT_RATE)
        assert ball_series(g, 4, [0.5, math.inf], costs=cm).sizes[-1] == 9
        real = CffpRealization(box=g.box, weights=np.ones(9),
                               params=ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0), seed=1)
        assert ball_series(real, 4, [math.inf]).sizes == (9,)


class TestBruteForce:
    def test_single_edge_and_disconnected(self):
        g = make_graph(2, {(0, 1)})
        assert brute_force_distance(g, 0, 1) == 1
        g2 = make_graph(4, {(0, 1)})
        assert brute_force_distance(g2, 0, 3) is None
        assert brute_force_distance(g2, 0, 3, max_len=2) is None

    def test_budget(self):
        g = make_graph(20, {(i, i + 1) for i in range(19)})
        with pytest.raises(BudgetError):
            brute_force_distance(g, 0, 19)
        # explicit small max_len is admissible on larger graphs
        assert brute_force_distance(g, 0, 4, max_len=6) == 4
        assert brute_force_distance(g, 0, 10, max_len=6) is None

    def test_max_len_bounds_the_direct_edge(self):
        g = make_graph(20, {(i, i + 1) for i in range(19)})
        assert brute_force_distance(g, 0, 1, max_len=0) is None
        assert brute_force_distance(g, 0, 1, max_len=1) == 1
        assert brute_force_distance(g, 0, 3, max_len=2) is None
        assert brute_force_distance(g, 0, 0, max_len=0) == 0
        for bad in (-1, 1.5, "2"):
            with pytest.raises(DomainError):
                brute_force_distance(g, 0, 1, max_len=bad)

    def test_cost_budget(self):
        g = make_graph(20, {(i, i + 1) for i in range(19)})
        cm = CostMap(costs={e: 1.0 for e in g.edges}, rate_model=RateModel.UNIT_RATE)
        with pytest.raises(BudgetError):
            brute_force_cost_distance(g, cm, 0, 19)


def _hashing(calls):
    """A stand-in for `uniforms_from_states` that counts the pairs it hashes."""

    def counting(states, words, **kwargs):
        calls.append(len(words))
        return rng.uniforms_from_states(states, words, **kwargs)

    return counting


@st.composite
def realizations(draw):
    """A small LRP/SFP/GIRG realization, a root and a BFS depth cap."""
    model = draw(st.sampled_from(list(Model)))
    d = draw(st.sampled_from([1, 2]))
    side = draw(st.integers(1, 40) if d == 1 else st.integers(1, 7))
    box = BoxSpec(d=d, side=side,
                  origin=tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))))
    params = ModelParams(
        d=d,
        alpha=draw(st.floats(1.0, 3.0)),
        tau=math.inf if model is Model.LRP else draw(st.floats(1.5, 5.0)),
        lam=draw(st.floats(0.0, 2.0)),
        kernel_variant=draw(st.sampled_from(list(KernelVariant))),
    )
    seed = draw(st.integers(0, 2**64 - 1))
    root = draw(st.integers(0, box.n_vertices - 1))
    cap = draw(st.none() | st.integers(0, 6))
    return box, params, model, seed, root, cap


class TestLazyRealization:
    @settings(max_examples=150, deadline=None)
    @given(realizations())
    def test_lazy_bfs_equals_bfs_on_the_scanned_graph(self, case):
        box, params, model, seed, root, cap = case
        g = sample_graph(box, params, model, seed)
        real = LazyRealization(box, params, model, seed)
        hashed = []
        with mock.patch.object(sampler, "uniforms_from_states", _hashing(hashed)):
            lazy = hop_distances_from(real, root, max_depth=cap)
        assert np.array_equal(lazy, hop_distances_from(g, root, max_depth=cap))
        assert np.array_equal(real.positions, g.positions)
        assert np.array_equal(real.weights, g.weights)
        n = box.n_vertices
        assert sum(hashed) <= n * (n - 1) // 2

    @pytest.mark.parametrize("model, d, side", [(Model.LRP, 1, 40), (Model.SFP, 2, 6),
                                                (Model.GIRG, 2, 6)])
    def test_hop_searches_on_sampled_and_loaded_graphs_read_no_neighbors(self, tmp_path, model,
                                                                          d, side):
        box = BoxSpec(d=d, side=side)
        params = ModelParams(d=d, alpha=1.5, tau=math.inf if model is Model.LRP else 3.0,
                             lam=0.5)
        g = sample_graph(box, params, model, 5)
        save_graph(g, tmp_path / "g.txt")
        lazy = hop_distances_from(LazyRealization(box, params, model, 5), 0)
        far = int(np.argmax(lazy))

        def refuse(self):
            raise AssertionError("a hop search read SampledGraph.neighbors")

        with mock.patch.object(SampledGraph, "neighbors", property(refuse)):
            loaded, _ = load_graph(tmp_path / "g.txt")
            for graph in (g, loaded):
                assert np.array_equal(hop_distances_from(graph, 0), lazy)
                assert graph_distance(graph, 0, far) == lazy[far] > 1
                assert k_ball(graph, 0, 2) == set(np.nonzero((lazy >= 0) & (lazy <= 2))[0].tolist())
                assert ball_series(graph, 0, [0, 1, 2, 3]).sizes == tuple(
                    int(np.count_nonzero((lazy >= 0) & (lazy <= k))) for k in range(4))

    def test_checks_as_sample_graph(self):
        params = lrp(lam=0.5)
        with pytest.raises(BudgetError):
            LazyRealization(BoxSpec(d=1, side=300_000), params, Model.LRP, 1)
        with pytest.raises(DomainError):
            LazyRealization(BoxSpec(d=2, side=4), params, Model.LRP, 1)
        real = LazyRealization(BoxSpec(d=1, side=8), params, Model.LRP, 1)
        with pytest.raises(DomainError):
            hop_distances_from(real, 8)


@st.composite
def targeted_searches(draw):
    """A small 1-d LRP or SFP, or 2-d LRP or GIRG, realization, a root and a depth."""
    model, d = draw(st.sampled_from([(Model.LRP, 1), (Model.SFP, 1), (Model.LRP, 2),
                                     (Model.GIRG, 2)]))
    box = BoxSpec(d=d, side=draw(st.integers(1, 40) if d == 1 else st.integers(1, 7)))
    params = ModelParams(d=d, alpha=draw(st.floats(1.0, 3.0)),
                         tau=math.inf if model is Model.LRP else draw(st.floats(1.5, 5.0)),
                         lam=draw(st.floats(0.0, 2.0)))
    real = LazyRealization(box, params, model, draw(st.integers(0, 2**64 - 1)))
    return real, draw(st.integers(0, box.n_vertices - 1)), draw(st.integers(0, 6))


class TestTargetedSearch:
    @settings(max_examples=150, deadline=None)
    @given(case=targeted_searches(), data=st.data())
    def test_targets_keep_their_distances_and_the_last_level_hashes_only_them(self, case, data):
        real, root, k = case
        full, targeted = [], []
        with mock.patch.object(sampler, "uniforms_from_states", _hashing(full)):
            dist = hop_distances_from(real, root, max_depth=k)
        # the root, a vertex reached before the last level, one at it, one never
        # reached, and any others, with repeats
        vertices = st.integers(0, real.n - 1)
        picks = [root] + [data.draw(st.sampled_from(np.flatnonzero(where).tolist()))
                          for where in ((dist >= 0) & (dist < k), dist == k, dist < 0)
                          if where.any()]
        targets = np.array(picks + data.draw(st.lists(vertices, max_size=8)))
        targets = targets[data.draw(st.permutations(range(len(targets))))]
        with mock.patch.object(sampler, "uniforms_from_states", _hashing(targeted)):
            got = hop_distances_from(real, root, max_depth=k, targets=targets)
        assert np.array_equal(got[targets], dist[targets])
        shallow = (dist >= 0) & (dist < k)
        assert np.array_equal(got[shallow], dist[shallow])
        assert np.array_equal(got >= 0, shallow | (dist == k) & np.isin(np.arange(real.n), targets))
        # the last level pairs its frontier F with the unvisited targets, not all of U
        frontier = np.count_nonzero(dist == k - 1) if k else 0
        unvisited = (dist == k) | (dist < 0)
        missed = np.count_nonzero(unvisited) - np.count_nonzero(unvisited[np.unique(targets)])
        assert sum(targeted) == sum(full) - frontier * missed

    @pytest.mark.parametrize("model, d, side", [(Model.LRP, 1, 40), (Model.GIRG, 2, 6)])
    def test_targets_change_nothing_on_a_sampled_graph_or_without_a_depth(self, model, d, side):
        box = BoxSpec(d=d, side=side)
        params = ModelParams(d=d, alpha=1.5, tau=math.inf if model is Model.LRP else 3.0,
                             lam=0.5)
        g = sample_graph(box, params, model, 5)
        real = LazyRealization(box, params, model, 5)
        for depth in (0, 1, 2, 5, None):
            want = hop_distances_from(g, 3, max_depth=depth)
            for targets in ([3], [0, 7, 7], np.arange(box.n_vertices)):
                assert np.array_equal(hop_distances_from(g, 3, depth, targets=targets), want)
        assert np.array_equal(hop_distances_from(real, 3, targets=[0]), hop_distances_from(g, 3))
        assert np.array_equal(hop_distances_from(real, 3, 2, targets=[]) >= 0,
                              (want >= 0) & (want < 2))

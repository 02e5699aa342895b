"""Distances, balls and radii on sampled graphs, plus brute-force oracles.

"Unreachable" is always the distinguished return `None`, never a sentinel
number.  All operations are read-only over immutable inputs.

Every search on a `SampledGraph` is scipy's Dijkstra over one CSR of
pairs (`_pair_csr`), with no Python container built: hop distances run it
unweighted over the graph's `edge_array`; FPP costs weight those edges with
the costs found in the CostMap's sorted `pair_array`, and CFFP costs use
the map's own pairs.  scipy is loaded by the first search on a
`SampledGraph`, so a run that searches nothing else never imports it.  A
`LazyRealization` is searched by a level-synchronous BFS, which samples
only the pairs between each frontier and the unvisited vertices; the hop
estimators use it.  Each pair's edge is a pure function
of (seed, {u, v}), decided by the same arithmetic as the full scan, so the
distances equal those on `sample_graph`'s realization.  On a
`CffpRealization` cost distances come from a dense Dijkstra over its cost
rows.  Cost searches read inf beyond `t_max`.

The dense Dijkstra settles vertices in exact Dijkstra order, but fetches
cost rows in batches, as a `CffpRealization.cost_row` call costs more than
a pair.  When the vertex it settles has no row yet, it fetches rows in one
call for that vertex and the next nearest unsettled, not yet fetched
vertices within `t_max` (finite ones when there is none), about
`_ROW_BATCH_PAIRS` pairs in all.  Prefetching is exact: distances only
fall, so each fetched vertex stays within `t_max` and is settled before the
search stops.  The rows fetched are the rows settled, so the pairs hashed
and the distances are those of one row per settled vertex, bit for bit.  It
is a speculative form of the multi-vertex settling of Delta-stepping (Meyer
and Sanders, J. Algorithms 49, 2003).

Each row is fetched capped at `t_max` (the largest float when there is
none): `cost_row` screens its uniforms by the cap and gives back only the
costs <= t_max, and a settled vertex relaxes only those.  That is exact: a
distance settled is d_v = fl(d_u + c_uv) <= t_max with d_u >= 0, and
rounding is monotone, so c_uv <= t_max.  A cost above the cap only ever
made a tentative distance above t_max, which is never settled.  At the
`cffp_growth` scale (n = 2,001, t_max = 1) about 8 of a row's 2,000 costs
pass, so neither the log of a row nor its relaxation is n wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetError, DomainError, integers, reals
from .sampler import (_ROW_BATCH_PAIRS, CffpRealization, CostMap, LazyRealization, RateModel,
                      SampledGraph, _write_csv)

__all__ = [
    "BallKind",
    "BallSeries",
    "graph_distance",
    "hop_distances_from",
    "cost_distance",
    "cost_distances_from",
    "k_ball",
    "t_ball",
    "ball_series",
    "brute_force_distance",
    "brute_force_cost_distance",
]


class BallKind(str, Enum):
    HOP = "hop"
    COST = "cost"


def _pair_csr(n: int, pairs: np.ndarray, values: np.ndarray | None = None):
    """(n, n) CSR of `values` (ones if None) at `pairs`; an explicit 0 is an edge of cost 0."""
    from scipy.sparse import csr_array  # loaded by the first search on a SampledGraph

    data = np.ones(len(pairs)) if values is None else values
    return csr_array((data, (pairs[:, 0], pairs[:, 1])), shape=(n, n))


def _check_thresholds(thresholds: list, hop: bool) -> None:
    """A grid is non-empty and >= 0 (NaN fails), and finite for hops; failing values are named."""
    if not thresholds:
        raise DomainError("need at least one threshold")
    bad = ", ".join(str(t) for t in thresholds if not (0 <= t < math.inf if hop else t >= 0))
    if bad:
        raise DomainError(("hop thresholds must be nonnegative and finite" if hop
                           else "thresholds must be nonnegative") + f", got {bad}")


def hop_distances_from(graph, x: int, max_depth: int | None = None) -> np.ndarray:
    """Hop distances from x, as int64; -1 marks vertices beyond reach/depth.

    On a SampledGraph they are scipy's unweighted Dijkstra over its
    `edge_array`.  A LazyRealization is searched by a level-synchronous BFS
    that samples edges only between each level and the unvisited vertices.
    """
    x = integers("vertex id", x, 0, graph.n)
    limit = np.inf if max_depth is None else integers("max_depth", max_depth)
    if not isinstance(graph, LazyRealization):
        from scipy.sparse.csgraph import dijkstra  # loaded by the first search on a SampledGraph

        hops = dijkstra(_pair_csr(graph.n, graph.edge_array), directed=False, unweighted=True,
                        indices=x, limit=limit)
        return np.where(np.isinf(hops), -1, hops).astype(np.int64)
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[x] = 0
    frontier = np.array([x], dtype=np.int64)
    depth = 0
    while frontier.size and depth < limit:
        depth += 1
        frontier = graph._frontier_neighbors(frontier, dist < 0)
        dist[frontier] = depth
    return dist


def graph_distance(graph: SampledGraph, x: int, y: int) -> int | None:
    """Shortest-path hop count between x and y, or None if unreachable."""
    x, y = integers("vertex id", x, 0, graph.n), integers("vertex id", y, 0, graph.n)
    d = int(hop_distances_from(graph, x)[y])
    return None if d < 0 else d


def _sparse_cost_search(graph: SampledGraph, costs: CostMap | None, x: int,
                        t_max: float | None) -> np.ndarray:
    """scipy's Dijkstra over the pairs that carry a cost.

    An FPP map costs the graph's edges: each edge's cost is found in the
    map's sorted pairs by its key lo * base + hi, with base above every
    vertex id, so a map that misses an edge raises DomainError naming the
    first one.  A CFFP map stores the complete graph, whose pairs are its own.
    """
    if costs is None:
        raise DomainError("a CostMap is required for sparse graphs")
    if costs.rate_model is RateModel.CFFP_RATE:
        e, c = costs.pair_array, costs.cost_array
    else:
        e, pairs = graph.edge_array, costs.pair_array
        base = max(graph.n, int(pairs.max(initial=0)) + 1)
        keys, wanted = pairs[:, 0] * base + pairs[:, 1], e[:, 0] * base + e[:, 1]
        at = np.searchsorted(keys, wanted)
        covered = at < len(keys)  # and there the key found is the edge's
        covered[covered] = keys[at[covered]] == wanted[covered]
        if not covered.all():
            u, v = e[np.argmin(covered)].tolist()
            raise DomainError(f"cost map does not cover edge ({u}, {v})")
        c = costs.cost_array[at]
    from scipy.sparse.csgraph import dijkstra  # loaded by the first search on a SampledGraph

    return dijkstra(_pair_csr(graph.n, e, c), directed=False, indices=x,
                    limit=np.inf if t_max is None else t_max)


def _dense_cost_search(real: CffpRealization, x: int, t_max: float | None) -> np.ndarray:
    """Dijkstra over cost rows fetched in batches: exact, as each vertex fetched is settled."""
    n = real.n
    batch = max(1, _ROW_BATCH_PAIRS // n)
    # the largest distance settled: t_max, and in any case a finite one
    limit = min(np.inf if t_max is None else t_max, np.finfo(np.float64).max)
    dist = np.full(n, np.inf)  # settled distances
    tentative = np.full(n, np.inf)  # of unsettled vertices; inf once settled
    tentative[x] = 0.0
    unsettled = np.ones(n, dtype=bool)
    rows: dict[int, tuple] = {}  # fetched, unsettled vertex -> its (vertices, costs) <= limit
    for _ in range(n):
        u = int(tentative.argmin())
        du = tentative[u]
        if not du <= limit:
            break
        if u not in rows:
            # u and the batch - 1 nearest unsettled, unfetched vertices within limit
            ahead = tentative.copy()
            ahead[list(rows)] = np.inf
            ahead[u] = -np.inf
            us = np.argpartition(ahead, min(batch, n) - 1)[:batch]
            us = us[ahead[us] <= limit]
            indptr, vs, cs = real.cost_row(us, cap=limit)
            ptr = indptr.tolist()
            for b, v in enumerate(us.tolist()):
                rows[v] = vs[ptr[b]:ptr[b + 1]], cs[ptr[b]:ptr[b + 1]]
        dist[u] = du
        tentative[u] = np.inf
        unsettled[u] = False
        vs, cs = rows.pop(u)  # settled vertices among vs stay at inf
        tentative[vs] = np.where(unsettled[vs], np.minimum(tentative[vs], cs + du), np.inf)
    return dist


def cost_distance(obj, costs: CostMap | None, x: int, y: int) -> float | None:
    """Minimum path cost between x and y, or None if unreachable.

    `obj` is either a SampledGraph with a CostMap (FPP costs cover its
    edges, CFFP costs every pair) or a CffpRealization, whose
    complete-graph costs are derived on demand.
    """
    x, y = integers("vertex id", x, 0, obj.n), integers("vertex id", y, 0, obj.n)
    d = float(cost_distances_from(obj, costs, x)[y])
    return d if np.isfinite(d) else None


def cost_distances_from(
    obj, costs: CostMap | None, x: int, t_max: float | None = None
) -> np.ndarray:
    """Cost distances from x to every vertex; inf beyond reach or `t_max`."""
    x = integers("vertex id", x, 0, obj.n)
    if t_max is not None:
        reals("t_max", t_max, 0)
    if isinstance(obj, CffpRealization):
        return _dense_cost_search(obj, x, t_max=t_max)
    return _sparse_cost_search(obj, costs, x, t_max=t_max)


def k_ball(graph: SampledGraph, x: int, k: int) -> set[int]:
    """All vertices within hop distance k of x (contains x)."""
    k = integers("k", k)
    dist = hop_distances_from(graph, x, max_depth=k)
    return {int(v) for v in np.nonzero(dist >= 0)[0]}


def t_ball(obj, costs: CostMap | None, x: int, t: float) -> set[int]:
    """All vertices within cost distance t of x (contains x)."""
    dist = cost_distances_from(obj, costs, x, t_max=t)
    return {int(v) for v in np.nonzero(dist <= t)[0]}


@dataclass(frozen=True)
class BallSeries:
    """Sizes and maximal geometric radii of balls along a threshold grid."""

    root: int
    radii_kind: BallKind
    thresholds: tuple
    sizes: tuple
    max_geo_radius: tuple

    def to_csv(self, path) -> None:
        _write_csv(path, ("threshold", "size", "max_geo_radius"),
                   zip(self.thresholds, self.sizes, self.max_geo_radius))


def _ball_profile(dist: np.ndarray, positions: np.ndarray, x: int,
                  thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and maximal Euclidean radii of the balls {v : dist[v] <= t}
    around x, one of each per threshold t."""
    geo = np.linalg.norm(positions - positions[x], axis=1)
    members = [dist <= thr for thr in thresholds]
    return (np.array([np.count_nonzero(m) for m in members], dtype=np.int64),
            np.array([geo[m].max() for m in members], dtype=np.float64))


def ball_series(obj, x: int, thresholds, costs: CostMap | None = None) -> BallSeries:
    """Ball sizes |B(x, .)| and max Euclidean radii along increasing thresholds.

    Hop balls for a bare SampledGraph; cost balls when costs are supplied or
    `obj` is a CffpRealization.
    """
    thresholds = list(thresholds)
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise DomainError("thresholds must be strictly increasing")
    cost_mode = isinstance(obj, CffpRealization) or costs is not None
    _check_thresholds(thresholds, hop=not cost_mode)
    if cost_mode:
        dist = cost_distances_from(obj, costs, x, t_max=float(thresholds[-1]))
        kind = BallKind.COST
    else:
        dist = hop_distances_from(obj, x, max_depth=int(thresholds[-1])).astype(float)
        dist[dist < 0] = np.inf
        kind = BallKind.HOP

    sizes, radii = _ball_profile(dist, obj.positions, x, thresholds)
    return BallSeries(
        root=x,
        radii_kind=kind,
        thresholds=tuple(thresholds),
        sizes=tuple(sizes.tolist()),
        max_geo_radius=tuple(radii.tolist()),
    )


_BRUTE_MAX_VERTICES = 12
_BRUTE_MAX_LEN = 6


def _adjacency(graph: SampledGraph) -> list[list[int]]:
    """Each vertex's neighbours, in increasing order, read off `edge_array`."""
    adj: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in zip(*graph.edge_array.T.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def brute_force_distance(
    graph: SampledGraph, x: int, y: int, max_len: int | None = None
) -> int | None:
    """Exhaustive simple-path search; the oracle for `graph_distance`.

    Only admissible on tiny inputs: <= 12 vertices, or an explicit
    max_len <= 6.  Paths longer than max_len, a nonnegative integer, are
    not searched.
    """
    x, y = integers("vertex id", x, 0, graph.n), integers("vertex id", y, 0, graph.n)
    if max_len is not None:
        max_len = integers("max_len", max_len)
    if graph.n > _BRUTE_MAX_VERTICES and (max_len is None or max_len > _BRUTE_MAX_LEN):
        raise BudgetError(
            f"brute force needs <= {_BRUTE_MAX_VERTICES} vertices or "
            f"max_len <= {_BRUTE_MAX_LEN}"
        )
    if x == y:
        return 0
    cap = graph.n - 1 if max_len is None else max_len
    adj = _adjacency(graph)
    best: list[int | None] = [None]
    visited = [False] * graph.n
    visited[x] = True

    def walk(u: int, length: int) -> None:
        if length >= cap or (best[0] is not None and length + 1 >= best[0]):
            return
        for v in adj[u]:
            if v == y:
                best[0] = length + 1
                return
            if not visited[v]:
                visited[v] = True
                walk(v, length + 1)
                visited[v] = False

    if cap >= 1 and y in adj[x]:
        return 1
    walk(x, 0)
    return best[0]


def brute_force_cost_distance(
    graph: SampledGraph, costs: CostMap, x: int, y: int
) -> float | None:
    """Exhaustive minimum over simple paths; the oracle for `cost_distance`."""
    x, y = integers("vertex id", x, 0, graph.n), integers("vertex id", y, 0, graph.n)
    if graph.n > _BRUTE_MAX_VERTICES:
        raise BudgetError(f"brute force needs <= {_BRUTE_MAX_VERTICES} vertices")
    if x == y:
        return 0.0
    adj = _adjacency(graph)
    cost = dict(zip(map(tuple, costs.pair_array.tolist()), costs.cost_array.tolist()))
    best: list[float] = [np.inf]
    visited = [False] * graph.n
    visited[x] = True

    def walk(u: int, acc: float) -> None:
        if acc >= best[0]:
            return
        for v in adj[u]:
            c = acc + cost[min(u, v), max(u, v)]
            if v == y:
                if c < best[0]:
                    best[0] = c
            elif not visited[v]:
                visited[v] = True
                walk(v, c)
                visited[v] = False

    walk(x, 0.0)
    return float(best[0]) if np.isfinite(best[0]) else None

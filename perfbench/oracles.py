"""Checks of the program's outputs against computations made apart from it.

Every function here takes plain arrays or the program's result objects and
returns a list of problem strings; an empty list means the check passed.
The realizations themselves are the program's (a seed names one), but
distances come from `scipy.sparse.csgraph`, probabilities from the kernel
formula written out here, and coarse graphs from a projection done here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Five binomial standard deviations: a false alarm on any one statistical
# check is rarer than 1 in a million.
Z_CHECK = 5.0
# Distances this close to a threshold may round either way between two
# correct summation orders; ball sizes are compared with that slack.
REL_TIE = 1e-9


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def edge_array(edges) -> np.ndarray:
    """(m, 2) int64 array of a set of unordered pairs, sorted."""
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(sorted(edges), dtype=np.int64)


def _sym_csr(pairs: np.ndarray, weights: np.ndarray, n: int) -> csr_matrix:
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return csr_matrix((np.concatenate([weights, weights]), (rows, cols)), shape=(n, n))


def hop_distances(pairs: np.ndarray, n: int, root: int, cap: int) -> np.ndarray:
    """Hop distances from root, inf beyond `cap` hops."""
    graph = _sym_csr(pairs, np.ones(len(pairs)), n)
    return dijkstra(graph, directed=True, indices=root, unweighted=True, limit=cap + 0.5)


def fpp_distances(pairs: np.ndarray, costs: np.ndarray, n: int, root: int,
                  t_max: float) -> np.ndarray:
    """Cost distances on the sampled edges; inf beyond t_max."""
    if np.any(costs <= 0):
        # csgraph reads an explicit zero as a missing edge.
        raise ValueError("FPP costs must be positive")
    graph = _sym_csr(pairs, costs, n)
    return dijkstra(graph, directed=True, indices=root, limit=t_max * (1 + REL_TIE))


def pareto_weights(u: np.ndarray, tau: float) -> np.ndarray:
    """Pr{W >= z} = z^(1 - tau): the weight law written out."""
    return (1.0 - u) ** (-1.0 / (tau - 1.0))


def cffp_cost_matrix(cost_uniform, weights: np.ndarray, alpha: float) -> np.ndarray:
    """Dense CFFP cost matrix on the 1-d lattice {0..n-1}.

    `cost_uniform(us, vs)` returns the cost-stream uniform of each pair;
    the cost of {u, v} is Exp with rate (w_u w_v)^alpha |u - v|^(-alpha).
    """
    n = len(weights)
    us, vs = np.triu_indices(n, 1)
    rate = (weights[us] * weights[vs]) ** alpha * (vs - us).astype(np.float64) ** (-alpha)
    cost = -np.log1p(-cost_uniform(us, vs)) / rate
    mat = np.zeros((n, n))
    mat[us, vs] = cost
    mat[vs, us] = cost
    return mat


def cffp_distances(mat: np.ndarray, root: int, t_max: float) -> np.ndarray:
    return dijkstra(mat, directed=True, indices=root, limit=t_max * (1 + REL_TIE))


def ball_size_bounds(dist: np.ndarray, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Per-threshold ball sizes with ties within REL_TIE counted both ways."""
    ts = np.asarray(thresholds, dtype=np.float64)
    lo = np.array([np.count_nonzero(dist <= t * (1 - REL_TIE)) for t in ts])
    hi = np.array([np.count_nonzero(dist <= t * (1 + REL_TIE)) for t in ts])
    return lo, hi


def check_ball_sums(label: str, mean_sizes, trials: int, lo_sum, hi_sum) -> list[str]:
    """The program's mean ball sizes times trials must fall in the oracle range."""
    got = np.asarray(mean_sizes, dtype=np.float64) * trials
    bad = np.nonzero((got < np.asarray(lo_sum) - 1e-6) | (got > np.asarray(hi_sum) + 1e-6))[0]
    return [
        f"{label}: threshold #{j}: program ball-size sum {got[j]:.6f}, "
        f"oracle {lo_sum[j]}..{hi_sum[j]}"
        for j in bad
    ]


def check_tail_successes(estimates, ys, thresholds, oracle_rows: np.ndarray) -> list[str]:
    """Success counts of mc_tail_grid against per-trial oracle distances.

    `oracle_rows` is (trials, len(ys)); estimates come y-major, as the
    program returns them.
    """
    problems = []
    trials = oracle_rows.shape[0]
    cells = [(j, thr) for j in range(len(ys)) for thr in thresholds]
    if len(estimates) != len(cells):
        return [f"tail grid: {len(estimates)} estimates for {len(cells)} cells"]
    for e, (j, thr) in zip(estimates, cells):
        want = int(np.count_nonzero(oracle_rows[:, j] <= thr))
        if e.trials != trials or e.successes != want or e.threshold != thr:
            problems.append(
                f"tail grid: y={ys[j]} k={thr}: program {e.successes}/{e.trials}, "
                f"oracle {want}/{trials}"
            )
    return problems


# ---------------------------------------------------------------------------
# Statistics and closed forms
# ---------------------------------------------------------------------------

def wilson(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval, exact 0 and 1 at the boundary."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def lrp_tail_bound(k: int, dist: float, eps: float, alpha: float, d: int) -> float:
    """dist^(-alpha d) exp(alpha d k^(1 / (Delta + eps))), Delta = 1/log2(2/alpha)."""
    delta = 1.0 / math.log2(2.0 / alpha)
    return dist ** (-alpha * d) * math.exp(alpha * d * k ** (1.0 / (delta + eps)))


def check_estimates(estimates, trials: int) -> list[str]:
    """p_hat and the Wilson interval of every estimate, recomputed."""
    problems = []
    for e in estimates:
        lo, hi = wilson(e.successes, trials)
        if (e.trials != trials or e.p_hat != e.successes / trials
                or abs(e.ci_low - lo) > 1e-12 or abs(e.ci_high - hi) > 1e-12):
            problems.append(
                f"estimate dist={e.dist} k={e.threshold}: p_hat {e.p_hat} "
                f"ci ({e.ci_low}, {e.ci_high}), expected ({lo}, {hi})"
            )
    return problems


def check_compliance(report, estimates, eps_grid, alpha: float, d: int) -> list[str]:
    """bound_compliance's best eps and margin, recomputed from the estimates."""
    best_eps, best_margin = None, -math.inf
    for eps in eps_grid:
        margin = math.inf
        for e in estimates:
            if e.ci_low > 0:
                bound = lrp_tail_bound(int(e.threshold), e.dist, eps, alpha, d)
                margin = min(margin, math.log(bound) - math.log(e.ci_low))
        if best_eps is None or margin > best_margin:
            best_eps, best_margin = eps, margin
    same_margin = (
        report.margin == best_margin
        if math.isinf(best_margin)
        else abs(report.margin - best_margin) <= 1e-9 * max(1.0, abs(best_margin))
    )
    if (report.best_constants != best_eps or not same_margin
            or report.compliant != (best_margin >= 0)
            or report.searched != len(eps_grid)):
        return [
            f"compliance: program eps {report.best_constants} margin {report.margin} "
            f"compliant {report.compliant}; recomputed eps {best_eps} "
            f"margin {best_margin}"
        ]
    return []


def check_growth_bound(thresholds, pooled_mean, trials: int, big_c: float, n: int,
                       min_trials: int) -> list[str]:
    """g-hat(t) <= exp(C t) on pooled trials; vacuous bounds are refused."""
    if trials < min_trials:
        return [f"growth bound: {trials} pooled trials, need {min_trials}"]
    if math.exp(big_c * thresholds[0]) >= n:
        return [f"growth bound: exp(C t_1) >= n = {n}; the box alone meets it"]
    return [
        f"growth bound: g-hat({t}) = {g:.4f} > exp(C t) = {math.exp(big_c * t):.4f} "
        f"over {trials} trials"
        for t, g in zip(thresholds, pooled_mean)
        if g > math.exp(big_c * t)
    ]


def check_growth_shape(label: str, mean_sizes, n: int) -> list[str]:
    g = np.asarray(mean_sizes, dtype=np.float64)
    if np.any(np.diff(g) < 0) or g[0] < 1 or g[-1] > n:
        return [f"{label}: mean sizes not nondecreasing within [1, {n}]: {g.tolist()}"]
    return []


def check_cost_mean(costs: np.ndarray) -> list[str]:
    """Pooled Exp(1) costs have mean 1 within Z_CHECK standard errors."""
    m = len(costs)
    if m == 0:
        return ["FPP costs: none to check"]
    mean = float(np.mean(costs))
    if abs(mean - 1.0) > Z_CHECK / math.sqrt(m):
        return [f"FPP costs: pooled mean {mean:.5f} over {m} edges, expected 1"]
    return []


# ---------------------------------------------------------------------------
# Edge sets against the kernel
# ---------------------------------------------------------------------------

def kernel_prob(wu, wv, dist, alpha: float, lam: float, d: int, exp_kernel: bool = False):
    """min{1, x} or 1 - exp(-x) with x = lam (w_u w_v / dist^d)^alpha."""
    x = lam * (wu * wv / dist**d) ** alpha
    return -np.expm1(-x) if exp_kernel else np.minimum(1.0, x)


def lattice_grid_edge_count(d: int, side: int) -> int:
    return d * side ** (d - 1) * (side - 1)


def check_lrp_offsets(pairs: np.ndarray, samples: int, n: int, alpha: float,
                      lam: float) -> list[str]:
    """Per-offset edge frequency of 1-d LRP, pooled over `samples` graphs.

    Offset 1 (the grid) must be present in every sample; longer offsets are
    compared with the kernel in dyadic bins, each within Z_CHECK sigma.
    """
    problems = []
    off = pairs[:, 1] - pairs[:, 0]
    if np.any(off < 1) or np.any(pairs[:, 1] >= n):
        return ["LRP offsets: pair outside 0 <= u < v < n"]
    grid = int(np.count_nonzero(off == 1))
    if grid != samples * (n - 1):
        problems.append(f"LRP offsets: {grid} grid edges, expected {samples * (n - 1)}")
    r = np.arange(2, n, dtype=np.float64)
    p = np.minimum(1.0, lam * r ** (-alpha))
    pairs_at = n - r
    counts = np.bincount(off, minlength=n)[2:]
    lo = 2
    while lo < n:
        hi = min(2 * lo, n)
        sel = slice(lo - 2, hi - 2)
        mean = samples * float(np.sum(pairs_at[sel] * p[sel]))
        var = samples * float(np.sum(pairs_at[sel] * p[sel] * (1 - p[sel])))
        obs = int(counts[sel].sum())
        if abs(obs - mean) > Z_CHECK * math.sqrt(var) + 1.0:
            problems.append(
                f"LRP offsets {lo}..{hi - 1}: {obs} edges, kernel expects {mean:.1f} "
                f"(sd {math.sqrt(var):.1f})"
            )
        lo = hi
    return problems


def check_kernel_sum(label: str, pairs: np.ndarray, positions: np.ndarray,
                     weights: np.ndarray, alpha: float, lam: float, lattice: bool) -> list[str]:
    """Long-range edge count against sum p over all pairs, with a binomial bound.

    On a lattice every nearest-neighbour pair must be an edge and is left
    out of the sum; otherwise (GIRG) every pair counts.
    """
    n, d = positions.shape
    diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    near = np.einsum("ij,ij->i", diff, diff) == 1.0 if lattice else np.zeros(len(pairs), bool)
    problems = []
    if lattice and int(near.sum()) != lattice_grid_edge_count(d, round(n ** (1 / d))):
        problems.append(f"{label}: {int(near.sum())} grid edges, expected "
                        f"{lattice_grid_edge_count(d, round(n ** (1 / d)))}")
    mean = var = 0.0
    for i in range(n - 1):
        dd = positions[i + 1:] - positions[i]
        dist2 = np.einsum("ij,ij->i", dd, dd)
        keep = dist2 != 1.0 if lattice else slice(None)
        p = kernel_prob(weights[i], weights[i + 1:][keep], np.sqrt(dist2[keep]), alpha, lam, d)
        mean += float(p.sum())
        var += float((p * (1 - p)).sum())
    obs = int(len(pairs) - near.sum())
    if abs(obs - mean) > Z_CHECK * math.sqrt(var) + 1.0:
        problems.append(f"{label}: {obs} long-range edges, kernel expects {mean:.1f} "
                        f"(sd {math.sqrt(var):.1f})")
    return problems


# ---------------------------------------------------------------------------
# Couplings and the text format
# ---------------------------------------------------------------------------

def check_subset(orig_edges, red_edges, report) -> list[str]:
    """The alpha-reduced graph contains the original edge by edge."""
    missing = len(orig_edges - red_edges)
    if missing or report.violations != 0 or report.trials != len(orig_edges):
        return [f"alpha coupling: {missing} original edges missing from the reduced "
                f"graph; report says {report.violations} of {report.trials}"]
    return []


def project_edges(fine_pairs: np.ndarray, fine_positions: np.ndarray, r: int,
                  coarse_side: int) -> set:
    """Coarse pairs {box(u), box(v)} of fine edges across two boxes."""
    coarse = fine_positions.astype(np.int64) // r
    d = coarse.shape[1]
    strides = coarse_side ** np.arange(d - 1, -1, -1)
    idx = coarse @ strides
    a, b = idx[fine_pairs[:, 0]], idx[fine_pairs[:, 1]]
    keep = a != b
    lo, hi = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    return set(zip(lo.tolist(), hi.tolist()))


def check_blowup(fine, coarse, report, r: int, coarse_side: int) -> list[str]:
    """Coarse edges are the projection of the fine ones; bins count every pair."""
    problems = []
    want = project_edges(edge_array(fine.edges), fine.positions, r, coarse_side)
    if set(coarse.edges) != want:
        problems.append(f"blow-up: {len(coarse.edges ^ want)} coarse edges differ from "
                        "the projection of the fine edges")
    n = coarse.n
    us, vs = np.triu_indices(n, 1)
    diff = coarse.positions[us] - coarse.positions[vs]
    # Squared lattice distances are exact integers; bin on them, then key
    # each bin by its rounded distance as the report does.
    dist2 = np.einsum("ij,ij->i", diff, diff).astype(np.int64)
    present = np.zeros(len(us), dtype=np.int64)
    if want:
        ca = np.array(sorted(want), dtype=np.int64)
        # position of pair (u, v), u < v, in triu_indices order
        present[ca[:, 0] * n - ca[:, 0] * (ca[:, 0] + 1) // 2 + ca[:, 1] - ca[:, 0] - 1] = 1
    levels, inverse = np.unique(dist2, return_inverse=True)
    pairs = np.bincount(inverse)
    edges = np.bincount(inverse, weights=present).astype(np.int64)
    keys = [round(math.sqrt(x), 9) for x in levels.tolist()]
    got = [(rec["dist"], rec["pairs"], rec["edges"]) for rec in report.details]
    expected = list(zip(keys, pairs.tolist(), edges.tolist()))
    if report.trials != len(us) or got != expected:
        problems.append(f"blow-up: report bins {len(got)} over {report.trials} pairs "
                        f"differ from recount {len(expected)} over {len(us)} pairs")
    return problems


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def check_reload(saved, saved_costs, loaded, loaded_costs) -> list[str]:
    """A reloaded graph equals the saved one bit for bit."""
    problems = []
    fields = [
        ("model", saved.model, loaded.model),
        ("seed", saved.seed, loaded.seed),
        ("params", saved.params, loaded.params),
        ("weights", _bits(saved.weights), _bits(loaded.weights)),
        ("positions", _bits(saved.positions), _bits(loaded.positions)),
        ("edges", saved.edges, loaded.edges),
    ]
    for name, a, b in fields:
        if a != b:
            problems.append(f"reload: {name} differs")
    if saved_costs is not None:
        if loaded_costs is None:
            problems.append("reload: costs lost")
        else:
            a = sorted(saved_costs.costs.items())
            b = sorted(loaded_costs.costs.items())
            if ([k for k, _ in a] != [k for k, _ in b]
                    or _bits(np.array([c for _, c in a])) != _bits(np.array([c for _, c in b]))
                    or saved_costs.rate_model != loaded_costs.rate_model):
                problems.append("reload: costs differ")
    return problems

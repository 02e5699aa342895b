"""Executable couplings: alpha-reduction, FPP/CFFP domination, box blow-ups.

Each check returns a CouplingReport with per-record detail.  Monte Carlo
dominance checks flag a violation only when the empirical shortfall exceeds
three binomial standard errors, computed under the boundary hypothesis
(the target probability itself), which keeps the criterion meaningful in
tail regions the trial count cannot resolve.

A blow-up puts the fine box r*u + {0..r-1}^d behind coarse vertex u
(`blowup_box_map`); u and v are adjacent iff a fine edge joins their boxes,
and `blowup_lrp` reports the smallest such edge as their witness.  Crossing
witnesses and walking the grid inside boxes turns a coarse path of length k
into a fine one of at most 3*d*r*k steps (`stitch_fine_path`,
`path_stitch_bound`): the paper's overhead on distances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, integers, reals
from .kernels import (
    ModelParams,
    alpha_reduced_params,
    connection_prob,
    pareto_quantile,
    tau_prime_max,
)
from .rng import trial_seeds, vertex_uniforms
from .sampler import BoxSpec, Model, SampledGraph, sample_graph

__all__ = [
    "CouplingKind",
    "BlowupSpec",
    "CouplingReport",
    "couple_alpha",
    "min_exp_inequality",
    "fpp_cffp_edge_check",
    "blowup_box_map",
    "blowup_lrp",
    "combine_blowup_reports",
    "stitch_fine_path",
    "aggregate_weight",
    "weight_dominance_test",
    "path_stitch_bound",
]


class CouplingKind(str, Enum):
    ALPHA_REDUCE = "AlphaReduce"
    FPP_CFFP = "FppCffp"
    BLOWUP_LRP = "BlowupLRP"
    WEIGHT_DOMINANCE = "WeightDominance"
    MIN_EXP = "MinExpGrid"


@dataclass(frozen=True)
class BlowupSpec:
    """Blow-up factor and small-parameter model of a box coupling."""

    r: int
    params_small: ModelParams

    def __post_init__(self):
        # r = 1 is the identity blow-up, useful as a degenerate check.
        object.__setattr__(self, "r", integers("the blow-up factor r", self.r, 1))


@dataclass
class CouplingReport:
    kind: CouplingKind
    trials: int
    violations: int
    parameters: dict = field(default_factory=dict)
    details: list = field(default_factory=list)

    def __post_init__(self):
        if self.violations > self.trials:
            raise DomainError("violations cannot exceed trials")

    def to_dict(self) -> dict:
        return dict(vars(self), kind=self.kind.value)  # the fields, in order

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def couple_alpha(
    box: BoxSpec, params: ModelParams, alpha_prime: float, seed: int
) -> tuple[SampledGraph, SampledGraph, CouplingReport]:
    """Sample (alpha, lambda) and (alpha', lambda^(alpha'/alpha)) on shared uniforms.

    Weights and edge uniforms are shared through the common seed, so the
    first graph must be a subgraph of the second edge by edge; any missing
    edge is recorded as a violation.
    """
    reduced = alpha_reduced_params(params, alpha_prime)
    g_orig = sample_graph(box, params, Model.SFP, seed)
    g_red = sample_graph(box, reduced, Model.SFP, seed)
    # the original edges, in sorted order, whose keys lo * n + hi the reduced graph lacks
    orig, red = (g.edge_array[:, 0] * box.n_vertices + g.edge_array[:, 1] for g in (g_orig, g_red))
    missing = g_orig.edge_array[~np.isin(orig, red, assume_unique=True)].tolist()
    details = [{"edge": e} for e in missing]
    report = CouplingReport(
        kind=CouplingKind.ALPHA_REDUCE,
        trials=len(g_orig.edge_array),
        violations=len(missing),
        parameters={
            "alpha": params.alpha,
            "alpha_prime": alpha_prime,
            "lambda": params.lam,
            "lambda_prime": reduced.lam,
            "seed": seed,
        },
        details=details,
    )
    return g_orig, g_red, report


def min_exp_inequality(a: float, b: float) -> tuple[float, float]:
    """Both sides of min{1, a}(1 - e^-b) <= 1 - e^-(ab), for a, b >= 0."""
    reals("a", a, 0)
    reals("b", b, 0)
    lhs = min(1.0, a) * -math.expm1(-b)
    rhs = -math.expm1(-a * b)
    return lhs, rhs


def fpp_cffp_edge_check(
    wu: float,
    wv: float,
    dist: float,
    t: float,
    trials: int,
    seed: int,
    params: ModelParams,
) -> CouplingReport:
    """Monte Carlo check that a single FPP edge is dominated by its CFFP cost.

    X <= t needs the edge to exist (probability min{1, lam * kernel}) and an
    independent Exp(1) cost below t; Y is Exp(lam * kernel) directly.  Both
    events are driven by the same per-trial uniform pair, and a violation is
    flagged only when p_hat(X <= t) exceeds p_hat(Y <= t) by more than three
    pooled standard errors.
    """
    reals("wu", wu, 1)
    reals("wv", wv, 1)
    reals("dist", dist, 1)
    reals("t", t, 0)
    trials = integers("trials", trials, 1)

    p_exist = float(connection_prob(wu, wv, dist, params))
    # lambda multiplies the CFFP rate so that domination also holds away
    # from the paper's lambda = 1 normalization.
    rate = params.lam * (wu * wv) ** params.alpha * dist ** (-params.alpha * params.d)

    u1, u2 = vertex_uniforms(trial_seeds(seed, trials)[:, None], [1, 2]).reshape(-1, 2).T

    p_cost_unit = -math.expm1(-t)
    p_cost_rate = -math.expm1(-rate * t)
    x_hits = int(np.count_nonzero((u1 < p_exist) & (u2 < p_cost_unit)))
    y_hits = int(np.count_nonzero(u2 < p_cost_rate))
    p_x = x_hits / trials
    p_y = y_hits / trials
    sigma = math.sqrt((p_x * (1 - p_x) + p_y * (1 - p_y)) / trials)
    violated = p_x > p_y + 3.0 * sigma
    detail = {
        "wu": wu,
        "wv": wv,
        "dist": dist,
        "t": t,
        "lhs": p_x,
        "rhs": p_y,
        "lhs_exact": p_exist * p_cost_unit,
        "rhs_exact": p_cost_rate,
        "sigma": sigma,
    }
    return CouplingReport(
        kind=CouplingKind.FPP_CFFP,
        trials=trials,
        violations=int(violated),
        parameters={"alpha": params.alpha, "d": params.d, "lambda": params.lam,
                    "seed": seed},
        details=[detail],
    )


def blowup_box_map(u, r: int, d: int) -> set[tuple[int, ...]]:
    """The r^d fine lattice points associated with coarse vertex u.

    Fine coordinates are r*u + {0..r-1}^d; boxes of distinct coarse
    vertices are disjoint and tile the fine lattice.
    """
    cell = BoxSpec(d=d, side=r, origin=u if np.ndim(u) else (u,))  # integers only
    return {tuple(x) for x in (cell.coords.T + np.multiply(cell.side, cell.origin)).tolist()}


def path_stitch_bound(r: int, d: int, k: int) -> int:
    """Fine-lattice path budget 3*d*r*k for a coarse path of length k."""
    r, d, k = integers("r", r, 1), integers("d", d, 1), integers("k", k, 1)
    return 3 * d * r * k


def blowup_lrp(
    coarse_box: BoxSpec,
    spec: BlowupSpec,
    lambda_goal: float,
    seed: int,
) -> tuple[SampledGraph, SampledGraph, CouplingReport]:
    """Blow up a small-lambda LRP into a coarse graph and rate its strength.

    Samples LRP_s on the fine box of side r*L; the coarse graph has edge
    {u, v} iff some fine edge joins box(u) to box(v).  The report bins all
    coarse pairs by their Euclidean distance and flags bins whose edge
    frequency falls more than 3 sigma short of min{1, lambda_goal *
    dist^(-alpha d)}.
    """
    reals("lambda_goal", lambda_goal, 0, ends="(]")
    params = spec.params_small
    if coarse_box.d != params.d:
        raise DomainError("box dimension must match the model dimension")
    r = spec.r
    fine_box = BoxSpec(
        d=coarse_box.d,
        side=r * coarse_box.side,
        origin=tuple(r * o for o in coarse_box.origin),
    )
    fine = sample_graph(fine_box, params, Model.LRP, seed)

    # Map fine edges to coarse pairs; the witness of a coarse pair is the
    # smallest (lo, hi) fine edge joining its boxes, oriented from the lower
    # coarse vertex.
    cell = coarse_box.index(fine_box.coords // r)
    fe = fine.edge_array
    fe = fe[cell[fe[:, 0]] != cell[fe[:, 1]]]
    cu, cv = cell[fe[:, 0]], cell[fe[:, 1]]
    lo, hi = np.minimum(cu, cv), np.maximum(cu, cv)
    _, first = np.unique(lo * coarse_box.n_vertices + hi, return_index=True)
    fe[cu > cv] = fe[cu > cv][:, ::-1]
    pairs = np.stack([lo[first], hi[first]], axis=1)
    witnesses = {f"{a},{b}": w for (a, b), w in zip(pairs.tolist(), fe[first].tolist())}

    coarse = SampledGraph(
        model=Model.LRP,
        positions=coarse_box.lattice_positions(),
        weights=np.ones(coarse_box.n_vertices),
        edges=pairs,
        seed=seed,
        params=params,
        box=coarse_box,
    )

    report = _blowup_report(_distance_bins(coarse_box, pairs), {
        "r": r, "alpha": params.alpha, "d": params.d, "lambda_small": params.lam,
        "lambda_goal": lambda_goal,
    })
    report.parameters["witnesses"] = witnesses
    return fine, coarse, report


def _distance_bins(box: BoxSpec, edges: np.ndarray) -> dict:
    """{round(dist, 9): [pairs, edges]} over all pairs of a lattice box, with
    (lo, hi) rows `edges`.  The pairs at axis offsets delta >= 0, delta != 0
    number prod_j (side - delta_j) * 2^(nonzero axes - 1)."""
    coords = box.coords  # column i: vertex i, and offset i
    pairs = np.prod(box.side - coords, axis=0) << np.count_nonzero(coords, axis=0) >> 1
    hits = np.bincount(box.offset_index(edges[:, 0], edges[:, 1]), minlength=box.n_vertices)
    bins: dict = {}
    for dist2, npairs, nedges in zip(box.offset_dist2.tolist()[1:],
                                     pairs.tolist()[1:], hits.tolist()[1:]):
        cnt = bins.setdefault(round(math.sqrt(dist2), 9), [0, 0])
        cnt[0] += npairs
        cnt[1] += nedges
    return bins


def _shortfall(freq: float, target: float, n: int) -> tuple[float, bool]:
    """The binomial standard error sigma at `target` over n trials, and
    whether `freq` falls more than 3 sigma short of `target`."""
    sigma = math.sqrt(target * (1.0 - target) / n)
    return sigma, freq + 3.0 * sigma < target


def _blowup_report(bins: dict, parameters: dict) -> CouplingReport:
    """Flag the distance bins whose edge frequency falls 3 sigma short of
    min{1, lambda_goal * dist^(-alpha d)}."""
    lambda_goal = parameters["lambda_goal"]
    ad = parameters["alpha"] * parameters["d"]
    details = []
    violations = 0
    total_pairs = 0
    for dist in sorted(bins):
        npairs, hits = bins[dist]
        total_pairs += npairs
        target = min(1.0, lambda_goal * dist ** (-ad))
        freq = hits / npairs
        sigma, flagged = _shortfall(freq, target, npairs)
        violations += int(flagged)
        details.append(
            {
                "dist": dist,
                "pairs": npairs,
                "edges": hits,
                "freq": freq,
                "target": target,
                "sigma": sigma,
                "lambda_hat": freq * dist**ad,
                "flagged": flagged,
            }
        )
    return CouplingReport(
        kind=CouplingKind.BLOWUP_LRP,
        trials=total_pairs,
        violations=violations,
        parameters=parameters,
        details=details,
    )


def combine_blowup_reports(reports: list[CouplingReport]) -> CouplingReport:
    """Pool per-bin counts across independent blow-up realizations."""
    if not reports:
        raise DomainError("need at least one report")
    pooled: dict = {}
    for rep in reports:
        for rec in rep.details:
            cnt = pooled.setdefault(rec["dist"], [0, 0])
            cnt[0] += rec["pairs"]
            cnt[1] += rec["edges"]
    params, *others = ({k: v for k, v in rep.parameters.items() if k != "witnesses"}
                       for rep in reports)
    for other in others:
        for key in {**params, **other}:
            if params.get(key) != other.get(key):
                raise DomainError(f"cannot pool blow-up reports that differ in {key!r}: "
                                  f"{params.get(key)!r} against {other.get(key)!r}")
    return _blowup_report(pooled, params)


def stitch_fine_path(fine: SampledGraph, coarse_path: list[int], witnesses: dict) -> list[int]:
    """A fine path realizing a coarse path: the witness edges, as `blowup_lrp`
    reports them ("u,v" -> [fu, fv] from box(u) to box(v), u < v), joined
    inside each box by grid steps of `fine.box`, one axis at a time.  It has
    at most path_stitch_bound(r, d, k) steps."""
    if len(coarse_path) < 2:
        raise DomainError("coarse path needs at least two vertices")
    box = fine.box
    if box is None:
        raise DomainError("stitching walks the fine graph's lattice box, and it has none")
    path: list[int] = []
    for cu, cv in zip(coarse_path, coarse_path[1:]):
        key = (min(cu, cv), max(cu, cv))
        if f"{key[0]},{key[1]}" not in witnesses:
            raise DomainError(f"coarse pair {key} has no witness edge")
        fu, fv = witnesses[f"{key[0]},{key[1]}"][::1 if cu < cv else -1]
        if not path:
            path.append(fu)
        x = box.coords[:, path[-1]].tolist()
        for axis, to in enumerate(box.coords[:, fu].tolist()):
            while x[axis] != to:
                x[axis] += 1 if to > x[axis] else -1
                path.append(int(box.index(x)))
        path.append(fv)
    return path


def aggregate_weight(
    box_weights, alpha: float, r: int, d: int, c_agg: float = 1.0
) -> float | np.ndarray:
    """Aggregated box weight c * (sum w_i^alpha)^(1/alpha) / r^(d/2).

    `box_weights` is one box of r^d weights, or an array (..., r^d) of
    boxes, reduced over its last axis.  Deterministically at least
    c * n^(1/alpha - 1/2) with n = r^d, because every constituent weight
    is at least 1.
    """
    r, d = integers("r", r, 1), integers("d", d, 1)
    w = np.asarray(box_weights, dtype=np.float64)
    n = r**d
    if w.ndim < 1 or w.shape[-1] != n:
        raise DomainError(f"expected r^d = {n} weights, got {w.shape[-1:] or 'a scalar'}")
    reals("weights", w, 1)
    reals("alpha", alpha, 0, ends="(]")
    reals("c_agg", c_agg, 0, ends="(]")
    out = c_agg * (w**alpha).sum(axis=-1) ** (1.0 / alpha) / r ** (d / 2.0)
    return float(out) if out.ndim == 0 else out


def aggregate_weight_floor(alpha: float, r: int, d: int, c_agg: float = 1.0) -> float:
    """The deterministic lower bound c * n^(1/alpha - 1/2), n = r^d."""
    r, d = integers("r", r, 1), integers("d", d, 1)
    reals("alpha", alpha, 0, ends="(]")
    reals("c_agg", c_agg, 0, ends="(]")
    n = r**d
    return float(c_agg * n ** (1.0 / alpha - 0.5))


def weight_dominance_test(
    tau: float,
    tau_prime: float,
    alpha: float,
    r: int,
    d: int,
    c_agg: float,
    trials: int,
    seed: int,
) -> CouplingReport:
    """Empirical tail of the aggregated weight versus the Pareto(tau) tail.

    Draws `trials` aggregated weights from Pareto(tau') boxes of n = r^d
    samples and compares Pr[W >= x] against x^(1-tau) at 40 log-spaced points
    spanning [1, floor * 1e3].  Grid points where the empirical tail plus
    3 sigma falls below the target are flagged; for large enough r none
    should be.
    """
    reals("tau'", tau_prime, 3, tau_prime_max(tau, alpha), "()")
    trials = integers("trials", trials, 1)
    r, d = integers("r", r, 1), integers("d", d, 1)
    n = r**d
    floor = aggregate_weight_floor(alpha, r, d, c_agg)

    # trial i's box holds vertex_uniform(trial_seed(seed, i), j), j < n, drawn
    # in blocks of at most about 10^6 weights
    seeds = trial_seeds(seed, trials)[:, None]
    step = max(1, 1_000_000 // n)
    samples = np.concatenate([
        aggregate_weight(pareto_quantile(
            vertex_uniforms(seeds[i:i + step], np.arange(n)).reshape(-1, n), tau_prime),
            alpha, r, d, c_agg)
        for i in range(0, trials, step)])

    xs = np.geomspace(1.0, floor * 1e3, 40)
    details = []
    violations = 0
    for x in xs:
        emp = float(np.mean(samples >= x))
        target = float(x ** (1.0 - tau))
        sigma, flagged = _shortfall(emp, target, trials)
        violations += int(flagged)
        details.append(
            {"x": float(x), "empirical": emp, "target": target,
             "sigma": sigma, "flagged": flagged}
        )
    return CouplingReport(
        kind=CouplingKind.WEIGHT_DOMINANCE,
        trials=trials,
        violations=violations,
        parameters={
            "tau": tau,
            "tau_prime": tau_prime,
            "alpha": alpha,
            "r": r,
            "d": d,
            "c_agg": c_agg,
            "floor": floor,
            "seed": seed,
        },
        details=details,
    )

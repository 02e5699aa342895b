"""Monte Carlo estimation of tail probabilities, ball growth and exponent fits,
plus exact enumeration of the disjoint-occurrence (BK) inequality.

Binomial point estimates carry 95% Wilson score intervals, which behave
sensibly near p = 0 where the interesting tail probabilities live.  Trial
seeds are a stateless mix of (master seed, trial index), so rerunning a grid
with more thresholds reuses the identical realizations.

The tail grid, the ball growth and the shape check share one per-trial
pipeline, `_trial_rows`.  It checks the trial count, the root and the
thresholds once, searches each trial's realization up to the largest
threshold (`_distances_for_trial`) and stacks one row per trial: the
distances to the targets, the ball sizes or the ball radii.  The tail grid
reads only its targets, so it passes them on: the last level of its hop
search then samples only the pairs to targets not yet reached.  The ball
estimators read every vertex and pass none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError, integers, reals
from .kernels import ModelParams, delta_exponent, pareto_quantile
from .metrics import (_ball_profile, _check_thresholds, cost_distances_from,
                      hop_distances_from)
from .rng import trial_seeds, vertex_uniforms
from .sampler import (
    BoxSpec,
    CffpRealization,
    LazyRealization,
    Model,
    _weights,
    _write_csv,
    sample_fpp_costs,
    sample_graph,
)

__all__ = [
    "wilson_interval",
    "TailEstimate",
    "ModelConfig",
    "mc_tail",
    "mc_tail_grid",
    "write_tail_csv",
    "ComplianceReport",
    "bound_compliance",
    "GrowthSeries",
    "mc_ball_growth",
    "sum_exp_tail",
    "calibrate_sum_exp_constant",
    "bk_brute_force",
    "bk_brute_force_k",
    "fit_distance_exponent",
    "DistanceExponentFit",
    "shape_containment",
    "fit_shape_constant",
    "fkt_h_functional",
    "fit_selfbound_constant",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials = integers("trials", trials, 1)
    successes = integers("successes", successes, 0, trials + 1)
    p = successes / trials
    z = _Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # at the boundary the exact interval endpoint is 0 (resp. 1); keep it exact
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """One Monte Carlo point Pr[distance(x, y) <= threshold]."""

    dist: float
    threshold: float
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, dist, threshold, trials, successes) -> "TailEstimate":
        lo, hi = wilson_interval(successes, trials)
        return cls(
            dist=float(dist),
            threshold=threshold,
            trials=trials,
            successes=successes,
            p_hat=successes / trials,
            ci_low=lo,
            ci_high=hi,
        )


def write_tail_csv(estimates, path) -> None:
    columns = ("dist", "threshold", "trials", "successes", "p_hat", "ci_low", "ci_high")
    _write_csv(path, columns, ([getattr(e, c) for c in columns] for e in estimates))


@dataclass(frozen=True)
class ModelConfig:
    """What to sample per trial: a model on a box, measured in a metric.

    metric is one of "hop" (graph distance), "fpp" (Exp(1) costs on the
    sampled edges) or "cffp" (complete graph with weight-dependent rates,
    on the lattice of LRP or SFP).
    """

    box: BoxSpec
    params: ModelParams
    model: Model = Model.LRP
    metric: str = "hop"

    def __post_init__(self):
        if self.metric not in ("hop", "fpp", "cffp"):
            raise DomainError(f"unknown metric {self.metric!r}")
        if self.metric == "cffp" and self.params.lam != 1.0:
            raise DomainError("CFFP is normalized to lambda = 1")
        if self.metric == "cffp" and self.model is Model.GIRG:
            raise DomainError("CFFP is defined on the lattice, not on GIRG positions")


def _distances_for_trial(
    config: ModelConfig, root: int, s: int, cap, targets=None
) -> tuple[np.ndarray, np.ndarray]:
    """Distances from `root` for one realization, truncated at `cap`, and its positions.

    Hop distances search a `LazyRealization`, which samples only the pairs
    the BFS looks at; the realization is the one `sample_graph` returns.
    Given `targets`, its last level looks only at them (`hop_distances_from`).
    """
    if config.metric == "hop":
        real = LazyRealization(config.box, config.params, config.model, s)
        dist = hop_distances_from(real, root, max_depth=int(cap),
                                  targets=targets).astype(np.float64)
        dist[dist < 0] = np.inf
        return dist, real.positions
    if config.metric == "fpp":
        g = sample_graph(config.box, config.params, config.model, s)
        costs = sample_fpp_costs(g, s)
        return cost_distances_from(g, costs, root, t_max=float(cap)), g.positions
    weights = _weights(config.box, config.params, config.model, s)
    real = CffpRealization(box=config.box, weights=weights, params=config.params, seed=s)
    return cost_distances_from(real, None, root, t_max=float(cap)), real.positions


def _trial_rows(config: ModelConfig, root: int, thresholds, trials: int, seed: int,
                row, targets=None) -> np.ndarray:
    """(trials, ...) float array of row(dist, positions), one row per trial.

    Trial i searches the realization of the i-th trial seed of `seed` from
    `root`, with its distances cut off at the largest threshold.  A row that
    reads only the distances to `targets` may pass them: a hop search then
    finds no other vertex at the largest threshold, so those read inf.
    """
    trials = integers("trials", trials, 1)
    root = integers("vertex id", root, 0, config.box.n_vertices)
    _check_thresholds(thresholds, hop=config.metric == "hop")
    cap = max(thresholds)
    return np.array([row(*_distances_for_trial(config, root, s, cap, targets))
                     for s in trial_seeds(seed, trials).tolist()], dtype=np.float64)


def mc_tail(
    config: ModelConfig,
    x: int,
    y: int,
    threshold,
    trials: int,
    seed: int,
) -> TailEstimate:
    """Fraction of independent realizations with distance(x, y) <= threshold."""
    return mc_tail_grid(config, x, [y], [threshold], trials, seed)[0]


def mc_tail_grid(
    config: ModelConfig,
    x: int,
    ys,
    thresholds,
    trials: int,
    seed: int,
) -> list[TailEstimate]:
    """TailEstimates for every (y, threshold) cell, one search per trial.

    All cells of one trial share the same realization (seed mixed with the
    trial index), so estimates are monotone in the threshold by construction.
    """
    ys = integers("vertex id", list(ys), 0, config.box.n_vertices)
    if not ys.size:
        raise DomainError("need at least one target")
    thresholds = list(thresholds)
    rows = _trial_rows(config, x, thresholds, trials, seed, lambda dist, _: dist[ys],
                       targets=ys)
    if config.model is Model.GIRG:
        # GIRG positions are re-drawn per trial; no fixed geometric distance.
        geo = np.full(len(ys), np.nan)
    else:
        geo = np.sqrt(config.box.offset_dist2[config.box.offset_index(x, ys)])

    out = []
    for j, dist in enumerate(geo):
        for thr in thresholds:
            successes = int(np.count_nonzero(rows[:, j] <= thr))
            out.append(TailEstimate.from_counts(dist, thr, trials, successes))
    return out


@dataclass
class ComplianceReport:
    """Outcome of searching a constants grid for a dominating bound.

    `margin` is the compliance margin min over grid points of
    log(bound) - log(ci_low); points whose Wilson lower bound is zero are
    trivially compliant and contribute +inf.  `margin_upper` is the stricter
    min of log(bound) - log(ci_high), reported as a diagnostic (it is
    typically negative wherever the trial count cannot resolve the bound).
    """

    compliant: bool
    best_constants: object
    margin: float
    margin_upper: float
    searched: int
    records: list = field(default_factory=list)


def bound_compliance(estimates, bound_fn, constants_grid) -> ComplianceReport:
    """Search a constants grid for values whose bound dominates every estimate.

    `bound_fn(threshold, dist, constants)` evaluates the closed-form bound.
    A constants choice complies when ci_low <= bound at every grid point;
    the best choice maximizes the compliance margin.  Every estimate needs
    a finite `dist` (GIRG tails carry NaN), else DomainError.
    """
    estimates = list(estimates)
    constants_grid = list(constants_grid)
    if not estimates or not constants_grid:
        raise DomainError("need at least one estimate and one constants choice")
    # a NaN bound never lowers the margin, so the check would pass vacuously
    reals("the estimates' distances", [e.dist for e in estimates], -math.inf, math.inf, "()")

    # log ci_low is -inf at ci_low = 0, so such a point's margin is +inf
    ci_logs = [(-math.inf if e.ci_low == 0 else math.log(e.ci_low), math.log(e.ci_high))
               for e in estimates]
    best = None
    for constants in constants_grid:
        margin, margin_up, bounds = math.inf, math.inf, []
        for e, (log_low, log_high) in zip(estimates, ci_logs):
            bounds.append(bound := bound_fn(e.threshold, e.dist, constants))
            log_bound = math.log(bound)
            margin = min(margin, log_bound - log_low)
            margin_up = min(margin_up, log_bound - log_high)
        if best is None or margin > best[0]:
            best = margin, margin_up, constants, bounds

    margin, margin_up, constants, bounds = best
    return ComplianceReport(
        compliant=margin >= 0,
        best_constants=constants,
        margin=margin,
        margin_upper=margin_up,
        searched=len(constants_grid),
        records=[
            {
                "dist": e.dist,
                "threshold": e.threshold,
                "p_hat": e.p_hat,
                "ci_low": e.ci_low,
                "ci_high": e.ci_high,
                "bound": bound,
            }
            for e, bound in zip(estimates, bounds)
        ],
    )


@dataclass(frozen=True)
class LogLinearFit:
    intercept: float
    slope: float
    r2: float
    residuals: tuple


@dataclass(frozen=True)
class StretchedFit:
    intercept: float
    coeff: float
    exponent: float
    r2: float


def _r2(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _fit_loglinear(ts: np.ndarray, logg: np.ndarray) -> LogLinearFit:
    slope, intercept = np.polyfit(ts, logg, 1)
    fitted = intercept + slope * ts
    return LogLinearFit(
        intercept=float(intercept),
        slope=float(slope),
        r2=_r2(logg, fitted),
        residuals=tuple((logg - fitted).tolist()),
    )


def _fit_stretched(ts: np.ndarray, logg: np.ndarray) -> StretchedFit:
    """Least squares fit of a + b t^s to log g by a bounded search over s; loads scipy.optimize."""
    from scipy.optimize import minimize_scalar  # loaded by the first stretched fit

    def sse(s: float) -> float:
        reg = ts**s
        b, a = np.polyfit(reg, logg, 1)
        return float(np.sum((a + b * reg - logg) ** 2))

    res = minimize_scalar(sse, bounds=(0.05, 3.0), method="bounded")
    s = float(res.x)
    b, a = np.polyfit(ts**s, logg, 1)
    fitted = a + b * ts**s
    return StretchedFit(intercept=float(a), coeff=float(b), exponent=s,
                        r2=_r2(logg, fitted))


@dataclass(frozen=True)
class GrowthSeries:
    """Mean ball sizes over a threshold grid with both growth fits attached."""

    thresholds: tuple
    mean_sizes: tuple
    loglinear: LogLinearFit
    stretched: StretchedFit

    def to_csv(self, path) -> None:
        _write_csv(path, ("threshold", "mean_size"), zip(self.thresholds, self.mean_sizes))


def mc_ball_growth(
    config: ModelConfig,
    root: int,
    thresholds,
    trials: int,
    seed: int,
) -> GrowthSeries:
    """Per-threshold mean ball size around `root`, with growth-law fits.

    g-hat is a finite-box estimate: it saturates at the box's vertex count
    n, and for SFP/CFFP with 2 alpha >= tau - 1 (infinite E[W^(2 alpha)])
    its value at a fixed threshold depends on the box size.  The fits
    log g-hat = a + C t and log g-hat = a + b k^s (free stretch exponent
    s) are descriptive; neither is a check of a growth law.  They use only
    the thresholds at which no trial's ball reached all n vertices, as a
    saturated ball measures the box; with fewer than two such thresholds
    both fits are the flat one-point fit through the first threshold.
    """
    thresholds = list(thresholds)
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise DomainError("thresholds must be strictly increasing")
    sizes = _trial_rows(config, root, thresholds, trials, seed,
                        lambda dist, pos: _ball_profile(dist, pos, root, thresholds)[0])
    mean_sizes = sizes.mean(axis=0)
    logg = np.log(mean_sizes)
    unsaturated = np.all(sizes < config.box.n_vertices, axis=0)
    if np.count_nonzero(unsaturated) >= 2:
        ts = np.asarray(thresholds, dtype=np.float64)[unsaturated]
        loglinear = _fit_loglinear(ts, logg[unsaturated])
        stretched = _fit_stretched(ts, logg[unsaturated])
    else:
        loglinear = LogLinearFit(float(logg[0]), 0.0, 1.0, (0.0,))
        stretched = StretchedFit(float(logg[0]), 0.0, 1.0, 1.0)
    return GrowthSeries(
        thresholds=tuple(thresholds),
        mean_sizes=tuple(mean_sizes.tolist()),
        loglinear=loglinear,
        stretched=stretched,
    )


def calibrate_sum_exp_constant(alpha: float, tau: float) -> float:
    """Smallest constant making the k=1 Chernoff closed form an upper bound.

    Equals max(1, E[W^(2 alpha)]) = max(1, (tau-1)/(tau-1-2 alpha)); with
    this value the analytic bound dominates for every path length, since
    each interior weight enters two adjacent rates.
    """
    if not 2 * alpha < tau - 1:
        raise DomainError("requires 2*alpha < tau - 1")
    return max(1.0, (tau - 1.0) / (tau - 1.0 - 2.0 * alpha))


def sum_exp_tail(
    rates,
    t: float,
    trials: int,
    seed: int,
    alpha: float,
    d: int,
    dists,
    tau: float | None = None,
    c: float = math.e,
) -> tuple[float, float]:
    """Monte Carlo Pr[sum X_i <= t] against the bound (e c t / k)^k prod dist^-ad.

    With `rates=None`, weights are re-sampled per trial from Pareto(tau) and
    rate_i = (w_i w_{i+1})^alpha dist_i^(-alpha d); requires 2 alpha < tau-1.
    Fixed `rates` skip the weight layer (the k=1 closed-form mode).
    """
    reals("t", t, 0)
    trials = integers("trials", trials, 1)
    reals("alpha", alpha, 0, ends="(]")
    reals("c", c, 0, ends="(]")
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 1 or not (k := len(dists)):
        raise DomainError("dists must be a 1-d sequence of hop distances, one or more")
    reals("dists", dists, 1)
    ad = alpha * integers("d", d, 1)

    bound = 0.0 if t == 0 else (math.e * c * t / k) ** k * float(
        np.prod(dists ** (-ad))
    )

    seeds = trial_seeds(seed, trials)
    if rates is not None:
        rates = reals("rates", np.asarray(rates, dtype=np.float64), 0, ends="(]")
        if len(rates) != k:
            raise DomainError("rates and dists must have equal length")
        rate_matrix = np.broadcast_to(rates, (trials, k))
    else:
        if tau is None:
            raise DomainError("tau is required when weights are re-sampled")
        if not 2 * alpha < tau - 1:
            raise DomainError("requires 2*alpha < tau - 1")
        u = vertex_uniforms(seeds[:, None], np.arange(1000, 1001 + k))
        w = pareto_quantile(u, tau).reshape(trials, k + 1)
        rate_matrix = (w[:, :-1] * w[:, 1:]) ** alpha * dists ** (-ad)

    u = vertex_uniforms(seeds[:, None], np.arange(2000, 2000 + k)).reshape(trials, k)
    total = np.zeros(trials)
    for cost in (-np.log1p(-u) / rate_matrix).T:  # summed in path order
        total += cost
    p_hat = float(np.mean(total <= t))
    return p_hat, float(bound)


# ---------------------------------------------------------------------------
# BK inequality by exact enumeration.
#
# Events are predicates over the tuple of edge states.  For monotone
# (increasing) events, A box B holds at an outcome iff the open coordinates
# can be split into disjoint witness sets certifying A and B; that split
# search is run exactly for every outcome by `_disjoint_occurrence`.
# Non-monotone events are rejected.
# ---------------------------------------------------------------------------

_BK_MAX_EDGES = 12


def _tabulate_event(n: int, event) -> np.ndarray:
    """Boolean table over all 2^n outcomes; accepts a ready-made table too."""
    if isinstance(event, np.ndarray):
        if event.shape != (1 << n,):
            raise DomainError(f"event table must have 2^{n} entries")
        return event.astype(bool)
    tab = np.zeros(1 << n, dtype=bool)
    for mask in range(1 << n):
        states = tuple(bool(mask >> i & 1) for i in range(n))
        tab[mask] = bool(event(states))
    return tab


def _check_monotone(tab: np.ndarray, n: int, name: str) -> None:
    masks = np.arange(1 << n)
    for bit in range(n):
        step = 1 << bit
        lower = masks[(masks >> bit) & 1 == 0]
        if np.any(tab[lower] & ~tab[lower + step]):
            raise DomainError(f"event {name} is not monotone increasing")


def _disjoint_occurrence(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Boolean table of {exists s within mask with a[s] and b[mask \\ s]}.

    For each s where one table is true, the other table at mask \\ s is
    ORed into every superset mask of s; A box B is symmetric, so the loop
    runs over the table with fewer true entries.
    """
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    masks = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=bool)
    for s in np.flatnonzero(a).tolist():
        supersets = masks[masks & s == s]
        out[supersets] |= b[supersets ^ s]
    return out


def _outcome_probs(n: int, probs: np.ndarray) -> np.ndarray:
    p = np.ones(1 << n)
    for bit in range(n):
        open_mask = np.arange(1 << n) >> bit & 1 == 1
        p[open_mask] *= probs[bit]
        p[~open_mask] *= 1.0 - probs[bit]
    return p


def bk_brute_force(n_edges: int, probs, event_a, event_b) -> tuple[float, float]:
    """Exact Pr[A box B] and Pr[A]Pr[B] over the product space of n edges.

    Events are callables over the tuple of edge indicators and must be
    monotone increasing.  The disjoint-occurrence probability never exceeds
    the product.
    """
    return bk_brute_force_k(n_edges, probs, [event_a, event_b])


def bk_brute_force_k(n_edges: int, probs, events) -> tuple[float, float]:
    """k-ary disjoint occurrence versus the product of the probabilities."""
    n_edges = integers("n_edges", n_edges, 1)
    if n_edges > _BK_MAX_EDGES:
        raise BudgetError(f"enumeration capped at {_BK_MAX_EDGES} edges")
    probs = reals("probs", np.asarray(probs, dtype=np.float64), 0, 1)
    if len(probs) != n_edges:
        raise DomainError("probs length must equal n_edges")
    events = list(events)
    if len(events) < 2:
        raise DomainError("need at least two events")

    tabs = []
    for i, ev in enumerate(events):
        tab = _tabulate_event(n_edges, ev)
        _check_monotone(tab, n_edges, f"#{i}")
        tabs.append(tab)

    disjoint = tabs[0]
    for tab in tabs[1:]:
        disjoint = _disjoint_occurrence(disjoint, tab, n_edges)

    w = _outcome_probs(n_edges, probs)
    p_disjoint = float(w[disjoint].sum())
    p_product = float(np.prod([w[tab].sum() for tab in tabs]))
    return p_disjoint, p_product


@dataclass(frozen=True)
class DistanceExponentFit(LogLinearFit):
    reference_delta: float | None


def fit_distance_exponent(
    samples, params: ModelParams | None = None
) -> tuple[float, DistanceExponentFit]:
    """Least-squares slope of log(median distance) against log log(dist).

    Needs at least 4 distinct distances spanning two decades.  When params
    are given, the diagnostics carry the theoretical exponent
    delta_exponent(min{alpha, tau - 2}) for reference.
    """
    samples = [(float(a), float(b)) for a, b in samples]
    reals("dist", [a for a, _ in samples], 1, ends="(]")
    reals("median", [b for _, b in samples], 0, ends="(]")
    dists = sorted({a for a, _ in samples})
    if len(dists) < 4:
        raise DomainError("need at least 4 distinct distances")
    if dists[-1] / dists[0] < 100:
        raise DomainError("distances must span at least two decades")

    line = _fit_loglinear(np.log(np.log([a for a, _ in samples])),
                          np.log([b for _, b in samples]))
    ref = None
    if params is not None:
        ref = delta_exponent(min(params.alpha, params.tau - 2))
    return line.slope, DistanceExponentFit(**vars(line), reference_delta=ref)


def _hop_ball_radii(config: ModelConfig, root: int, ks, trials: int, seed: int) -> np.ndarray:
    """(trials, len(ks)) max Euclidean radius of the hop ball B(root, k)."""
    if config.metric != "hop":
        raise DomainError("shape containment is a hop-ball check")
    return _trial_rows(config, root, ks, trials, seed,
                       lambda dist, pos: _ball_profile(dist, pos, root, ks)[1])


def shape_containment(
    config: ModelConfig,
    root: int,
    ks,
    r_fn,
    trials: int,
    seed: int,
) -> list[dict]:
    """Per-k frequency of max geo radius of B(root, k) staying within r(k)."""
    ks = integers("ks", list(ks)).tolist()
    radii = _hop_ball_radii(config, root, ks, trials, seed)
    out = []
    for j, k in enumerate(ks):
        contained = int(np.count_nonzero(radii[:, j] <= r_fn(k)))
        out.append(
            {
                "k": k,
                "radius": float(r_fn(k)),
                "trials": trials,
                "contained": contained,
                "frequency": contained / trials,
            }
        )
    return out


def fit_shape_constant(
    config: ModelConfig,
    root: int,
    k0: int,
    delta: float,
    trials: int,
    seed: int,
    quantile: float = 0.95,
) -> float:
    """Fit c in r(k) = exp(c k^(1/delta)) to a quantile of the k0-ball radius."""
    reals("quantile", quantile, 0, 1, "()")
    k0 = integers("k0", k0, 1)
    reals("delta", delta, 0, ends="(]")
    radii = _hop_ball_radii(config, root, [k0], trials, seed)[:, 0]
    q = float(np.quantile(radii, quantile))
    if q < 1:
        q = 1.0
    return math.log(q) / k0 ** (1.0 / delta)


def _pinned_at_zero(g_hat: GrowthSeries) -> tuple[np.ndarray, np.ndarray]:
    """The series' thresholds and mean sizes, with g(0) = 1 put first when
    the grid starts above 0."""
    ts = np.asarray(g_hat.thresholds, dtype=np.float64)
    gs = np.asarray(g_hat.mean_sizes, dtype=np.float64)
    if ts[0] > 0:
        ts = np.concatenate([[0.0], ts])
        gs = np.concatenate([[1.0], gs])
    return ts, gs


def fkt_h_functional(
    g_hat: GrowthSeries, t: float, alpha: float, d: int, delta_rate: float
) -> float:
    """h(t) = t^(alpha d) * integral_0^t g(t-y)(g(y)-1) dy + exp(-delta t).

    Trapezoidal quadrature on the measured grid; g is interpolated linearly
    between grid points and pinned to g(0) = 1.
    """
    reals("delta_rate", delta_rate)
    d = integers("d", d, 1)
    ts, gs = _pinned_at_zero(g_hat)
    if reals("t", t, 0, ts[-1]) == 0:  # within the series
        return 1.0

    ys = np.unique(np.concatenate([ts[ts <= t], [t]]))
    g_y = np.interp(ys, ts, gs)
    g_ty = np.interp(t - ys, ts, gs)
    integral = float(np.trapezoid(g_ty * (g_y - 1.0), ys))
    return t ** (alpha * d) * integral + math.exp(-delta_rate * t)


def fit_selfbound_constant(g_hat: GrowthSeries, alpha: float, d: int) -> float:
    """Smallest c with g(t)^alpha <= c (t^(alpha d) int g(t-y)g(y) dy + 1)."""
    d = integers("d", d, 1)
    ts, gs = _pinned_at_zero(g_hat)
    worst = 1.0
    for t, g_t in zip(ts, gs):
        if t == 0:
            continue
        ys = ts[ts <= t]
        g_y = np.interp(ys, ts, gs)
        g_ty = np.interp(t - ys, ts, gs)
        denom = t ** (alpha * d) * float(np.trapezoid(g_ty * g_y, ys)) + 1.0
        worst = max(worst, g_t**alpha / denom)
    return worst

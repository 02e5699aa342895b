"""Model parameters, connection kernels and closed-form bound evaluators.

All functions here but `apply_kernel`, which writes into its argument, are
pure and accept scalars or numpy arrays where that is natural (kernels,
quantiles).  Nothing in this module draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DomainError, integers, reals


class KernelVariant(str, Enum):
    """min{1, x} kernel versus the 1 - exp(-x) variant."""

    MIN = "min"
    EXP = "exp"


@dataclass(frozen=True)
class ModelParams:
    """The (d, alpha, tau, lambda, kernel) tuple governing all kernels.

    `tau` may be `math.inf`, which degenerates the weight law to the
    constant 1 (the LRP case).  `alpha == 1` and `lam == 0` are accepted
    as boundary parameterizations; operations with stricter domains
    (e.g. the LRP tail bound) validate their own ranges.
    """

    d: int
    alpha: float
    tau: float
    lam: float
    kernel_variant: KernelVariant = KernelVariant.MIN

    def __post_init__(self):
        object.__setattr__(self, "d", integers("the dimension d", self.d, 1))
        reals("alpha", self.alpha, 1)
        reals("tau", self.tau, 1, ends="(]")
        reals("lambda", self.lam, 0)


@dataclass(frozen=True)
class BoundConstants:
    """Caller-supplied constants (c1, c2, beta, epsilon) of the SFP tail bound."""

    c1: float
    c2: float
    beta_exp: float
    epsilon: float = 0.0

    def __post_init__(self):
        for what, value in (("c1", self.c1), ("c2", self.c2), ("beta", self.beta_exp)):
            reals(what, value, 0, ends="(]")
        reals("epsilon", self.epsilon, 0)


@dataclass(frozen=True)
class EnvelopeParams:
    """Parameters of the stretched-exponential envelope G(t)."""

    theta: float
    beta_env: float
    lambda_env: float
    c_theta: float

    def __post_init__(self):
        reals("theta", self.theta, 0.5, 1, "()")
        reals("beta_env", self.beta_env, 0)
        reals("lambda_env", self.lambda_env, 0, ends="(]")
        reals("c_theta", self.c_theta, 1, ends="(]")


def delta_exponent(beta: float) -> float:
    """The polylog exponent 1 / log2(2 / beta), defined for beta in (0, 2).

    Strictly increasing in beta; diverges as beta -> 2.
    """
    reals("beta", beta, 0, 2, "()")
    return 1.0 / math.log2(2.0 / beta)


def connection_prob(wx, wy, dist, params: ModelParams):
    """Edge probability K((wx^alpha * wy^alpha) * lam * dist^(-alpha d)) for
    weights (wx, wy) at Euclidean distance `dist`, computed in that order,
    with K(x) = min{1, x} (MIN) or 1 - exp(-x) (EXP).  LRP has unit weights.
    Accepts arrays that broadcast.  `sampler`'s lattice walks read the
    `distance_rate` factor from a table per offset, and `apply_kernel` is K.
    """
    wx, wy, dist = (np.asarray(a, dtype=np.float64) for a in (wx, wy, dist))
    reals("dist", dist, 0, ends="(]")
    reals("weights", wx, 1)  # the Pareto floor
    reals("weights", wy, 1)
    arg = wx**params.alpha * wy**params.alpha * distance_rate(dist, params)
    return apply_kernel(arg, params.kernel_variant)


def distance_rate(dist, params: ModelParams):
    """lam * dist^(-alpha d): the kernel's argument at unit weights."""
    return params.lam * dist ** (-params.alpha * params.d)


def apply_kernel(arg, variant: KernelVariant):
    """min{1, arg} (MIN) or 1 - exp(-arg) (EXP), written into an array `arg`
    that the caller owns; a 0-d result is returned as a float."""
    arg = np.asarray(arg)
    if variant is KernelVariant.MIN:
        np.minimum(arg, 1.0, out=arg)
    else:
        np.negative(arg, out=arg)
        np.expm1(arg, out=arg)
        np.negative(arg, out=arg)
    return float(arg) if arg.ndim == 0 else arg


def pareto_quantile(u, tau: float):
    """Inverse CDF of the weight law Pr{W >= z} = z^(1-tau), z >= 1.

    Maps uniform u in [0, 1) to (1-u)^(-1/(tau-1)).  Accepts arrays.
    `tau == inf` yields the constant 1.
    """
    reals("tau", tau, 1, ends="(]")
    u = reals("u", np.asarray(u, dtype=np.float64), 0, 1, "[)")
    if math.isinf(tau):
        out = np.ones_like(u)
    else:
        out = (1.0 - u) ** (-1.0 / (tau - 1.0))
    return float(out) if out.ndim == 0 else out


def _delta_prime_sfp(params: ModelParams, epsilon: float) -> float:
    base = min(params.alpha, params.tau - 2.0 - epsilon)
    if not 0 < base < 2:
        raise DomainError(
            f"min{{alpha, tau-2-eps}} = {base} outside (0, 2); tail bound undefined"
        )
    return delta_exponent(base)


def tail_bound_sfp(k: int, dist: float, bc: BoundConstants, params: ModelParams) -> float:
    """Upper bound on Pr{d_G(x, y) <= k} in SFP at geometric distance `dist`.

    Evaluates c2^-1 * dist^(-alpha d) * (k+1)^-beta * exp(c1 * k^(1/Delta'))
    with Delta' = delta_exponent(min{alpha, tau - 2 - eps}).  The value may
    exceed 1: it is a bound, not a probability.
    """
    k = integers("k", k, 1)
    reals("dist", dist, 1)
    dprime = _delta_prime_sfp(params, bc.epsilon)
    if math.isinf(dist):
        return 0.0
    ad = params.alpha * params.d
    return (
        dist ** (-ad)
        * (k + 1.0) ** (-bc.beta_exp)
        * math.exp(bc.c1 * k ** (1.0 / dprime))
        / bc.c2
    )


def tail_bound_lrp(k: int, dist: float, eps: float, params: ModelParams) -> float:
    """Upper bound dist^(-alpha d) * exp(alpha d * k^(1/(Delta+eps))) for LRP."""
    k = integers("k", k, 1)
    reals("dist", dist, 1)
    reals("eps", eps, 0, ends="(]")
    # delta_exponent(alpha), written out: this is a hot path, and (1, 2) is in its range
    dprime = 1.0 / math.log2(2.0 / reals("alpha", params.alpha, 1, 2, "()")) + eps
    ad = params.alpha * params.d
    if math.isinf(dist):
        return 0.0
    return dist ** (-ad) * math.exp(ad * k ** (1.0 / dprime))


def tail_bound_fpp_log(
    t: float, dist: float, c: float, params: ModelParams, delta: float | None = None
) -> float:
    """Log of the cost-distance tail bound for FPP on SFP.

    Returns c * (log(1+t))^(1 - 1/Delta) * t^(1/Delta) - alpha d log(dist) + c,
    with the asymptotic slack factor fixed to 1.  `delta` defaults to
    delta_exponent(alpha), valid when 2 alpha < tau - 1; otherwise the
    caller must supply the adjusted exponent.
    """
    reals("t", t, 0)
    reals("dist", dist, 1)
    reals("c", c, 0, ends="(]")
    if delta is None:
        if not 2 * params.alpha < params.tau - 1:
            raise DomainError(
                "2*alpha < tau - 1 required for the Delta(alpha) form; "
                "supply delta explicitly otherwise"
            )
        delta = delta_exponent(params.alpha)
    inv = 1.0 / delta
    # 0^0 := 1 at the alpha -> 1 boundary; both t-factors vanish for t = 0.
    if t == 0:
        head = 0.0
    else:
        head = c * math.log1p(t) ** (1.0 - inv) * t**inv
    return head - params.alpha * params.d * math.log(dist) + c


def envelope_G_log(t: float, ep: EnvelopeParams) -> float:
    """log G(t) = c_theta (2 lam t)^(log2 2theta) (log(1+t^beta))^(log2 1/theta).

    The stretched-exponential envelope of the expected ball size;
    G(0) = 1, i.e. the log is 0 at t = 0.
    """
    if reals("t", t, 0) == 0:
        return 0.0
    e_outer = math.log2(2.0 * ep.theta)
    e_inner = math.log2(1.0 / ep.theta)
    return (
        ep.c_theta
        * (2.0 * ep.lambda_env * t) ** e_outer
        * math.log1p(t**ep.beta_env) ** e_inner
    )


def shape_radii(k: int, delta: float, eps: float) -> tuple[float, float]:
    """Inner and outer sandwich radii (q, r) = (e^(k^(1/D-e)), e^(k^(1/D+e)))."""
    k = integers("k", k, 1)
    reals("delta", delta, 0, ends="(]")
    reals("eps", eps, 0, ends="(]")
    if 1.0 / delta - eps < 0:
        raise DomainError(f"1/delta - eps = {1.0 / delta - eps} is negative")
    q = math.exp(k ** (1.0 / delta - eps))
    r = math.exp(k ** (1.0 / delta + eps))
    return q, r


def alpha_reduced_params(params: ModelParams, alpha_prime: float) -> ModelParams:
    """Parameters of the denser model after reducing alpha.

    Reducing alpha to alpha' while moving lambda to lambda^(alpha'/alpha)
    pointwise increases every connection probability, so the original graph
    is a subgraph of the reduced one under shared uniforms.
    """
    reals("alpha'", alpha_prime, 1, params.alpha, "()")
    return replace(
        params, alpha=alpha_prime, lam=params.lam ** (alpha_prime / params.alpha)
    )


def tau_prime_max(tau: float, alpha: float) -> float:
    """Supremum of admissible reduced exponents: tau(1 - a/2) + 3a/2.

    Any tau' in (3, tau_prime_max) makes the aggregated blow-up weight
    dominate Pareto(tau) for large enough blow-up factor.  tau must be
    finite: the tail x^(1-tau) of tau = inf is 0 beyond x = 1, which every
    weight law dominates, so a check against it would pass vacuously.
    """
    reals("tau", tau, 3, math.inf, "()")
    reals("alpha", alpha, 1, 2, "[)")
    return tau * (1.0 - alpha / 2.0) + 3.0 * alpha / 2.0

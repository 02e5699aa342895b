"""Closed-form evaluators: pinned values, algebraic identities, domains."""

import math

import numpy as np
import pytest

from percolate import (
    BoundConstants,
    DomainError,
    EnvelopeParams,
    KernelVariant,
    ModelParams,
    alpha_reduced_params,
    connection_prob,
    delta_exponent,
    envelope_G_log,
    pareto_quantile,
    shape_radii,
    tail_bound_fpp_log,
    tail_bound_lrp,
    tail_bound_sfp,
    tau_prime_max,
)


def lrp_params(alpha=1.5, lam=0.5, d=1, kernel=KernelVariant.MIN):
    return ModelParams(d=d, alpha=alpha, tau=math.inf, lam=lam, kernel_variant=kernel)


class TestDeltaExponent:
    def test_pinned_values(self):
        assert delta_exponent(1.0) == 1.0
        assert delta_exponent(0.5) == 0.5
        # 1 / log2(2/1.5), evaluated directly
        assert delta_exponent(1.5) == pytest.approx(2.4094208396532095, abs=1e-4)

    def test_strictly_increasing_and_divergent(self):
        grid = np.linspace(0.05, 1.95, 60)
        vals = [delta_exponent(b) for b in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert delta_exponent(1.999999) > 1e5

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.0, 2.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            delta_exponent(bad)

    def test_min_with_tau_matches_alpha_when_slack(self):
        # delta(min{alpha, tau-2-eps}) == delta(alpha) whenever alpha < tau-2-eps
        for alpha, tau, eps in [(1.3, 4.0, 0.1), (1.1, 3.5, 0.2), (1.9, 6.0, 0.0)]:
            assert alpha < tau - 2 - eps
            assert delta_exponent(min(alpha, tau - 2 - eps)) == delta_exponent(alpha)


class TestConnectionProb:
    def test_examples(self):
        assert connection_prob(1, 1, 1, lrp_params(alpha=1.5, lam=0.5)) == 0.5
        p = ModelParams(d=1, alpha=1.0, tau=4.0, lam=1.0)
        assert connection_prob(2, 2, 4, p) == 1.0
        p2 = ModelParams(d=1, alpha=2.0, tau=4.0, lam=1.0)
        assert connection_prob(1, 1, 2, p2) == 0.25

    def test_range_and_monotonicity(self):
        params = ModelParams(d=2, alpha=1.4, tau=4.0, lam=0.7)
        dists = np.linspace(1, 40, 80)
        probs = connection_prob(2.0, 3.0, dists, params)
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.all(np.diff(probs) <= 0)
        ws = np.linspace(1, 30, 60)
        pw = connection_prob(ws, 1.0, 5.0, params)
        assert np.all(np.diff(pw) >= 0)
        lams = [0.1, 0.5, 1.0, 3.0]
        pl = [connection_prob(1.5, 1.5, 3.0, ModelParams(d=2, alpha=1.4, tau=4.0, lam=l))
              for l in lams]
        assert all(b >= a for a, b in zip(pl, pl[1:]))

    def test_min_dominates_exp_pointwise(self):
        for lam in (0.2, 1.0, 4.0):
            pm = lrp_params(lam=lam, kernel=KernelVariant.MIN)
            pe = lrp_params(lam=lam, kernel=KernelVariant.EXP)
            for dist in np.linspace(1, 12, 40):
                assert connection_prob(1, 1, dist, pm) >= connection_prob(1, 1, dist, pe)

    def test_domain(self):
        with pytest.raises(DomainError):
            connection_prob(1, 1, 0.0, lrp_params())
        with pytest.raises(DomainError):
            connection_prob(0.5, 1, 2.0, lrp_params())

    @pytest.mark.parametrize("wx, wy, dist", [
        (1.0, 1.0, math.nan), (math.nan, 1.0, 2.0), (1.0, math.nan, 2.0),
        (1.0, 1.0, np.array([2.0, math.nan])),
    ])
    def test_nan_arguments_are_rejected(self, wx, wy, dist):
        with pytest.raises(DomainError):
            connection_prob(wx, wy, dist, ModelParams(d=1, alpha=1.5, tau=3.0, lam=0.5))


class TestParetoQuantile:
    def test_examples(self):
        assert pareto_quantile(0.0, 3.7) == 1.0
        assert pareto_quantile(0.99, 3.0) == pytest.approx(10.0, rel=1e-12)
        assert pareto_quantile(0.5, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_tau_inf_degenerates(self):
        u = np.linspace(0, 0.999, 50)
        assert np.all(pareto_quantile(u, math.inf) == 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            pareto_quantile(1.0, 3.0)
        with pytest.raises(DomainError):
            pareto_quantile(0.5, 1.0)
        with pytest.raises(DomainError):
            pareto_quantile(-0.1, 3.0)

    def test_nan_tau_is_rejected(self):
        with pytest.raises(DomainError):
            pareto_quantile(0.5, math.nan)

    @pytest.mark.parametrize("u", [math.nan, np.array([0.5, math.nan])])
    def test_nan_u_is_rejected(self, u):
        with pytest.raises(DomainError):
            pareto_quantile(u, 3.0)


class TestTailBoundSfp:
    def setup_method(self):
        self.params = ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0)
        self.bc = BoundConstants(c1=1.0, c2=1.0, beta_exp=1.0, epsilon=0.0)

    def test_pinned_value(self):
        # 2^-1.5 * 2^-1 * e, since Delta' = Delta(1.5) and k^(1/D') = 1 at k=1
        got = tail_bound_sfp(1, 2.0, self.bc, self.params)
        assert got == pytest.approx(0.4805288785198895, abs=1e-3)

    def test_distance_limit(self):
        assert tail_bound_sfp(1, math.inf, self.bc, self.params) == 0.0
        assert tail_bound_sfp(3, 1e12, self.bc, self.params) < 1e-15

    def test_c2_linearity(self):
        doubled = BoundConstants(c1=1.0, c2=2.0, beta_exp=1.0)
        assert tail_bound_sfp(1, 2.0, doubled, self.params) == pytest.approx(
            tail_bound_sfp(1, 2.0, self.bc, self.params) / 2
        )

    @pytest.mark.parametrize("field", ["c1", "c2", "beta_exp", "epsilon"])
    def test_nan_constants_are_rejected(self, field):
        fields = dict(c1=1.0, c2=1.0, beta_exp=1.0, epsilon=0.0)
        fields[field] = math.nan
        with pytest.raises(DomainError):
            BoundConstants(**fields)

    def test_domain(self):
        # min{alpha, tau - 2 - eps} must land in (0, 2)
        bad = ModelParams(d=1, alpha=1.5, tau=2.0, lam=1.0)
        with pytest.raises(DomainError):
            tail_bound_sfp(1, 2.0, self.bc, bad)
        with pytest.raises(DomainError):
            tail_bound_sfp(0, 2.0, self.bc, self.params)

    @pytest.mark.parametrize("k, dist", [(math.nan, 2.0), (1, math.nan)])
    def test_nan_arguments_are_rejected(self, k, dist):
        with pytest.raises(DomainError):
            tail_bound_sfp(k, dist, self.bc, self.params)

    def test_base_case_dominates_kernel(self):
        # bound at k=1 >= connection probability once c1 >= log(lam 2^beta c2)
        for lam in (0.5, 1.0, 2.0):
            for beta in (1.0, 2.0):
                for c2 in (1.0, 3.0):
                    c1 = math.log(lam * 2**beta * c2) + 0.1
                    if c1 <= 0:
                        c1 = 0.1
                    bc = BoundConstants(c1=c1, c2=c2, beta_exp=beta)
                    params = ModelParams(d=1, alpha=1.3, tau=4.0, lam=lam)
                    for dist in (1.0, 2.0, 5.0, 20.0):
                        assert tail_bound_sfp(1, dist, bc, params) >= connection_prob(
                            1, 1, dist, params
                        ) - 1e-12


class TestTailBoundLrp:
    def test_pinned_value(self):
        params = lrp_params(alpha=1.5, lam=0.05)
        assert tail_bound_lrp(1, 1.0, 0.01, params) == pytest.approx(math.exp(1.5))

    def test_decreasing_in_dist(self):
        params = lrp_params(alpha=1.5, lam=0.05)
        vals = [tail_bound_lrp(3, d, 0.1, params) for d in (1, 2, 8, 64, 512)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert tail_bound_lrp(3, math.inf, 0.1, params) == 0.0

    def test_domain(self):
        params = lrp_params(alpha=1.5, lam=0.05)
        with pytest.raises(DomainError):
            tail_bound_lrp(0, 1.0, 0.1, params)
        with pytest.raises(DomainError):
            tail_bound_lrp(1, 1.0, 0.1, ModelParams(d=1, alpha=2.5, tau=4.0, lam=1.0))
        with pytest.raises(DomainError):
            tail_bound_lrp(1, 1.0, 0.1, ModelParams(d=1, alpha=1.0, tau=4.0, lam=1.0))

    def test_nan_eps_is_rejected(self):
        with pytest.raises(DomainError):
            tail_bound_lrp(1, 1.0, math.nan, lrp_params(alpha=1.5, lam=0.05))

    @pytest.mark.parametrize("k, dist", [(math.nan, 2.0), (1, math.nan)])
    def test_nan_arguments_are_rejected(self, k, dist):
        with pytest.raises(DomainError):
            tail_bound_lrp(k, dist, 0.1, lrp_params(alpha=1.5, lam=0.05))


class TestTailBoundFppLog:
    def test_pinned_values(self):
        params = ModelParams(d=1, alpha=1.2, tau=4.0, lam=1.0)
        assert tail_bound_fpp_log(0.0, 1.0, 1.0, params) == pytest.approx(1.0)
        p_alpha1 = ModelParams(d=1, alpha=1.0, tau=4.0, lam=1.0)
        assert tail_bound_fpp_log(0.0, math.e, 1.0, p_alpha1) == pytest.approx(0.0)

    def test_additive_in_log_dist(self):
        params = ModelParams(d=2, alpha=1.3, tau=4.5, lam=1.0)
        t, c = 1.7, 2.0
        a = tail_bound_fpp_log(t, 3.0, c, params)
        b = tail_bound_fpp_log(t, 6.0, c, params)
        assert a - b == pytest.approx(params.alpha * params.d * math.log(2))

    def test_requires_moment_condition_or_delta(self):
        tight = ModelParams(d=1, alpha=1.6, tau=4.0, lam=1.0)  # 2a = 3.2 > 3
        with pytest.raises(DomainError):
            tail_bound_fpp_log(1.0, 2.0, 1.0, tight)
        # explicit exponent unlocks it
        val = tail_bound_fpp_log(1.0, 2.0, 1.0, tight, delta=2.0)
        assert math.isfinite(val)

    @pytest.mark.parametrize("t, dist, c", [
        (math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan),
    ])
    def test_nan_arguments_are_rejected(self, t, dist, c):
        with pytest.raises(DomainError):
            tail_bound_fpp_log(t, dist, c, ModelParams(d=1, alpha=1.2, tau=4.0, lam=1.0))


class TestEnvelope:
    def test_zero_at_origin(self):
        ep = EnvelopeParams(theta=0.7, beta_env=2.0, lambda_env=1.0, c_theta=1.5)
        assert envelope_G_log(0.0, ep) == 0.0

    def test_theta_reciprocal_alpha_identity(self):
        # with theta = 1/alpha the outer exponent equals 1/Delta(alpha)
        for alpha in (1.2, 1.5, 1.9):
            assert math.log2(2.0 / alpha) == pytest.approx(
                1.0 / delta_exponent(alpha)
            )
            ep = EnvelopeParams(theta=1.0 / alpha, beta_env=alpha + 1,
                                lambda_env=1.0, c_theta=2.0)
            assert envelope_G_log(1.0, ep) > 0

    def test_monotone_on_grid(self):
        ep = EnvelopeParams(theta=2.0 / 3.0, beta_env=2.2, lambda_env=0.8, c_theta=1.7)
        grid = np.arange(0.0, 10.5, 0.5)
        vals = [envelope_G_log(t, ep) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_param_validation(self):
        with pytest.raises(DomainError):
            EnvelopeParams(theta=0.4, beta_env=1.0, lambda_env=1.0, c_theta=2.0)
        with pytest.raises(DomainError):
            EnvelopeParams(theta=0.7, beta_env=1.0, lambda_env=1.0, c_theta=1.0)

    @pytest.mark.parametrize("field", ["theta", "beta_env", "lambda_env", "c_theta"])
    def test_nan_params_are_rejected(self, field):
        fields = dict(theta=0.7, beta_env=1.0, lambda_env=1.0, c_theta=2.0)
        fields[field] = math.nan
        with pytest.raises(DomainError):
            EnvelopeParams(**fields)

    def test_nan_t_is_rejected(self):
        ep = EnvelopeParams(theta=0.7, beta_env=1.0, lambda_env=1.0, c_theta=2.0)
        with pytest.raises(DomainError):
            envelope_G_log(math.nan, ep)


class TestShapeRadii:
    def test_pinned(self):
        q, r = shape_radii(16, 2.0, 0.5)
        assert q == pytest.approx(math.e)
        assert r == pytest.approx(math.exp(16.0))
        assert shape_radii(1, 1.7, 0.2) == (pytest.approx(math.e), pytest.approx(math.e))

    def test_ordering(self):
        for k in (1, 2, 5, 20, 100):
            q, r = shape_radii(k, 1.4, 0.15)
            assert q <= r

    def test_domain(self):
        with pytest.raises(DomainError):
            shape_radii(4, 2.0, 0.6)  # 1/2 - 0.6 < 0

    @pytest.mark.parametrize("k, delta, eps", [
        (math.nan, 2.0, 0.1), (4, math.nan, 0.1), (4, 2.0, math.nan),
    ])
    def test_nan_arguments_are_rejected(self, k, delta, eps):
        with pytest.raises(DomainError):
            shape_radii(k, delta, eps)


class TestAlphaReduction:
    def test_lambda_transform(self):
        params = ModelParams(d=1, alpha=2.0, tau=4.0, lam=0.04)
        out = alpha_reduced_params(params, 1.0 + 1e-9)
        assert out.lam == pytest.approx(0.2, rel=1e-6)
        assert out.alpha == 1.0 + 1e-9
        assert out.tau == params.tau and out.d == params.d

    def test_contract(self):
        params = ModelParams(d=1, alpha=1.8, tau=4.0, lam=0.3)
        with pytest.raises(DomainError):
            alpha_reduced_params(params, 1.8)
        with pytest.raises(DomainError):
            alpha_reduced_params(params, 0.9)

    def test_unit_lambda_fixed_point(self):
        params = ModelParams(d=2, alpha=1.9, tau=5.0, lam=1.0)
        assert alpha_reduced_params(params, 1.2).lam == 1.0

    def test_kernel_inequality_on_grid(self):
        # min{1, lam' (ww)^a' dist^-da'} >= min{1, lam (ww)^a dist^-da}
        params = ModelParams(d=1, alpha=1.8, tau=4.0, lam=0.3)
        reduced = alpha_reduced_params(params, 1.4)
        for wx in (1.0, 1.5, 4.0, 20.0):
            for wy in (1.0, 2.5, 10.0):
                for dist in (1.0, 2.0, 7.0, 50.0):
                    assert connection_prob(wx, wy, dist, reduced) >= connection_prob(
                        wx, wy, dist, params
                    ) - 1e-15


class TestTauPrimeMax:
    def test_examples(self):
        assert tau_prime_max(4.0, 1.0) == pytest.approx(3.5)
        assert tau_prime_max(3.01, 1.99) > 3.0

    def test_below_tau(self):
        for tau in (3.2, 4.0, 7.5):
            for alpha in (1.0, 1.4, 1.9):
                assert 3.0 < tau_prime_max(tau, alpha) < tau

    def test_domain(self):
        with pytest.raises(DomainError):
            tau_prime_max(3.0, 1.5)
        with pytest.raises(DomainError):
            tau_prime_max(4.0, 2.0)
        # x^(1 - tau) vanishes beyond x = 1 at tau = inf: nothing could fall short of it
        with pytest.raises(DomainError):
            tau_prime_max(math.inf, 1.5)


class TestModelParamsValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            ModelParams(d=0, alpha=1.5, tau=4.0, lam=1.0)
        with pytest.raises(DomainError):
            ModelParams(d=1, alpha=0.9, tau=4.0, lam=1.0)
        with pytest.raises(DomainError):
            ModelParams(d=1, alpha=1.5, tau=1.0, lam=1.0)
        with pytest.raises(DomainError):
            ModelParams(d=1, alpha=1.5, tau=4.0, lam=-0.1)

    def test_boundary_parameterizations_accepted(self):
        ModelParams(d=1, alpha=1.0, tau=4.0, lam=0.0)
        ModelParams(d=3, alpha=1.5, tau=math.inf, lam=2.0)

    @pytest.mark.parametrize("field", ["alpha", "tau", "lam"])
    def test_rejects_nan(self, field):
        fields = dict(d=1, alpha=1.5, tau=4.0, lam=1.0)
        fields[field] = math.nan
        with pytest.raises(DomainError):
            ModelParams(**fields)

    def test_dimension_is_kept_as_a_python_int(self):
        for d, want in ((np.int64(2), 2), (True, 1), (3, 3)):
            params = ModelParams(d=d, alpha=1.5, tau=4.0, lam=1.0)
            assert params.d == want and type(params.d) is int
        for d in (1.0, 2.5, "2", None):
            with pytest.raises(DomainError):
                ModelParams(d=d, alpha=1.5, tau=4.0, lam=1.0)

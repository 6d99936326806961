"""Estimator closed forms, optimizer cross-checks, and equivariance."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from nsmml import (
    DegenerateInputError,
    Estimate,
    InvalidConfigError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    code_penalty_R,
    fisher_log_sqrt_det,
    ideal_group,
    ip_estimate,
    ip_reverse,
    log_likelihood,
    marginalized_sigma2_ml,
    ml_estimate,
    penalty_at_ideal_point,
    wf_estimate,
)
from nsmml.estimators import axis_level_box
from nsmml.regularity import Automorphism


def random_stat(rng, n):
    return SufficientStat(rng.normal(0.0, 2.0, n), math.exp(rng.normal(0.0, 1.0)))


class TestML:
    def test_unknown_method_refused(self):
        with pytest.raises(InvalidConfigError, match="^unknown estimator method 'XX'$"):
            Estimate(Parameter(1.0, [0.0]), "XX")

    def test_paper_value(self):
        cfg = ProblemConfig(N=1, J=2)
        est = ml_estimate(SufficientStat([1.0], 4.0), cfg)
        assert est.theta.sigma2 == 4.0
        np.testing.assert_array_equal(est.theta.mu, [1.0])

    def test_identity_case(self):
        cfg = ProblemConfig(N=2, J=2)
        est = ml_estimate(SufficientStat([0.0, 0.0], 1.0), cfg)
        assert est.theta.sigma2 == 1.0
        np.testing.assert_array_equal(est.theta.mu, [0.0, 0.0])

    def test_optimizer_oracle(self):
        cfg = ProblemConfig(N=2, J=3)
        rng = np.random.default_rng(42)
        stat = random_stat(rng, 2)

        def nll(x):
            return -log_likelihood(stat, Parameter(math.exp(x[0]), x[1:]), cfg)

        best = None
        for _ in range(10):
            x0 = np.concatenate(([rng.normal()], rng.normal(0, 2, 2)))
            res = minimize(nll, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
            if best is None or res.fun < best.fun:
                best = res
        est = ml_estimate(stat, cfg)
        assert math.exp(best.x[0]) == pytest.approx(est.theta.sigma2, rel=1e-5)
        np.testing.assert_allclose(best.x[1:], est.theta.mu, atol=1e-5)


class TestIdealPoint:
    def test_wallace_inflation(self):
        cfg = ProblemConfig(N=1, J=2)
        est = ip_estimate(SufficientStat([0.0], 1.0), PriorSpec.wallace(), cfg)
        assert est.theta.sigma2 == pytest.approx(2.0, abs=1e-14)

    def test_scale_free_equals_ml(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            stat = random_stat(rng, n)
            ip = ip_estimate(stat, PriorSpec.scale_free(cfg), cfg)
            ml = ml_estimate(stat, cfg)
            assert ip.theta.sigma2 == pytest.approx(ml.theta.sigma2, rel=1e-14)

    def test_general_p_stationarity(self):
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec(3.0)
        stat = SufficientStat([0.4, -0.4], 1.0)
        est = ip_estimate(stat, prior, cfg)
        assert est.theta.sigma2 == pytest.approx(1.0, abs=1e-14)  # 4/(2+3-1)
        # numerical stationarity of R in sigma2 at the estimate
        h = 1e-6
        def r_of(s2):
            return code_penalty_R(Parameter(s2, stat.m), stat, prior, cfg)
        deriv = (r_of(est.theta.sigma2 + h) - r_of(est.theta.sigma2 - h)) / (2 * h)
        assert abs(deriv) < 1e-6
        assert r_of(est.theta.sigma2 + 0.1) > r_of(est.theta.sigma2)
        assert r_of(est.theta.sigma2 - 0.1) > r_of(est.theta.sigma2)


class TestIdealPointReverse:
    def test_scale_free_identity(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = ip_reverse(Parameter(1.0, [0.0]), PriorSpec.scale_free(cfg), cfg)
        assert stat.s2 == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_array_equal(stat.m, [0.0])

    def test_wallace_paper_inverse(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = ip_reverse(Parameter(2.0, [0.0]), PriorSpec.wallace(), cfg)
        assert stat.s2 == pytest.approx(1.0, abs=1e-14)

    def test_random_probe_minimality(self):
        cfg = ProblemConfig(N=2, J=3)
        prior = PriorSpec(2.2)
        theta = Parameter(1.6, [0.3, -0.9])
        stat = ip_reverse(theta, prior, cfg)
        base = code_penalty_R(theta, stat, prior, cfg)
        rng = np.random.default_rng(21)
        for _ in range(1000):
            probe = SufficientStat(
                stat.m + rng.normal(0, 0.5, 2), stat.s2 * math.exp(rng.normal(0, 0.5))
            )
            assert code_penalty_R(theta, probe, prior, cfg) >= base

    def test_fixed_point_property(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            prior = PriorSpec(float(rng.uniform(1.0, n + 2.0)))
            theta = Parameter(math.exp(rng.normal()), rng.normal(0, 2, n))
            back = ip_estimate(ip_reverse(theta, prior, cfg), prior, cfg).theta
            assert back.sigma2 == pytest.approx(theta.sigma2, rel=1e-10)
            np.testing.assert_allclose(back.mu, theta.mu, rtol=1e-10, atol=1e-12)

    def test_overflow_rejected_by_name(self):
        # The shrinkage (N(J-1) + p - 1) / (NJ) = 2.75 takes s2 past the float maximum.
        theta, prior, cfg = Parameter(1.7e308, [0.0, 0.0]), PriorSpec(10.0), ProblemConfig(N=2, J=2)
        for call, inputs, what in ((ip_reverse, "theta and the prior", "ideal point"),
                                   (penalty_at_ideal_point, "theta and its ideal point", "penalty")):
            with pytest.raises(InvalidConfigError, match=f"^{inputs} take the {what} out of the float range$"):
                call(theta, prior, cfg)


class TestEstimateOverflow:
    """Every estimator goes through one guarded lookup of SIGMA2_HAT, which
    rejects an estimate that leaves the float range by naming s2."""

    STAT, CFG = SufficientStat([0.0], 1e308), ProblemConfig(N=1, J=2)

    @pytest.mark.parametrize("method, call", [
        ("IP", lambda stat, cfg: ip_estimate(stat, PriorSpec.wallace(), cfg)),
        ("WF", lambda stat, cfg: wf_estimate(stat, PriorSpec.wallace(), cfg)),
        ("MARGINALIZED_SIGMA2", marginalized_sigma2_ml),
    ])
    def test_overflow_rejected_by_name(self, method, call):
        # J/(J-1) * 1e308 and the Wallace IP's 2 * 1e308 are not finite floats.
        message = f"s2 = 1e+308 takes the {method} estimate out of the float range"
        with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
            call(self.STAT, self.CFG)

    def test_underflow_rejected_by_name(self):
        # A huge prior exponent shrinks a tiny s2 to zero.
        with pytest.raises(InvalidConfigError, match=re.escape("s2 = 1e-320 takes the IP estimate out")):
            ip_estimate(SufficientStat([0.0], 1e-320), PriorSpec(1e300), self.CFG)

    def test_in_range_unchanged(self):
        assert ml_estimate(self.STAT, self.CFG).theta.sigma2 == 1e308
        assert ip_estimate(self.STAT, PriorSpec.scale_free(self.CFG), self.CFG).theta.sigma2 == 1e308
        assert marginalized_sigma2_ml(SufficientStat([0.0], 8e307), self.CFG) == 1.6e308


class TestIdealGroup:
    def test_contains_ideal_point(self):
        cfg = ProblemConfig(N=1, J=3)
        prior = PriorSpec.wallace()
        theta = Parameter(1.2, [0.5])
        region = ideal_group(theta, prior, 0.3, cfg)
        assert region.contains(ip_reverse(theta, prior, cfg))

    def test_scale_free_automorphism_transport(self):
        # Membership of the region for T(theta) agrees with membership of
        # the U-preimage in the region for theta.
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        theta = Parameter(0.9, [0.2, -0.6])
        aut = Automorphism(1.7, np.array([0.4, 1.0]))
        region = ideal_group(theta, prior, 0.5, cfg)
        region_t = ideal_group(aut.apply_param(theta), prior, 0.5, cfg)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            stat = SufficientStat(rng.normal(0, 1.5, 2), math.exp(rng.normal(0, 0.8)))
            assert region.contains(stat) == region_t.contains(aut.apply_stat(stat))

    def test_box_shrinks_with_epsilon(self):
        cfg = ProblemConfig(N=1, J=2)
        prior = PriorSpec.wallace()
        theta = Parameter(1.0, [0.0])
        widths = [ideal_group(theta, prior, eps, cfg).widths for eps in (1.0, 0.5, 0.1)]
        for bigger, smaller in zip(widths, widths[1:]):
            assert np.all(smaller < bigger)

    def test_epsilon_must_be_finite_and_positive(self):
        theta = Parameter(1.0, [0.0])
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidConfigError, match=f"epsilon must be finite and > 0, got {eps!r}"):
                ideal_group(theta, PriorSpec.wallace(), eps, ProblemConfig(N=1, J=2))

    def test_large_epsilon_names_theta_and_epsilon(self):
        # The bracket doubles until stat_from_coords underflows s2 to 0, which
        # named an s2 (or, from the small sigma2, a stat) the caller never gave.
        message = "theta and epsilon = 1e+300 take the ideal group out of the float range"
        for theta in (Parameter(1.0, [0.0]), Parameter(1e-300, [1e150])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                    ideal_group(theta, PriorSpec.wallace(), 1e300, ProblemConfig(N=1, J=2))

    def test_flat_profile_gives_up_after_bracket_doublings(self):
        # A profile that never reaches the level ends the bracket search.
        message = "no level crossing found within 200 bracket doublings"
        with pytest.raises(DegenerateInputError, match=f"^{re.escape(message)}$"):
            axis_level_box(lambda coords: 0.0, np.zeros(1), 1.0)


class TestWallaceFreeman:
    def test_scale_free_equals_ml_machine_precision(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            stat = random_stat(rng, n)
            wf = wf_estimate(stat, PriorSpec.scale_free(cfg), cfg)
            ml = ml_estimate(stat, cfg)
            assert wf.theta.sigma2 == pytest.approx(ml.theta.sigma2, rel=1e-14)
            np.testing.assert_array_equal(wf.theta.mu, ml.theta.mu)

    def test_wallace_value_and_optimizer(self):
        cfg = ProblemConfig(N=1, J=2)
        prior = PriorSpec.wallace()
        stat = SufficientStat([0.0], 1.0)
        est = wf_estimate(stat, prior, cfg)
        assert est.theta.sigma2 == pytest.approx(2.0, abs=1e-12)

        # bounded 1-D search over the objective in (sigma^2, mu = m)
        def objective(log_s2):
            theta = Parameter(math.exp(log_s2), stat.m)
            log_prior_density = -0.5 * (prior.p + 1.0) * log_s2 - math.log(2.0)
            return -(
                log_prior_density
                + log_likelihood(stat, theta, cfg)
                - fisher_log_sqrt_det(theta, cfg)
            )

        res = minimize_scalar(objective, bounds=(-4.0, 4.0), method="bounded",
                              options={"xatol": 1e-12})
        assert math.exp(res.x) == pytest.approx(est.theta.sigma2, rel=1e-8)

    def test_parameterization_invariance(self):
        # Same maximizer from the (sigma, mu) parameterization: prior
        # sigma^-p, Fisher diag(2NJ/sigma^2, J/sigma^2 ...).
        cfg = ProblemConfig(N=2, J=3)
        prior = PriorSpec(2.0)
        stat = SufficientStat([0.5, -0.5], 1.4)
        est = wf_estimate(stat, prior, cfg)

        def objective(log_sigma):
            sigma = math.exp(log_sigma)
            theta = Parameter(sigma * sigma, stat.m)
            log_prior_density = -prior.p * log_sigma
            half_logdet = 0.5 * (
                math.log(2.0 * cfg.nj) + cfg.N * math.log(cfg.J) - 2.0 * (cfg.N + 1) * log_sigma
            )
            return -(log_prior_density + log_likelihood(stat, theta, cfg) - half_logdet)

        res = minimize_scalar(objective, bounds=(-3.0, 3.0), method="bounded",
                              options={"xatol": 1e-12})
        assert math.exp(2.0 * res.x) == pytest.approx(est.theta.sigma2, rel=1e-8)


class TestMarginalizedVariance:
    def test_hand_values_and_grid_search(self):
        cfg2 = ProblemConfig(N=1, J=2)
        assert marginalized_sigma2_ml(SufficientStat([0.0], 1.0), cfg2) == pytest.approx(2.0)
        cfg3 = ProblemConfig(N=2, J=3)
        stat = SufficientStat([1.0, -1.0], 2.0)
        assert marginalized_sigma2_ml(stat, cfg3) == pytest.approx(3.0)

        # grid-search oracle for the mean-integrated likelihood
        grid = np.linspace(0.5, 8.0, 20001)
        values = -cfg3.dof * np.log(np.sqrt(grid)) - cfg3.nj * stat.s2 / (2.0 * grid)
        assert grid[np.argmax(values)] == pytest.approx(3.0, abs=1e-3)

    def test_differs_from_scale_free_ip(self):
        cfg = ProblemConfig(N=3, J=2)
        prior = PriorSpec.scale_free(cfg)
        rng = np.random.default_rng(33)
        for _ in range(50):
            stat = random_stat(rng, 3)
            marg = marginalized_sigma2_ml(stat, cfg)
            ip = ip_estimate(stat, prior, cfg).theta.sigma2
            assert marg != ip
            assert marg / ip == pytest.approx(cfg.J / (cfg.J - 1.0), rel=1e-12)


class TestEquivariance:
    def test_exact_for_dyadic_scalings(self):
        # alpha a power of two makes both routes bit-identical.
        cfg = ProblemConfig(N=2, J=3)
        prior = PriorSpec.scale_free(cfg)
        rng = np.random.default_rng(6)
        for alpha in (2.0, 0.5, 4.0):
            for _ in range(10):
                stat = random_stat(rng, 2)
                beta = rng.normal(0, 2, 2)
                aut = Automorphism(alpha, beta)
                moved = aut.apply_stat(stat)
                for estimator in (
                    lambda s: ml_estimate(s, cfg).theta,
                    lambda s: ip_estimate(s, prior, cfg).theta,
                    lambda s: wf_estimate(s, prior, cfg).theta,
                ):
                    direct = estimator(moved)
                    transported = aut.apply_param(estimator(stat))
                    assert direct.sigma2 == transported.sigma2
                    np.testing.assert_array_equal(direct.mu, transported.mu)

    def test_general_alpha_close(self):
        cfg = ProblemConfig(N=1, J=2)
        prior = PriorSpec.scale_free(cfg)
        aut = Automorphism(1.37, np.array([0.9]))
        stat = SufficientStat([0.3], 0.7)
        direct = ip_estimate(aut.apply_stat(stat), prior, cfg).theta
        transported = aut.apply_param(ip_estimate(stat, prior, cfg).theta)
        assert direct.sigma2 == pytest.approx(transported.sigma2, rel=1e-12)
        np.testing.assert_allclose(direct.mu, transported.mu, rtol=1e-12)


class TestCoincidences:
    def test_ip_wf_wallace_agree(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            stat = random_stat(rng, n)
            w = PriorSpec.wallace()
            ip = ip_estimate(stat, w, cfg).theta.sigma2
            wf = wf_estimate(stat, w, cfg).theta.sigma2
            expected = cfg.J * stat.s2 / (cfg.J - 1.0)
            assert ip == pytest.approx(expected, rel=1e-14)
            assert wf == pytest.approx(expected, rel=1e-14)

    def test_r_star_drift_between_scales(self):
        cfg = ProblemConfig(N=2, J=2)
        w = PriorSpec.wallace()
        d = penalty_at_ideal_point(Parameter(4.0, np.zeros(2)), w, cfg) - penalty_at_ideal_point(
            Parameter(1.0, np.zeros(2)), w, cfg
        )
        assert d == pytest.approx(0.5 * cfg.N * math.log(4.0), abs=1e-12)

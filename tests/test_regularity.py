"""Automorphism, homogeneity, concentration and locality tests."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from nsmml import (
    GridSpec,
    InvalidConfigError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    check_automorphism,
    code_penalty_R,
    comprehensiveness_check,
    concentration_box,
    find_valid_c,
    homogeneity_check,
    ip_estimate,
    locality_certificate,
    log_likelihood,
    transitivity_witness,
)
from nsmml.regularity import (
    _POINT_LIMIT,
    Automorphism,
    CertificateError,
    LocalityConstructionError,
    _build_certificate,
)


def random_thetas(rng, n, count):
    return [Parameter(math.exp(rng.normal()), rng.normal(0, 2, n)) for _ in range(count)]


def random_stats(rng, n, count):
    return [SufficientStat(rng.normal(0, 2, n), math.exp(rng.normal())) for _ in range(count)]


class TestCheckAutomorphism:
    def test_scale_free_passes_all(self):
        cfg = ProblemConfig(N=2, J=3)
        prior = PriorSpec.scale_free(cfg)
        rng = np.random.default_rng(1)
        for _ in range(5):
            aut = Automorphism(math.exp(rng.normal()), rng.normal(0, 3, 2))
            rep = check_automorphism(aut, prior, cfg, samples=40, seed=2)
            assert rep.marginal_ok and rep.likelihood_ok
            assert rep.max_violation < 1e-9

    def test_translation_passes_every_prior(self):
        cfg = ProblemConfig(N=3, J=2)
        for p in (1.0, 2.0, cfg.N + 1.0):
            rep = check_automorphism(
                Automorphism(1.0, np.array([4.0, -1.0, 0.5])), PriorSpec(p), cfg, samples=40, seed=3
            )
            assert rep.marginal_ok and rep.likelihood_ok

    @pytest.mark.parametrize("cfg", [ProblemConfig(1, 2), ProblemConfig(2, 2), ProblemConfig(2, 3)])
    def test_wallace_scaling_violation_exponent(self, cfg):
        # Marginal exponent p versus Jacobian exponent N+1: the violation
        # is |p - (N+1)| log alpha; the likelihood condition always holds.
        prior = PriorSpec.wallace()
        rep = check_automorphism(
            Automorphism(2.0, np.zeros(cfg.N)), prior, cfg, samples=40, seed=4
        )
        predicted = abs(prior.p - (cfg.N + 1)) * math.log(2.0)
        assert not rep.marginal_ok
        assert rep.likelihood_ok
        assert rep.max_marginal_violation == pytest.approx(predicted, abs=1e-9)

    def test_inputs_outside_float_range_rejected(self):
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        # alpha^2 overflows; alpha^2 * s2 overflows; alpha^2 underflows to
        # zero; alpha^2 * s2 underflows to a subnormal.
        for alpha in (1e200, 1e154, 1e-300, 1e-160):
            with pytest.raises(InvalidConfigError, match=re.escape(f"alpha = {alpha!r} moves the sampled statistics")):
                check_automorphism(Automorphism(alpha, np.zeros(2)), prior, cfg)
        for beta in ([math.inf, 0.0], [0.0, math.nan]):
            with pytest.raises(InvalidConfigError, match="beta must be finite"):
                Automorphism(2.0, beta)
        for alpha in (math.inf, 0.0):
            with pytest.raises(InvalidConfigError, match="alpha must be finite and > 0"):
                Automorphism(alpha, np.zeros(2))
        # Inside the range the scale-free check still passes.
        rep = check_automorphism(Automorphism(1e150, np.zeros(2)), prior, cfg)
        assert rep.marginal_ok and rep.likelihood_ok

    def test_rounding_of_moved_means_rejected(self):
        # A true symmetry whose moved means round too coarsely to resolve tol
        # is refused as malformed input, not reported as a failing check.
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, beta in ((2.0, 1e5), (2.0, 1e6), (1e-5, 0.7), (1e-100, 0.7), (2.0, 1e300)):
                aut = Automorphism(alpha, np.full(2, beta))
                message = f"alpha = {alpha!r} and beta = {[beta, beta]!r} leave the moved means too coarse"
                with pytest.raises(InvalidConfigError, match=re.escape(message) + ".*tol = 1e-09"):
                    check_automorphism(aut, prior, cfg)
            for alpha, beta in ((2.0, 0.7), (1e150, 0.7), (2.0, 1e3), (1e-4, 0.7)):
                rep = check_automorphism(Automorphism(alpha, np.full(2, beta)), prior, cfg)
                assert rep.marginal_ok and rep.likelihood_ok


class TestTransitivityWitness:
    def test_identity(self):
        a = SufficientStat([0.0], 1.0)
        aut = transitivity_witness(a, a)
        assert aut.alpha == 1.0
        np.testing.assert_array_equal(aut.beta, [0.0])

    def test_direct_construction(self):
        src = SufficientStat([0.0], 1.0)
        dst = SufficientStat([3.0], 4.0)
        aut = transitivity_witness(src, dst)
        assert aut.alpha == pytest.approx(2.0)
        moved = aut.apply_stat(src)
        np.testing.assert_allclose(moved.m, dst.m)
        assert moved.s2 == pytest.approx(dst.s2)

    def test_group_closure(self):
        rng = np.random.default_rng(7)
        a, b, c = random_stats(rng, 2, 3)
        composed = transitivity_witness(b, c).compose(transitivity_witness(a, b))
        direct = transitivity_witness(a, c)
        assert composed.alpha == pytest.approx(direct.alpha, rel=1e-12)
        np.testing.assert_allclose(composed.beta, direct.beta, rtol=1e-10, atol=1e-12)

    def test_parameter_witness_and_inverse(self):
        src = Parameter(1.0, [0.0, 1.0])
        dst = Parameter(9.0, [2.0, -1.0])
        aut = transitivity_witness(src, dst)
        moved = aut.apply_param(src)
        assert moved.sigma2 == pytest.approx(9.0)
        np.testing.assert_allclose(moved.mu, dst.mu)
        back = aut.inverse().apply_param(moved)
        assert back.sigma2 == pytest.approx(1.0)
        np.testing.assert_allclose(back.mu, src.mu, atol=1e-12)


class TestHomogeneity:
    def test_scale_free_constant(self):
        cfg = ProblemConfig(N=2, J=3)
        rep = homogeneity_check(
            PriorSpec.scale_free(cfg), cfg, random_thetas(np.random.default_rng(8), 2, 100)
        )
        assert rep.is_homogeneous
        assert rep.spread < 1e-9

    def test_wallace_drift_between_two_scales(self):
        cfg = ProblemConfig(N=3, J=2)
        thetas = [Parameter(1.0, np.zeros(3)), Parameter(4.0, np.zeros(3))]
        rep = homogeneity_check(PriorSpec.wallace(), cfg, thetas)
        assert not rep.is_homogeneous
        diff = rep.r_star_values[1] - rep.r_star_values[0]
        assert diff == pytest.approx(0.5 * cfg.N * math.log(4.0), abs=1e-12)
        assert rep.drift["max_residual"] < 1e-9

    def test_translation_family_constant_for_every_prior(self):
        cfg = ProblemConfig(N=2, J=2)
        rng = np.random.default_rng(9)
        thetas = [Parameter(1.3, rng.normal(0, 3, 2)) for _ in range(40)]
        for p in (1.0, 1.8, cfg.N + 1.0):
            rep = homogeneity_check(PriorSpec(p), cfg, thetas)
            assert rep.is_homogeneous
            assert rep.spread < 1e-9


class TestComprehensiveness:
    def test_scale_free_constant(self):
        cfg = ProblemConfig(N=2, J=3)
        rep = comprehensiveness_check(
            PriorSpec.scale_free(cfg), cfg, random_stats(np.random.default_rng(10), 2, 100)
        )
        assert rep.is_comprehensive
        assert rep.spread < 1e-9

    def test_wallace_scale_drift(self):
        cfg = ProblemConfig(N=2, J=2)
        stats = [SufficientStat(np.zeros(2), 1.0), SufficientStat(np.zeros(2), 4.0)]
        rep = comprehensiveness_check(PriorSpec.wallace(), cfg, stats)
        assert not rep.is_comprehensive
        diff = rep.r_opt_values[1] - rep.r_opt_values[0]
        assert diff == pytest.approx(0.5 * cfg.N * math.log(4.0), abs=1e-12)
        assert rep.drift["max_residual"] < 1e-9

    def test_singleton_trivially_constant(self):
        cfg = ProblemConfig(N=1, J=2)
        rep = comprehensiveness_check(PriorSpec.wallace(), cfg, [SufficientStat([0.0], 1.0)])
        assert rep.is_comprehensive


class TestConcentrationBox:
    def test_contains_ideal_point_estimate(self):
        cfg = ProblemConfig(N=1, J=3)
        prior = PriorSpec.wallace()
        stat = SufficientStat([0.7], 1.1)
        box = concentration_box(stat, prior, 0.4, cfg)
        assert box.contains_param(ip_estimate(stat, prior, cfg).theta)

    def test_scaling_translates_box(self):
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        stat = SufficientStat([0.4, -0.8], 0.9)
        alpha = 2.5
        scaled = SufficientStat(alpha * stat.m, alpha**2 * stat.s2)
        b1 = concentration_box(stat, prior, 0.6, cfg)
        b2 = concentration_box(scaled, prior, 0.6, cfg)
        shift = np.zeros(cfg.N + 1)
        shift[0] = math.log(alpha)
        np.testing.assert_allclose(b2.box, b1.box + shift[:, None], atol=1e-8)

    def test_membership_transport_general_automorphism(self):
        cfg = ProblemConfig(N=1, J=2)
        prior = PriorSpec.scale_free(cfg)
        stat = SufficientStat([0.5], 1.0)
        aut = Automorphism(1.9, np.array([-0.7]))
        eps = 0.5
        rng = np.random.default_rng(12)

        def level(theta, x):
            ideal = code_penalty_R(
                theta,
                SufficientStat(theta.mu, theta.sigma2 * (cfg.dof + prior.p - 1) / cfg.nj),
                prior,
                cfg,
            )
            return code_penalty_R(theta, x, prior, cfg) - ideal

        for _ in range(300):
            theta = Parameter(math.exp(rng.normal()), rng.normal(0, 2, 1))
            inside = level(theta, stat) < eps
            inside_t = level(aut.apply_param(theta), aut.apply_stat(stat)) < eps
            assert inside == inside_t

    def test_epsilon_must_be_finite_and_positive(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([0.0], 1.0)
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidConfigError, match=f"epsilon must be finite and > 0, got {eps!r}"):
                concentration_box(stat, PriorSpec.wallace(), eps, cfg)

    def test_nesting_in_epsilon(self):
        cfg = ProblemConfig(N=1, J=2)
        prior = PriorSpec.wallace()
        stat = SufficientStat([0.0], 1.0)
        b_small = concentration_box(stat, prior, 0.1, cfg)
        b_big = concentration_box(stat, prior, 1.0, cfg)
        assert np.all(b_big.box[:, 0] <= b_small.box[:, 0])
        assert np.all(b_big.box[:, 1] >= b_small.box[:, 1])


class TestFindValidC:
    def test_n1_is_infeasible(self):
        with pytest.raises(LocalityConstructionError):
            find_valid_c(ProblemConfig(N=1, J=2))

    def test_n2_j2_verified_by_substitution(self):
        cfg = ProblemConfig(N=2, J=2)
        c = find_valid_c(cfg)
        assert c >= 2
        assert c ** (4 * cfg.J) >= (2 * cfg.nj) ** (2 * cfg.J) * (c + 1) ** 7
        assert (c + 1) ** cfg.N >= c**cfg.N + 2 * cfg.N + 2
        # minimality: c - 1 violates at least one inequality
        bad = c - 1
        assert (
            bad ** (4 * cfg.J) < (2 * cfg.nj) ** (2 * cfg.J) * (bad + 1) ** 7
            or (bad + 1) ** cfg.N < bad**cfg.N + 2 * cfg.N + 2
        )

    def test_growth_covers_k_plus_one(self):
        for cfg in (ProblemConfig(2, 2), ProblemConfig(2, 3), ProblemConfig(3, 2)):
            c = find_valid_c(cfg)
            k = 2 * cfg.N + 1 + c**cfg.N
            t = cfg.N * math.log(c + 1.0)
            assert math.exp(t) >= k + 1


class TestLocalityCertificate:
    def test_mean_shift_margin_formula(self):
        # For the mean-shifted competitor the log-likelihood gap is the
        # affine expression -JT + (J sqrt(2T)/sigma)(m_n - mu_n).
        cfg = ProblemConfig(N=2, J=2)
        theta = Parameter(1.0, np.zeros(2))
        cert = _build_certificate(theta, cfg, 40)
        t = cert.T_margin
        shift = math.sqrt(2.0 * t)
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = np.array([shift * rng.uniform(1.05, 2.0), rng.normal(0, 0.5)])
            stat = SufficientStat(m, rng.uniform(0.5, 2.0))
            plus = Parameter(1.0, np.array([shift, 0.0]))
            gap = log_likelihood(stat, plus, cfg) - log_likelihood(stat, theta, cfg)
            expected = -cfg.J * t + cfg.J * shift * m[0]
            assert gap == pytest.approx(expected, abs=1e-9)
            assert gap > t  # beyond the exempt band the margin already holds

    def test_inflated_point_dominates_beyond_delta(self):
        cfg = ProblemConfig(N=2, J=2)
        theta = Parameter(1.0, np.zeros(2))
        cert = _build_certificate(theta, cfg, 40)
        stat = SufficientStat(np.zeros(2), (2.0 * cert.delta) ** 2)
        inflated = Parameter(math.e**2, np.zeros(2))
        gap = log_likelihood(stat, inflated, cfg) - log_likelihood(stat, theta, cfg)
        assert gap > cert.T_margin

    def test_certificate_fields_and_constants(self):
        cfg = ProblemConfig(N=2, J=2)
        theta = Parameter(2.25, np.array([1.0, -1.0]))
        cert = _build_certificate(theta, cfg, 25)
        assert cert.k == 2 * cfg.N + 1 + 25**cfg.N
        assert cert.T_margin == pytest.approx(cfg.N * math.log(26.0))
        assert len(cert.explicit_thetas) == 2 * cfg.N + 1
        assert len(cert.theta_list()) == cert.k
        # grid sigma and mean segments follow the construction
        assert cert.grid_sigma == pytest.approx(math.sqrt(2 * cfg.nj) * theta.sigma / 25)
        span = 2 * theta.sigma * math.sqrt(2 * cert.T_margin)
        assert cert.grid_step[0] == pytest.approx(span / 25)

    def test_grid_max_matches_enumeration(self):
        cfg = ProblemConfig(N=2, J=2)
        theta = Parameter(1.21, np.array([0.3, -0.2]))
        cert = _build_certificate(theta, cfg, 5)
        rng = np.random.default_rng(15)
        for _ in range(50):
            stat = SufficientStat(rng.normal(0, 2, 2), math.exp(rng.normal()))
            explicit = max(
                log_likelihood(stat, th, cfg) for th in cert.theta_list()
            ) - log_likelihood(stat, theta, cfg)
            assert cert.best_log_likelihood_gap(stat) == pytest.approx(explicit, abs=1e-12)

    def test_small_c_rejected(self):
        # delta_prime needs c^2 > 2NJ: equality divides by zero, below it the
        # square root of a negative number.
        for n, j, c in ((2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 4, 4)):
            cfg = ProblemConfig(N=n, J=j)
            with pytest.raises(InvalidConfigError, match="2NJ"):
                locality_certificate(Parameter(1.0, np.zeros(n)), cfg, c=c)

    def test_grid_without_exterior_points_rejected(self):
        # Nothing may be claimed verified on an empty exterior sample.
        for scale, mean in ((0, 24), (48, 0), (48, -1)):
            with pytest.raises(InvalidConfigError, match=">= 1"):
                GridSpec(points_scale=scale, points_mean=mean)
        cfg = ProblemConfig(N=2, J=2)
        with pytest.raises(InvalidConfigError, match="exempt"):
            locality_certificate(Parameter(1.0, np.zeros(2)), cfg, grid=GridSpec(1, 1))

    def test_grid_capped_before_allocation(self):
        cfg = ProblemConfig(N=2, J=2)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidConfigError, match="27000000000 points, above the limit"):
                locality_certificate(Parameter(1.0, np.zeros(2)), cfg, grid=GridSpec(3000, 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # The default grids: 27,648 points at N = 2 and 663,552 at N = 3.
        assert GridSpec().points_scale * GridSpec().points_mean**3 <= _POINT_LIMIT

    def test_theta_outside_float_range_rejected(self):
        cfg = ProblemConfig(N=2, J=2)
        # At 1e308 the inflated competitor (e*sigma)^2 overflows; at 1.6e307
        # only the worst point does, at s/sigma = 3.47.
        for sigma2 in (1e308, 1.6e307):
            with pytest.raises(InvalidConfigError, match=re.escape(f"sigma2 = {sigma2!r} takes the certificate out")):
                locality_certificate(Parameter(sigma2, np.zeros(2)), cfg)
        _, rep = locality_certificate(Parameter(1e307, np.zeros(2)), cfg)
        assert rep.all_pass and np.all(np.isfinite(rep.worst_point))

    def test_c_outside_float_range_rejected(self):
        # v0 near 1e429 at N = 20, and a c that no float holds.
        for n, c in ((20, 10**21), (2, 10**400)):
            with pytest.raises(InvalidConfigError, match=f"c = {c} takes the certificate out of the float range"):
                locality_certificate(Parameter(1.0, np.zeros(n)), ProblemConfig(N=n, J=2), c=c,
                                     grid=GridSpec(points_mean=1))

    def test_huge_c_scores_without_warning(self):
        # Nearest grid-centre indices near 1e21 stay floats: no cast warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                locality_certificate(Parameter(1.0, np.zeros(2)), ProblemConfig(N=2, J=2), c=10**21)
            except CertificateError:
                pass

    def test_verification_passes_and_v0_theta_free(self):
        cfg = ProblemConfig(N=2, J=2)
        cert, rep = locality_certificate(Parameter(1.0, np.zeros(2)), cfg)
        assert rep.all_pass
        assert rep.n_exterior >= 10_000
        assert rep.worst_margin > 0.0
        rng = np.random.default_rng(16)
        for _ in range(3):
            theta = Parameter(math.exp(rng.normal()), rng.normal(0, 2, 2))
            _, rep2 = locality_certificate(theta, cfg, seed=int(rng.integers(10**6)))
            assert rep2.v0_bound == rep.v0_bound
            assert rep2.all_pass
        # Margins are scored in theta's frame, so a huge mean or scale
        # neither loses the gaps to rounding nor overflows.
        for theta, extreme_cfg in (
            (Parameter(1.0, np.array([1e17, 0.0])), cfg),
            (Parameter(1e306, np.zeros(3)), ProblemConfig(N=3, J=2)),
        ):
            _, rep3 = locality_certificate(theta, extreme_cfg)
            assert rep3.all_pass
            assert rep3.worst_margin > 0.0
            assert np.all(np.isfinite(rep3.worst_point))

    def test_transport_covariance_of_constants(self):
        cfg = ProblemConfig(N=2, J=2)
        aut = Automorphism(3.0, np.array([1.0, -2.0]))
        theta = Parameter(1.0, np.zeros(2))
        c1 = _build_certificate(theta, cfg, 30)
        c2 = _build_certificate(aut.apply_param(theta), cfg, 30)
        assert c2.v0_bound == c1.v0_bound
        assert c2.T_margin == c1.T_margin
        # all construction lengths are multiples of sigma
        assert c2.grid_sigma == pytest.approx(aut.alpha * c1.grid_sigma)

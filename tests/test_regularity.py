"""Automorphism, homogeneity, concentration and locality tests."""

import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from nsmml import (
    DegenerateInputError,
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
    penalty_at_ideal_point,
    transitivity_witness,
)
from nsmml.regularity import (
    _POINT_LIMIT,
    Automorphism,
    CertificateError,
    LocalityConstructionError,
    _build_certificate,
)
from nsmml.model import _BLOCK

from oracles import oracle_locality_scores, record_blocks, theta_list


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

    def test_translation_length_must_match_n(self):
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(InvalidConfigError, match="^automorphism translation length does not match N$"):
            check_automorphism(Automorphism(2.0, [0.0, 1.0]), PriorSpec.scale_free(cfg), cfg)


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

    def test_degenerate_and_mixed_inputs_refused(self):
        with pytest.raises(DegenerateInputError, match="^source statistic must have s2 > 0$"):
            transitivity_witness(SufficientStat([0.0], 0.0), SufficientStat([0.0], 1.0))
        with pytest.raises(InvalidConfigError, match="^src and dst must both be observations or both be parameters$"):
            transitivity_witness(SufficientStat([0.0], 1.0), Parameter(1.0, [0.0]))

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

    def test_inverse_out_of_float_range_rejected_by_name(self):
        # -beta / alpha overflows.
        message = r"^alpha = 1e-300 and beta take -beta / alpha out of the float range$"
        with pytest.raises(InvalidConfigError, match=message):
            Automorphism(1e-300, [1e300, 0.0]).inverse()

    def test_action_out_of_float_range_rejected_by_name(self):
        # alpha * m and alpha^2 overflow; alpha^2 * sigma2 underflows to 0.
        for alpha, action, arg, what in (
            (1e300, "apply_stat", SufficientStat([1e10, 0.0], 1.0), "the statistic"),
            (1e200, "apply_param", Parameter(1e200, [0.0, 0.0]), "the parameter"),
            (1e-300, "apply_param", Parameter(1.0, [0.0, 0.0]), "the parameter"),
            (1e200, "compose", Automorphism(1e200, [0.0, 0.0]), "the composition"),
        ):
            message = f"alpha = {alpha!r} and beta take {what} out of the float range"
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                getattr(Automorphism(alpha, [0.0, 0.0]), action)(arg)


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

    def test_penalty_out_of_float_range_rejected_by_name(self):
        # At sigma2 = 1e308 the likelihood's N*J*s2 overflows and its
        # quotient by 2*sigma2 is inf / inf: the penalty would be nan.
        cfg = ProblemConfig(N=2, J=2)
        message = "^theta and its ideal point take the penalty out of the float range$"
        with pytest.raises(InvalidConfigError, match=message):
            penalty_at_ideal_point(Parameter(1e308, [0.0, 0.0]), PriorSpec.scale_free(cfg), cfg)
        with pytest.raises(InvalidConfigError, match=message):
            homogeneity_check(PriorSpec.scale_free(cfg), cfg, [Parameter(1.0, [0.0, 0.0]), Parameter(1e308, [0.0, 0.0])])

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


@pytest.mark.parametrize("check, name, sample", [
    (homogeneity_check, "thetas", [Parameter(1.0, [0.0, 1.0]), Parameter(4.0, [2.0, -1.0])]),
    (comprehensiveness_check, "stats", [SufficientStat([0.0, 1.0], 1.0), SufficientStat([2.0, -1.0], 4.0)]),
])
def test_drift_checks_read_their_samples(check, name, sample):
    # A numpy object array once ended in numpy's bare "truth value ...
    # ambiguous" ValueError and a list of floats in a bare AttributeError.
    cfg = ProblemConfig(N=2, J=2)
    prior = PriorSpec.wallace()
    want = check(prior, cfg, sample)
    for same in (np.array(sample, dtype=object), tuple(sample), iter(sample)):
        got = check(prior, cfg, same)
        assert got.to_dict() == want.to_dict()
    kind = type(sample[0]).__name__
    for bad in ([1.0, 2.0], [sample[0], 1.0], [], np.array([], dtype=object), 3.0, None, "ab", np.array([1.0, 2.0])):
        with pytest.raises(InvalidConfigError, match=f"^{name} must be a nonempty sequence of {kind}$"):
            check(prior, cfg, bad)


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

    def test_large_epsilon_names_stat_and_epsilon(self):
        # The bracket doubles until param_from_coords underflows sigma2 to 0,
        # which named a sigma2 of 0.0 the caller never gave.
        message = "stat and epsilon = 1e+300 take the concentration box out of the float range"
        for stat in (SufficientStat([0.0], 1.0), SufficientStat([1e150], 1e-300)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                    concentration_box(stat, PriorSpec.wallace(), 1e300, ProblemConfig(N=1, J=2))

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

    def test_search_limit_refused_by_value(self, monkeypatch):
        # N = J = 2 first passes both inequalities at c = 4103.
        monkeypatch.setattr("nsmml.regularity._C_MAX", 10)
        with pytest.raises(LocalityConstructionError, match="^no valid c found up to 10$"):
            find_valid_c(ProblemConfig(2, 2))

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

    def test_first_inequality_implies_the_second(self):
        # find_valid_c tests only the scale-grid margin; the c it returns
        # satisfies both inequalities, and c - 1 already fails the first.
        for cfg in (ProblemConfig(N=n, J=j) for n in range(2, 6) for j in range(2, 7)):
            c = find_valid_c(cfg)
            assert c ** (4 * cfg.J) >= (2 * cfg.nj) ** (2 * cfg.J) * (c + 1) ** 7, (cfg.N, cfg.J)
            assert (c + 1) ** cfg.N >= c**cfg.N + 2 * cfg.N + 2, (cfg.N, cfg.J)
            assert (c - 1) ** (4 * cfg.J) < (2 * cfg.nj) ** (2 * cfg.J) * c**7, (cfg.N, cfg.J)

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
        thetas = theta_list(cert)  # in theta's frame, where theta is (1, 0)
        assert len(thetas) == cert.k
        # 2N + 1 explicit points: the mean shifts at theta's scale, then the
        # inflated point; the c^N grid points follow
        explicit, grid = thetas[: 2 * cfg.N + 1], thetas[2 * cfg.N + 1 :]
        assert [t.sigma2 for t in explicit[:-1]] == [1.0] * (2 * cfg.N)
        assert explicit[-1].sigma2 == pytest.approx(math.e**2)
        assert len(grid) == 25**cfg.N
        # grid sigma and mean segments follow the construction
        assert grid[0].sigma2 == pytest.approx((math.sqrt(2 * cfg.nj) / 25) ** 2)
        span = 2 * math.sqrt(2 * cert.T_margin)
        centers = np.unique([t.mu[0] for t in grid])
        assert len(centers) == 25
        assert np.diff(centers).mean() == pytest.approx(span / 25)

    def test_grid_max_matches_enumeration(self):
        cfg = ProblemConfig(N=2, J=2)
        unit = Parameter(1.0, np.zeros(2))
        # At a mean of 1e17 the mean shifts round back onto mu in absolute
        # floats; a listing there missed the gap by up to 2.15 nats.
        for theta in (Parameter(1.21, [0.3, -0.2]), Parameter(1.0, [1e17, 0.0])):
            cert = _build_certificate(theta, cfg, 5)
            rng = np.random.default_rng(15)
            for _ in range(50):
                stat = SufficientStat(theta.mu + rng.normal(0, 2, 2), math.exp(rng.normal()))
                rel = SufficientStat((stat.m - theta.mu) / theta.sigma, stat.s2 / theta.sigma2)
                explicit = max(
                    log_likelihood(rel, th, cfg) for th in theta_list(cert)
                ) - log_likelihood(rel, unit, cfg)
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
        # At the low end the contracted grid's variance (sqrt(2NJ) sigma / c)^2
        # must stay a normal float, so every certified family can be listed.
        for sigma2 in (5e-324, 1e-310):
            with pytest.raises(InvalidConfigError, match=re.escape(f"sigma2 = {sigma2!r} takes the certificate out")):
                locality_certificate(Parameter(sigma2, np.zeros(2)), cfg, c=120)
        cert, rep = locality_certificate(Parameter(1e-303, np.zeros(2)), cfg, c=120)
        assert rep.all_pass and rep.worst_point[0] >= sys.float_info.min
        assert min(t.sigma2 for t in theta_list(cert)) * cert.theta.sigma2 >= sys.float_info.min

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
        grid1, grid2 = theta_list(c1)[-1], theta_list(c2)[-1]
        assert grid2.sigma2 * c2.theta.sigma2 == pytest.approx(aut.alpha**2 * grid1.sigma2 * c1.theta.sigma2)


class TestBlockedGrid:
    """The locality grid is scored in tiles, blocks of whole scale rows or
    lines of a wider row's mean points; the report must keep the bits of
    scoring the whole grid as one mesh."""

    CASES = (
        (Parameter(1.0, np.zeros(2)), ProblemConfig(N=2, J=2), GridSpec(), 0),
        (Parameter(1.21, [0.3, -0.2]), ProblemConfig(N=2, J=3), GridSpec(31, 17), 4),
        (Parameter(1.0, [1e17, 0.0]), ProblemConfig(N=2, J=2), GridSpec(), 0),
        (Parameter(1.0, [1e17, 0.0]), ProblemConfig(N=2, J=3), GridSpec(20, 9), 2),
        (Parameter(0.02, [5e5, -1e6, 2.0]), ProblemConfig(N=3, J=2), GridSpec(13, 11), 9),
        (Parameter(1e306, np.zeros(3)), ProblemConfig(N=3, J=2), GridSpec(), 0),
        (Parameter(3.7, [-1.5, 0.5, 1e6]), ProblemConfig(N=3, J=4), GridSpec(9, 7), 1),
    )

    @staticmethod
    def scores(theta, cfg, grid, seed):
        try:
            _, rep = locality_certificate(theta, cfg, grid=grid, seed=seed)
        except CertificateError as exc:
            rep = exc.report
        return rep.worst_margin.hex(), rep.worst_point.tobytes(), rep.n_exempt, rep.n_exterior

    @staticmethod
    def oracle(theta, cfg, grid, seed, **kw):
        margin, point, n_exempt, n_exterior = oracle_locality_scores(theta, cfg, find_valid_c(cfg), grid, seed, **kw)
        return margin.hex(), point.tobytes(), n_exempt, n_exterior

    @pytest.mark.parametrize("one_row", [False, True])
    def test_blocked_grid_matches_whole_grid(self, monkeypatch, one_row):
        if one_row:
            monkeypatch.setattr("nsmml.model._BLOCK", 1)
        blocks = record_blocks(monkeypatch, "nsmml.regularity")
        for theta, cfg, grid, seed in self.CASES:
            blocks.clear()
            assert self.scores(theta, cfg, grid, seed) == self.oracle(theta, cfg, grid, seed)
            n, rows = grid.points_scale, 1 if one_row else max(1, _BLOCK // grid.points_mean**cfg.N)
            scale_rows = [blk for blk in blocks if blk.row_width == grid.points_mean**cfg.N]
            assert [blk.stop - blk.start for blk in scale_rows] == [min(rows, n - lo) for lo in range(0, n, rows)]

    @pytest.mark.parametrize("nan_from", [None, 1.0])
    def test_first_least_margin_wins_across_blocks(self, monkeypatch, nan_from):
        # Every exterior margin ties at 0, or, from s/sigma = 1 on, is nan
        # where the first mean coordinate is positive.  np.argmin over the
        # whole grid returns the first least margin, or the first nan; one
        # scale row per block puts the candidates in different blocks.
        def fake_gaps(cert, s, m):
            margin = np.zeros(np.broadcast_shapes(np.shape(s), m.shape[:-1]))
            if nan_from is not None:
                margin[(s > nan_from) & (m[..., 0] > 0.0)] = np.nan
            return margin + cert.T_margin

        monkeypatch.setattr("nsmml.regularity._best_gaps", fake_gaps)
        monkeypatch.setattr("nsmml.model._BLOCK", 1)
        blocks = record_blocks(monkeypatch, "nsmml.regularity")
        theta, cfg, grid = Parameter(1.0, np.zeros(2)), ProblemConfig(N=2, J=2), GridSpec(12, 6)
        got = self.scores(theta, cfg, grid, 3)
        assert [blk.stop - blk.start for blk in blocks if blk.row_width == 36] == [1] * 12
        assert got == self.oracle(theta, cfg, grid, 3, gaps=fake_gaps)
        assert got[0] == ("nan" if nan_from else (0.0).hex())

    def test_wide_row_scored_in_line_tiles(self, monkeypatch):
        # One scale row of 17^4 = 83,521 mean points passes a block, so each
        # row is cut into tiles of whole 17-point lines of about _BLOCK points.
        blocks = record_blocks(monkeypatch, "nsmml.regularity")
        theta, cfg, grid = Parameter(0.7, [0.2, -1.0, 3.0, 0.0]), ProblemConfig(N=4, J=2), GridSpec(2, 17)
        assert self.scores(theta, cfg, grid, 5) == self.oracle(theta, cfg, grid, 5)
        step = _BLOCK // 17 * 17
        assert [(b.start, b.stop) for b in blocks if b.row_width == 17**4] == [(0, 1), (1, 2)]
        tiles = [(b.start * 17, b.stop * 17) for b in blocks if b.row_width == 17]
        assert tiles == [(0, step), (step, 17**4)] * 2

    def test_wide_row_grid_peak(self):
        # 1,889,568 points in one scale row: scored whole, it peaked at 335 MB.
        tracemalloc.start()
        try:
            locality_certificate(Parameter(1.0, np.zeros(5)), ProblemConfig(N=5, J=2), grid=GridSpec(1, 18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_default_n3_grid_peak(self):
        # The whole 663,552-point mesh and its temporaries peaked at about
        # 100 MB; blocks of whole scale rows need about 3.6 MB.
        tracemalloc.start()
        try:
            locality_certificate(Parameter(1.0, np.zeros(3)), ProblemConfig(N=3, J=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

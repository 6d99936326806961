"""Core density, penalty and Fisher-information tests."""

import math

import numpy as np
import pytest

from nsmml import (
    DegenerateInputError,
    InvalidConfigError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    code_penalty_R,
    fisher_log_sqrt_det,
    log_likelihood,
    log_marginal,
    stat_log_jacobian,
    sufficient_stats,
)
from nsmml.model import _LGAM_MAX, LOG_2PI, _lgamma

from oracles import fd_hessian, log_normal_pdf_product, oracle_log_marginal, raw_sample_with_stats


def random_stat(rng, n):
    return SufficientStat(rng.normal(0.0, 2.0, n), math.exp(rng.normal(0.0, 1.0)))


def random_param(rng, n):
    return Parameter(math.exp(rng.normal(0.0, 1.0)), rng.normal(0.0, 2.0, n))


class TestSufficientStats:
    def test_hand_example_two_points(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = sufficient_stats(np.array([[0.0, 2.0]]), cfg)
        assert stat.m == pytest.approx([1.0])
        assert stat.s2 == pytest.approx(1.0)

    def test_zero_within_group_spread(self):
        cfg = ProblemConfig(N=2, J=2)
        stat = sufficient_stats(np.array([[3.5, 3.5], [-1.25, -1.25]]), cfg)
        np.testing.assert_allclose(stat.m, [3.5, -1.25])
        assert stat.s2 == 0.0

    def test_hand_example_three_points(self):
        cfg = ProblemConfig(N=1, J=3)
        stat = sufficient_stats(np.array([[-1.0, 0.0, 1.0]]), cfg)
        assert stat.m == pytest.approx([0.0])
        assert stat.s2 == pytest.approx(2.0 / 3.0)

    def test_dimension_mismatch_rejected(self):
        cfg = ProblemConfig(N=2, J=3)
        with pytest.raises(InvalidConfigError):
            sufficient_stats(np.zeros((2, 2)), cfg)

    def test_config_invariants(self):
        with pytest.raises(InvalidConfigError):
            ProblemConfig(N=1, J=1)
        with pytest.raises(InvalidConfigError):
            ProblemConfig(N=0, J=2)
        with pytest.raises(InvalidConfigError):
            PriorSpec(0.5)


class TestLogLikelihood:
    def test_hand_value(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([1.0], 1.0)
        theta = Parameter(1.0, [1.0])
        assert log_likelihood(stat, theta, cfg) == pytest.approx(-LOG_2PI - 1.0, abs=1e-12)

    def test_mu_equal_m_maximizes(self):
        cfg = ProblemConfig(N=3, J=4)
        rng = np.random.default_rng(11)
        stat = random_stat(rng, 3)
        best = log_likelihood(stat, Parameter(0.7, stat.m), cfg)
        for _ in range(20):
            other = Parameter(0.7, stat.m + rng.normal(0, 0.5, 3))
            assert log_likelihood(stat, other, cfg) <= best

    def test_matches_raw_density_product(self):
        cfg = ProblemConfig(N=2, J=2)
        stat = SufficientStat([0.0, 0.0], 1.0)
        theta = Parameter(2.0, [1.0, -1.0])
        data = raw_sample_with_stats(stat.m, stat.s2, cfg)
        direct = log_normal_pdf_product(data, theta.sigma2, theta.mu)
        assert log_likelihood(stat, theta, cfg) == pytest.approx(direct, abs=1e-10)

    def test_degenerate_inputs_rejected(self):
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(DegenerateInputError):
            log_likelihood(SufficientStat([0.0], 0.0), Parameter(1.0, [0.0]), cfg)
        with pytest.raises(DegenerateInputError):
            Parameter(0.0, [0.0])


class TestLgamma:
    def test_matches_scipy_gammaln_bit_for_bit(self):
        from scipy.special import gammaln

        rng = np.random.default_rng(17)
        edges = np.array([0.5, 2.0, 3.0, 13.0, 1000.0, 1.0e8, _LGAM_MAX])
        x = np.concatenate([
            0.5 * np.arange(1, 20001),  # half-integers 0.5 - 10^4
            np.exp(rng.uniform(math.log(0.5), math.log(1e300), 50_000)),
            edges,
            np.nextafter(edges[1:], -np.inf),
            np.nextafter(edges, np.inf),
        ])
        ported = [_lgamma(float(v)) for v in x]
        # np.float64 from every branch, as the ufunc returned: the regularity
        # report prints comparisons of these values as numpy bools.
        assert {type(v) for v in ported} == {np.float64}
        ported = np.array(ported)
        np.testing.assert_array_equal(ported.view(np.int64), gammaln(x).view(np.int64))
        # Past Cephes's MAXLGM both overflow to inf.
        assert ported[-1] == math.inf


class TestLogMarginal:
    def test_wallace_value_quadrature(self):
        # The closed form gives r = 1/4 here; the quadrature oracle agrees.
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([0.3], 1.0)
        prior = PriorSpec.wallace()
        value = log_marginal(stat, prior, cfg)
        assert value == pytest.approx(math.log(0.25), abs=1e-12)
        assert value == pytest.approx(oracle_log_marginal(stat, 1.0, cfg), rel=1e-9)

    def test_scale_free_value_quadrature(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([-0.7], 1.0)
        prior = PriorSpec.scale_free(cfg)
        value = log_marginal(stat, prior, cfg)
        assert value == pytest.approx(math.log(1.0 / (4.0 * math.sqrt(math.pi))), abs=1e-12)
        assert value == pytest.approx(oracle_log_marginal(stat, 2.0, cfg), rel=1e-9)

    def test_depends_only_on_s2(self):
        cfg = ProblemConfig(N=3, J=2)
        prior = PriorSpec(2.5)
        a = log_marginal(SufficientStat([0.0, 1.0, -4.0], 0.8), prior, cfg)
        b = log_marginal(SufficientStat([9.0, 2.0, 3.0], 0.8), prior, cfg)
        assert a == b

    def test_general_p_quadrature_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 4)))
            stat = random_stat(rng, n)
            for p in (1.0, cfg.N + 1.0, 1.7):
                closed = log_marginal(stat, PriorSpec(p), cfg)
                assert closed == pytest.approx(oracle_log_marginal(stat, p, cfg), rel=1e-6)

    def test_s2_zero_rejected(self):
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(DegenerateInputError):
            log_marginal(SufficientStat([0.0], 0.0), PriorSpec.wallace(), cfg)


def expanded_penalty(theta, stat, prior, cfg):
    """Expanded penalty formulas for the two named priors, written out
    term by term as an independent route."""
    n, j = cfg.N, cfg.J
    nj = n * j
    quad = nj * stat.s2 + j * float(((stat.m - theta.mu) ** 2).sum())
    common = (
        -0.5 * n * math.log(j)
        + 0.5 * n * math.log(math.pi)
        + 0.5 * nj * math.log(theta.sigma2)
        + quad / (2.0 * theta.sigma2)
    )
    if prior.is_wallace:
        return common + (
            0.5 * (nj - 2) * math.log(2.0)
            + math.lgamma(0.5 * n * (j - 1))
            - 0.5 * n * (j - 1) * math.log(nj * stat.s2)
        )
    assert prior.is_scale_free(cfg)
    return common + (
        0.5 * (nj + n - 2) * math.log(2.0)
        + math.lgamma(0.5 * nj)
        - 0.5 * nj * math.log(nj * stat.s2)
    )


class TestCodePenalty:
    def test_group_permutation_invariance(self):
        cfg = ProblemConfig(N=3, J=2)
        prior = PriorSpec.scale_free(cfg)
        stat = SufficientStat([0.5, -1.0, 2.0], 1.3)
        theta = Parameter(0.9, [1.0, 0.0, -2.0])
        perm = [2, 0, 1]
        r1 = code_penalty_R(theta, stat, prior, cfg)
        r2 = code_penalty_R(
            Parameter(theta.sigma2, theta.mu[perm]),
            SufficientStat(stat.m[perm], stat.s2),
            prior,
            cfg,
        )
        assert r1 == pytest.approx(r2, abs=1e-12)

    @pytest.mark.parametrize("p_name", ["wallace", "scale_free"])
    def test_expanded_formula_agreement(self, p_name):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            prior = PriorSpec.wallace() if p_name == "wallace" else PriorSpec.scale_free(cfg)
            stat = random_stat(rng, n)
            theta = random_param(rng, n)
            direct = code_penalty_R(theta, stat, prior, cfg)
            assert direct == pytest.approx(expanded_penalty(theta, stat, prior, cfg), abs=1e-9)

    def test_strictly_convex_in_observation(self):
        # Hessian of R with respect to (s2, m) is positive definite.
        cfg = ProblemConfig(N=2, J=3)
        prior = PriorSpec.wallace()
        theta = Parameter(1.4, [0.5, -0.5])
        rng = np.random.default_rng(8)
        for _ in range(5):
            x0 = np.concatenate(([math.exp(rng.normal())], rng.normal(0, 1, 2)))

            def penalty_of(x):
                return code_penalty_R(theta, SufficientStat(x[1:], x[0]), prior, cfg)

            eigs = np.linalg.eigvalsh(fd_hessian(penalty_of, x0, h=1e-5))
            assert np.all(eigs > 0.0)

    def test_identity_with_marginal_and_likelihood(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            prior = PriorSpec(float(rng.uniform(1.0, n + 2.0)))
            stat = random_stat(rng, n)
            theta = random_param(rng, n)
            lhs = code_penalty_R(theta, stat, prior, cfg)
            rhs = log_marginal(stat, prior, cfg) - log_likelihood(stat, theta, cfg)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_scale_free_reduced_dependence(self):
        # R depends on the pair only through (s2/sigma2, (m-mu)/sigma).
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        rng = np.random.default_rng(13)
        for _ in range(30):
            stat = random_stat(rng, 2)
            theta = random_param(rng, 2)
            alpha = math.exp(rng.normal())
            beta = rng.normal(0, 2, 2)
            moved_stat = SufficientStat(alpha * stat.m + beta, alpha**2 * stat.s2)
            moved_theta = Parameter(alpha**2 * theta.sigma2, alpha * theta.mu + beta)
            r1 = code_penalty_R(theta, stat, prior, cfg)
            r2 = code_penalty_R(moved_theta, moved_stat, prior, cfg)
            assert r1 == pytest.approx(r2, abs=1e-10)

    def test_wallace_translation_exact(self):
        # With dyadic inputs the translated penalty difference is exactly 0.
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.wallace()
        stat = SufficientStat([0.25, -1.5], 0.75)
        theta = Parameter(1.25, [0.5, 2.0])
        beta = np.array([0.5, -3.25])
        r1 = code_penalty_R(theta, stat, prior, cfg)
        r2 = code_penalty_R(
            Parameter(theta.sigma2, theta.mu + beta),
            SufficientStat(stat.m + beta, stat.s2),
            prior,
            cfg,
        )
        assert r1 == r2


class TestFisher:
    def test_hand_value(self):
        cfg = ProblemConfig(N=1, J=2)
        assert fisher_log_sqrt_det(Parameter(1.0, [0.0]), cfg) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_scaling_law(self):
        cfg = ProblemConfig(N=3, J=4)
        theta = Parameter(1.7, np.zeros(3))
        gamma = 2.5
        scaled = Parameter(gamma**2 * theta.sigma2, theta.mu)
        diff = fisher_log_sqrt_det(scaled, cfg) - fisher_log_sqrt_det(theta, cfg)
        assert diff == pytest.approx(-(cfg.N + 2) * math.log(gamma), abs=1e-12)

    def test_expected_nll_hessian_oracle(self):
        # Fisher information = Hessian of the expected negative
        # log-likelihood; the expectation has a closed form in the exact
        # Gaussian / chi-square moments, differentiated numerically here.
        cfg = ProblemConfig(N=2, J=3)
        sigma2_true = 4.0
        mu_true = np.array([0.7, -1.1])

        def expected_nll(x):
            sigma2, mu = x[0], x[1:]
            e_quad = sigma2_true * cfg.dof + cfg.N * sigma2_true + cfg.J * float(
                ((mu_true - mu) ** 2).sum()
            )
            return 0.5 * cfg.nj * math.log(2.0 * math.pi * sigma2) + e_quad / (2.0 * sigma2)

        hess = fd_hessian(expected_nll, np.concatenate(([sigma2_true], mu_true)), h=1e-4)
        sign, logdet = np.linalg.slogdet(hess)
        assert sign > 0
        value = fisher_log_sqrt_det(Parameter(sigma2_true, mu_true), cfg)
        assert value == pytest.approx(0.5 * logdet, abs=1e-4)

    def test_monte_carlo_cross_check(self):
        # Sample second derivative of the negative log-likelihood in
        # sigma^2; asserted at four standard errors of the seeded run.
        cfg = ProblemConfig(N=2, J=3)
        sigma2 = 4.0
        rng = np.random.default_rng(314159)
        trials = 1_000_000
        z = rng.standard_normal((trials, cfg.N, cfg.J))
        data = math.sqrt(sigma2) * z  # true means zero
        m = data.mean(axis=2)
        quad = ((data - m[:, :, None]) ** 2).sum(axis=(1, 2)) + cfg.J * (m**2).sum(axis=1)
        samples = -cfg.nj / (2.0 * sigma2**2) + quad / sigma2**3
        est = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(trials)
        exact = cfg.nj / (2.0 * sigma2**2)
        assert abs(est - exact) < 4.0 * se


class TestStatSpaceDensities:
    def test_stat_density_normalizes(self):
        # Integrating the (s, m)-space likelihood over its domain gives 1.
        from scipy.integrate import dblquad

        from nsmml import stat_log_likelihood

        cfg = ProblemConfig(N=1, J=3)
        theta = Parameter(0.8, [0.4])

        def density(s, m):
            return math.exp(stat_log_likelihood(SufficientStat([m], s * s), theta, cfg))

        total, _ = dblquad(density, -np.inf, np.inf, 0.0, np.inf, epsabs=1e-10, epsrel=1e-9)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_jacobian_depends_only_on_s(self):
        cfg = ProblemConfig(N=2, J=2)
        a = stat_log_jacobian(SufficientStat([5.0, -2.0], 1.3), cfg)
        b = stat_log_jacobian(SufficientStat([0.0, 0.0], 1.3), cfg)
        assert a == b

"""Closed-form probabilistic core of the Neyman-Scott problem.

The model: ``N`` groups of ``J`` observations, each ``x[n, j] ~ Normal(mu_n,
sigma^2)`` with one variance shared across all groups.  The pair
``(m, s^2)`` -- per-group means and the pooled within-group variance -- is a
sufficient statistic, and every quantity this package works with has a
closed form in terms of it:

* the log-likelihood of the raw ``N x J`` sample,
* the log of the scaled marginal ``r`` under a power prior,
* the code-length penalty ``R = log(r / likelihood)``,
* the Fisher-information ``(1/2) log det`` used by Wallace-Freeman.

Priors form the one-parameter improper family ``h(sigma, mu) = sigma^(-p)``
on ``(0, inf) x R^N``.  ``p = 1`` is the Wallace prior (uniform means,
``1/sigma`` scale); ``p = N + 1`` is the scale-free prior, which is also the
Jeffreys prior of this model.  The proportionality constant of ``h`` is
fixed at exactly 1 so that scaled quantities are reproducible run to run.

All densities and penalties live in the log domain.  Gamma factors go
through ``_lgamma``, a scalar port of Cephes ``lgam`` (Moshier, 1989), the
routine ``scipy.special.gammaln`` wraps; it keeps that routine's operation
order, and the test suite checks the two agree bit for bit.  So importing
this module loads no part of scipy.  Every function here is pure and safe
for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NeymanScottError",
    "InvalidConfigError",
    "DegenerateInputError",
    "ProblemConfig",
    "PriorSpec",
    "SufficientStat",
    "Parameter",
    "sufficient_stats",
    "log_likelihood",
    "log_marginal",
    "code_penalty_R",
    "fisher_log_sqrt_det",
    "stat_log_jacobian",
    "stat_log_likelihood",
    "stat_log_marginal",
]

LOG_2PI = math.log(2.0 * math.pi)

# Cephes lgam's coefficients.  _LGAM_C's leading 1.0 makes _polevl act as
# Cephes's p1evl: 1.0 * x + c is exactly x + c.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LGAM_MAX = 2.556348e305  # Cephes MAXLGM: log Gamma overflows above it
_LOG_SQRT_2PI = 0.91893853320467274178


class NeymanScottError(Exception):
    """Base class for errors raised by this package."""


class InvalidConfigError(NeymanScottError, ValueError):
    """A problem configuration, prior, or input shape is malformed."""


class DegenerateInputError(NeymanScottError, ValueError):
    """An input lies outside the domain where the densities exist.

    Typical causes: ``s2 = 0`` (the marginal diverges there) or a
    non-positive variance.
    """


@dataclass(frozen=True)
class ProblemConfig:
    """Shape of an instance: ``N`` groups of ``J`` observations each.

    ``J >= 2`` is required (with a single observation per group the
    within-group variance is identically zero) and ``N >= 1``.
    """

    N: int
    J: int

    def __post_init__(self) -> None:
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise InvalidConfigError(f"N must be an integer >= 1, got {self.N!r}")
        if not (isinstance(self.J, (int, np.integer)) and self.J >= 2):
            raise InvalidConfigError(f"J must be an integer >= 2, got {self.J!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "J", int(self.J))

    @property
    def nj(self) -> int:
        """Total number of observations ``N * J``."""
        return self.N * self.J

    @property
    def dof(self) -> int:
        """Within-group degrees of freedom ``N * (J - 1)``."""
        return self.N * (self.J - 1)


@dataclass(frozen=True)
class PriorSpec:
    """Member of the power-prior family ``h(sigma, mu) = sigma^(-p)``.

    ``p = 1`` is the Wallace prior; ``p = N + 1`` is the scale-free prior
    (jointly scale-invariant in ``(sigma, mu)``, and the Jeffreys prior of
    the model).  Exponents below 1 are rejected.
    """

    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not (p >= 1.0 and math.isfinite(p)):
            raise InvalidConfigError(f"prior exponent p must satisfy p >= 1, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def is_wallace(self) -> bool:
        return self.p == 1.0

    def is_scale_free(self, cfg: ProblemConfig) -> bool:
        return self.p == cfg.N + 1.0

    @classmethod
    def wallace(cls) -> "PriorSpec":
        return cls(1.0)

    @classmethod
    def scale_free(cls, cfg: ProblemConfig) -> "PriorSpec":
        return cls(float(cfg.N + 1))


def _as_mean_vector(value, name: str) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    if vec.ndim != 1:
        raise InvalidConfigError(f"{name} must be a 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InvalidConfigError(f"{name} must be finite")
    return vec


@dataclass(frozen=True)
class SufficientStat:
    """Observed point ``(m, s^2)``: group means and pooled variance.

    ``s2 >= 0`` always; every operation except :func:`sufficient_stats`
    requires ``s2 > 0``.
    """

    m: np.ndarray
    s2: float

    def __post_init__(self) -> None:
        m = _as_mean_vector(self.m, "m")
        s2 = float(self.s2)
        if not (s2 >= 0.0 and math.isfinite(s2)):
            raise InvalidConfigError(f"s2 must be a finite value >= 0, got {self.s2!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s2", s2)

    @property
    def n_groups(self) -> int:
        return self.m.shape[0]

    @property
    def s(self) -> float:
        return math.sqrt(self.s2)


@dataclass(frozen=True)
class Parameter:
    """Candidate parameter ``(sigma^2, mu)`` with ``sigma^2 > 0``."""

    sigma2: float
    mu: np.ndarray

    def __post_init__(self) -> None:
        sigma2 = float(self.sigma2)
        if not (sigma2 > 0.0 and math.isfinite(sigma2)):
            raise DegenerateInputError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "mu", _as_mean_vector(self.mu, "mu"))

    @property
    def n_groups(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _check_positive(value, name: str) -> None:
    """Reject a value that is not finite and > 0, naming it and its value."""
    if not (value > 0.0 and math.isfinite(value)):
        raise InvalidConfigError(f"{name} must be finite and > 0, got {value!r}")


def _check_stat(stat: SufficientStat, cfg: ProblemConfig) -> None:
    if stat.n_groups != cfg.N:
        raise InvalidConfigError(
            f"stat has {stat.n_groups} group means but the configuration has N={cfg.N}"
        )
    if stat.s2 <= 0.0:
        raise DegenerateInputError("s2 must be > 0 for this operation (the marginal diverges at s2 = 0)")


def _check_param(theta: Parameter, cfg: ProblemConfig) -> None:
    if theta.n_groups != cfg.N:
        raise InvalidConfigError(
            f"parameter has {theta.n_groups} means but the configuration has N={cfg.N}"
        )


def sufficient_stats(data: np.ndarray, cfg: ProblemConfig) -> SufficientStat:
    """Reduce an ``N x J`` sample to its sufficient statistic.

    ``m_n`` is the mean of row ``n``; ``s2`` is the pooled within-group
    variance ``sum_{n,j} (x[n,j] - m_n)^2 / (N*J)``.
    """
    x = np.asarray(data, dtype=float)
    if x.shape != (cfg.N, cfg.J):
        raise InvalidConfigError(f"data shape {x.shape} does not match (N, J) = ({cfg.N}, {cfg.J})")
    if not np.all(np.isfinite(x)):
        raise InvalidConfigError("data must be finite")
    m = x.mean(axis=1)
    s2 = float(((x - m[:, None]) ** 2).sum() / cfg.nj)
    return SufficientStat(m=m, s2=s2)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, leading coefficient first."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _lgamma(x: float) -> np.float64:
    """``log Gamma(x)`` for ``x >= 0.5``, with the bits of ``scipy.special.gammaln``.

    Every caller passes half an integer degree of freedom plus a prior
    exponent, so Cephes's reflection and pole branches are left out.  The
    result is ``np.float64``, as the ufunc's was: the regularity report
    prints comparisons of these values as numpy bools.
    """
    if x < 13.0:
        # Recur into [2, 3), then a rational approximation there.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return np.float64(math.log(z))
        x = x + (p - 2.0)
        return np.float64(math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C))
    if x > _LGAM_MAX:
        return np.float64(math.inf)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return np.float64(q)
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return np.float64(q)


def log_likelihood_kernel(s2, sq_dev, sigma2, cfg: ProblemConfig):
    """Broadcasting :func:`log_likelihood`; ``sq_dev`` is ``sum_n (m_n - mu_n)^2``."""
    # One expression, so numpy reuses the temporaries of large operands.
    return -0.5 * cfg.nj * (LOG_2PI + np.log(sigma2)) - (cfg.nj * s2 + cfg.J * sq_dev) / (2.0 * sigma2)


def log_marginal_kernel(s2, prior: PriorSpec, cfg: ProblemConfig):
    """Broadcasting :func:`log_marginal`, without its checks."""
    q = cfg.dof + prior.p
    return (
        -0.5 * cfg.dof * LOG_2PI
        - 0.5 * cfg.N * math.log(cfg.J)
        - math.log(2.0)
        + 0.5 * (1.0 - q) * np.log(0.5 * cfg.nj * s2)
        + _lgamma(0.5 * (q - 1.0))
    )


def code_penalty_kernel(s2, sq_dev, sigma2, prior: PriorSpec, cfg: ProblemConfig):
    """Broadcasting :func:`code_penalty_R`, without its checks: ``log
    marginal - log likelihood``, with ``sq_dev = sum_n (m_n - mu_n)^2``."""
    return log_marginal_kernel(s2, prior, cfg) - log_likelihood_kernel(s2, sq_dev, sigma2, cfg)


def log_likelihood(stat: SufficientStat, theta: Parameter, cfg: ProblemConfig) -> float:
    """Log-density of the raw ``N x J`` sample, via its sufficient statistic.

    Uses the decomposition ``sum (x - mu)^2 = N*J*s2 + J * sum (m - mu)^2``,
    so the value equals the product of the ``N*J`` individual normal
    densities evaluated on any raw sample with these statistics.
    """
    _check_stat(stat, cfg)
    _check_param(theta, cfg)
    sq_dev = float(((stat.m - theta.mu) ** 2).sum())
    return float(log_likelihood_kernel(stat.s2, sq_dev, theta.sigma2, cfg))


def log_marginal(stat: SufficientStat, prior: PriorSpec, cfg: ProblemConfig) -> float:
    """Log of the scaled marginal ``r = integral of sigma^(-p) * likelihood``.

    Closed form for the whole power family: with ``q = N*(J-1) + p``,

        r = (2*pi)^(-N(J-1)/2) * J^(-N/2) * (1/2)
            * (N*J*s2 / 2)^((1-q)/2) * Gamma((q-1)/2).

    For ``p = 1`` and ``p = N + 1`` this reduces to the Wallace-prior and
    scale-free expressions (gamma arguments ``N(J-1)/2`` and ``NJ/2``); the
    general exponent is validated against adaptive quadrature in the test
    suite.  Depends on the statistic only through ``s2``.
    """
    _check_stat(stat, cfg)
    return float(log_marginal_kernel(stat.s2, prior, cfg))


def code_penalty_R(theta: Parameter, stat: SufficientStat, prior: PriorSpec, cfg: ProblemConfig) -> float:
    """Code-length penalty ``R = log(marginal / likelihood)``.

    The expected value of this penalty over a codebook region is the
    data-encoding cost the region pays for representing its members by the
    single parameter ``theta``.
    """
    _check_stat(stat, cfg)
    _check_param(theta, cfg)
    sq_dev = float(((stat.m - theta.mu) ** 2).sum())
    return float(code_penalty_kernel(stat.s2, sq_dev, theta.sigma2, prior, cfg))


def fisher_log_sqrt_det(theta: Parameter, cfg: ProblemConfig) -> float:
    """``(1/2) log det F(theta)`` in the ``(sigma^2, mu)`` parameterization.

    ``F = diag(NJ / (2 sigma^4), J/sigma^2, ..., J/sigma^2)``, so
    ``sqrt(det F)`` is proportional to ``sigma^(-(N+2))`` as a density in
    ``(sigma^2, mu)`` -- equivalently ``sigma^(-(N+1))`` as a density in
    ``sigma``, i.e. the scale-free prior is the Jeffreys prior.
    """
    _check_param(theta, cfg)
    return 0.5 * (math.log(0.5 * cfg.nj) + cfg.N * math.log(cfg.J)) - 0.5 * (cfg.N + 2) * math.log(
        theta.sigma2
    )


def stat_log_jacobian(stat: SufficientStat, cfg: ProblemConfig) -> float:
    """Log ratio between the ``(s, m)``-space density and the raw density.

    Integrating the raw density over the sphere of samples sharing
    ``(s, m)`` multiplies it by ``C(s) = 2 N J s (N J s^2)^(dof/2 - 1)
    * J^(N/2) * pi^(dof/2) / Gamma(dof/2)``, a function of ``s`` alone.
    Adding this term converts :func:`log_likelihood` and
    :func:`log_marginal` into densities on ``(s, m)``, the observation
    space in which the scale-translation automorphisms act with Jacobian
    ``alpha^(N+1)``.
    """
    _check_stat(stat, cfg)
    nu = cfg.dof
    return (
        math.log(2.0 * cfg.nj)
        + 0.5 * math.log(stat.s2)
        + (0.5 * nu - 1.0) * math.log(cfg.nj * stat.s2)
        + 0.5 * cfg.N * math.log(cfg.J)
        + 0.5 * nu * math.log(math.pi)
        - _lgamma(0.5 * nu)
    )


def stat_log_likelihood(stat: SufficientStat, theta: Parameter, cfg: ProblemConfig) -> float:
    """Log-density of the sufficient statistic ``(s, m)`` given ``theta``."""
    return log_likelihood(stat, theta, cfg) + stat_log_jacobian(stat, cfg)


def stat_log_marginal(stat: SufficientStat, prior: PriorSpec, cfg: ProblemConfig) -> float:
    """Log of the scaled marginal density on ``(s, m)`` space.

    Proportional to ``s^(-p)``: uniform in ``(log s, m/s)`` coordinates
    exactly when the prior is scale free.
    """
    return log_marginal(stat, prior, cfg) + stat_log_jacobian(stat, cfg)

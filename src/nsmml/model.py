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

import contextvars
import math
from collections.abc import Iterator
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
        object.__setattr__(self, "N", _check_int(self.N, "N", 1))
        object.__setattr__(self, "J", _check_int(self.J, "J", 2))

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
        object.__setattr__(self, "p", _check_float(self.p, "prior exponent p", 1))

    @property
    def is_wallace(self) -> bool:
        return self.p == 1.0

    def is_scale_free(self, cfg: ProblemConfig) -> bool:
        return self.p == cfg.N + 1  # float == int is exact: no float of N is formed

    @classmethod
    def wallace(cls) -> "PriorSpec":
        return cls(1.0)

    @classmethod
    def scale_free(cls, cfg: ProblemConfig) -> "PriorSpec":
        return cls(cfg.N + 1)


@dataclass(frozen=True)
class SufficientStat:
    """Observed point ``(m, s^2)``: group means and pooled variance.

    ``s2 >= 0`` always; every operation except :func:`sufficient_stats`
    requires ``s2 > 0``.
    """

    m: np.ndarray
    s2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_array(self.m, "m", (None,), own=True))
        object.__setattr__(self, "s2", _check_float(self.s2, "s2", 0))

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
        sigma2 = _check_float(self.sigma2, "sigma2")
        if sigma2 <= 0.0:
            raise DegenerateInputError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "mu", _check_array(self.mu, "mu", (None,), own=True))

    @property
    def n_groups(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _shown(value) -> str:
    """``repr(value)`` for a message, but Python refuses to print an int of
    more than 4300 digits (``sys.get_int_max_str_digits``): such an int
    shows its digit count."""
    try:
        return repr(value)
    except ValueError:
        n = abs(value)
        digits = math.floor(math.log10(n)) + 1  # may be off by one near a power of ten
        digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
        return f"a {'negative ' if value < 0 else ''}{digits}-digit integer"


def _check_int(value, name: str, least: int) -> int:
    """``value`` as a Python ``int``; a bool, any other non-integer, or a
    value below ``least`` is rejected, naming it and its value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfigError(f"{name} must be an integer, got {_shown(value)}")
    if value < least:
        raise InvalidConfigError(f"{name} must be >= {least}, got {_shown(value)}")
    return int(value)


def _check_float(value, name: str, least: float = -math.inf, strict: bool = False) -> float:
    """``value`` as a Python ``float``: an ``int``, ``float`` or numpy number
    that is finite and at least ``least`` (above it when ``strict``).  A bool
    or any other type, and a value out of range, are rejected, naming it and
    its value."""
    if isinstance(value, bool) or not isinstance(value, (float, int, np.floating, np.integer)):
        raise InvalidConfigError(f"{name} must be a number, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if not (math.isfinite(x) and (x > least if strict else x >= least)):
        bound = "" if least == -math.inf else f" and {'>' if strict else '>='} {least}"
        raise InvalidConfigError(f"{name} must be finite{bound}, got {_shown(value)}")
    return x


def _check_array(
    value, name: str, shape: tuple | None = None, integer: bool = False, own: bool = False
) -> np.ndarray:
    """``value`` as a finite float64 array, or an int64 one when ``integer``,
    of ``shape``: an exact shape, ``(None,)`` for a nonempty vector (a scalar
    reads as a one-entry vector), or ``None`` for any shape.  A ragged,
    string, object or bool array, and a bool inside an integer list (numpy
    reads ``[True, 0]`` as ``[1, 0]``), are rejected by name.  A float64
    array is returned as it is, not copied, unless ``own`` asks for a
    read-only float64 copy that no later write to ``value`` can reach."""
    what = "integers" if integer else "numbers"
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        raise InvalidConfigError(f"{name} must be a rectangular array of {what}") from None
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise InvalidConfigError(f"{name} must hold {what}, not {arr.dtype}")
    if integer and not isinstance(value, np.ndarray):
        if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(value, dtype=object).flat)):
            raise InvalidConfigError(f"{name} must hold integers, not bools")
    if shape == (None,):
        arr = arr.reshape(1) if arr.ndim == 0 else arr
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidConfigError(f"{name} must have shape (n,), got {arr.shape}")
    elif shape is not None and arr.shape != shape:
        raise InvalidConfigError(f"{name} must have shape {shape}, got {arr.shape}")
    if integer:
        return arr.astype(np.int64, copy=False)
    if arr.dtype != np.float64:
        with _float_range("{} must be finite", name):  # a long double can overflow
            arr = arr.astype(np.float64)
    elif own:
        arr = arr.copy()
    if not np.isfinite(arr).all():
        raise InvalidConfigError(f"{name} must be finite")
    if own:
        arr.setflags(write=False)
    return arr


class _float_range:
    """Reject a computation on caller values at its first floating-point
    overflow, invalid operation or division by zero with
    ``InvalidConfigError(message.format(*args))``, so no inf or nan comes
    back and numpy prints no warning.  A guard inside another leaves the
    error to the outer one, at the caller's inputs."""

    __slots__ = ("message", "args", "outer")
    _active = contextvars.ContextVar("_float_range", default=False)

    def __init__(self, message: str, *args) -> None:
        self.message, self.args, self.outer = message, args, None

    def __enter__(self) -> None:
        if not self._active.get():
            self.outer = self._active.set(True), np.errstate(over="raise", invalid="raise", divide="raise")
            self.outer[1].__enter__()

    def __exit__(self, kind, exc, tb) -> None:
        if self.outer:
            self.outer[1].__exit__(kind, exc, tb)
            self._active.reset(self.outer[0])
            if isinstance(exc, ArithmeticError):
                raise InvalidConfigError(self.message.format(*self.args)) from None


def _in_range(value: float, least: float = -math.inf) -> float:
    """``value`` if finite and at least ``least``, else an ``ArithmeticError``
    for the enclosing guard: Python floats overflow to inf without raising."""
    if not (math.isfinite(value) and value >= least):
        raise ArithmeticError(f"{value!r} is out of range")
    return value


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


# Float64 entries per block of a blocked loop's temporaries (512 KB): the
# lattice penalty build, the least-penalty lists, the count-vector DP's
# candidate blocks, the arc table, the overlap report's region diameters,
# the sweep's trials and the locality grid all walk _row_blocks.  The local
# search's move window (codebook._MOVE_WINDOW) is the one blocked loop that
# does not.
_BLOCK = 2**16


def _row_blocks(n_rows: int, row_width: int) -> Iterator[slice]:
    """Slices of whole rows of an ``n_rows x row_width`` array, about
    ``_BLOCK`` entries each and at least one row."""
    step = max(1, _BLOCK // row_width)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def sufficient_stats_kernel(x: np.ndarray, cfg: ProblemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Broadcasting :func:`sufficient_stats`, without its checks: the group
    means and pooled variances of a stack of ``N x J`` samples, ``x`` of
    shape ``(..., N, J)``.  Each sample's sums run over its own entries in
    the order of a lone sample's, so every sample gets the same bits.

    The group means have the bits of ``x.mean(axis=-1)``.  numpy's pairwise
    sum adds fewer than 8 terms one by one onto 0.0, so for ``J < 8`` the
    columns are summed that way, a vector add per column (the 0.0 turns an
    all ``-0.0`` row's sum into 0.0, as numpy's does).  From ``J = 8`` numpy
    sums in 8-wide blocks, an order only ``mean`` keeps."""
    j = x.shape[-1]
    if j < 8:
        m = x[..., 0] + 0.0
        for col in range(1, j):
            m += x[..., col]
        m /= j
    else:
        m = x.mean(axis=-1)
    s2 = ((x - m[..., None]) ** 2).sum(axis=(-2, -1)) / cfg.nj
    return m, s2


def sufficient_stats(data: np.ndarray, cfg: ProblemConfig) -> SufficientStat:
    """Reduce an ``N x J`` sample to its sufficient statistic.

    ``m_n`` is the mean of row ``n``; ``s2`` is the pooled within-group
    variance ``sum_{n,j} (x[n,j] - m_n)^2 / (N*J)``.
    """
    x = _check_array(data, "data", (cfg.N, cfg.J))
    with _float_range("data take the group means or s2 out of the float range"):
        m, s2 = sufficient_stats_kernel(x, cfg)
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


def _scalar_at(kernel, what: str, stat: SufficientStat, theta: Parameter, cfg: ProblemConfig, *args) -> float:
    """``kernel(s2, sq_dev, sigma2, *args, cfg)``, the ``what``, at one checked
    statistic and parameter, guarded by :func:`_float_range`."""
    _check_stat(stat, cfg)
    _check_param(theta, cfg)
    with _float_range("stat and theta take the {} out of the float range", what):
        sq_dev = float(((stat.m - theta.mu) ** 2).sum())
        return _in_range(float(kernel(stat.s2, sq_dev, theta.sigma2, *args, cfg)))


def log_likelihood(stat: SufficientStat, theta: Parameter, cfg: ProblemConfig) -> float:
    """Log-density of the raw ``N x J`` sample, via its sufficient statistic.

    Uses the decomposition ``sum (x - mu)^2 = N*J*s2 + J * sum (m - mu)^2``,
    so the value equals the product of the ``N*J`` individual normal
    densities evaluated on any raw sample with these statistics.
    """
    return _scalar_at(log_likelihood_kernel, "log-likelihood", stat, theta, cfg)


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
    with _float_range("stat and prior take the log-marginal out of the float range"):
        return _in_range(float(log_marginal_kernel(stat.s2, prior, cfg)))


def code_penalty_R(theta: Parameter, stat: SufficientStat, prior: PriorSpec, cfg: ProblemConfig) -> float:
    """Code-length penalty ``R = log(marginal / likelihood)``.

    The expected value of this penalty over a codebook region is the
    data-encoding cost the region pays for representing its members by the
    single parameter ``theta``.
    """
    return _scalar_at(code_penalty_kernel, "penalty", stat, theta, cfg, prior)


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
    with _float_range("stat takes the log-Jacobian out of the float range"):
        return _in_range(
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

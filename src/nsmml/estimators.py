"""Point estimators for the Neyman-Scott problem.

Implements maximum likelihood, the Ideal Point map in both directions,
Ideal Group sublevel regions, the Wallace-Freeman estimator, and the
variance estimator obtained after integrating the group means out.  All
of them reduce to closed forms of the shared shape ``sigma2_hat =
constant * s2``, ``mu_hat = m``.  :data:`SIGMA2_HAT` holds the one
implementation of each closed form, in method order; the constants are:

=====================  =====================================
estimator              sigma2_hat / s2
=====================  =====================================
ML                     1
Ideal Point            N*J / (N*(J-1) + p - 1)
Wallace-Freeman        N*J / (N*J + p - N - 1)
means integrated out   J / (J - 1)
=====================  =====================================

For the scale-free prior (p = N + 1) both Ideal Point and Wallace-Freeman
collapse onto ML exactly; for the Wallace prior (p = 1) both return the
consistent ``J * s2 / (J - 1)``.  The numerical-optimizer cross-checks for
these closed forms live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    DegenerateInputError,
    InvalidConfigError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    _check_param,
    _check_positive,
    _check_stat,
    code_penalty_R,
)

__all__ = [
    "METHOD_ML",
    "METHOD_IP",
    "METHOD_WF",
    "METHOD_MARGINALIZED",
    "SIGMA2_HAT",
    "PRIOR_FREE_METHODS",
    "method_from_name",
    "Estimate",
    "IdealGroupRegion",
    "ml_estimate",
    "ip_estimate",
    "ip_reverse",
    "penalty_at_ideal_point",
    "ideal_group",
    "wf_estimate",
    "marginalized_sigma2_ml",
    "stat_from_coords",
    "coords_from_stat",
    "param_from_coords",
    "coords_from_param",
]

METHOD_ML = "ML"
METHOD_IP = "IP"
METHOD_WF = "WF"
METHOD_MARGINALIZED = "MARGINALIZED_SIGMA2"


def _ip_shrinkage(prior: PriorSpec, cfg: ProblemConfig) -> float:
    # s2 = shrinkage * sigma2 at the penalty-minimizing observation.
    return (cfg.dof + prior.p - 1.0) / cfg.nj


def _ip_sigma2(s2, prior: PriorSpec, cfg: ProblemConfig):
    return s2 / _ip_shrinkage(prior, cfg)


# Every estimator, in output order: method -> sigma2_hat(s2, prior, cfg).
# The forms broadcast over arrays of s2; prior-free forms ignore ``prior``.
SIGMA2_HAT = {
    METHOD_ML: lambda s2, prior, cfg: s2,
    METHOD_IP: _ip_sigma2,
    METHOD_WF: _ip_sigma2,
    METHOD_MARGINALIZED: lambda s2, prior, cfg: cfg.J * s2 / (cfg.J - 1.0),
}
PRIOR_FREE_METHODS = frozenset({METHOD_ML, METHOD_MARGINALIZED})


def method_from_name(name: str) -> str:
    """Method constant for a case-insensitive name; ``MARGINALIZED`` is
    accepted for :data:`METHOD_MARGINALIZED`."""
    method = name.strip().upper()
    method = METHOD_MARGINALIZED if method == "MARGINALIZED" else method
    if method not in SIGMA2_HAT:
        raise InvalidConfigError(f"unknown method {name!r}")
    return method


@dataclass(frozen=True)
class Estimate:
    """A point estimate together with the method and prior that produced it."""

    theta: Parameter
    method: str
    prior: PriorSpec | None = None

    def __post_init__(self) -> None:
        if self.method not in SIGMA2_HAT:
            raise InvalidConfigError(f"unknown estimator method {self.method!r}")


def _estimate(method: str, stat: SufficientStat, prior: PriorSpec | None, cfg: ProblemConfig) -> Estimate:
    _check_stat(stat, cfg)
    sigma2 = SIGMA2_HAT[method](stat.s2, prior, cfg)
    return Estimate(Parameter(sigma2, stat.m.copy()), method, prior)


def ml_estimate(stat: SufficientStat, cfg: ProblemConfig) -> Estimate:
    """Maximum likelihood: ``sigma2_hat = s2``, ``mu_hat = m``."""
    return _estimate(METHOD_ML, stat, None, cfg)


def ip_estimate(stat: SufficientStat, prior: PriorSpec, cfg: ProblemConfig) -> Estimate:
    """Forward Ideal Point estimate: the parameter whose penalty-minimizing
    observation is ``stat``.

    ``sigma2_hat = N*J*s2 / (N*(J-1) + p - 1)`` and ``mu_hat = m``; this is
    the stationary point of the penalty in closed form.  The map is onto
    the whole parameter space for every admissible ``p``, so it is a true
    (single-valued) estimator here.
    """
    return _estimate(METHOD_IP, stat, prior, cfg)


def ip_reverse(theta: Parameter, prior: PriorSpec, cfg: ProblemConfig) -> SufficientStat:
    """Reverse Ideal Point map: the unique observation minimizing the
    penalty of ``theta``.

    ``m = mu`` and ``s2 = sigma2 * (N*(J-1) + p - 1) / (N*J)``.  Composing
    with :func:`ip_estimate` gives the identity on parameters.
    """
    _check_param(theta, cfg)
    return SufficientStat(theta.mu.copy(), theta.sigma2 * _ip_shrinkage(prior, cfg))


def penalty_at_ideal_point(theta: Parameter, prior: PriorSpec, cfg: ProblemConfig) -> float:
    """Minimum of the code penalty of ``theta`` over all observations."""
    return code_penalty_R(theta, ip_reverse(theta, prior, cfg), prior, cfg)


def _from_coords(coords):
    """``(scale^2, means)`` from ``(log scale, means/scale)`` coordinates on
    the last axis; broadcasts over any leading axes."""
    coords = np.asarray(coords, dtype=float)
    scale = np.exp(coords[..., 0])
    return scale**2, coords[..., 1:] * scale[..., None]


def _to_coords(scale2, means):
    """``(log scale, means/scale)`` coordinates; inverse of :func:`_from_coords`."""
    scale = np.sqrt(scale2)
    return np.concatenate([np.log(scale)[..., None], means / scale[..., None]], axis=-1)


def stat_from_coords(coords: np.ndarray) -> SufficientStat:
    """Observation from ``(log s, m/s)`` coordinates."""
    s2, m = _from_coords(coords)
    return SufficientStat(m, s2)


def coords_from_stat(stat: SufficientStat) -> np.ndarray:
    """``(log s, m/s)`` coordinates of an observation."""
    return _to_coords(stat.s2, stat.m)


def param_from_coords(coords: np.ndarray) -> Parameter:
    """Parameter from ``(log sigma, mu/sigma)`` coordinates."""
    sigma2, mu = _from_coords(coords)
    return Parameter(sigma2, mu)


def coords_from_param(theta: Parameter) -> np.ndarray:
    """``(log sigma, mu/sigma)`` coordinates of a parameter."""
    return _to_coords(theta.sigma2, theta.mu)


_INITIAL_STEP = 0.25  # first bracket step of a level crossing, in coordinate units
_MAX_DOUBLINGS = 200  # bracket doublings before a level crossing is given up


def _expand_to_level(profile, t0: float, step: float, level: float) -> float:
    """First crossing of ``profile(t) = level`` from ``t0`` in the direction
    of ``step``.  Requires ``profile(t0) < level`` and eventual growth past
    ``level`` (true for all the convex penalty profiles used here).
    """
    lo = t0
    hi = t0 + step
    for _ in range(_MAX_DOUBLINGS):
        if profile(hi) >= level:
            break
        lo = hi
        hi = t0 + 2.0 * (hi - t0)
    else:
        raise DegenerateInputError(f"no level crossing found within {_MAX_DOUBLINGS} bracket doublings")
    from scipy.optimize import brentq  # imported here: loading scipy.optimize slows every import

    return brentq(lambda t: profile(t) - level, min(lo, hi), max(lo, hi), xtol=1e-12, rtol=1e-12)


def axis_level_box(profile_at, center: np.ndarray, level: float) -> np.ndarray:
    """Axis-aligned box of level crossings through ``center``.

    For each coordinate axis, holds the remaining coordinates at the
    center and finds the two points where ``profile_at(coords) = level``.
    ``profile_at(center)`` must lie below ``level``.  Returns an array of
    shape ``(dim, 2)`` with the low/high crossings per axis.
    """
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    box = np.empty((dim, 2))
    for axis in range(dim):
        def profile(t: float, axis: int = axis) -> float:
            coords = center.copy()
            coords[axis] = t
            return profile_at(coords)

        box[axis, 0] = _expand_to_level(profile, center[axis], -_INITIAL_STEP, level)
        box[axis, 1] = _expand_to_level(profile, center[axis], _INITIAL_STEP, level)
    return box


@dataclass(frozen=True)
class IdealGroupRegion:
    """Sublevel set ``{x : R_theta(x) <= R*_theta + epsilon}``.

    Represented by its defining inequality (the :meth:`contains` predicate
    evaluates the penalty directly) plus an axis-crossing box in
    ``(log s, m/s)`` coordinates through the penalty-minimizing
    observation.  ``epsilon`` parameterizes the threshold; this is the
    sublevel-set form of the Ideal Group, not the historical
    integral-derived threshold.
    """

    center: Parameter
    prior: PriorSpec
    cfg: ProblemConfig
    epsilon: float
    r_star: float
    box: np.ndarray = field(repr=False)

    def contains(self, stat: SufficientStat) -> bool:
        return code_penalty_R(self.center, stat, self.prior, self.cfg) <= self.r_star + self.epsilon

    @property
    def widths(self) -> np.ndarray:
        return self.box[:, 1] - self.box[:, 0]


def ideal_group(theta: Parameter, prior: PriorSpec, epsilon: float, cfg: ProblemConfig) -> IdealGroupRegion:
    """Ideal Group region of ``theta`` at threshold ``R*_theta + epsilon``.

    The box is found by 1-D root-finding along each ``(log s, m/s)`` axis
    through the penalty-minimizing observation, which the region always
    contains.
    """
    _check_positive(epsilon, "epsilon")
    r_star = penalty_at_ideal_point(theta, prior, cfg)
    center = coords_from_stat(ip_reverse(theta, prior, cfg))

    def profile_at(coords: np.ndarray) -> float:
        return code_penalty_R(theta, stat_from_coords(coords), prior, cfg) - r_star

    box = axis_level_box(profile_at, center, epsilon)
    return IdealGroupRegion(theta, prior, cfg, float(epsilon), r_star, box)


def wf_estimate(stat: SufficientStat, prior: PriorSpec, cfg: ProblemConfig) -> Estimate:
    """Wallace-Freeman estimate: maximizes ``prior * likelihood / sqrt(det F)``.

    With the power prior expressed as a density in ``(sigma^2, mu)`` (the
    ``2 sigma`` Jacobian turns ``sigma^(-p)`` into ``sigma^(-(p+1)) / 2``),
    differentiation gives ``mu_hat = m`` and

        sigma2_hat = N*J*s2 / (N*J + p - N - 1).

    The denominator is ``N*(J-1) + p - 1``, so this is the Ideal Point
    estimate, and :data:`SIGMA2_HAT` computes both with one form.  The
    objective is parameterization invariant; for ``p = N + 1`` (the
    Jeffreys prior) the estimate equals maximum likelihood exactly.
    """
    return _estimate(METHOD_WF, stat, prior, cfg)


def marginalized_sigma2_ml(stat: SufficientStat, cfg: ProblemConfig) -> float:
    """Variance estimate after integrating the means out (uniform improper
    prior on ``mu``): maximizes ``sigma^(-N(J-1)) exp(-N*J*s2 / (2 sigma^2))``,
    giving ``J * s2 / (J - 1)`` for every ``N``.
    """
    _check_stat(stat, cfg)
    return SIGMA2_HAT[METHOD_MARGINALIZED](stat.s2, None, cfg)

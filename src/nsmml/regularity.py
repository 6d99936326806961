"""Regularity property engine: automorphisms, homogeneity,
comprehensiveness, concentration, and the constructive locality
certificate.

An automorphism is a scale-translation pair acting jointly on observation
and parameter space: ``U(s, m) = (alpha*s, alpha*m + beta)`` and
``T(sigma, mu) = (alpha*sigma, alpha*mu + beta)``.  Checks are run against
the densities on ``(s, m)`` space, where ``U`` has Jacobian determinant
``alpha^(N+1)``.  The likelihood condition holds for every member of the
power-prior family; the marginal condition compares the exponent ``p`` of
the ``s^(-p)`` marginal with the Jacobian exponent ``N+1``, so it holds
for all ``(alpha, beta)`` exactly when the prior is scale free, and for
translations (``alpha = 1``) under every prior.

The locality certificate follows the constructive proof that the
scale-free problem is local: ``k = 2N + 1 + c^N`` competitor parameters
(2N mean shifts, one inflated scale, and a ``c^N`` grid of contracted
scales) dominate the likelihood of ``theta`` by a margin ``T = N log(c+1)``
everywhere outside an exempt box whose scaled probability is bounded by a
constant independent of ``theta``.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    DegenerateInputError,
    InvalidConfigError,
    NeymanScottError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    _check_array,
    _check_float,
    _check_int,
    _check_param,
    _check_stat,
    _float_range,
    _in_range,
    _row_blocks,
    code_penalty_R,
    log_likelihood_kernel,
    stat_log_likelihood,
    stat_log_marginal,
)
from .estimators import (
    axis_level_box,
    coords_from_param,
    ip_estimate,
    param_from_coords,
    penalty_at_ideal_point,
)

__all__ = [
    "Automorphism",
    "AutomorphismReport",
    "check_automorphism",
    "transitivity_witness",
    "HomogeneityReport",
    "homogeneity_check",
    "ComprehensivenessReport",
    "comprehensiveness_check",
    "ConcentrationBox",
    "concentration_box",
    "LocalityConstructionError",
    "CertificateError",
    "find_valid_c",
    "LocalityCertificate",
    "LocalityReport",
    "GridSpec",
    "locality_certificate",
]

_TOL = 1e-9  # default tolerance of the property checks
_MOVES = "alpha = {!r} and beta take {} out of the float range"


class LocalityConstructionError(NeymanScottError):
    """The locality construction's inequalities cannot be satisfied."""


class CertificateError(NeymanScottError):
    """Certificate verification failed at some exterior sample point."""

    def __init__(self, message: str, report: "LocalityReport | None" = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Automorphism:
    """Scale-translation pair ``(alpha, beta)`` with ``alpha > 0``.

    Acts on observations as ``(s, m) -> (alpha*s, alpha*m + beta)`` and on
    parameters as ``(sigma, mu) -> (alpha*sigma, alpha*mu + beta)``; the
    observation-space Jacobian determinant in ``(s, m)`` coordinates is
    ``alpha^(N+1)``.
    """

    alpha: float
    beta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_float(self.alpha, "alpha", 0, strict=True))
        object.__setattr__(self, "beta", _check_array(self.beta, "beta", (None,), own=True))

    @property
    def n_groups(self) -> int:
        return self.beta.shape[0]

    def apply_stat(self, stat: SufficientStat) -> SufficientStat:
        with _float_range(_MOVES, self.alpha, "the statistic"):
            return SufficientStat(self.alpha * stat.m + self.beta, _in_range(self.alpha**2 * stat.s2))

    def apply_param(self, theta: Parameter) -> Parameter:
        with _float_range(_MOVES, self.alpha, "the parameter"):  # a variance that underflows to 0 leaves it too
            return Parameter(_in_range(self.alpha**2 * theta.sigma2, math.ulp(0.0)), self.alpha * theta.mu + self.beta)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The automorphism acting as ``self`` after ``other``."""
        with _float_range(_MOVES, self.alpha, "the composition"):
            return Automorphism(_in_range(self.alpha * other.alpha), self.alpha * other.beta + self.beta)

    def inverse(self) -> "Automorphism":
        with _float_range(_MOVES, self.alpha, "-beta / alpha"):
            return Automorphism(_in_range(1.0 / self.alpha), -self.beta / self.alpha)

    def log_jacobian(self, cfg: ProblemConfig) -> float:
        return (cfg.N + 1) * math.log(self.alpha)


@dataclass(frozen=True)
class AutomorphismReport:
    marginal_ok: bool
    likelihood_ok: bool
    max_marginal_violation: float
    max_likelihood_violation: float
    max_violation: float
    samples: int
    tol: float


def _random_stat(rng: np.random.Generator, cfg: ProblemConfig) -> SufficientStat:
    return SufficientStat(rng.normal(0.0, 2.0, cfg.N), math.exp(rng.normal(0.0, 1.0)))


def _random_param(rng: np.random.Generator, cfg: ProblemConfig) -> Parameter:
    return Parameter(math.exp(rng.normal(0.0, 1.0)), rng.normal(0.0, 2.0, cfg.N))


def check_automorphism(
    aut: Automorphism,
    prior: PriorSpec,
    cfg: ProblemConfig,
    samples: int = 100,
    seed: int = 0,
    tol: float = _TOL,
) -> AutomorphismReport:
    """Test whether ``(U, T)`` preserves the scaled marginal and the
    likelihood on random ``(stat, theta)`` pairs.

    Checks, in ``(s, m)``-space densities,

        log r(x) = log r(U(x)) + (N+1) log alpha
        log f(x | theta) = log f(U(x) | T(theta)) + (N+1) log alpha

    and reports the worst absolute violation of each condition.  The
    marginal condition's violation is ``|p - (N+1)| * log alpha`` in closed
    form; the likelihood condition holds identically for this family.  An
    ``alpha`` that moves a sample out of the normal float range is rejected,
    and so is an automorphism under which rounding the moved means alone
    could move a likelihood gap by ``tol`` or more: the moved deviation
    ``alpha (m - mu)`` is read off two means each rounded by up to a
    spacing, so a ``beta`` that dwarfs it leaves a gap that measures rounding.
    """
    tol = _check_float(tol, "tol", 0, strict=True)
    samples = _check_int(samples, "samples", 1)
    if aut.n_groups != cfg.N:
        raise InvalidConfigError("automorphism translation length does not match N")
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    log_jac = aut.log_jacobian(cfg)
    too_coarse = (
        f"alpha = {aut.alpha!r} and beta = {aut.beta.tolist()!r} leave the moved means too coarse: "
        f"rounding them can move a likelihood gap by {{:.3g}}, not below tol = {tol!r}"
    )
    worst_marginal = 0.0
    worst_likelihood = 0.0
    for _ in range(samples):
        stat = _random_stat(rng, cfg)
        theta = _random_param(rng, cfg)
        with _float_range("alpha = {!r} moves the sampled statistics out of the float range", aut.alpha):
            moved, moved_theta = aut.apply_stat(stat), aut.apply_param(theta)
            _in_range(min(moved.s2, moved_theta.sigma2), sys.float_info.min)
        with _float_range(too_coarse, math.inf):
            spacing = np.abs(np.spacing(moved.m)) + np.abs(np.spacing(moved_theta.mu))
            deviation = aut.alpha * np.abs(stat.m - theta.mu)
            rounding = cfg.J * np.sum((deviation + spacing) * spacing) / moved_theta.sigma2
        if not rounding < tol:
            raise InvalidConfigError(too_coarse.format(rounding))
        with _float_range("alpha = {!r} and the prior take the sampled densities out of the float range", aut.alpha):
            marginal_gap = stat_log_marginal(stat, prior, cfg) - (
                stat_log_marginal(moved, prior, cfg) + log_jac
            )
            likelihood_gap = stat_log_likelihood(stat, theta, cfg) - (
                stat_log_likelihood(moved, moved_theta, cfg) + log_jac
            )
        worst_marginal = max(worst_marginal, abs(marginal_gap))
        worst_likelihood = max(worst_likelihood, abs(likelihood_gap))
    return AutomorphismReport(
        marginal_ok=worst_marginal < tol,
        likelihood_ok=worst_likelihood < tol,
        max_marginal_violation=worst_marginal,
        max_likelihood_violation=worst_likelihood,
        max_violation=max(worst_marginal, worst_likelihood),
        samples=samples,
        tol=tol,
    )


def transitivity_witness(src, dst) -> Automorphism:
    """Automorphism carrying ``src`` to ``dst`` (both observations or both
    parameters): ``alpha`` is the scale ratio and ``beta = dst_m - alpha *
    src_m`` (means), so ``U(src) = dst`` exactly.
    """
    if isinstance(src, SufficientStat) and isinstance(dst, SufficientStat):
        if src.s2 <= 0.0:
            raise DegenerateInputError("source statistic must have s2 > 0")
        alpha = dst.s / src.s
        return Automorphism(alpha, dst.m - alpha * src.m)
    if isinstance(src, Parameter) and isinstance(dst, Parameter):
        alpha = dst.sigma / src.sigma
        return Automorphism(alpha, dst.mu - alpha * src.mu)
    raise InvalidConfigError("src and dst must both be observations or both be parameters")


class _DriftReport:
    """A constancy verdict over sampled minimal penalties (the first two
    fields: the verdict and the values), their spread, and the fitted
    drift law."""

    def to_dict(self) -> dict:
        verdict, values = (f.name for f in fields(self)[:2])
        return {
            verdict: getattr(self, verdict),
            "spread": self.spread,
            "tol": self.tol,
            **{f"drift_{key}": value for key, value in self.drift.items()},
            values: [float(v) for v in getattr(self, values)],
        }


def _check_sample(sample, name: str, kind: type) -> list:
    """``sample`` as a list: any nonempty iterable of ``kind``, a 1-D object
    array included; anything else is rejected by name."""
    try:
        items = list(sample)
    except TypeError:  # not iterable
        items = []
    if not items or not all(isinstance(item, kind) for item in items):
        raise InvalidConfigError(f"{name} must be a nonempty sequence of {kind.__name__}")
    return items


def _drift_check(values: list, log_scales: list, prior: PriorSpec, cfg: ProblemConfig, tol: float) -> tuple:
    """The verdict, values, spread and drift of a constancy check: is
    ``values`` constant within ``tol``, and how well does the predicted law
    ``values = intercept + ((N+1-p)/2) * log_scales`` fit them?"""
    values = np.array(values)
    log_scales = np.array(log_scales)
    spread = float(values.max() - values.min())
    slope = 0.5 * (cfg.N + 1 - prior.p)
    intercept = float(np.mean(values - slope * log_scales))
    residuals = values - (intercept + slope * log_scales)
    drift = {"slope": slope, "intercept": intercept, "max_residual": float(np.max(np.abs(residuals)))}
    return spread < tol, values, spread, drift


@dataclass(frozen=True)
class HomogeneityReport(_DriftReport):
    is_homogeneous: bool
    r_star_values: np.ndarray
    spread: float
    drift: dict
    tol: float


def homogeneity_check(
    prior: PriorSpec,
    cfg: ProblemConfig,
    thetas: Iterable[Parameter],
    tol: float = _TOL,
) -> HomogeneityReport:
    """Is the minimal penalty ``R*_theta`` constant over parameters?

    Also fits the predicted drift ``R*_theta = const + ((N+1-p)/2) *
    log sigma^2`` (slope ``N/2`` under the Wallace prior, zero under the
    scale-free prior) and reports the residual of that law.
    """
    tol = _check_float(tol, "tol", 0, strict=True)
    thetas = _check_sample(thetas, "thetas", Parameter)
    values = [penalty_at_ideal_point(theta, prior, cfg) for theta in thetas]
    log_scales = [math.log(theta.sigma2) for theta in thetas]
    return HomogeneityReport(*_drift_check(values, log_scales, prior, cfg, tol), tol)


@dataclass(frozen=True)
class ComprehensivenessReport(_DriftReport):
    is_comprehensive: bool
    r_opt_values: np.ndarray
    spread: float
    drift: dict
    tol: float


def comprehensiveness_check(
    prior: PriorSpec,
    cfg: ProblemConfig,
    stats: Iterable[SufficientStat],
    tol: float = _TOL,
) -> ComprehensivenessReport:
    """Is the minimal penalty over parameters constant over observations?

    The closed-form minimizer is the forward Ideal Point estimate.  The
    drift law here is ``R_opt = const + ((N+1-p)/2) * log s^2``.
    """
    tol = _check_float(tol, "tol", 0, strict=True)
    stats = _check_sample(stats, "stats", SufficientStat)
    values = [code_penalty_R(ip_estimate(stat, prior, cfg).theta, stat, prior, cfg) for stat in stats]
    log_scales = [math.log(stat.s2) for stat in stats]
    return ComprehensivenessReport(*_drift_check(values, log_scales, prior, cfg, tol), tol)


@dataclass(frozen=True)
class ConcentrationBox:
    """Axis-crossing box containing the level set in parameter space."""

    center: np.ndarray
    box: np.ndarray
    epsilon: float

    def contains_param(self, theta: Parameter) -> bool:
        coords = coords_from_param(theta)
        return bool(np.all(coords >= self.box[:, 0]) and np.all(coords <= self.box[:, 1]))


def concentration_box(
    stat: SufficientStat, prior: PriorSpec, epsilon: float, cfg: ProblemConfig
) -> ConcentrationBox:
    """Bounding box of ``{theta : R_theta(stat) < R*_theta + epsilon}`` in
    ``(log sigma, mu/sigma)`` coordinates.

    The profile ``R_theta(stat) - R*_theta`` is strictly convex with a
    unique zero at the Ideal Point estimate and grows without bound along
    every axis, so bisection from the estimate yields a finite box for
    every ``epsilon`` (all admissible priors share the same profile).
    """
    epsilon = _check_float(epsilon, "epsilon", 0, strict=True)
    _check_stat(stat, cfg)
    with _float_range("stat and epsilon = {!r} take the concentration box out of the float range", epsilon):
        center = coords_from_param(ip_estimate(stat, prior, cfg).theta)

        def profile_at(coords: np.ndarray) -> float:
            theta = param_from_coords(coords)
            return code_penalty_R(theta, stat, prior, cfg) - penalty_at_ideal_point(theta, prior, cfg)

        box = axis_level_box(profile_at, center, epsilon)
    return ConcentrationBox(center=center, box=box, epsilon=epsilon)


_C_MAX = 10**6  # largest grid constant find_valid_c tries


def find_valid_c(cfg: ProblemConfig) -> int:
    """Smallest integer ``c >= 2`` satisfying the two sufficient
    inequalities of the locality construction:

        c^(4J) / (2NJ)^(2J) >= (c+1)^7        (scale-grid margin)
        (c+1)^N >= c^N + 2N + 2               (e^T >= k + 1)

    Only the first is evaluated, in exact integer arithmetic, as it implies
    the second for ``N, J >= 2``: then ``2NJ >= 8``, so at ``c = 2`` the
    right side of the first is at least ``64^J 3^7 > 16^J``, and it forces
    ``c >= 3``; then ``(c+1)^N - c^N >= N c^(N-1) + 1 >= 3N + 1 >= 2N + 2``.
    For ``N = 1`` the second inequality reads ``c + 1 >= c + 4`` and has no
    solution: the construction needs ``N >= 2``, and this is surfaced as an
    error rather than silently patched.

    The first inequality is monotone in ``c``, so bisection finds the least
    ``c`` in ``range(2, _C_MAX + 1)``: ``c^(4J) / (c+1)^7`` increases, as
    its log has derivative ``4J/c - 7/(c+1)``, positive when ``4J(c+1) >
    7c``, which holds for every ``c > 0`` once ``J >= 2``.
    """
    if cfg.N == 1:
        raise LocalityConstructionError(
            "the locality construction requires N >= 2: for N = 1 the inequality "
            "(c+1)^N >= c^N + 2N + 2 reduces to c+1 >= c+4, which no c satisfies"
        )
    base = (2 * cfg.nj) ** (2 * cfg.J)
    least = 2 + bisect.bisect_left(range(2, _C_MAX + 1), True, key=lambda c: c ** (4 * cfg.J) >= base * (c + 1) ** 7)
    if least > _C_MAX:
        raise LocalityConstructionError(f"no valid c found up to {_C_MAX}")
    return least


@dataclass(frozen=True)
class LocalityCertificate:
    """Competitor family certifying locality at ``theta``.

    The family has ``k = 2N + 1 + c^N`` parameters: the ``2N`` mean-shifted
    points (one coordinate moved by ``+-sigma*sqrt(2T)``), the inflated
    point ``(e*sigma, mu)``, and a ``c^N`` grid of points with scale
    ``sqrt(2NJ)*sigma/c`` and means on the per-coordinate ``c`` segment
    centers.  The certificate holds ``theta`` and the constants, which
    depend only on ``(N, J, c)``; in ``theta``'s frame, where ``theta`` is
    ``(1, 0)``, the competitors depend on the constants alone.  Nothing
    enumerates them: ``best_log_likelihood_gap`` takes the best mean shift
    and the nearest grid center in closed form.

    ``v0_bound`` bounds the scaled probability of the exempt region, where
    domination is not asserted (``delta_prime <= s/sigma <= delta`` and
    ``|m_n - mu_n| <= sigma*sqrt(2T)``).
    """

    theta: Parameter
    cfg: ProblemConfig
    c: int
    k: int
    T_margin: float
    delta: float
    delta_prime: float
    v0_bound: float

    def _variances(self, sigma: float) -> tuple[float, float]:
        """The inflated point's and the grid's variance at scale ``sigma``."""
        return (math.e * sigma) ** 2, (math.sqrt(2.0 * self.cfg.nj) * sigma / self.c) ** 2

    def best_log_likelihood_gap(self, stat: SufficientStat) -> float:
        """``max_i log f(x | theta_i) - log f(x | theta)`` over all k competitors."""
        _check_stat(stat, self.cfg)
        sigma = self.theta.sigma
        rel_m = (stat.m - self.theta.mu) / sigma
        return float(_best_gaps(self, np.array([stat.s / sigma]), rel_m[None, :])[0])


# How far the verification grid reaches past the exempt box: in log(s/sigma)
# on each side, and as a multiple of its half-width on the mean axes.
_EXPAND_SCALE = 1.5
_EXPAND_MEAN = 2.0
# Most verification points one call scores; the default grids have 27,648
# (N = 2) and 663,552 (N = 3).  It bounds the time of one call: at the limit,
# about 0.05 s at N = 2 and 0.12 s at N = 3, and 0.64 s for one scale row of
# 18^5 points at N = 5 (2-core VM, numpy 2.4.6).  Scored in tiles, a grid
# takes at most about 12 MB (3 MB at the defaults).
_POINT_LIMIT = 2_000_000


@dataclass(frozen=True)
class GridSpec:
    """Verification grid: log-spaced in ``s/sigma``, linear in
    ``(m - mu)/sigma``, expanded beyond the exempt box so the sample
    contains both exempt and exterior points.  It has ``points_scale *
    points_mean**N`` points, at most ``_POINT_LIMIT``.
    """

    points_scale: int = 48
    points_mean: int = 24

    def __post_init__(self) -> None:
        object.__setattr__(self, "points_scale", _check_int(self.points_scale, "points_scale", 1))
        object.__setattr__(self, "points_mean", _check_int(self.points_mean, "points_mean", 1))


@dataclass(frozen=True)
class LocalityReport:
    all_pass: bool
    n_points: int
    n_exterior: int
    n_exempt: int
    worst_margin: float
    worst_point: np.ndarray
    v0_bound: float
    c: int
    k: int
    T_margin: float
    delta: float
    delta_prime: float


def _build_certificate(theta: Parameter, cfg: ProblemConfig, c: int) -> LocalityCertificate:
    T = cfg.N * math.log(c + 1.0)
    # delta: the inflated-scale chain dominates once s/sigma exceeds it;
    # delta_prime: the contracted grid dominates below it.  Both are the
    # tightest values satisfying the construction's sufficient conditions.
    delta = math.sqrt((T + cfg.nj) / ((1.0 - math.exp(-2.0)) * 0.5 * cfg.nj))
    delta_prime = math.sqrt(0.25 * T / ((c * c / (2.0 * cfg.nj) - 1.0) * 0.5 * cfg.nj))
    v0 = (2.0 * math.sqrt(2.0 * T)) ** cfg.N * math.log(delta / delta_prime) / delta_prime**cfg.N
    return LocalityCertificate(
        theta=theta, cfg=cfg, c=c, k=2 * cfg.N + 1 + c**cfg.N,
        T_margin=T, delta=delta, delta_prime=delta_prime, v0_bound=v0,
    )


def locality_certificate(
    theta: Parameter,
    cfg: ProblemConfig,
    c: int | None = None,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
) -> tuple[LocalityCertificate, LocalityReport]:
    """Build the competitor family at ``theta`` and verify the domination
    margin on a grid covering and exceeding the exempt box.

    At every sampled observation outside the exempt region the margin
    ``max_i log f(x|theta_i) - log f(x|theta) - T`` must be positive;
    failure raises :class:`CertificateError` carrying the witness point.
    ``seed`` jitters the grid offsets so no sample lands exactly on the
    exempt boundary.

    Log-likelihood gaps are invariant under the scale-translation
    automorphism, so the margins are scored in ``theta``'s frame, at the
    relative coordinates ``(s/sigma, (m - mu)/sigma)``: a large mean or
    scale neither rounds the gaps away nor overflows them.  Only the
    competitors' variances and the reported worst point are in absolute
    coordinates; the float-range guard names ``sigma2`` when one leaves the
    normal range, and ``c`` when the bound ``v0`` leaves the float range.
    """
    _check_param(theta, cfg)
    c = find_valid_c(cfg) if c is None else _check_int(c, "c", 2)
    if c * c <= 2 * cfg.nj:
        # delta_prime needs c^2 > 2NJ; every c from find_valid_c has it.
        raise InvalidConfigError(f"c must have c^2 > 2NJ = {2 * cfg.nj}, got {c}")
    n_points = grid.points_scale * grid.points_mean**cfg.N
    if n_points > _POINT_LIMIT:
        raise InvalidConfigError(f"verification grid has {n_points} points, above the limit {_POINT_LIMIT}")
    with _float_range("c = {} takes the certificate out of the float range", c):
        cert = _build_certificate(theta, cfg, c)
        _in_range(cert.v0_bound)
    rng = np.random.default_rng(_check_int(seed, "seed", 0))

    # Grid in relative coordinates: log(s/sigma) and (m - mu)/sigma, one
    # scale row of mean points per value of s/sigma.
    ls_lo = math.log(cert.delta_prime) - _EXPAND_SCALE
    ls_hi = math.log(cert.delta) + _EXPAND_SCALE
    jitter = rng.uniform(0.25, 0.75)
    ls_vals = ls_lo + (ls_hi - ls_lo) * (np.arange(grid.points_scale) + jitter) / grid.points_scale
    sqrt2T = math.sqrt(2.0 * cert.T_margin)
    half = sqrt2T * _EXPAND_MEAN
    jitter_m = rng.uniform(0.25, 0.75, cfg.N)
    mean_axes = [
        -half + 2.0 * half * (np.arange(grid.points_mean) + jitter_m[n]) / grid.points_mean
        for n in range(cfg.N)
    ]
    rel_s = np.exp(ls_vals)

    # Exempt region membership (exact, not the covering box): a scale row
    # inside [delta', delta] crossed with a mean point inside the shift box.
    exempt_s = (rel_s >= cert.delta_prime) & (rel_s <= cert.delta)
    n_exempt = int(exempt_s.sum()) * math.prod(int((np.abs(a) <= sqrt2T).sum()) for a in mean_axes)
    if n_exempt == n_points:
        raise InvalidConfigError(f"none of the {n_points} grid points lies outside the exempt region")
    # Score tiles of about _BLOCK points: blocks of whole scale rows, or lines
    # of a wider row's mean points.  np.argmin over the tiles' least margins,
    # each at its tile's first, picks the first least margin in row-major
    # order (a nan first of all), as one np.argmin over the whole grid would.
    n_mean, line = grid.points_mean**cfg.N, grid.points_mean
    tiles = []
    for rows in _row_blocks(grid.points_scale, n_mean):
        for lines in _row_blocks(n_mean // line, line):
            cols = slice(lines.start * line, lines.stop * line)
            rel_m = _mean_points(mean_axes, cols)
            margins = _best_gaps(cert, rel_s[rows, None], rel_m) - cert.T_margin
            margins[exempt_s[rows, None] & np.all(np.abs(rel_m) <= sqrt2T, axis=1)] = np.inf
            row, col = np.unravel_index(np.argmin(margins), margins.shape)
            tiles.append((float(margins[row, col]), rows.start + row, cols.start + col))
    worst_margin, worst_row, worst_col = tiles[int(np.argmin([tile[0] for tile in tiles]))]
    sigma = theta.sigma
    with _float_range("sigma2 = {!r} takes the certificate out of the float range", theta.sigma2):
        worst_m = _mean_points(mean_axes, slice(worst_col, worst_col + 1))[0]
        worst_point = np.concatenate(([(sigma * rel_s[worst_row]) ** 2], theta.mu + sigma * worst_m))
        _in_range(min(*cert._variances(sigma), worst_point[0]), sys.float_info.min)

    report = LocalityReport(
        all_pass=bool(worst_margin > 0.0),
        n_points=n_points,
        n_exterior=n_points - n_exempt,
        n_exempt=n_exempt,
        worst_margin=worst_margin,
        worst_point=worst_point,
        **{name: getattr(cert, name) for name in ("v0_bound", "c", "k", "T_margin", "delta", "delta_prime")},
    )
    if not report.all_pass:
        raise CertificateError(
            f"domination margin {worst_margin} <= 0 at exterior point s2={worst_point[0]}, "
            f"m={worst_point[1:]}",
            report,
        )
    return cert, report


def _mean_points(axes: list, cols: slice) -> np.ndarray:
    """Points ``cols`` of the row-major mesh of the mean ``axes``, one a row."""
    idx = np.unravel_index(np.arange(cols.start, cols.stop), [a.size for a in axes])
    return np.stack([a[i] for a, i in zip(axes, idx)], axis=1)


def _best_gaps(cert: LocalityCertificate, s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``max_i log f(x | theta_i) - log f(x | theta)`` at observations given
    in ``theta``'s frame, ``s/sigma`` in ``s`` and ``(m - mu)/sigma`` in the
    rows of ``m``, where ``theta`` is ``(1, 0)`` and the gaps are unchanged.
    ``s`` broadcasts against the rows, so scale rows ``s[:, None]`` against
    mean points ``m`` score a grid without repeating either.  The best mean
    shift moves the coordinate farthest from zero and the best grid point
    is the nearest segment center, so neither family is enumerated.
    """
    cfg = cert.cfg
    s2 = s**2
    sq = (m**2).sum(axis=-1)
    base = log_likelihood_kernel(s2, sq, 1.0, cfg)
    inflated, grid = cert._variances(1.0)

    # Mean-shifted competitors: best over coordinate and sign.
    shift = math.sqrt(2.0 * cert.T_margin)
    best = base + ((cfg.J * shift) * np.abs(m).max(axis=-1) - 0.5 * cfg.J * shift**2)

    # Inflated-scale competitor.
    np.maximum(best, log_likelihood_kernel(s2, sq, inflated, cfg), out=best)
    del sq

    # Contracted grid: nearest segment center per coordinate.
    step = 2.0 * shift / cert.c
    start = 0.5 * step - shift
    idx = np.clip(np.rint((m - start) / step), 0, cert.c - 1)
    grid_sq = ((m - (start + step * idx)) ** 2).sum(axis=-1)
    np.maximum(best, log_likelihood_kernel(s2, grid_sq, grid, cfg), out=best)
    best -= base
    return best

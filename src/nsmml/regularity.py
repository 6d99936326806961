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

import math
import sys
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
    _as_mean_vector,
    _check_param,
    _check_positive,
    _check_stat,
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
        alpha = float(self.alpha)
        _check_positive(alpha, "alpha")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", _as_mean_vector(self.beta, "beta"))

    @property
    def n_groups(self) -> int:
        return self.beta.shape[0]

    def apply_stat(self, stat: SufficientStat) -> SufficientStat:
        return SufficientStat(self.alpha * stat.m + self.beta, self.alpha**2 * stat.s2)

    def apply_param(self, theta: Parameter) -> Parameter:
        return Parameter(self.alpha**2 * theta.sigma2, self.alpha * theta.mu + self.beta)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The automorphism acting as ``self`` after ``other``."""
        return Automorphism(self.alpha * other.alpha, self.alpha * other.beta + self.beta)

    def inverse(self) -> "Automorphism":
        return Automorphism(1.0 / self.alpha, -self.beta / self.alpha)

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
    tol: float = 1e-9,
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
    _check_positive(tol, "tol")
    if samples < 1:
        raise InvalidConfigError("samples must be >= 1")
    if aut.n_groups != cfg.N:
        raise InvalidConfigError("automorphism translation length does not match N")
    rng = np.random.default_rng(seed)
    log_jac = aut.log_jacobian(cfg)
    worst_marginal = 0.0
    worst_likelihood = 0.0
    for _ in range(samples):
        stat = _random_stat(rng, cfg)
        theta = _random_param(rng, cfg)
        try:
            with np.errstate(over="raise"):
                moved, moved_theta = aut.apply_stat(stat), aut.apply_param(theta)
        except (ArithmeticError, NeymanScottError):
            moved = None
        if moved is None or min(moved.s2, moved_theta.sigma2) < sys.float_info.min:
            raise InvalidConfigError(f"alpha = {aut.alpha!r} moves the sampled statistics out of the float range")
        with np.errstate(all="ignore"):  # an overflow or a zero variance counts as unresolvable
            spacing = np.abs(np.spacing(moved.m)) + np.abs(np.spacing(moved_theta.mu))
            deviation = aut.alpha * np.abs(stat.m - theta.mu)
            rounding = cfg.J * np.sum((deviation + spacing) * spacing) / moved_theta.sigma2
        if not rounding < tol:
            raise InvalidConfigError(
                f"alpha = {aut.alpha!r} and beta = {aut.beta.tolist()!r} leave the moved means too coarse: "
                f"rounding them can move a likelihood gap by {rounding:.3g}, not below tol = {tol!r}"
            )
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
    thetas: list[Parameter],
    tol: float = 1e-9,
) -> HomogeneityReport:
    """Is the minimal penalty ``R*_theta`` constant over parameters?

    Also fits the predicted drift ``R*_theta = const + ((N+1-p)/2) *
    log sigma^2`` (slope ``N/2`` under the Wallace prior, zero under the
    scale-free prior) and reports the residual of that law.
    """
    _check_positive(tol, "tol")
    if not thetas:
        raise InvalidConfigError("thetas must be a nonempty sample")
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
    stats: list[SufficientStat],
    tol: float = 1e-9,
) -> ComprehensivenessReport:
    """Is the minimal penalty over parameters constant over observations?

    The closed-form minimizer is the forward Ideal Point estimate.  The
    drift law here is ``R_opt = const + ((N+1-p)/2) * log s^2``.
    """
    _check_positive(tol, "tol")
    if not stats:
        raise InvalidConfigError("stats must be a nonempty sample")
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
    _check_positive(epsilon, "epsilon")
    _check_stat(stat, cfg)
    center = coords_from_param(ip_estimate(stat, prior, cfg).theta)

    def profile_at(coords: np.ndarray) -> float:
        theta = param_from_coords(coords)
        return code_penalty_R(theta, stat, prior, cfg) - penalty_at_ideal_point(theta, prior, cfg)

    box = axis_level_box(profile_at, center, epsilon)
    return ConcentrationBox(center=center, box=box, epsilon=float(epsilon))


_C_MAX = 10**6  # largest grid constant find_valid_c tries


def find_valid_c(cfg: ProblemConfig) -> int:
    """Smallest integer ``c >= 2`` satisfying the two sufficient
    inequalities of the locality construction:

        c^(4J) / (2NJ)^(2J) >= (c+1)^7        (scale-grid margin)
        (c+1)^N >= c^N + 2N + 2               (e^T >= k + 1)

    Both are evaluated in exact integer arithmetic.  For ``N = 1`` the
    second inequality reads ``c + 1 >= c + 4`` and has no solution: the
    construction needs ``N >= 2``, and this is surfaced as an error rather
    than silently patched.
    """
    if cfg.N == 1:
        raise LocalityConstructionError(
            "the locality construction requires N >= 2: for N = 1 the inequality "
            "(c+1)^N >= c^N + 2N + 2 reduces to c+1 >= c+4, which no c satisfies"
        )
    base = (2 * cfg.nj) ** (2 * cfg.J)
    for c in range(2, _C_MAX + 1):
        if c ** (4 * cfg.J) < base * (c + 1) ** 7:
            continue
        if (c + 1) ** cfg.N < c**cfg.N + 2 * cfg.N + 2:
            continue
        return c
    raise LocalityConstructionError(f"no valid c found up to {_C_MAX}")


_GRID_LIMIT = 200_000  # most competitor grid points a certificate lists


@dataclass(frozen=True)
class LocalityCertificate:
    """Competitor family certifying locality at ``theta``.

    ``theta_list`` consists of ``k = 2N + 1 + c^N`` parameters: the ``2N``
    mean-shifted points (one coordinate moved by ``+-sigma*sqrt(2T)``), the
    inflated point ``(e*sigma, mu)``, and a ``c^N`` grid of points with
    scale ``sqrt(2NJ)*sigma/c`` and means on the per-coordinate ``c``
    segment centers.  The grid is stored implicitly (``grid_sigma`` plus
    per-coordinate centers as ``start/step/count``); ``materialize_grid``
    expands it when ``c^N`` is small enough to enumerate.

    ``v0_bound`` bounds the scaled probability of the exempt region, where
    domination is not asserted (``delta_prime <= s/sigma <= delta`` and
    ``|m_n - mu_n| <= sigma*sqrt(2T)``); it depends only on ``(N, J, c)``.
    """

    theta: Parameter
    cfg: ProblemConfig
    c: int
    k: int
    T_margin: float
    delta: float
    delta_prime: float
    explicit_thetas: list[Parameter]
    grid_sigma: float
    grid_start: np.ndarray
    grid_step: np.ndarray
    v0_bound: float

    def materialize_grid(self) -> list[Parameter]:
        count = self.c**self.cfg.N
        if count > _GRID_LIMIT:
            raise InvalidConfigError(f"grid has {count} points, above the materialization limit {_GRID_LIMIT}")
        axes = [self.grid_start[n] + self.grid_step[n] * np.arange(self.c) for n in range(self.cfg.N)]
        mesh = np.meshgrid(*axes, indexing="ij")
        mus = np.stack([g.ravel() for g in mesh], axis=1)
        return [Parameter(self.grid_sigma**2, mu) for mu in mus]

    def theta_list(self) -> list[Parameter]:
        return self.explicit_thetas + self.materialize_grid()

    def best_log_likelihood_gap(self, stat: SufficientStat) -> float:
        """``max_i log f(x | theta_i) - log f(x | theta)`` over all k competitors."""
        _check_stat(stat, self.cfg)
        return float(_best_gaps(self, np.array([stat.s]), stat.m[None, :])[0])


# How far the verification grid reaches past the exempt box: in log(s/sigma)
# on each side, and as a multiple of its half-width on the mean axes.
_EXPAND_SCALE = 1.5
_EXPAND_MEAN = 2.0
# Most verification points one call scores: about 155 bytes each at N = 3,
# so about 310 MB; the default grids have 27,648 (N = 2) and 663,552 (N = 3).
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
        if self.points_scale < 1 or self.points_mean < 1:
            raise InvalidConfigError(
                f"grid point counts must be >= 1, got {self.points_scale} x {self.points_mean}"
            )


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
    sigma = theta.sigma
    shift = sigma * math.sqrt(2.0 * T)
    # delta: the inflated-scale chain dominates once s/sigma exceeds it;
    # delta_prime: the contracted grid dominates below it.  Both are the
    # tightest values satisfying the construction's sufficient conditions.
    delta = math.sqrt((T + cfg.nj) / ((1.0 - math.exp(-2.0)) * 0.5 * cfg.nj))
    delta_prime = math.sqrt(0.25 * T / ((c * c / (2.0 * cfg.nj) - 1.0) * 0.5 * cfg.nj))

    explicit = []
    for n in range(cfg.N):
        for sign in (1.0, -1.0):
            mu = theta.mu.copy()
            mu[n] += sign * shift
            explicit.append(Parameter(theta.sigma2, mu))
    explicit.append(Parameter((math.e * sigma) ** 2, theta.mu.copy()))

    step = 2.0 * shift / c
    grid_start = theta.mu - shift + 0.5 * step
    grid_step = np.full(cfg.N, step)
    grid_sigma = math.sqrt(2.0 * cfg.nj) * sigma / c

    v0 = (2.0 * math.sqrt(2.0 * T)) ** cfg.N * math.log(delta / delta_prime) / delta_prime**cfg.N
    return LocalityCertificate(
        theta=theta,
        cfg=cfg,
        c=c,
        k=2 * cfg.N + 1 + c**cfg.N,
        T_margin=T,
        delta=delta,
        delta_prime=delta_prime,
        explicit_thetas=explicit,
        grid_sigma=grid_sigma,
        grid_start=grid_start,
        grid_step=grid_step,
        v0_bound=v0,
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
    automorphism, so the margins are scored in ``theta``'s frame, against
    the certificate at ``(sigma, mu) = (1, 0)``: a large mean or scale
    neither rounds the gaps away nor overflows them.  Only the certificate
    at ``theta`` and the reported worst point are in absolute coordinates;
    a ``theta`` that takes them out of the float range is rejected, naming
    ``sigma2``, and a ``c`` whose bound ``v0`` leaves it, naming ``c``.
    """
    _check_param(theta, cfg)
    if c is None:
        c = find_valid_c(cfg)
    if c < 2 or c * c <= 2 * cfg.nj:
        # delta_prime needs c^2 > 2NJ; every c from find_valid_c has it.
        raise InvalidConfigError(f"c must be >= 2 with c^2 > 2NJ = {2 * cfg.nj}, got {c}")
    n_points = grid.points_scale * grid.points_mean**cfg.N
    if n_points > _POINT_LIMIT:
        raise InvalidConfigError(f"verification grid has {n_points} points, above the limit {_POINT_LIMIT}")
    try:
        unit = _build_certificate(Parameter(1.0, np.zeros(cfg.N)), cfg, c)
    except ArithmeticError:
        unit = None
    if unit is None or not math.isfinite(unit.v0_bound):
        raise InvalidConfigError(f"c = {c} takes the certificate out of the float range")
    rng = np.random.default_rng(seed)

    # Grid in relative coordinates: log(s/sigma) and (m - mu)/sigma.
    ls_lo = math.log(unit.delta_prime) - _EXPAND_SCALE
    ls_hi = math.log(unit.delta) + _EXPAND_SCALE
    jitter = rng.uniform(0.25, 0.75)
    ls_vals = ls_lo + (ls_hi - ls_lo) * (np.arange(grid.points_scale) + jitter) / grid.points_scale
    half = math.sqrt(2.0 * unit.T_margin) * _EXPAND_MEAN
    jitter_m = rng.uniform(0.25, 0.75, cfg.N)
    mean_axes = [
        -half + 2.0 * half * (np.arange(grid.points_mean) + jitter_m[n]) / grid.points_mean
        for n in range(cfg.N)
    ]
    mesh = np.meshgrid(ls_vals, *mean_axes, indexing="ij")
    rel_ls = mesh[0].ravel()
    rel_m = np.stack([g.ravel() for g in mesh[1:]], axis=1)

    rel_s = np.exp(rel_ls)

    # Exempt region membership (exact, not the covering box).
    sqrt2T = math.sqrt(2.0 * unit.T_margin)
    exempt = (
        (rel_s >= unit.delta_prime)
        & (rel_s <= unit.delta)
        & np.all(np.abs(rel_m) <= sqrt2T, axis=1)
    )
    n_exempt = int(exempt.sum())
    if n_exempt == n_points:
        raise InvalidConfigError(f"none of the {n_points} grid points lies outside the exempt region")
    margins = _best_gaps(unit, rel_s, rel_m) - unit.T_margin
    margins[exempt] = np.inf
    worst_i = int(np.argmin(margins))
    worst_margin = float(margins[worst_i])
    sigma = theta.sigma
    try:
        with np.errstate(over="raise"):
            cert = _build_certificate(theta, cfg, c)
            worst_point = np.concatenate(([(sigma * rel_s[worst_i]) ** 2], theta.mu + sigma * rel_m[worst_i]))
    except ArithmeticError:
        raise InvalidConfigError(f"sigma2 = {theta.sigma2!r} takes the certificate out of the float range") from None

    report = LocalityReport(
        all_pass=bool(worst_margin > 0.0),
        n_points=n_points,
        n_exterior=n_points - n_exempt,
        n_exempt=n_exempt,
        worst_margin=worst_margin,
        worst_point=worst_point,
        v0_bound=cert.v0_bound,
        c=cert.c,
        k=cert.k,
        T_margin=cert.T_margin,
        delta=cert.delta,
        delta_prime=cert.delta_prime,
    )
    if not report.all_pass:
        raise CertificateError(
            f"domination margin {worst_margin} <= 0 at exterior point s2={worst_point[0]}, "
            f"m={worst_point[1:]}",
            report,
        )
    return cert, report


def _best_gaps(cert: LocalityCertificate, s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``max_i log f(x | theta_i) - log f(x | theta)`` at each observation
    ``(s[k], m[k])``.  The best mean shift moves the coordinate farthest
    from ``mu`` and the best grid point is the nearest segment center, so
    neither family is enumerated.
    """
    cfg = cert.cfg
    theta = cert.theta
    s2 = s**2
    d = m - theta.mu[None, :]
    sq = (d**2).sum(axis=1)
    base = log_likelihood_kernel(s2, sq, theta.sigma2, cfg)

    # Mean-shifted competitors: best over coordinate and sign.
    shift = theta.sigma * math.sqrt(2.0 * cert.T_margin)
    best = (cfg.J * shift / theta.sigma2) * np.abs(d).max(axis=1) - 0.5 * cfg.J * shift**2 / theta.sigma2
    best += base
    del d

    # Inflated-scale competitor.
    np.maximum(best, log_likelihood_kernel(s2, sq, cert.explicit_thetas[-1].sigma2, cfg), out=best)
    del sq

    # Contracted grid: nearest segment center per coordinate.
    idx = np.clip(np.rint((m - cert.grid_start) / cert.grid_step), 0, cert.c - 1)
    grid_sq = ((m - (cert.grid_start + cert.grid_step * idx)) ** 2).sum(axis=1)
    np.maximum(best, log_likelihood_kernel(s2, grid_sq, cert.grid_sigma**2, cfg), out=best)
    best -= base
    return best

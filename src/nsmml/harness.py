"""Simulation and estimator-sweep harness.

Random numbers come from numpy's PCG64 generator; Gaussian variates are
produced by the deterministic inverse-CDF transform (``ndtri`` applied to
centered 53-bit uniforms), so a seed pins the byte-exact output across
runs and platforms.  ``ndtri`` is imported from ``scipy.special`` only
when normals are sampled, so the non-sampling commands never load scipy.
Each sweep trial draws from its own substream,
``SeedSequence((seed, N, trial))``, which makes every emitted row
independently recomputable and lets trials run in any order (or in
parallel) without changing the aggregate.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np

from .model import (
    DegenerateInputError,
    InvalidConfigError,
    PriorSpec,
    ProblemConfig,
    _as_mean_vector,
    _check_positive,
    sufficient_stats,
)
from .estimators import PRIOR_FREE_METHODS, SIGMA2_HAT, method_from_name
from .reporting import table_to_csv

__all__ = [
    "standard_normal",
    "simulate",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "trial_ratios",
    "resolve_prior",
    "parse_sweep_config",
    "SWEEP_CSV_HEADER",
    "rows_to_csv",
]


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via inverse CDF on centered 53-bit uniforms.

    ``u = (2k + 1) / 2^54`` for ``k`` uniform on ``[0, 2^53)`` never hits 0
    or 1, and the whole transform is a fixed deterministic function of the
    generator stream.
    """
    from scipy.special import ndtri  # imported here: loading scipy.special slows every import

    k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return ndtri((2.0 * k + 1.0) / float(1 << 54))


def simulate(cfg: ProblemConfig, sigma2_true: float, mu_true, seed) -> np.ndarray:
    """Draw an ``N x J`` sample with ``x[n, j] ~ Normal(mu_n, sigma2_true)``.

    ``mu_true`` is one finite mean for every group or ``N`` finite means.
    ``seed`` may be an integer or a ``numpy.random.SeedSequence``; output
    is byte-identical for equal seeds.
    """
    _check_positive(sigma2_true, "sigma2_true")
    mu = _as_mean_vector(mu_true, "mu_true")
    if mu.shape[0] not in (1, cfg.N):
        raise InvalidConfigError(f"mu_true must hold 1 or N={cfg.N} means, got {mu.shape[0]}")
    mu = np.broadcast_to(mu, (cfg.N,))
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(ss))
    z = standard_normal(rng, (cfg.N, cfg.J))
    return mu[:, None] + math.sqrt(sigma2_true) * z


@dataclass(frozen=True)
class SweepSpec:
    """Monte Carlo sweep over group counts and estimators.

    ``mu_law`` fixes how true means are drawn each trial: ``"normal"``
    (standard normal scaled by the true sigma; the default, immaterial for
    these translation-equivariant estimators), ``"zero"``, or
    ``"fixed:<value>"`` (a constant, finite mean for every group).
    ``estimators`` are method constants, keys of
    :data:`~nsmml.estimators.SIGMA2_HAT`.  ``priors`` entries are
    ``"wallace"``, ``"scale-free"`` or a numeric exponent; ``"scale-free"``
    resolves to ``p = N + 1`` per row.
    """

    J: int
    N_list: tuple[int, ...]
    trials: int
    sigma2_true: float = 1.0
    mu_law: str = "normal"
    estimators: tuple[str, ...] = tuple(SIGMA2_HAT)
    priors: tuple = ("wallace", "scale-free")
    seed: int = 0

    def __post_init__(self) -> None:
        n_list = tuple(int(n) for n in self.N_list)
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
            raise InvalidConfigError("N_list must be strictly increasing positive integers")
        if self.trials < 1:
            raise InvalidConfigError("trials must be >= 1")
        _check_positive(self.sigma2_true, "sigma2_true")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.estimators or any(e not in SIGMA2_HAT for e in self.estimators):
            raise InvalidConfigError(f"estimators must be a nonempty subset of {sorted(SIGMA2_HAT)}")
        if self.mu_law.startswith("fixed:"):
            try:
                finite = math.isfinite(float(self.mu_law[len("fixed:"):]))
            except ValueError:
                finite = False
            if not finite:
                raise InvalidConfigError(f"mu_law {self.mu_law!r} needs a finite number after 'fixed:'")
        elif self.mu_law not in ("normal", "zero"):
            raise InvalidConfigError(f"unknown mu_law {self.mu_law!r}")
        object.__setattr__(self, "N_list", n_list)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "priors", tuple(self.priors))
        object.__setattr__(self, "J", int(self.J))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SweepRow:
    N: int
    estimator: str
    prior_p: float | None
    mean_ratio: float
    sd_ratio: float
    trials: int


def resolve_prior(choice, cfg: ProblemConfig) -> PriorSpec:
    """Resolve a symbolic prior choice against a configuration."""
    if isinstance(choice, PriorSpec):
        return choice
    if isinstance(choice, (int, float)):
        return PriorSpec(float(choice))
    name = str(choice).strip().lower()
    if name == "wallace":
        return PriorSpec.wallace()
    if name in ("scale-free", "scale_free", "scalefree"):
        return PriorSpec.scale_free(cfg)
    try:
        p = float(name)
    except ValueError:
        raise InvalidConfigError(f"unknown prior {choice!r}") from None
    return PriorSpec(p)


def _true_means(spec: SweepSpec, cfg: ProblemConfig, rng: np.random.Generator) -> np.ndarray:
    if spec.mu_law == "zero":
        return np.zeros(cfg.N)
    if spec.mu_law == "normal":
        return math.sqrt(spec.sigma2_true) * standard_normal(rng, cfg.N)
    return np.full(cfg.N, float(spec.mu_law.split(":", 1)[1]))


def trial_ratios(spec: SweepSpec, n_groups: int) -> dict[tuple[str, object], np.ndarray]:
    """Per-trial ratios ``sigma2_hat / sigma2_true`` for every estimator x
    prior combination at one group count.  Trial ``t`` uses the substream
    ``SeedSequence((seed, n_groups, t))``; all combinations share the
    trial's simulated data.  Keys follow the spec's estimator order, each
    method's priors in the spec's order (``None`` for a prior-free method).
    """
    cfg = ProblemConfig(N=n_groups, J=spec.J)
    s2 = np.empty(spec.trials)
    for t in range(spec.trials):
        ss = np.random.SeedSequence((spec.seed, n_groups, t))
        rng = np.random.Generator(np.random.PCG64(ss))
        mu = _true_means(spec, cfg, rng)
        data = mu[:, None] + math.sqrt(spec.sigma2_true) * standard_normal(rng, (cfg.N, cfg.J))
        s2[t] = sufficient_stats(data, cfg).s2
    if np.any(s2 <= 0.0):
        raise DegenerateInputError("s2 must be > 0 in every trial (the marginal diverges at s2 = 0)")
    return {
        (method, choice): SIGMA2_HAT[method](
            s2, None if choice is None else resolve_prior(choice, cfg), cfg
        ) / spec.sigma2_true
        for method in spec.estimators
        for choice in ((None,) if method in PRIOR_FREE_METHODS else spec.priors)
    }


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Aggregate mean and standard deviation of per-trial ratios.

    Rows appear in deterministic order: group counts ascending, then
    estimators and priors in the order the spec lists them, one row per
    distinct estimator x prior pair.  The mean is the mean of per-trial
    ratios (matching the pointwise consistency statement); the sd is the
    sample standard deviation (0 for one trial).
    """
    rows: list[SweepRow] = []
    for n_groups in spec.N_list:
        cfg = ProblemConfig(N=n_groups, J=spec.J)
        for (method, choice), values in trial_ratios(spec, n_groups).items():
            prior_p = None if choice is None else resolve_prior(choice, cfg).p
            sd = float(values.std(ddof=1)) if spec.trials > 1 else 0.0
            rows.append(
                SweepRow(
                    N=n_groups,
                    estimator=method,
                    prior_p=prior_p,
                    mean_ratio=float(values.mean()),
                    sd_ratio=sd,
                    trials=spec.trials,
                )
            )
    return rows


SWEEP_CSV_HEADER = "N,estimator,prior_p,mean_ratio,sd_ratio,trials"


def rows_to_csv(rows: list[SweepRow]) -> str:
    return table_to_csv(SWEEP_CSV_HEADER.split(","), [astuple(r) for r in rows])


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# One converter per SweepSpec field; the defaults come from SweepSpec.
_CONFIG_CONVERTERS = {
    "J": int,
    "N_list": lambda text: tuple(int(n) for n in _split_list(text)),
    "trials": int,
    "sigma2_true": float,
    "mu_law": str,
    "estimators": lambda text: tuple(method_from_name(name) for name in _split_list(text)),
    "priors": lambda text: tuple(_split_list(text)),
    "seed": int,
}


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse the plain-text ``key = value`` sweep configuration.

    Recognized keys: ``J``, ``N_list`` (comma-separated), ``trials``,
    ``sigma2_true``, ``mu_law``, ``estimators`` (comma-separated,
    case-insensitive, ``MARGINALIZED`` short for ``MARGINALIZED_SIGMA2``),
    ``priors`` (comma-separated names or exponents), ``seed``.  ``#``
    starts a comment, and a key given twice takes its last value.  Unknown
    keys and values that do not convert raise :class:`InvalidConfigError`.
    Example::

        # consistency dichotomy at J = 2
        J = 2
        N_list = 10, 100, 2000
        trials = 200
        sigma2_true = 1.0
        mu_law = normal
        estimators = ML, IP, WF, MARGINALIZED_SIGMA2
        priors = wallace, scale-free
        seed = 12345
    """
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"malformed config line {raw!r} (expected key = value)")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    unknown = values.keys() - _CONFIG_CONVERTERS.keys()
    if unknown:
        raise InvalidConfigError(f"config has unknown keys: {sorted(unknown)}")
    missing = {f.name for f in fields(SweepSpec) if f.default is MISSING} - values.keys()
    if missing:
        raise InvalidConfigError(f"config is missing required keys: {sorted(missing)}")
    kwargs = {}
    for key, val in values.items():
        try:
            kwargs[key] = _CONFIG_CONVERTERS[key](val)
        except ValueError as exc:
            raise InvalidConfigError(f"config key {key} = {val!r}: {exc}") from None
    return SweepSpec(**kwargs)

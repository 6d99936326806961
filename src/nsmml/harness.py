"""Simulation and estimator-sweep harness.

Random numbers are the raw 64-bit words of numpy's PCG64 bit generator.
Each word's top 53 bits ``k`` give one standard normal
``ndtri((2k + 1) / 2^54)``, the inverse CDF at a centered uniform, so a
seed pins the byte-exact output across runs and platforms, and across
numpy releases too: numpy fixes a bit generator's raw stream, not the
algorithms of ``Generator`` methods.  ``ndtri`` is imported from
``scipy.special`` only when normals are sampled, so the non-sampling
commands never load scipy.  Sweep trial ``t`` at ``N`` groups reads the
stream of ``SeedSequence((seed, N, t))``, which makes every emitted row
independently recomputable and lets trials run in any order (or in
parallel) without changing the aggregate.  The seeds of a block of trials
are hashed at once by ``SeedSequence``'s own 32-bit steps on ``uint32``
columns (:func:`_seed_states`), with the same words as one at a time.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import MISSING, astuple, dataclass, fields

import numpy as np

from .model import (
    DegenerateInputError,
    InvalidConfigError,
    PriorSpec,
    ProblemConfig,
    _check_array,
    _check_float,
    _check_int,
    _float_range,
    _row_blocks,
    _shown,
    sufficient_stats_kernel,
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


def _normal_from_bits(k: np.ndarray) -> np.ndarray:
    """Standard normals ``ndtri((2k + 1) / 2^54)`` from ``k`` on ``[0, 2^53)``:
    ``2k + 1`` rounds to even from ``k = 2^52``, so the clamp keeps ``u < 1``."""
    from scipy.special import ndtri  # imported here: loading scipy.special slows every import

    u = np.multiply(k, 2.0)  # one float64 buffer, formed and transformed in place
    u += 1.0
    u /= float(1 << 54)
    return ndtri(np.minimum(u, 1.0 - 2.0**-53, out=u), out=u)


def standard_normal(rng: np.random.Generator | np.random.PCG64, shape) -> np.ndarray:
    """Standard normals from the next words of a PCG64 stream, one word
    each: ``rng`` is a ``Generator`` on PCG64 or the ``PCG64`` itself.
    ``k``, a word's top 53 bits, is uniform on ``[0, 2^53)``, and the
    transform is a fixed deterministic function of the stream.
    """
    bitgen = getattr(rng, "bit_generator", rng)
    if not isinstance(bitgen, np.random.PCG64):  # MT19937, say, has 32-bit words
        raise InvalidConfigError(f"rng must draw from a PCG64 bit generator, got {type(bitgen).__name__}")
    return _normal_from_bits(bitgen.random_raw(shape) >> 11)


def simulate(cfg: ProblemConfig, sigma2_true: float, mu_true, seed) -> np.ndarray:
    """Draw an ``N x J`` sample with ``x[n, j] ~ Normal(mu_n, sigma2_true)``.

    ``mu_true`` is one finite mean for every group or ``N`` finite means.
    Output is byte-identical for equal seeds.
    """
    sigma2_true = _check_float(sigma2_true, "sigma2_true", 0, strict=True)
    mu = _check_array(mu_true, "mu_true", (None,))
    if mu.shape[0] not in (1, cfg.N):
        raise InvalidConfigError(f"mu_true must hold 1 or N={cfg.N} means, got {mu.shape[0]}")
    mu = np.broadcast_to(mu, (cfg.N,))
    z = standard_normal(np.random.PCG64(_check_int(seed, "seed", 0)), (cfg.N, cfg.J))
    return mu[:, None] + math.sqrt(sigma2_true) * z


@dataclass(frozen=True)
class SweepSpec:
    """Monte Carlo sweep over group counts and estimators.

    ``mu_law`` fixes how true means are drawn each trial: ``"normal"``
    (standard normal scaled by the true sigma; the default, immaterial for
    these translation-equivariant estimators), ``"zero"``, or
    ``"fixed:<value>"`` (a constant, finite mean for every group; it never
    enters ``s2``, so it gives the zero law's ratios, and one whose ulp
    exceeds ``sqrt(sigma2_true) / 8`` is refused by :func:`trial_ratios`).
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
        for name in ("N_list", "estimators", "priors"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                raise InvalidConfigError(f"{name} must be a sequence, got {_shown(value)}")
        n_list = tuple(_check_int(n, "N_list", 1) for n in self.N_list)
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise InvalidConfigError("N_list must be strictly increasing positive integers")
        object.__setattr__(self, "sigma2_true", _check_float(self.sigma2_true, "sigma2_true", 0, strict=True))
        if not self.estimators or any(e not in SIGMA2_HAT for e in self.estimators):
            raise InvalidConfigError(f"estimators must be a nonempty subset of {sorted(SIGMA2_HAT)}")
        if isinstance(self.mu_law, str) and self.mu_law.startswith("fixed:"):
            try:
                _check_float(float(self.mu_law[len("fixed:"):]), "mu_law")
            except ValueError:  # also the InvalidConfigError of a value that is not finite
                raise InvalidConfigError(f"mu_law {self.mu_law!r} needs a finite number after 'fixed:'") from None
        elif self.mu_law not in ("normal", "zero"):
            raise InvalidConfigError(f"unknown mu_law {self.mu_law!r}")
        object.__setattr__(self, "N_list", n_list)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "priors", tuple(self.priors))
        object.__setattr__(self, "J", _check_int(self.J, "J", 2))
        object.__setattr__(self, "trials", _check_int(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0))


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
        return PriorSpec(choice)
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


def _method_priors(methods, choices, cfg: ProblemConfig) -> list[tuple[str, PriorSpec | None]]:
    """``(method, prior)`` per distinct method and prior exponent, in
    first-listed order, or ``(method, None)`` for a prior-free method.
    Choices are resolved only when a listed method needs a prior, and must
    not be empty then."""
    methods = list(dict.fromkeys(methods))
    needing = [m for m in methods if m not in PRIOR_FREE_METHODS]
    if needing and not choices:
        raise InvalidConfigError(f"no prior given for {', '.join(needing)}")
    distinct: dict[float, PriorSpec] = {}
    for choice in choices if needing else ():
        prior = resolve_prior(choice, cfg)
        distinct.setdefault(prior.p, prior)
    return [(m, prior) for m in methods for prior in ([None] if m in PRIOR_FREE_METHODS else distinct.values())]


# numpy's SeedSequence hash constants, kept as Python ints: uint32 arrays
# multiplied by them wrap silently, modulo 2^32.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _POOL = 0xFFFFFFFF, 4


def _words32(n: int) -> list[int]:
    """``n``'s 32-bit words, least significant first, at least one."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix step on ``uint32`` arrays: xor the running
    constant in, advance it by ``mult``, multiply, xor-shift."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> 16)


def _seed_states(seed: int, n_groups: int, trials: range) -> np.ndarray:
    """``SeedSequence((seed, n_groups, t)).generate_state(4, np.uint64)``
    for every ``t`` in ``trials``, one row each, by SeedSequence's own steps
    run on a column of trials at once.  A trial's entropy is the 32-bit
    words of ``seed``, ``n_groups`` and ``t``, so trials with more words of
    ``t`` (``t >= 2^32``) are hashed in a block of their own."""
    n_words = len(_words32(trials[0]))
    if len(_words32(trials[-1])) > n_words:
        cut = (1 << 32 * n_words) - trials.start
        return np.concatenate([_seed_states(seed, n_groups, trials[:cut]), _seed_states(seed, n_groups, trials[cut:])])
    t = np.arange(trials.start, trials.stop, dtype=np.uint64)
    entropy = [np.full(len(t), w, dtype=np.uint32) for w in _words32(seed) + _words32(n_groups)]
    entropy += [(t >> 32 * i).astype(np.uint32) for i in range(n_words)]
    entropy += [np.zeros(len(t), dtype=np.uint32)] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(pool[i % _POOL]) for i in range(8)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _given_state():
    """A seed sequence that hands ``PCG64`` a row of :func:`_seed_states`,
    the 4 words it asks for.  Defined on first use, as ``numpy.random`` is
    not loaded by ``import nsmml``."""
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return GivenState


def trial_ratios(spec: SweepSpec, n_groups: int) -> dict[tuple[str, float | None], np.ndarray]:
    """Per-trial ratios ``sigma2_hat / sigma2_true`` for every estimator x
    prior combination at one group count.  Trial ``t`` uses the substream
    ``SeedSequence((seed, n_groups, t))``; all combinations share the
    trial's simulated data.  Keys are ``(method, p)`` in the spec's
    estimator order, each method's distinct prior exponents ``p`` in the
    spec's order (``None`` for a prior-free method), as in :class:`SweepRow`.

    Each trial's row of words, the means' first under the normal law,
    comes from its own substream into a buffer of whole trials, one per
    block of ``model._row_blocks``.  The block's seed words are hashed
    together (:func:`_seed_states`; trials with ``t >= 2^32`` have one more
    entropy word and are hashed apart), and each trial's ``PCG64`` takes
    its 4 words from them.  The shift to 53 bits, the normal transform and
    the pooled variance then run once per buffer.  Every step is
    elementwise or sums within one trial, so a trial's ratios have the
    bits of a trial simulated alone.  Under a fixed or zero mean, ``s2`` is
    reduced from the noise alone, with the zero law's bits; a fixed mean
    whose ulp exceeds ``sqrt(sigma2_true) / 8`` is out of the float range
    before any draw.  An ``s2`` of 0 is out of the float range when the
    trial's standard normals vary within a group (the noise underflowed),
    and degenerate data when they do not.
    """
    cfg = ProblemConfig(N=n_groups, J=spec.J)
    pairs = _method_priors(spec.estimators, spec.priors, cfg)
    n_means = cfg.N if spec.mu_law == "normal" else 0
    width = n_means + cfg.nj
    s2 = np.empty(spec.trials)
    out_of_range = "sigma2_true = {!r} and mu_law = {!r} take the group means or s2 out of the float range"
    # s2 does not depend on the means, and data stored about a fixed mean
    # round to its ulp u, inflating s2 by a share of order (u / sigma)^2.  So
    # only the normal law's means enter the data, and a fixed mean that would
    # store them to fewer than three bits below the noise is refused.
    law, _, fixed = spec.mu_law.partition(":")
    if law == "fixed" and math.ulp(float(fixed)) > math.sqrt(spec.sigma2_true) / 8:
        raise InvalidConfigError(out_of_range.format(spec.sigma2_true, spec.mu_law))
    given_state, pcg64 = _given_state(), np.random.PCG64
    for blk in _row_blocks(spec.trials, width):
        states = _seed_states(spec.seed, n_groups, range(blk.start, blk.stop))
        bits = np.empty((len(states), width), dtype=np.uint64)
        for row, state in zip(bits, states):
            row[:] = pcg64(given_state(state)).random_raw(width)
        bits >>= 11  # in place: no second buffer
        z = _normal_from_bits(bits)
        with _float_range(out_of_range, spec.sigma2_true, spec.mu_law):
            noise = z[:, n_means:].reshape(-1, cfg.N, cfg.J)
            data = math.sqrt(spec.sigma2_true) * noise
            if n_means:
                data += math.sqrt(spec.sigma2_true) * z[:, :n_means, None]
            s2[blk] = sufficient_stats_kernel(data, cfg)[1]
            zero = s2[blk] == 0.0
            if zero.any() and (noise[zero] != noise[zero][..., :1]).any():
                raise ArithmeticError("s2 is 0 on noise that varies within a group")
    if np.any(s2 <= 0.0):
        raise DegenerateInputError("s2 must be > 0 in every trial (the marginal diverges at s2 = 0)")
    with _float_range(out_of_range, spec.sigma2_true, spec.mu_law):
        return {
            (method, None if prior is None else prior.p): SIGMA2_HAT[method](s2, prior, cfg) / spec.sigma2_true
            for method, prior in pairs
        }


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Aggregate mean and standard deviation of per-trial ratios.

    Rows appear in deterministic order: group counts ascending, then
    estimators and priors in the order the spec lists them, one row per
    distinct estimator x prior exponent.  The mean is the mean of per-trial
    ratios (matching the pointwise consistency statement); the sd is the
    sample standard deviation (0 for one trial).
    """
    rows: list[SweepRow] = []
    for n_groups in spec.N_list:
        for (method, prior_p), values in trial_ratios(spec, n_groups).items():
            sd = float(values.std(ddof=1)) if spec.trials > 1 else 0.0
            rows.append(SweepRow(n_groups, method, prior_p, float(values.mean()), sd, spec.trials))
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

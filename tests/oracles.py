"""Independent numerical oracles shared by the test modules.

These deliberately avoid the package's closed forms: the marginal oracle
integrates prior times likelihood by adaptive quadrature, the Hessian
oracle uses central finite differences, the raw-sample builder lets
likelihood values be cross-checked against a literal product of normal
densities, and the codebook oracle enumerates every assignment in pure
Python.  ``oracle_brute_optima`` enumerates them vectorized instead,
scoring every assignment from precomputed tables of two cell blocks, so
it reaches instances the pure-Python enumeration is too slow for; it was
the small-instance route of ``smml_exhaustive`` before the count-vector
DP covered every mass pattern.  ``oracle_descend`` is the local-search
descent as first written, scanning every candidate on every cell visit;
the production descent must follow the same trajectory bit for bit.
``descent_steps`` runs either descent to its end and recomputes the cost
of every step it yields.  ``oracle_penalty_matrix`` and
``oracle_torus_penalty`` build a penalty matrix in one shot, as first
written; the lattice builder fills it a row block at a time and the torus
builder copies it from one strided view, and both must match them bit
for bit.  ``oracle_least_penalties`` lists each cell's least penalties
with one ``argpartition`` over the whole matrix, where the search works
a row block at a time.  ``theta_list`` lists a locality certificate's
competitors one by one, in ``theta``'s frame, where ``best_log_likelihood_gap``
finds the best of them in closed form.  ``oracle_trial_ratios`` simulates
the sweep one trial at a time and ``oracle_locality_scores`` scores a
whole locality grid as one mesh, both as first written; the production
code works a block at a time and must match them bit for bit.  The
trials' normals come from ``oracle_trial_normals`` and
``oracle_standard_normal``, the old sampler, which drew ``Generator.integers``
on ``[0, 2^53)`` where the production sampler reads the raw PCG64 words.
``record_blocks`` logs the row blocks a module walks and each walk's row
width, so a test can check that a patched block size took effect.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from nsmml import Parameter, PriorSpec, ProblemConfig, SufficientStat, sufficient_stats
from nsmml.codebook import _EXACT_TOL, DiscreteProblem, _entropy, _neg_xlogx, codebook_cost
from nsmml.estimators import SIGMA2_HAT
from nsmml.harness import _method_priors
from nsmml.model import _row_blocks, code_penalty_kernel, log_likelihood_kernel
from nsmml.regularity import _EXPAND_MEAN, _EXPAND_SCALE, _build_certificate


def oracle_log_marginal(stat: SufficientStat, p: float, cfg: ProblemConfig) -> float:
    """Adaptive quadrature of ``integral sigma^(-p) f(x|sigma^2, mu)``.

    The mean integrals factor per coordinate by symmetry; each factor and
    the outer scale integral are evaluated adaptively.
    """
    nj = cfg.N * cfg.J

    def integrand(sigma: float) -> float:
        val = sigma ** (-p) * (2.0 * math.pi * sigma * sigma) ** (-nj / 2.0)
        val *= math.exp(-nj * stat.s2 / (2.0 * sigma * sigma))
        half_width = 50.0 * sigma / math.sqrt(cfg.J)  # integrand is ~0 beyond this
        for mn in stat.m:
            inner, _ = quad(
                lambda u, mn=mn, sigma=sigma: math.exp(-cfg.J * (mn - u) ** 2 / (2.0 * sigma * sigma)),
                mn - half_width,
                mn + half_width,
                epsabs=1e-14,
                epsrel=1e-12,
            )
            val *= inner
        return val

    total, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=300)
    return math.log(total)


def fd_hessian(fn, x0: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                e = np.zeros(n)
                e[i] = h
                val = (fn(x0 + e) - 2.0 * fn(x0) + fn(x0 - e)) / h**2
            else:
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h
                ej[j] = h
                val = (
                    fn(x0 + ei + ej) - fn(x0 + ei - ej) - fn(x0 - ei + ej) + fn(x0 - ei - ej)
                ) / (4.0 * h**2)
            hess[i, j] = hess[j, i] = val
    return hess


def raw_sample_with_stats(m: np.ndarray, s2: float, cfg: ProblemConfig) -> np.ndarray:
    """A concrete N x J sample whose sufficient statistic is ``(m, s2)``."""
    pattern = np.zeros(cfg.J)
    pattern[0], pattern[1] = 1.0, -1.0  # zero mean, sum of squares 2
    t = math.sqrt(cfg.J * s2 / 2.0)
    data = np.asarray(m, dtype=float)[:, None] + t * pattern[None, :]
    stat = sufficient_stats(data, cfg)
    assert np.allclose(stat.m, m) and abs(stat.s2 - s2) < 1e-12
    return data


def log_normal_pdf_product(data: np.ndarray, sigma2: float, mu: np.ndarray) -> float:
    """Literal sum of per-observation normal log-densities."""
    total = 0.0
    for n in range(data.shape[0]):
        for j in range(data.shape[1]):
            z = (data[n, j] - mu[n]) ** 2 / (2.0 * sigma2)
            total += -0.5 * math.log(2.0 * math.pi * sigma2) - z
    return total


def oracle_penalty_matrix(
    cell_s2: np.ndarray,
    cell_m: np.ndarray,
    cand_sigma2: np.ndarray,
    cand_mu: np.ndarray,
    prior: PriorSpec,
    cfg: ProblemConfig,
) -> np.ndarray:
    """Every ``R`` entry of cells against candidates, in whole-matrix
    temporaries."""
    sq = (
        (cell_m**2).sum(axis=1)[:, None]
        + (cand_mu**2).sum(axis=1)[None, :]
        - 2.0 * cell_m @ cand_mu.T
    )
    np.maximum(sq, 0.0, out=sq)
    return code_penalty_kernel(cell_s2[:, None], sq, cand_sigma2[None, :], prior, cfg)


def oracle_torus_penalty(
    n: int, stride: int, spacing: float, u0: np.ndarray, prior: PriorSpec, cfg: ProblemConfig
) -> np.ndarray:
    """The torus circulant gathered through one offset table the size of the
    matrix."""
    half = n // 2
    delta = spacing * np.arange(-half, n - half)
    sq_dev = float((u0**2).sum()) * (np.exp(delta) - 1.0) ** 2
    row = code_penalty_kernel(np.exp(2.0 * delta), sq_dev, 1.0, prior, cfg)
    offsets = np.arange(n)[:, None] - np.arange(0, n, stride)[None, :]
    return row[(offsets + half) % n]


def oracle_least_penalties(pen: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's ``k`` least-penalty candidates, their penalties and the
    ``k``-th order penalty, from one ``argpartition`` of the whole matrix."""
    part = np.argpartition(pen, k, axis=1)
    top = part[:, :k]
    return top, np.take_along_axis(pen, top, axis=1), pen[np.arange(pen.shape[0]), part[:, k]]


class Block(NamedTuple):
    """One block a walk of ``model._row_blocks`` yielded, with the walk's row width."""

    row_width: int
    start: int
    stop: int


def record_blocks(monkeypatch, module: str) -> list[Block]:
    """Make ``module`` walk ``model._row_blocks`` through a wrapper that
    appends every block it yields, with the walk's ``row_width``, to the
    returned list."""
    blocks = []

    def recorded(n_rows: int, row_width: int) -> Iterator[slice]:
        for blk in _row_blocks(n_rows, row_width):
            blocks.append(Block(row_width, blk.start, blk.stop))
            yield blk

    monkeypatch.setattr(f"{module}._row_blocks", recorded)
    return blocks


def oracle_smml_optima(mass, penalty, tol: float = 1e-12) -> list[tuple[int, ...]]:
    """Every assignment of cells to candidates whose ``L = L_E + L_P`` is
    within ``tol`` of the least, by literal enumeration, sorted."""
    c, b = len(penalty), len(penalty[0])
    costs = {}
    for assign in itertools.product(range(b), repeat=c):
        q = [0.0] * b
        l_p = 0.0
        for i, j in enumerate(assign):
            q[j] += mass[i]
            l_p += mass[i] * penalty[i][j]
        costs[assign] = l_p - sum(x * math.log(x) for x in q if x > 0.0)
    best = min(costs.values())
    return sorted(a for a, cost in costs.items() if cost <= best + tol)


def closed_under_ring_rotation(assigns, stride: int, n_candidates: int) -> bool:
    """Whether a set of ring codebooks maps onto itself under rotation by one
    candidate stride, ``a -> (a[(i - stride) % n] + 1) % n_candidates``."""
    books = {tuple(int(v) for v in a) for a in assigns}
    return all(
        tuple((a[(i - stride) % len(a)] + 1) % n_candidates for i in range(len(a))) in books for a in books
    )


def _block_tables(problem: DiscreteProblem, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mass-weighted penalty ``(b^k,)`` and region masses ``(b, b^k)`` of
    every assignment of ``k`` cells, in lexicographic order (first cell most
    significant)."""
    b = problem.n_candidates
    k = cells.shape[0]
    l_p = np.zeros((b,) * k)
    q = np.zeros((b,) + (b,) * k)
    eye = np.eye(b)
    for pos, i in enumerate(cells):
        axis = (1,) * pos + (b,) + (1,) * (k - pos - 1)
        l_p = l_p + (problem.mass[i] * problem.penalty[i]).reshape(axis)
        q = q + problem.mass[i] * eye.reshape((b,) + axis)
    return l_p.ravel(), q.reshape(b, -1)


def oracle_brute_optima(problem: DiscreteProblem) -> list[np.ndarray]:
    """Every assignment whose cost is within ``_EXACT_TOL`` of the least,
    by vectorized enumeration of all ``candidates ** cells`` of them."""
    # Split the cells into a high and a low block: assignment h * b^c_low + l
    # costs lp_h[h] + lp_l[l] + H(q_h[:, h] + q_l[:, l]).
    c = problem.n_cells
    b = problem.n_candidates
    c_low = 0
    while c_low < c and b ** (c_low + 1) <= 1 << 16:
        c_low += 1
    lp_h, q_h = _block_tables(problem, np.arange(c - c_low))
    lp_l, q_l = _block_tables(problem, np.arange(c - c_low, c))
    n_low = lp_l.shape[0]
    best = math.inf
    survivors: list[tuple[float, int]] = []
    for h in range(lp_h.shape[0]):
        cost = lp_h[h] + lp_l + _neg_xlogx(q_h[:, h, None] + q_l).sum(axis=0)
        chunk_best = float(cost.min())
        if chunk_best < best:
            best = chunk_best
            survivors = [(co, ix) for co, ix in survivors if co <= best + _EXACT_TOL]
        keep = np.flatnonzero(cost <= best + _EXACT_TOL)
        survivors.extend((float(cost[k]), h * n_low + int(k)) for k in keep)
    return [
        np.array(np.unravel_index(ix, (b,) * c), dtype=np.int64)
        for co, ix in survivors
        if co <= best + _EXACT_TOL
    ]


def oracle_descend(problem: DiscreteProblem, assign: np.ndarray) -> Iterator[tuple[float, np.ndarray]]:
    """Alternating descent to a local optimum.

    (a) single-cell reassignment, first improvement in cell index order
    (the best candidate per cell, lowest index among ties); (b) per-region
    candidate re-selection minimizing the region's mass-weighted penalty.
    Every accepted move strictly decreases the incrementally tracked cost.
    Yields ``(level, assign)`` at the start and after every accepted move,
    with ``assign`` the live state.
    """
    mass = problem.mass
    pen = problem.penalty
    c = problem.n_cells
    b = problem.n_candidates
    assign = assign.astype(np.int64).copy()
    q = np.bincount(assign, weights=mass, minlength=b).astype(float)
    level = float(mass @ pen[np.arange(c), assign]) + _entropy(q)
    yield level, assign

    for _sweep in range(10_000):
        changed = False
        for i in range(c):
            a = int(assign[i])
            mi = mass[i]
            gain_others = _neg_xlogx(q + mi) - _neg_xlogx(q)
            gain_a = _neg_xlogx(q[a] - mi) - _neg_xlogx(q[a])
            delta = mi * (pen[i] - pen[i, a]) + gain_others + gain_a
            delta[a] = 0.0
            j = int(np.argmin(delta))
            if delta[j] < 0.0:
                assign[i] = j
                q[a] -= mi
                q[j] += mi
                level += float(delta[j])
                changed = True
                yield level, assign
        for r in np.unique(assign):
            cells = assign == r
            region_cost = mass[cells] @ pen[cells]
            j = int(np.argmin(region_cost))
            if j == r:
                continue
            delta = float(region_cost[j] - region_cost[r]) + float(
                _neg_xlogx(q[j] + q[r]) - _neg_xlogx(q[j]) - _neg_xlogx(q[r])
            )
            if delta < 0.0:
                assign[cells] = j
                q[j] += q[r]
                q[r] = 0.0
                level += delta
                changed = True
                yield level, assign
        if not changed:
            break


def descent_steps(problem: DiscreteProblem, descent) -> list[tuple[float, float, np.ndarray]]:
    """Run a descent to its end.  Each yielded step becomes its tracked
    level, the cost ``codebook_cost`` recomputes from its assignment, and a
    copy of that assignment."""
    return [(level, codebook_cost(problem, assign).L, assign.copy()) for level, assign in descent]


_GRID_LIMIT = 200_000  # most competitor grid points theta_list lists


def theta_list(cert) -> list[Parameter]:
    """The ``k`` competitors of a locality certificate in ``theta``'s frame,
    where ``theta`` is ``(1, 0)``: the mean shifts, the inflated point, then
    the ``c^N`` grid.  Score them against a statistic mapped into the same
    frame, ``(m - mu) / sigma`` and ``s^2 / sigma^2``; likelihood gaps do
    not change, and a mean far larger than ``sigma`` loses no shift to
    rounding."""
    n, c = cert.cfg.N, cert.c
    if c**n > _GRID_LIMIT:
        raise ValueError(f"grid has {c**n} points, above the listing limit {_GRID_LIMIT}")
    shift = math.sqrt(2.0 * cert.T_margin)
    thetas = [Parameter(1.0, sign * shift * e) for e in np.eye(n) for sign in (1.0, -1.0)]
    thetas.append(Parameter(math.e**2, np.zeros(n)))
    axis = -shift + 2.0 * shift / c * (np.arange(c) + 0.5)
    centers = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    grid = (math.sqrt(2.0 * cert.cfg.nj) / c) ** 2
    return thetas + [Parameter(grid, center) for center in centers]


def oracle_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """``harness.standard_normal`` as first written: ``Generator.integers``
    on ``[0, 2^53)``, then ``ndtri((2k + 1) / 2^54)``."""
    from scipy.special import ndtri

    k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return ndtri((2.0 * k + 1.0) / float(1 << 54))


def oracle_trial_normals(spec, n_groups: int, t: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Trial ``t``'s normals drawn the old way, from a ``Generator`` on its
    substream ``(seed, N, t)``: the means' ``N`` first under the normal law
    (``None`` under the others), then the sample's ``N x J``."""
    rng = np.random.default_rng((spec.seed, n_groups, t))
    z_mu = oracle_standard_normal(rng, n_groups) if spec.mu_law == "normal" else None
    return z_mu, oracle_standard_normal(rng, (n_groups, spec.J))


def oracle_trial_ratios(spec, n_groups: int) -> dict:
    """``trial_ratios`` as first written: each trial draws its means and
    sample the old way (``oracle_trial_normals``) and reduces them alone,
    with a fixed mean left out of ``s2`` as the production code leaves it."""
    cfg = ProblemConfig(N=n_groups, J=spec.J)
    s2 = np.empty(spec.trials)
    for t in range(spec.trials):
        z_mu, z = oracle_trial_normals(spec, n_groups, t)
        # A fixed mean never enters s2: it is reduced from the noise alone.
        mu = math.sqrt(spec.sigma2_true) * z_mu if spec.mu_law == "normal" else np.zeros(cfg.N)
        data = mu[:, None] + math.sqrt(spec.sigma2_true) * z
        s2[t] = ((data - data.mean(axis=1)[:, None]) ** 2).sum() / cfg.nj
    pairs = _method_priors(spec.estimators, spec.priors, cfg)
    return {
        (method, None if prior is None else prior.p): SIGMA2_HAT[method](s2, prior, cfg) / spec.sigma2_true
        for method, prior in pairs
    }


def oracle_best_gaps(cert, s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The certificate's best likelihood gaps as first written, one row of
    ``m`` per entry of ``s``, in ``theta``'s frame."""
    cfg = cert.cfg
    s2 = s**2
    sq = (m**2).sum(axis=1)
    base = log_likelihood_kernel(s2, sq, 1.0, cfg)
    inflated, grid = cert._variances(1.0)
    shift = math.sqrt(2.0 * cert.T_margin)
    best = (cfg.J * shift) * np.abs(m).max(axis=1) - 0.5 * cfg.J * shift**2
    best += base
    np.maximum(best, log_likelihood_kernel(s2, sq, inflated, cfg), out=best)
    step = 2.0 * shift / cert.c
    start = 0.5 * step - shift
    idx = np.clip(np.rint((m - start) / step), 0, cert.c - 1)
    grid_sq = ((m - (start + step * idx)) ** 2).sum(axis=1)
    np.maximum(best, log_likelihood_kernel(s2, grid_sq, grid, cfg), out=best)
    best -= base
    return best


def oracle_locality_scores(theta, cfg, c, grid, seed: int, gaps=oracle_best_gaps) -> tuple:
    """``locality_certificate``'s verification as first written: the whole
    grid as one mesh, scored by ``gaps`` at once.  Returns the worst margin,
    the worst point and the exempt and exterior counts."""
    cert = _build_certificate(theta, cfg, c)
    rng = np.random.default_rng(seed)
    ls_lo = math.log(cert.delta_prime) - _EXPAND_SCALE
    ls_hi = math.log(cert.delta) + _EXPAND_SCALE
    jitter = rng.uniform(0.25, 0.75)
    ls_vals = ls_lo + (ls_hi - ls_lo) * (np.arange(grid.points_scale) + jitter) / grid.points_scale
    sqrt2T = math.sqrt(2.0 * cert.T_margin)
    half = sqrt2T * _EXPAND_MEAN
    jitter_m = rng.uniform(0.25, 0.75, cfg.N)
    mean_axes = [
        -half + 2.0 * half * (np.arange(grid.points_mean) + jitter_m[n]) / grid.points_mean for n in range(cfg.N)
    ]
    mesh = np.meshgrid(ls_vals, *mean_axes, indexing="ij")
    rel_s = np.exp(mesh[0].ravel())
    rel_m = np.stack([g.ravel() for g in mesh[1:]], axis=1)
    exempt = (rel_s >= cert.delta_prime) & (rel_s <= cert.delta) & np.all(np.abs(rel_m) <= sqrt2T, axis=1)
    margins = gaps(cert, rel_s, rel_m) - cert.T_margin
    margins[exempt] = np.inf
    i = int(np.argmin(margins))
    sigma = theta.sigma
    worst_point = np.concatenate(([(sigma * rel_s[i]) ** 2], theta.mu + sigma * rel_m[i]))
    n_exempt = int(exempt.sum())
    return float(margins[i]), worst_point, n_exempt, rel_s.size - n_exempt

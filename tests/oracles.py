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
written; the production builders fill it a row block at a time and must
match them bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np
from scipy.integrate import quad

from nsmml import PriorSpec, ProblemConfig, SufficientStat, sufficient_stats
from nsmml.codebook import _EXACT_TOL, DiscreteProblem, _entropy, _neg_xlogx, codebook_cost
from nsmml.model import code_penalty_kernel


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

"""Discrete strict-MML codebooks on truncated, discretized instances.

The continuum objective assigns to a piecewise-constant map ``F`` from
observations to parameters the cost ``L = L_E + L_P``: the entropy of the
induced parameter distribution plus the expected code penalty ``R``.  The
continuum minimizer is intractable, so this module works with finite
instances: observation cells in ``(log s, m/s)`` coordinates carrying a
scaled-marginal mass (uniform exactly when the prior is scale free), a
finite candidate-parameter list, and the penalty matrix of exact ``R``
values.  Costs are in nats.

Two minimizers are provided: exact enumeration (vectorized brute force,
or an exact count-vector dynamic program when masses are uniform) and a
deterministic alternating local search with restarts.  Audits cover the
largest region mass, the empirical overlap between optimized codebooks
and the Ideal Point estimator, and transport of codebooks by lattice
shifts -- on the periodic (torus) variant, transport along the log-scale
axis is an exact symmetry, the discrete shadow of the continuum fact that
scaling a codebook leaves its cost unchanged.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .estimators import _ip_shrinkage
from .model import (
    InvalidConfigError,
    NeymanScottError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    log_likelihood_kernel,
    log_marginal_kernel,
)

__all__ = [
    "SizeLimitError",
    "CandidateSpec",
    "LatticeInfo",
    "DiscreteProblem",
    "CodebookCost",
    "Codebook",
    "discretize",
    "torus_problem",
    "codebook_cost",
    "make_codebook",
    "pointwise_assignment",
    "smml_exhaustive",
    "smml_local_search",
    "RegionMassAudit",
    "region_mass_audit",
    "OverlapReport",
    "smml_ip_overlap",
    "codebook_transport",
    "transport_cost_bound",
    "problem_to_text",
    "problem_from_text",
    "codebook_to_text",
    "codebook_from_text",
]


class SizeLimitError(NeymanScottError):
    """An exact-search size limit was exceeded."""


@dataclass(frozen=True)
class CandidateSpec:
    """Candidate parameters for :func:`discretize`.

    Either an explicit list of parameters, or a lattice in
    ``(log sigma, mu/sigma)`` matching the observation-cell lattice and
    extended ``extension`` box-widths beyond it on every side.
    """

    extension: float = 1.0
    parameters: tuple[Parameter, ...] | None = None


@dataclass(frozen=True)
class LatticeInfo:
    """Cell/candidate lattice geometry of a discretized instance."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]
    cand_shape: tuple[int, ...] | None
    cand_origin: tuple[int, ...] | None  # cell-step position of candidate index 0
    stride: int = 1  # axis-0 candidate stride (torus instances)

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.shape, dtype=float)


@dataclass
class CodebookCost:
    L_E: float
    L_P: float
    L: float


@dataclass
class Codebook:
    """Total assignment of cells to candidate indices plus its cost."""

    assign: np.ndarray
    cost: CodebookCost


@dataclass
class DiscreteProblem:
    """Finite codebook-optimization instance.

    ``penalty[i][j]`` is the code penalty of representing cell ``i``'s
    statistic by candidate ``j``; masses are positive and sum to one over
    the truncation box.  Instances are immutable after construction and
    safe to share.
    """

    cfg: ProblemConfig
    prior: PriorSpec
    mass: np.ndarray
    cell_s2: np.ndarray
    cell_m: np.ndarray
    cell_coords: np.ndarray
    cand_sigma2: np.ndarray
    cand_mu: np.ndarray
    cand_coords: np.ndarray
    penalty: np.ndarray
    topology: str = "truncated"
    lattice: LatticeInfo | None = None

    def __post_init__(self) -> None:
        self.mass = np.asarray(self.mass, dtype=float)
        if self.mass.ndim != 1 or self.mass.size == 0:
            raise InvalidConfigError("mass must be a nonempty vector")
        if not np.all(self.mass > 0.0):
            raise InvalidConfigError("cell masses must be positive")
        if abs(float(self.mass.sum()) - 1.0) > 1e-12:
            raise InvalidConfigError("cell masses must sum to 1 within 1e-12")
        if not np.all(np.isfinite(self.penalty)):
            raise InvalidConfigError("penalty matrix must be finite")
        if self.penalty.shape != (self.n_cells, self.n_candidates):
            raise InvalidConfigError("penalty shape does not match cells x candidates")
        if self.topology not in ("truncated", "torus"):
            raise InvalidConfigError(f"unknown topology {self.topology!r}")

    @property
    def n_cells(self) -> int:
        return self.mass.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.cand_sigma2.shape[0]

    def candidate_parameter(self, j: int) -> Parameter:
        return Parameter(float(self.cand_sigma2[j]), self.cand_mu[j].copy())

    def cell_stat(self, i: int) -> SufficientStat:
        return SufficientStat(self.cell_m[i].copy(), float(self.cell_s2[i]))


def _penalty_matrix(
    cell_s2: np.ndarray,
    cell_m: np.ndarray,
    cand_sigma2: np.ndarray,
    cand_mu: np.ndarray,
    prior: PriorSpec,
    cfg: ProblemConfig,
) -> np.ndarray:
    """Vectorized ``R`` values; entries match the scalar ``code_penalty_R``.

    The squared distance is expanded as ``|m|^2 + |mu|^2 - 2 m.mu``, which
    cancels when means are large against their differences: entries drift
    from ``code_penalty_R`` by up to about 5e-8 relative at means near 1e4
    and by several nats at 1e8.
    """
    sq = (
        (cell_m**2).sum(axis=1)[:, None]
        + (cand_mu**2).sum(axis=1)[None, :]
        - 2.0 * cell_m @ cand_mu.T
    )
    np.maximum(sq, 0.0, out=sq)
    loglik = log_likelihood_kernel(cell_s2[:, None], sq, cand_sigma2[None, :], cfg)
    return log_marginal_kernel(cell_s2, prior, cfg)[:, None] - loglik


def _axis_masses(lo: float, hi: float, res: int, kappa: float) -> np.ndarray:
    # Scaled-marginal density in (log s, m/s) coordinates is e^(kappa*log s)
    # with kappa = N + 1 - p, constant along the mean axes.
    edges = np.linspace(lo, hi, res + 1)
    if kappa == 0.0:
        return np.full(res, (hi - lo) / res)
    return (np.exp(kappa * edges[1:]) - np.exp(kappa * edges[:-1])) / kappa


def discretize(
    cfg: ProblemConfig,
    prior: PriorSpec,
    box,
    resolution,
    candidate_spec: CandidateSpec | None = None,
) -> DiscreteProblem:
    """Discretize the truncated problem on an ``(N+1)``-dimensional box in
    ``(log s, m/s)`` coordinates.

    Cells have equal volume; their masses integrate the transformed scaled
    marginal exactly over each cell and are normalized to sum to one, so
    they are all equal exactly when the prior is scale free.  Candidates
    sit on the matching lattice (same spacing, aligned with the cell
    centers) extended beyond the box, unless an explicit list is given.
    """
    box = np.asarray(box, dtype=float)
    dim = cfg.N + 1
    if box.shape != (dim, 2):
        raise InvalidConfigError(f"box must have shape ({dim}, 2), got {box.shape}")
    if not np.all(box[:, 1] > box[:, 0]):
        raise InvalidConfigError("box must be nondegenerate (hi > lo per axis)")
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (dim,)).copy()
    if not np.all(res >= 2):
        raise InvalidConfigError("resolution must be >= 2 per axis")
    shape = tuple(int(r) for r in res)

    spacing = (box[:, 1] - box[:, 0]) / res
    centers = [box[d, 0] + spacing[d] * (np.arange(res[d]) + 0.5) for d in range(dim)]
    mesh = np.meshgrid(*centers, indexing="ij")
    cell_coords = np.stack([g.ravel() for g in mesh], axis=1)

    kappa = cfg.N + 1.0 - prior.p
    axis_w = [_axis_masses(box[0, 0], box[0, 1], shape[0], kappa)]
    axis_w += [np.full(shape[d], spacing[d]) for d in range(1, dim)]
    mass = axis_w[0]
    for w in axis_w[1:]:
        mass = np.multiply.outer(mass, w)
    mass = mass.ravel()
    mass = mass / mass.sum()

    s = np.exp(cell_coords[:, 0])
    cell_s2 = s**2
    cell_m = cell_coords[:, 1:] * s[:, None]

    spec = candidate_spec if candidate_spec is not None else CandidateSpec()
    if spec.parameters is not None:
        params = list(spec.parameters)
        if not params:
            raise InvalidConfigError("explicit candidate list must be nonempty")
        cand_sigma2 = np.array([p.sigma2 for p in params])
        cand_mu = np.stack([p.mu for p in params])
        cand_shape = None
        cand_origin = None
    else:
        ext_steps = np.maximum(np.rint(spec.extension * res).astype(int), 0)
        cand_shape = tuple(int(res[d] + 2 * ext_steps[d]) for d in range(dim))
        cand_axes = [
            box[d, 0] + spacing[d] * (np.arange(cand_shape[d]) - ext_steps[d] + 0.5)
            for d in range(dim)
        ]
        cmesh = np.meshgrid(*cand_axes, indexing="ij")
        cand_coords_lattice = np.stack([g.ravel() for g in cmesh], axis=1)
        csigma = np.exp(cand_coords_lattice[:, 0])
        cand_sigma2 = csigma**2
        cand_mu = cand_coords_lattice[:, 1:] * csigma[:, None]
        cand_origin = tuple(int(-e) for e in ext_steps)

    csigma = np.sqrt(cand_sigma2)
    cand_coords = np.concatenate([np.log(csigma)[:, None], cand_mu / csigma[:, None]], axis=1)

    penalty = _penalty_matrix(cell_s2, cell_m, cand_sigma2, cand_mu, prior, cfg)
    lattice = LatticeInfo(
        lo=box[:, 0].copy(),
        hi=box[:, 1].copy(),
        shape=shape,
        cand_shape=cand_shape,
        cand_origin=cand_origin,
    )
    return DiscreteProblem(
        cfg=cfg,
        prior=prior,
        mass=mass,
        cell_s2=cell_s2,
        cell_m=cell_m,
        cell_coords=cell_coords,
        cand_sigma2=cand_sigma2,
        cand_mu=cand_mu,
        cand_coords=cand_coords,
        penalty=penalty,
        topology="truncated",
        lattice=lattice,
    )


def _torus_penalty(
    delta: np.ndarray, mean_coord: np.ndarray, prior: PriorSpec, cfg: ProblemConfig
) -> np.ndarray:
    # R of the representative pair at wrapped log-scale offset delta:
    # stat (s = e^delta, m = u0 * s) against theta (sigma = 1, mu = u0).
    s2 = np.exp(2.0 * delta)
    sq_dev = float((mean_coord**2).sum()) * (np.exp(delta) - 1.0) ** 2
    return log_marginal_kernel(s2, prior, cfg) - log_likelihood_kernel(s2, sq_dev, 1.0, cfg)


def torus_problem(
    cfg: ProblemConfig,
    prior: PriorSpec,
    n_cells: int,
    log_s_lo: float = -2.0,
    log_s_hi: float = 2.0,
    mean_coord: float = 0.0,
    candidate_stride: int = 1,
) -> DiscreteProblem:
    """Periodic instance on the log-scale circle at a fixed mean coordinate.

    Cells sit on a circle of circumference ``log_s_hi - log_s_lo`` in
    ``log s``; candidates occupy every ``candidate_stride``-th cell
    position.  Penalties are the exact ``R`` values of representative
    pairs at the wrapped log-scale offset, so any lattice shift compatible
    with the candidate stride permutes the penalty matrix and leaves every
    codebook cost unchanged.  Requires the scale-free prior (uniform cell
    masses); the mean axes are frozen at ``mean_coord``.
    """
    if not prior.is_scale_free(cfg):
        raise InvalidConfigError("torus instances require the scale-free prior (uniform masses)")
    if n_cells < 2:
        raise InvalidConfigError("n_cells must be >= 2")
    if candidate_stride < 1 or n_cells % candidate_stride != 0:
        raise InvalidConfigError("candidate_stride must divide n_cells")
    if not log_s_hi > log_s_lo:
        raise InvalidConfigError("log-scale range must be nondegenerate")

    dim = cfg.N + 1
    period = log_s_hi - log_s_lo
    spacing = period / n_cells
    ls = log_s_lo + spacing * (np.arange(n_cells) + 0.5)
    u0 = np.full(cfg.N, float(mean_coord))

    cell_coords = np.concatenate([ls[:, None], np.tile(u0, (n_cells, 1))], axis=1)
    s = np.exp(ls)
    cell_s2 = s**2
    cell_m = np.tile(u0, (n_cells, 1)) * s[:, None]
    mass = np.full(n_cells, 1.0 / n_cells)

    lsig = ls[::candidate_stride]
    csigma = np.exp(lsig)
    cand_sigma2 = csigma**2
    cand_mu = np.tile(u0, (lsig.shape[0], 1)) * csigma[:, None]
    cand_coords = np.concatenate([lsig[:, None], np.tile(u0, (lsig.shape[0], 1))], axis=1)

    delta = ls[:, None] - lsig[None, :]
    delta = (delta + 0.5 * period) % period - 0.5 * period
    penalty = _torus_penalty(delta, u0, prior, cfg)

    lattice = LatticeInfo(
        lo=np.concatenate([[log_s_lo], u0 - 0.5]),
        hi=np.concatenate([[log_s_hi], u0 + 0.5]),
        shape=(n_cells,) + (1,) * cfg.N,
        cand_shape=(n_cells // candidate_stride,) + (1,) * cfg.N,
        cand_origin=(0,) * dim,
        stride=candidate_stride,
    )
    return DiscreteProblem(
        cfg=cfg,
        prior=prior,
        mass=mass,
        cell_s2=cell_s2,
        cell_m=cell_m,
        cell_coords=cell_coords,
        cand_sigma2=cand_sigma2,
        cand_mu=cand_mu,
        cand_coords=cand_coords,
        penalty=penalty,
        topology="torus",
        lattice=lattice,
    )


def _neg_xlogx(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 1e-300)
    return np.where(x > 0.0, -x * np.log(safe), 0.0)


def _entropy(q: np.ndarray) -> float:
    return float(_neg_xlogx(q).sum())


def _check_assign(problem: DiscreteProblem, assign: np.ndarray) -> np.ndarray:
    assign = np.asarray(assign, dtype=int)
    if assign.shape != (problem.n_cells,):
        raise InvalidConfigError("assignment must map every cell to a candidate")
    if assign.min() < 0 or assign.max() >= problem.n_candidates:
        raise InvalidConfigError("assignment indexes a candidate that does not exist")
    return assign


def codebook_cost(problem: DiscreteProblem, assign: np.ndarray) -> CodebookCost:
    """Cost triple of a total assignment: ``L_P`` is mass-weighted penalty,
    ``L_E`` the entropy of the induced candidate distribution (nats)."""
    assign = _check_assign(problem, assign)
    l_p = float(problem.mass @ problem.penalty[np.arange(problem.n_cells), assign])
    q = np.bincount(assign, weights=problem.mass, minlength=problem.n_candidates)
    l_e = _entropy(q)
    return CodebookCost(L_E=l_e, L_P=l_p, L=l_e + l_p)


def make_codebook(problem: DiscreteProblem, assign: np.ndarray) -> Codebook:
    assign = _check_assign(problem, assign).copy()
    return Codebook(assign=assign, cost=codebook_cost(problem, assign))


def pointwise_assignment(problem: DiscreteProblem) -> np.ndarray:
    """Assign every cell to its penalty-minimizing candidate (entropy ignored)."""
    return np.argmin(problem.penalty, axis=1)


def smml_exhaustive(
    problem: DiscreteProblem,
    tol: float = 1e-12,
    brute_limit: int = 2**20,
    dp_state_limit: int = 4_000_000,
) -> list[Codebook]:
    """All globally optimal codebooks, exact by enumeration.

    Routes: brute force when ``candidates ** cells`` fits under
    ``brute_limit`` (the documented small-instance regime, cells <= 12 and
    candidates <= 8), scoring every assignment from precomputed tables of
    two cell blocks; otherwise, for uniform-mass instances (scale-free
    discretizations and torus instances), an exact dynamic program over
    per-candidate count vectors, valid because the entropy term depends on
    the assignment only through region masses.  Each DP layer is a sorted
    integer array of count vectors in mixed-radix form, so the DP also
    needs ``(cells + 1) ** candidates < 2**63``.  Returns every assignment
    whose cost is within ``tol`` of the global minimum, sorted
    lexicographically.
    """
    c = problem.n_cells
    b = problem.n_candidates
    if b**c <= brute_limit:
        assigns = _exhaustive_brute(problem, tol)
    elif np.ptp(problem.mass) <= 1e-15 and b <= 12:
        assigns = _exhaustive_dp(problem, tol, dp_state_limit)
    else:
        raise SizeLimitError(
            f"instance too large for exact search: {b}^{c} assignments "
            "(count-vector DP needs uniform masses and at most 12 candidates)"
        )
    assigns.sort(key=tuple)
    return [make_codebook(problem, a) for a in assigns]


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


def _exhaustive_brute(problem: DiscreteProblem, tol: float) -> list[np.ndarray]:
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
            survivors = [(co, ix) for co, ix in survivors if co <= best + tol]
        keep = np.flatnonzero(cost <= best + tol)
        survivors.extend((float(cost[k]), h * n_low + int(k)) for k in keep)
    return [
        np.array(np.unravel_index(ix, (b,) * c), dtype=np.int64)
        for co, ix in survivors
        if co <= best + tol
    ]


def _exhaustive_dp(problem: DiscreteProblem, tol: float, state_limit: int) -> list[np.ndarray]:
    c = problem.n_cells
    b = problem.n_candidates
    base = c + 1  # a count vector n is stored as the code sum_j n_j * base**j
    if base**b >= 2**63:
        raise SizeLimitError(f"count-vector codes overflow int64: ({c} + 1)^{b} >= 2^63")
    radix = base ** np.arange(b, dtype=np.int64)
    m0 = float(problem.mass[0])
    w = problem.mass[:, None] * problem.penalty  # per-cell assignment costs
    suffix_min = np.zeros(c + 1)
    mins = w.min(axis=1)
    for i in range(c - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + mins[i]

    ub = smml_local_search(problem, restarts=2, seed=0).cost.L

    # Layer i: sorted codes of the count vectors reachable from the first i
    # cells, and the least partial L_P of reaching each.
    codes = np.zeros(1, dtype=np.int64)
    vals = np.zeros(1)
    layers = [(codes, vals)]
    for i in range(c):
        # One sorted run per candidate, so the stable (merge) sort is cheap.
        codes = (radix[:, None] + codes[None, :]).ravel()
        vals = (w[i][:, None] + vals[None, :]).ravel()
        keep = vals <= ub + tol - suffix_min[i + 1]
        codes, vals = codes[keep], vals[keep]
        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        codes, vals = codes[starts], np.minimum.reduceat(vals, starts)
        if codes.shape[0] > state_limit:
            raise SizeLimitError(f"count-vector DP exceeded {state_limit} states at layer {i + 1}")
        if not codes.shape[0]:
            raise SizeLimitError("count-vector DP pruned every state; upper bound inconsistent")
        layers.append((codes, vals))

    # Region masses are m0 * n_j, so H = -m0 * sum_j n_j log n_j - log m0.
    k = np.arange(base)
    nlogn = k * np.log(np.maximum(k, 1))
    entropy = -m0 * nlogn[codes[:, None] // radix % base].sum(axis=1) - math.log(m0)
    best = float((vals + entropy).min())
    target = best + tol - entropy
    final = vals <= target

    # Walk back from every optimal final state, one layer at a time, keeping
    # the steps whose prefix can still complete within the target.
    emit_cap = 100_000
    front = codes[final]
    target = target[final]
    used = np.zeros(front.shape[0])
    picks = np.empty((front.shape[0], c), dtype=np.int64)
    for i in range(c, 0, -1):
        prev_codes, prev_vals = layers[i - 1]
        step = front[:, None] - radix[None, :]
        pos = np.minimum(np.searchsorted(prev_codes, step), prev_codes.shape[0] - 1)
        nused = used[:, None] + w[i - 1][None, :]
        ok = (
            (front[:, None] // radix % base > 0)
            & (prev_codes[pos] == step)
            & (prev_vals[pos] + nused <= target[:, None] + 1e-15)
        )
        rows, js = np.nonzero(ok)
        if rows.shape[0] > emit_cap:
            raise SizeLimitError("too many optimal codebooks to enumerate")
        picks = picks[rows]
        picks[:, i - 1] = js
        front, used, target = step[rows, js], nused[rows, js], target[rows]
    return list(picks)


def _descend(
    problem: DiscreteProblem, assign: np.ndarray, collect_trace: bool = False
) -> tuple[np.ndarray, float, list[tuple[float, float]]]:
    """Alternating descent to a local optimum.

    (a) single-cell reassignment, first improvement in cell index order
    (the best candidate per cell, lowest index among ties); (b) per-region
    candidate re-selection minimizing the region's mass-weighted penalty.
    Every accepted move strictly decreases the incrementally tracked cost.
    """
    mass = problem.mass
    pen = problem.penalty
    c = problem.n_cells
    b = problem.n_candidates
    assign = assign.astype(np.int64).copy()
    q = np.bincount(assign, weights=mass, minlength=b).astype(float)
    level = float(mass @ pen[np.arange(c), assign]) + _entropy(q)
    trace: list[tuple[float, float]] = []

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
                if collect_trace:
                    trace.append((level, codebook_cost(problem, assign).L))
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
                if collect_trace:
                    trace.append((level, codebook_cost(problem, assign).L))
        if not changed:
            break
    return assign, level, trace


def smml_local_search(problem: DiscreteProblem, restarts: int = 4, seed: int = 0) -> Codebook:
    """Best local optimum over ``restarts`` descents.

    Restart 0 starts from the pointwise penalty-minimizing assignment (so
    the result never costs more than it); later restarts start from
    seeded uniform-random assignments.  Deterministic given ``seed``.
    """
    if restarts < 1:
        raise InvalidConfigError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    best_assign = None
    best_level = math.inf
    for k in range(restarts):
        if k == 0:
            init = pointwise_assignment(problem)
        else:
            init = rng.integers(0, problem.n_candidates, problem.n_cells)
        assign, level, _ = _descend(problem, init)
        if level < best_level:
            best_level = level
            best_assign = assign
    return make_codebook(problem, best_assign)


@dataclass
class RegionMassAudit:
    max_region_mass: float
    region_masses: dict[int, float]
    histogram: np.ndarray  # region masses, descending

    def to_dict(self) -> dict:
        return {
            "max_region_mass": self.max_region_mass,
            "n_regions": len(self.region_masses),
            "histogram": [float(v) for v in self.histogram],
        }


def region_mass_audit(problem: DiscreteProblem, codebook: Codebook) -> RegionMassAudit:
    """Largest region mass and the full region-mass histogram.

    Used to check empirically that optimized codebooks never concentrate
    mass beyond a fixed ceiling as resolution grows.
    """
    assign = _check_assign(problem, codebook.assign)
    q = np.bincount(assign, weights=problem.mass, minlength=problem.n_candidates)
    used = np.flatnonzero(q > 0.0)
    masses = {int(j): float(q[j]) for j in used}
    hist = np.sort(q[used])[::-1]
    return RegionMassAudit(float(hist[0]), masses, hist)


@dataclass
class OverlapReport:
    """Empirical codebook / Ideal-Point proximity on interior cells.

    The continuum statement holds for the continuum optimum; on a
    truncated grid this report is an empirical illustration, never a
    proof.
    """

    distances: np.ndarray
    fraction_within_one_region_diameter: float
    n_interior: int
    interior_cells: np.ndarray

    def to_dict(self) -> dict:
        return {
            "fraction_within_one_region_diameter": self.fraction_within_one_region_diameter,
            "n_interior": self.n_interior,
            "max_distance": float(self.distances.max()) if self.distances.size else 0.0,
        }


def _coord_distances(problem: DiscreteProblem, diff: np.ndarray) -> np.ndarray:
    # Torus instances measure coordinate differences on the circle.
    if problem.topology == "torus":
        lat = problem.lattice
        periods = (lat.hi - lat.lo)[None, :]
        diff = (diff + 0.5 * periods) % periods - 0.5 * periods
    return np.linalg.norm(diff, axis=-1)


def smml_ip_overlap(
    problem: DiscreteProblem, codebook: Codebook, interior_margin: int = 1
) -> OverlapReport:
    """Distances, in ``(log sigma, mu/sigma)``, between the assigned
    candidate and each interior cell's Ideal Point estimate.

    Interior cells lie at least ``interior_margin`` cells away from the
    truncation boundary (all cells on a torus, where distances wrap).  A
    cell counts as matched when its distance is at most its region's
    diameter (the maximum pairwise cell-center distance within the region,
    with a 1e-9 slack for exact-lattice coincidences).
    """
    if interior_margin < 1:
        raise InvalidConfigError("interior_margin must be >= 1")
    if problem.lattice is None:
        raise InvalidConfigError("overlap report requires a lattice-discretized problem")
    assign = _check_assign(problem, codebook.assign)
    shape = problem.lattice.shape
    multi = np.stack(np.unravel_index(np.arange(problem.n_cells), shape), axis=1)
    interior = np.ones(problem.n_cells, dtype=bool)
    if problem.topology != "torus":
        for d, size in enumerate(shape):
            if size <= 2 * interior_margin:
                raise InvalidConfigError(
                    f"interior margin {interior_margin} leaves no cells along axis {d}"
                )
            interior &= (multi[:, d] >= interior_margin) & (multi[:, d] < size - interior_margin)

    ip_sigma = np.sqrt(problem.cell_s2 / _ip_shrinkage(problem.prior, problem.cfg))
    ip_coords = np.concatenate(
        [np.log(ip_sigma)[:, None], problem.cell_m / ip_sigma[:, None]], axis=1
    )
    assigned_coords = problem.cand_coords[assign]
    dist = _coord_distances(problem, assigned_coords - ip_coords)

    diameters = np.zeros(problem.n_candidates)
    for r in np.unique(assign):
        pts = problem.cell_coords[assign == r]
        if pts.shape[0] > 1:
            diameters[r] = float(_coord_distances(problem, pts[:, None, :] - pts[None, :, :]).max())

    idx = np.flatnonzero(interior)
    d_int = dist[idx]
    thresh = diameters[assign[idx]] + 1e-9
    frac = float((d_int <= thresh).mean()) if idx.size else float("nan")
    return OverlapReport(d_int, frac, int(idx.size), idx)


def _shift_vector(problem: DiscreteProblem, lattice_shift) -> np.ndarray:
    dim = problem.cfg.N + 1
    if np.isscalar(lattice_shift):
        shift = np.zeros(dim, dtype=int)
        shift[0] = int(lattice_shift)
    else:
        shift = np.asarray(lattice_shift, dtype=int)
        if shift.shape != (dim,):
            raise InvalidConfigError(f"lattice shift must have {dim} components")
    return shift


def codebook_transport(problem: DiscreteProblem, codebook: Codebook, lattice_shift) -> Codebook:
    """Shift a codebook by an integer lattice vector in ``(log s, m/s)``,
    with the matching candidate-lattice shift.

    Cell indices wrap around the box on both topologies (the declared
    policy for the truncated variant); candidate indices wrap on a torus
    and must stay inside the extended lattice otherwise.  On a torus any
    compatible shift preserves the cost exactly; on a truncated instance
    the change is bounded by :func:`transport_cost_bound`.
    """
    if problem.lattice is None or problem.lattice.cand_shape is None:
        raise InvalidConfigError("transport requires lattice cells and lattice candidates")
    lat = problem.lattice
    shift = _shift_vector(problem, lattice_shift)
    assign = _check_assign(problem, codebook.assign)
    shape = np.asarray(lat.shape)
    cand_shape = np.asarray(lat.cand_shape)

    if problem.topology == "torus":
        if shift[0] % lat.stride != 0:
            raise InvalidConfigError(
                f"shift {shift[0]} along the scale axis is incompatible with candidate stride {lat.stride}"
            )
        if np.any(shift[1:] % shape[1:] != 0):
            raise InvalidConfigError("mean-axis shifts must be multiples of the (singleton) axis size")

    multi = np.stack(np.unravel_index(np.arange(problem.n_cells), lat.shape), axis=1)
    src_multi = (multi - shift) % shape
    src = np.ravel_multi_index(tuple(src_multi.T), lat.shape)
    src_assign = assign[src]

    cand_multi = np.stack(np.unravel_index(src_assign, lat.cand_shape), axis=1)
    if problem.topology == "torus":
        cand_step = shift.copy()
        cand_step[0] //= lat.stride
        new_multi = (cand_multi + cand_step) % cand_shape
    else:
        new_multi = cand_multi + shift
        if np.any(new_multi < 0) or np.any(new_multi >= cand_shape):
            raise InvalidConfigError(
                "shift moves an assigned candidate outside the extended candidate lattice"
            )
    new_assign = np.ravel_multi_index(tuple(new_multi.T), lat.cand_shape)
    return make_codebook(problem, new_assign)


def transport_cost_bound(problem: DiscreteProblem, lattice_shift) -> float:
    """Bound on ``|delta L|`` for transporting a uniform-mass truncated
    instance: total mass of the wrap-affected boundary layers times the
    penalty spread.
    """
    if problem.lattice is None:
        raise InvalidConfigError("transport bound requires a lattice problem")
    lat = problem.lattice
    shift = _shift_vector(problem, lattice_shift)
    multi = np.stack(np.unravel_index(np.arange(problem.n_cells), lat.shape), axis=1)
    boundary = np.zeros(problem.n_cells, dtype=bool)
    for d, size in enumerate(lat.shape):
        k = abs(int(shift[d]))
        if k == 0:
            continue
        boundary |= (multi[:, d] < k) | (multi[:, d] >= size - k)
    spread = float(problem.penalty.max() - problem.penalty.min())
    return float(problem.mass[boundary].sum()) * spread


# ---------------------------------------------------------------------------
# Structured text serialization (versioned; floats use repr for exact
# round-tripping; penalties are recomputed from the tables on load).

_PROBLEM_HEADER = "nsmml/discrete-problem 1"
_CODEBOOK_HEADER = "nsmml/codebook 1"


def _fmt(x: float) -> str:
    return repr(float(x))


def problem_to_text(problem: DiscreteProblem) -> str:
    lines = [_PROBLEM_HEADER]
    lines.append(f"N {problem.cfg.N}")
    lines.append(f"J {problem.cfg.J}")
    lines.append(f"prior_p {_fmt(problem.prior.p)}")
    lines.append(f"topology {problem.topology}")
    lat = problem.lattice
    if lat is None:
        lines.append("lattice 0")
    else:
        lines.append("lattice 1")
        lines.append("lo " + " ".join(_fmt(v) for v in lat.lo))
        lines.append("hi " + " ".join(_fmt(v) for v in lat.hi))
        lines.append("shape " + " ".join(str(v) for v in lat.shape))
        if lat.cand_shape is None:
            lines.append("cand_lattice 0")
        else:
            lines.append("cand_lattice 1")
            lines.append("cand_shape " + " ".join(str(v) for v in lat.cand_shape))
            lines.append("cand_origin " + " ".join(str(v) for v in lat.cand_origin))
            lines.append(f"stride {lat.stride}")
    lines.append(f"cells {problem.n_cells}")
    for i in range(problem.n_cells):
        row = [str(i), _fmt(problem.mass[i]), _fmt(problem.cell_s2[i])]
        row += [_fmt(v) for v in problem.cell_m[i]]
        lines.append(" ".join(row))
    lines.append(f"candidates {problem.n_candidates}")
    for j in range(problem.n_candidates):
        row = [str(j), _fmt(problem.cand_sigma2[j])]
        row += [_fmt(v) for v in problem.cand_mu[j]]
        lines.append(" ".join(row))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Lines:
    """Cursor over the nonblank lines of a serialized text."""

    def __init__(self, text: str, header: str) -> None:
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        if not self.lines or self.lines[0] != header:
            first = self.lines[0] if self.lines else ""
            raise InvalidConfigError(f"unrecognized header {first!r}, expected {header!r}")
        self.pos = 1

    def row(self) -> list[str]:
        if self.pos >= len(self.lines):
            raise InvalidConfigError("text ends before its end marker")
        self.pos += 1
        return self.lines[self.pos - 1].split()

    def take(self, key: str) -> list[str]:
        parts = self.row()
        if parts[0] != key:
            raise InvalidConfigError(f"expected {key!r} at line {self.pos}, got {' '.join(parts)!r}")
        return parts[1:]

    def table(self, key: str, width: int) -> np.ndarray:
        """The ``key n`` line and its ``n`` rows, each a row index followed
        by ``width`` floats."""
        n = int(self.take(key)[0])
        rows = [[float(v) for v in self.row()[1 : 1 + width]] for _ in range(n)]
        return np.array(rows, dtype=float).reshape(n, width)


@contextmanager
def _parsing(kind: str):
    """Report a missing or unconvertible field of a serialized ``kind`` as
    malformed input; usable as a decorator."""
    try:
        yield
    except InvalidConfigError:
        raise
    except (IndexError, ValueError) as exc:
        raise InvalidConfigError(f"malformed {kind} text: {exc}") from exc


@_parsing("problem")
def problem_from_text(text: str) -> DiscreteProblem:
    rd = _Lines(text, _PROBLEM_HEADER)
    cfg = ProblemConfig(N=int(rd.take("N")[0]), J=int(rd.take("J")[0]))
    prior = PriorSpec(float(rd.take("prior_p")[0]))
    topology = rd.take("topology")[0]
    lattice = None
    if int(rd.take("lattice")[0]):
        lo = np.array([float(v) for v in rd.take("lo")])
        hi = np.array([float(v) for v in rd.take("hi")])
        shape = tuple(int(v) for v in rd.take("shape"))
        cand_shape = None
        cand_origin = None
        stride = 1
        if int(rd.take("cand_lattice")[0]):
            cand_shape = tuple(int(v) for v in rd.take("cand_shape"))
            cand_origin = tuple(int(v) for v in rd.take("cand_origin"))
            stride = int(rd.take("stride")[0])
        lattice = LatticeInfo(lo, hi, shape, cand_shape, cand_origin, stride)
    elif topology == "torus":
        raise InvalidConfigError("torus problems need their lattice")

    cells = rd.table("cells", 2 + cfg.N)
    cands = rd.table("candidates", 1 + cfg.N)
    rd.take("end")
    # Contiguous copies: reductions over strided views round differently.
    mass, cell_s2, cell_m, cand_sigma2, cand_mu = (
        np.ascontiguousarray(a)
        for a in (cells[:, 0], cells[:, 1], cells[:, 2:], cands[:, 0], cands[:, 1:])
    )

    s = np.sqrt(cell_s2)
    cell_coords = np.concatenate([np.log(s)[:, None], cell_m / s[:, None]], axis=1)
    csigma = np.sqrt(cand_sigma2)
    cand_coords = np.concatenate([np.log(csigma)[:, None], cand_mu / csigma[:, None]], axis=1)

    if topology == "torus":
        period = float(lattice.hi[0] - lattice.lo[0])
        delta = cell_coords[:, 0][:, None] - cand_coords[:, 0][None, :]
        delta = (delta + 0.5 * period) % period - 0.5 * period
        u0 = cell_coords[0, 1:]
        penalty = _torus_penalty(delta, u0, prior, cfg)
    else:
        penalty = _penalty_matrix(cell_s2, cell_m, cand_sigma2, cand_mu, prior, cfg)

    return DiscreteProblem(
        cfg=cfg,
        prior=prior,
        mass=mass,
        cell_s2=cell_s2,
        cell_m=cell_m,
        cell_coords=cell_coords,
        cand_sigma2=cand_sigma2,
        cand_mu=cand_mu,
        cand_coords=cand_coords,
        penalty=penalty,
        topology=topology,
        lattice=lattice,
    )


def codebook_to_text(codebook: Codebook) -> str:
    lines = [
        _CODEBOOK_HEADER,
        f"cells {codebook.assign.shape[0]}",
        f"L_E {_fmt(codebook.cost.L_E)}",
        f"L_P {_fmt(codebook.cost.L_P)}",
        f"L {_fmt(codebook.cost.L)}",
        "assign " + " ".join(str(int(a)) for a in codebook.assign),
        "end",
    ]
    return "\n".join(lines) + "\n"


@_parsing("codebook")
def codebook_from_text(text: str, problem: DiscreteProblem) -> Codebook:
    rd = _Lines(text, _CODEBOOK_HEADER)
    n = int(rd.take("cells")[0])
    stored = {key: float(rd.take(key)[0]) for key in ("L_E", "L_P", "L")}
    assign = np.array([int(v) for v in rd.take("assign")], dtype=np.int64)
    rd.take("end")
    if assign.shape[0] != n:
        raise InvalidConfigError("malformed codebook body")
    cb = make_codebook(problem, assign)
    for key, value in stored.items():
        if not abs(getattr(cb.cost, key) - value) <= 1e-9:  # rejects nan too
            raise InvalidConfigError(
                f"stored {key} {value} does not match recomputed {getattr(cb.cost, key)}"
            )
    return cb

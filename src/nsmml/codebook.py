"""Discrete strict-MML codebooks on truncated, discretized instances.

The continuum objective assigns to a piecewise-constant map ``F`` from
observations to parameters the cost ``L = L_E + L_P``: the entropy of the
induced parameter distribution plus the expected code penalty ``R``.  The
continuum minimizer is intractable, so this module works with finite
instances: observation cells in ``(log s, m/s)`` coordinates carrying a
scaled-marginal mass (uniform exactly when the prior is scale free), a
finite candidate-parameter list, and the penalty matrix of exact ``R``
values.  Costs are in nats.

Two minimizers are provided: exact search by a count-vector dynamic
program over classes of equal-mass cells, and a deterministic alternating
local search with restarts.  Audits cover the largest region mass, the
empirical overlap between optimized codebooks and the Ideal Point
estimator, and transport of codebooks by lattice shifts -- on the
periodic (torus) variant, transport along the log-scale axis is an exact
symmetry, the discrete shadow of the continuum fact that scaling a
codebook leaves its cost unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .estimators import _from_coords, _ip_sigma2, _to_coords
from .model import (
    InvalidConfigError,
    NeymanScottError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    code_penalty_kernel,
)
from .reporting import render_json

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
    stride: int = 1  # axis-0 candidate stride (torus instances)


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
        self._check_tables()
        if not np.all(np.isfinite(self.penalty)):
            raise InvalidConfigError("penalty matrix must be finite")
        if self.penalty.shape != (self.n_cells, self.n_candidates):
            raise InvalidConfigError("penalty shape does not match cells x candidates")
        if self.topology not in ("truncated", "torus"):
            raise InvalidConfigError(f"unknown topology {self.topology!r}")

    def _check_tables(self) -> None:
        """Reject a cell or candidate table, by name, when its shape is
        wrong or an entry is not finite (or, for masses and variances, not
        positive)."""
        if self.mass.ndim != 1 or self.mass.size == 0:
            raise InvalidConfigError("mass must be a nonempty vector")
        if not np.all(self.mass > 0.0):
            raise InvalidConfigError("cell masses must be positive")
        if abs(float(self.mass.sum()) - 1.0) > 1e-12:
            raise InvalidConfigError("cell masses must sum to 1 within 1e-12")
        c, b, dim = self.n_cells, self.cand_sigma2.shape[0], self.cfg.N + 1
        for name, shape in (
            ("cell_s2", (c,)),
            ("cell_m", (c, dim - 1)),
            ("cell_coords", (c, dim)),
            ("cand_sigma2", (b,)),
            ("cand_mu", (b, dim - 1)),
            ("cand_coords", (b, dim)),
        ):
            _check_table(name, getattr(self, name), shape)

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


def _check_table(name: str, table: np.ndarray, shape: tuple) -> None:
    if table.shape != shape:
        raise InvalidConfigError(f"{name} has shape {table.shape}, expected {shape}")
    if not np.all(np.isfinite(table)):
        raise InvalidConfigError(f"{name} must be finite")
    if name in ("cell_s2", "cand_sigma2") and not np.all(table > 0.0):
        raise InvalidConfigError(f"{name} must be > 0")


_TABLE_LIMIT = 2**28  # most float64 entries (2 GiB) of a builder's penalty and coordinate tables


def _check_size(cells: int, candidates: int, dim: int) -> None:
    # Called before any table is allocated.
    if cells * candidates + (cells + candidates) * dim > _TABLE_LIMIT:
        raise InvalidConfigError(f"{cells} cells x {candidates} candidates exceed {_TABLE_LIMIT} table entries")


@contextmanager
def _float_range(inputs: str):
    """Reject a build, naming ``inputs``, at its first floating-point
    overflow, invalid operation or log of zero, so no table or penalty
    leaves the float range and numpy prints no warning; usable as a
    decorator."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise InvalidConfigError(f"{inputs} take the tables out of the float range ({exc})") from None


_BLOCK = 2**16  # float64 entries (512 KB) per row block of a penalty build's temporaries


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

    Build order: the matrix is allocated once, as the cross term ``2 m.mu``
    of a single BLAS product, and overwritten in place one block of whole
    rows (about ``_BLOCK`` entries) at a time with ``|m|^2 + |mu|^2`` minus
    the cross term, clipped at zero, then the kernel.  The elementwise
    steps keep the order of a one-shot build, so every entry has the same
    bits, and the temporaries are block-sized rather than matrix-sized.
    The product stays one call: OpenBLAS picks its kernel path by row
    count, so a product split by rows can round differently wherever an
    entry sums ``N >= 2`` products; it changed entries of 5^4 and 6^4
    lattices, and of every ``N >= 2`` lattice built in one-row blocks.
    """
    m_sq = (cell_m**2).sum(axis=1)
    mu_sq = (cand_mu**2).sum(axis=1)
    out = 2.0 * cell_m @ cand_mu.T
    step = max(1, _BLOCK // out.shape[1])
    for lo in range(0, out.shape[0], step):
        blk = slice(lo, lo + step)
        sq = m_sq[blk, None] + mu_sq[None, :] - out[blk]
        np.maximum(sq, 0.0, out=sq)
        out[blk] = code_penalty_kernel(cell_s2[blk, None], sq, cand_sigma2[None, :], prior, cfg)
    return out


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
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (cfg.N + 1,))
    spec = candidate_spec if candidate_spec is not None else CandidateSpec()
    if spec.parameters is not None:
        candidates = (np.array([p.sigma2 for p in spec.parameters]), np.array([p.mu for p in spec.parameters]))
    else:
        if not math.isfinite(spec.extension):
            raise InvalidConfigError(f"extension must be finite, got {spec.extension!r}")
        if spec.extension < 0.0:
            raise InvalidConfigError(f"extension must be >= 0, got {spec.extension!r}")
        # More than _TABLE_LIMIT steps exceed the table limit on their own.
        candidates = [min(round(spec.extension * int(r)), _TABLE_LIMIT) for r in res]
    return _discretize(cfg, prior, box, res, candidates)


@_float_range("box and candidates")
def _discretize(cfg: ProblemConfig, prior: PriorSpec, box, resolution, candidates) -> DiscreteProblem:
    """The truncated problem on ``box`` at ``resolution`` cells per axis.

    ``candidates`` is either the number of candidate-lattice steps beyond
    the box on each side of each axis, or the explicit ``(cand_sigma2,
    cand_mu)`` tables.  Every input is checked before anything is built.
    """
    dim = cfg.N + 1
    box = np.asarray(box, dtype=float)
    if box.shape != (dim, 2):
        raise InvalidConfigError(f"box must have shape ({dim}, 2), got {box.shape}")
    if not np.all(np.isfinite(box)):
        raise InvalidConfigError("box must be finite")
    if not np.all(box[:, 1] > box[:, 0]):
        raise InvalidConfigError("box must be nondegenerate (hi > lo per axis)")
    res = np.asarray(resolution)
    if res.shape != (dim,) or res.dtype.kind != "i" or not np.all(res >= 2):
        raise InvalidConfigError(f"resolution must be {dim} integers >= 2")
    shape = tuple(int(r) for r in res)
    if isinstance(candidates, tuple):
        cand_sigma2, cand_mu = (np.asarray(t, dtype=float) for t in candidates)
        if cand_sigma2.ndim != 1 or cand_sigma2.size == 0:
            raise InvalidConfigError("explicit candidate list must be nonempty")
        _check_table("cand_sigma2", cand_sigma2, cand_sigma2.shape)
        _check_table("cand_mu", cand_mu, (cand_sigma2.shape[0], cfg.N))
        cand_shape = None
        n_candidates = cand_sigma2.shape[0]
    else:
        steps = np.asarray(candidates)
        if steps.shape != (dim,) or steps.dtype.kind != "i" or not np.all(steps >= 0):
            raise InvalidConfigError(f"cand_steps must be {dim} integers >= 0")
        cand_shape = tuple(r + 2 * int(e) for r, e in zip(shape, steps))
        n_candidates = math.prod(cand_shape)
    _check_size(math.prod(shape), n_candidates, dim)

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

    cell_s2, cell_m = _from_coords(cell_coords)

    if cand_shape is not None:
        cand_axes = [
            box[d, 0] + spacing[d] * (np.arange(cand_shape[d]) - steps[d] + 0.5)
            for d in range(dim)
        ]
        cmesh = np.meshgrid(*cand_axes, indexing="ij")
        cand_sigma2, cand_mu = _from_coords(np.stack([g.ravel() for g in cmesh], axis=1))

    return DiscreteProblem(
        cfg=cfg, prior=prior, mass=mass, cell_s2=cell_s2, cell_m=cell_m, cell_coords=cell_coords,
        cand_sigma2=cand_sigma2, cand_mu=cand_mu, cand_coords=_to_coords(cand_sigma2, cand_mu),
        penalty=_penalty_matrix(cell_s2, cell_m, cand_sigma2, cand_mu, prior, cfg),
        lattice=LatticeInfo(box[:, 0].copy(), box[:, 1].copy(), shape, cand_shape),
    )


def _torus_penalty(n: int, stride: int, spacing: float, u0: np.ndarray, prior: PriorSpec, cfg: ProblemConfig):
    # R of the representative pair at each lattice offset k in [-(n//2), n - n//2),
    # delta = k * spacing: stat (s = e^delta, m = u0 * s) against theta
    # (sigma = 1, mu = u0), where u0 is the mean coordinate shared by every
    # cell.  Entry (i, j) is the row at offset i - stride * j, so a
    # stride-compatible shift permutes the matrix exactly.
    half = n // 2
    delta = spacing * np.arange(-half, n - half)
    sq_dev = float((u0**2).sum()) * (np.exp(delta) - 1.0) ** 2
    row = code_penalty_kernel(np.exp(2.0 * delta), sq_dev, 1.0, prior, cfg)
    cols = np.arange(0, n, stride)
    out = np.empty((n, cols.shape[0]))
    step = max(1, _BLOCK // cols.shape[0])
    for lo in range(0, n, step):  # row blocks bound the offset table
        idx = np.arange(lo + half, min(lo + step, n) + half)[:, None] - cols[None, :]
        idx %= n
        np.take(row, idx, out=out[lo : lo + step])
    return out


@_float_range("log_s_lo, log_s_hi and mean_coord")
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
    position.  The penalty is a circulant: one exact ``R`` value per
    integer lattice offset ``k`` in ``[-(n//2), n - n//2)``, at log-scale
    offset ``k * spacing``, so any lattice shift compatible with the
    candidate stride permutes the penalty matrix exactly and leaves every
    codebook cost unchanged up to the rounding of its sums.  Requires the
    scale-free prior (uniform cell masses); the mean axes are frozen at
    ``mean_coord``.  Inputs whose tables or penalty leave the float range
    are rejected by name.
    """
    if not prior.is_scale_free(cfg):
        raise InvalidConfigError("torus instances require the scale-free prior (uniform masses)")
    if n_cells < 2:
        raise InvalidConfigError("n_cells must be >= 2")
    if candidate_stride < 1 or n_cells % candidate_stride != 0:
        raise InvalidConfigError("candidate_stride must divide n_cells")
    for name, value in (("log_s_lo", log_s_lo), ("log_s_hi", log_s_hi), ("mean_coord", mean_coord)):
        if not math.isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value!r}")
    if not log_s_hi > log_s_lo:
        raise InvalidConfigError("log-scale range must be nondegenerate")
    period = log_s_hi - log_s_lo
    if not math.isfinite(period):
        raise InvalidConfigError(f"log_s_hi - log_s_lo must be finite, got {period!r}")
    _check_size(n_cells, n_cells // candidate_stride, cfg.N + 1)

    spacing = period / n_cells
    ls = log_s_lo + spacing * (np.arange(n_cells) + 0.5)
    u0 = np.full(cfg.N, float(mean_coord))

    cell_coords = np.concatenate([ls[:, None], np.tile(u0, (n_cells, 1))], axis=1)
    cell_s2, cell_m = _from_coords(cell_coords)
    cand_coords = cell_coords[::candidate_stride].copy()
    cand_sigma2, cand_mu = _from_coords(cand_coords)

    return DiscreteProblem(
        cfg=cfg, prior=prior, mass=np.full(n_cells, 1.0 / n_cells),
        cell_s2=cell_s2, cell_m=cell_m, cell_coords=cell_coords,
        cand_sigma2=cand_sigma2, cand_mu=cand_mu, cand_coords=cand_coords,
        penalty=_torus_penalty(n_cells, candidate_stride, spacing, u0, prior, cfg),
        topology="torus",
        lattice=LatticeInfo(
            lo=np.concatenate([[log_s_lo], u0 - 0.5]),
            hi=np.concatenate([[log_s_hi], u0 + 0.5]),
            shape=(n_cells,) + (1,) * cfg.N,
            cand_shape=(n_cells // candidate_stride,) + (1,) * cfg.N,
            stride=candidate_stride,
        ),
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


_EXACT_TOL = 1e-12  # codebooks within this cost of the minimum are all optimal
_DP_STATE_LIMIT = 4_000_000  # most count vectors in one layer of the exact DP
_DP_BEAM = 64  # count vectors per layer in the bounding pass of the exact DP


def smml_exhaustive(problem: DiscreteProblem) -> list[Codebook]:
    """All globally optimal codebooks, exact by a count-vector dynamic program.

    The entropy term depends on an assignment only through its region
    masses, so cells of bit-identical mass are exchangeable.  The cells
    fall into mass classes (one when masses are uniform, as on scale-free
    lattices and tori; one per log-scale row of a :func:`discretize`
    instance under any other prior), and a DP state counts the cells of
    each class assigned to each candidate.  Each DP layer is a sorted
    integer array of these count vectors in mixed-radix form, so the one
    precondition, checked in exact integers before any search, is that the
    code space ``prod_k (size_k + 1) ** candidates`` over the class sizes
    ``size_k`` stays below ``2**63``.  Every instance with at most ``2**20``
    assignments and at most 12 candidates meets it (a code space of at most
    ``2**60``), whatever its masses.  Among the builders' instances of at most
    ``2**20`` assignments, only 2x2 lattices with 20-32 candidates (28-32
    when masses are uniform) do not.

    A state is pruned when a lower bound on the cost of every completion
    exceeds the cost of a known codebook.  The bound adds to the state's
    partial ``L_P`` each later cell's least cost and the least entropy of
    any completion of its region masses, which puts all later mass on the
    largest region.  The known codebooks come from the cost table and the
    search itself, so no heuristic runs: every cell on the candidate of
    least total cost, every cell on its own least-cost candidate, and the
    best codebook of a first pass of this DP that keeps only the
    ``_DP_BEAM`` states of least bound per layer.  The bound never decreases
    along an assignment, so every state on the way to a codebook within
    ``_EXACT_TOL`` of the minimum is kept with its least partial ``L_P``.
    The DP gives up past ``_DP_STATE_LIMIT`` states in a layer.  Returns
    every assignment whose cost is within ``_EXACT_TOL`` of the global
    minimum, sorted lexicographically.
    """
    c = problem.n_cells
    b = problem.n_candidates
    weight, cls, size = np.unique(problem.mass, return_inverse=True, return_counts=True)
    space = math.prod(int(n) + 1 for n in size) ** b  # the mixed-radix code range
    if space >= 2**63:
        raise SizeLimitError(
            f"count-vector codes overflow int64: {b} candidates on cells of {size.shape[0]} "
            f"distinct mass(es) span 2^{math.log2(space):.1f} >= 2^63 codes"
        )
    # The count n_kj of class-k cells on candidate j is the digit of place
    # value radix[k, j], of radix size[k] + 1 (one class: (cells + 1)^j).
    digits = np.tile(size + 1, b)
    radix = np.cumprod(np.concatenate(([1], digits[:-1]))).reshape(b, -1).T
    w = problem.mass[:, None] * problem.penalty  # per-cell assignment costs
    suffix_min = np.append(np.cumsum(w.min(axis=1)[::-1])[::-1], 0.0)
    pointwise_q = np.bincount(w.argmin(axis=1), weights=problem.mass, minlength=b)
    ub = min(w.sum(axis=0).min(), suffix_min[0] + _entropy(pointwise_q))
    # f(x) = -x log x is concave, so the cells after cell i change the
    # entropy of the region masses by at least f(total) - f(mass of 0..i).
    prefix = np.cumsum(problem.mass)
    later_entropy = _neg_xlogx(prefix[-1]) - _neg_xlogx(prefix)

    def region_entropy(codes: np.ndarray) -> np.ndarray:
        # Region masses q_j = sum_k n_kj * weight[k], decoded one candidate
        # at a time so that no (states, classes, candidates) array is built.
        out = np.zeros(codes.shape[0])
        for j in range(b):
            q = np.zeros(codes.shape[0])
            for k in range(size.shape[0]):
                q += codes // radix[k, j] % (size[k] + 1) * weight[k]
            out += _neg_xlogx(q)
        return out

    def extend(codes: np.ndarray, vals: np.ndarray, i: int, ub: float):
        """Sorted count vectors after cell i, least partial L_P of reaching
        each and its cost bound, kept where the bound is within ub."""
        limit = ub + _EXACT_TOL - suffix_min[i + 1]
        # One sorted run per candidate, so the stable (merge) sort is cheap.
        codes = (radix[cls[i]][:, None] + codes[None, :]).ravel()
        vals = (w[i][:, None] + vals[None, :]).ravel()
        keep = vals <= limit
        codes, vals = codes[keep], vals[keep]
        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        codes, vals = codes[starts], np.minimum.reduceat(vals, starts)
        bound = vals + region_entropy(codes) + later_entropy[i]
        keep = bound <= limit
        return codes[keep], vals[keep], bound[keep]

    # Bounding pass: the same DP, keeping the _DP_BEAM states of least bound.
    codes = np.zeros(1, dtype=np.int64)
    vals = np.zeros(1)
    for i in range(c):
        codes, vals, bound = extend(codes, vals, i, ub)
        if not codes.shape[0]:
            break
        if codes.shape[0] > _DP_BEAM:
            kept = np.sort(np.argpartition(bound, _DP_BEAM)[:_DP_BEAM])
            codes, vals, bound = codes[kept], vals[kept], bound[kept]
    else:
        ub = min(ub, bound.min())  # after the last cell the bound is the cost

    # Layer i: sorted codes of the count vectors reachable from the first i
    # cells within the bound, and the least partial L_P of reaching each.
    codes = np.zeros(1, dtype=np.int64)
    vals = np.zeros(1)
    layers = [(codes, vals)]
    for i in range(c):
        codes, vals, _ = extend(codes, vals, i, ub)
        if codes.shape[0] > _DP_STATE_LIMIT:
            raise SizeLimitError(f"count-vector DP exceeded {_DP_STATE_LIMIT} states at layer {i + 1}")
        if not codes.shape[0]:
            raise SizeLimitError("count-vector DP pruned every state; upper bound inconsistent")
        layers.append((codes, vals))

    entropy = region_entropy(codes)
    best = float((vals + entropy).min())
    target = best + _EXACT_TOL - entropy
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
        place = radix[cls[i - 1]]
        step = front[:, None] - place[None, :]
        pos = np.minimum(np.searchsorted(prev_codes, step), prev_codes.shape[0] - 1)
        nused = used[:, None] + w[i - 1][None, :]
        ok = (
            (front[:, None] // place % (size[cls[i - 1]] + 1) > 0)
            & (prev_codes[pos] == step)
            & (prev_vals[pos] + nused <= target[:, None] + 1e-15)
        )
        rows, js = np.nonzero(ok)
        if rows.shape[0] > emit_cap:
            raise SizeLimitError("too many optimal codebooks to enumerate")
        picks = picks[rows]
        picks[:, i - 1] = js
        front, used, target = step[rows, js], nused[rows, js], target[rows]
    return [make_codebook(problem, a) for a in sorted(picks, key=tuple)]


_TOP_K = 32  # length of each cell's list of least-penalty candidates


def _least_penalties(pen: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's ``_TOP_K`` least-penalty candidates (in no order), their
    penalties, and a penalty that every candidate left out of the list
    reaches or exceeds (``inf`` when the list holds every candidate)."""
    c, b = pen.shape
    if b <= _TOP_K:
        top = np.broadcast_to(np.arange(b), (c, b))
        edge = np.full(c, np.inf)
    else:
        top = np.empty((c, _TOP_K), dtype=np.int64)
        edge = np.empty(c)
        for lo in range(0, c, 64):  # row blocks bound the index array argpartition makes
            block = pen[lo : lo + 64]
            part = np.argpartition(block, _TOP_K, axis=1)
            top[lo : lo + 64] = part[:, :_TOP_K]
            edge[lo : lo + 64] = np.take_along_axis(block, part[:, _TOP_K, None], axis=1)[:, 0]
    return top, np.take_along_axis(pen, top, axis=1), edge


def _descend(
    problem: DiscreteProblem, assign: np.ndarray, least: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Iterator[tuple[float, np.ndarray]]:
    """Alternating descent to a local optimum, as a generator of its moves.

    (a) single-cell reassignment, first improvement in cell index order
    (the best candidate per cell, lowest index among ties); (b) per-region
    candidate re-selection minimizing the region's mass-weighted penalty.
    Every accepted move strictly decreases the incrementally tracked cost.
    Yields ``(level, assign)`` for a copy of ``assign`` at the start and
    after every accepted move; the last pair is the local optimum.

    A cell visit costs O(candidates in use), not O(candidates).  The move
    cost to each candidate with nonzero mass (a float residue included) is
    evaluated in full.  Every other candidate has the same entropy gain
    ``-m_i log m_i``, so its move cost rises with its penalty: the best of
    them is the cheapest unused entry of the cell's least-penalty list, or
    comes from an exact scan of the row when the list cannot settle it.
    Cells that would not move are skipped a block at a time.  The moves,
    their order and the yielded levels are those of a scan of every
    candidate on every visit, bit for bit.  ``least`` is
    ``_least_penalties(problem.penalty)``, built once per search and
    shared by its restarts.
    """
    mass = problem.mass
    pen = problem.penalty
    c = problem.n_cells
    b = problem.n_candidates
    assign = assign.astype(np.int64).copy()
    q = np.bincount(assign, weights=mass, minlength=b)
    level = codebook_cost(problem, assign).L
    top, top_pen, edge = least
    yield level, assign

    def best_moves(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # The least move cost of each cell in lo:hi against the current
        # state, and its candidate (the lowest index among equal costs).
        in_use = q != 0.0
        used = np.flatnonzero(in_use)
        n, k = hi - lo, used.shape[0]
        nk = n * k
        a = assign[lo:hi]
        m = mass[lo:hi]
        rows = pen[lo:hi]
        pa = rows[np.arange(n), a]
        q_used, q_a = q[used], q[a]
        # One call for every entropy term: each used candidate joined by
        # each cell and alone, each cell's candidate without and with it,
        # and -m_i log m_i, the gain of joining any unused candidate.
        h = _neg_xlogx(np.concatenate(((q_used + m[:, None]).ravel(), q_used, q_a - m, q_a, m)))
        joined, alone = h[:nk].reshape(n, k), h[nk : nk + k]
        gain_a = h[nk + k : nk + k + n] - h[nk + k + n : nk + k + 2 * n]
        gain_free = h[nk + k + 2 * n :]
        # Columns: the used candidates, then each cell's least-penalty list
        # (its used entries masked, as the shared gain holds only for unused
        # ones; a cell's own candidate is unused only once it has no mass
        # left, and then costs -m_i log m_i >= 0).
        lst = top[lo:hi]
        cand = np.concatenate((used[None, :].repeat(n, axis=0), lst), axis=1)
        col_pen = np.concatenate((rows[:, used], top_pen[lo:hi]), axis=1)
        gain = np.concatenate((joined - alone, gain_free[:, None].repeat(lst.shape[1], axis=1)), axis=1)
        cost = m[:, None] * (col_pen - pa[:, None]) + gain + gain_a[:, None]
        cost[np.concatenate((used == a[:, None], in_use[lst]), axis=1)] = np.inf
        best = cost.min(axis=1)
        j = np.where(cost == best[:, None], cand, b).min(axis=1)
        # Unused candidates left out of a list cost at least its floor; where
        # that does not settle the best, scan the whole row.
        floor = m * (edge[lo:hi] - pa) + gain_free + gain_a
        for r in (~(best < floor)).nonzero()[0]:
            row = m[r] * (rows[r] - pa[r]) + gain_free[r] + gain_a[r]
            row[used] = cost[r, :k]
            j[r] = np.argmin(row)
            best[r] = row[j[r]]
        return best, j

    for _sweep in range(10_000):
        changed = False
        # Cells are evaluated a block of about 1024 move costs at a time (one
        # cell while hundreds of candidates are in use); the cells before a
        # block's first mover do not move.
        i = 0
        while i < c:
            hi = min(i + max(1, 1024 // (np.count_nonzero(q) + top.shape[1])), c)
            costs, targets = best_moves(i, hi)
            movers = (costs < 0.0).nonzero()[0]
            if not movers.shape[0]:
                i = hi
                continue
            first = int(movers[0])
            i += first
            a, j, mi = assign[i], int(targets[first]), mass[i]
            assign[i] = j
            q[a] -= mi
            q[j] += mi
            level += float(costs[first])
            changed = True
            yield level, assign
            i += 1
        for r in np.unique(assign):
            cells = np.flatnonzero(assign == r)
            region_cost = np.take(mass, cells) @ np.take(pen, cells, axis=0)
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


def smml_local_search(problem: DiscreteProblem, restarts: int = 4, seed: int = 0) -> Codebook:
    """Best local optimum over ``restarts`` descents.

    Restart 0 starts from the pointwise penalty-minimizing assignment (so
    the result never costs more than it); later restarts start from
    seeded uniform-random assignments.  Deterministic given ``seed``.
    """
    if restarts < 1:
        raise InvalidConfigError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    starts = [pointwise_assignment(problem)]
    starts += [rng.integers(0, problem.n_candidates, problem.n_cells) for _ in range(restarts - 1)]
    least = _least_penalties(problem.penalty)
    finals = [deque(_descend(problem, init, least), maxlen=1).pop() for init in starts]
    _, assign = min(finals, key=lambda final: final[0])  # the earliest restart wins ties
    return make_codebook(problem, assign)


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
    # Torus instances measure coordinate differences on the circle, wrapped
    # into [-period/2, period/2) up to rounding.
    if problem.topology == "torus":
        period = problem.lattice.hi - problem.lattice.lo
        diff = (diff + 0.5 * period) % period - 0.5 * period
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

    ip_coords = _to_coords(_ip_sigma2(problem.cell_s2, problem.prior, problem.cfg), problem.cell_m)
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
    compatible shift permutes the penalty matrix exactly, so the cost moves
    only by the rounding of its sums.  On a truncated lattice the model's
    symmetry ``(sigma, mu) -> (a sigma, a mu + b)`` is a lattice shift only
    along ``log s`` under the scale-free prior, where entries move by
    rounding alone (2.9e-15 relative at 16^2, extension 0.5); under the
    Wallace prior that step moves them by up to 0.19 nats, and a mean-axis
    step by up to 2782 nats.
    """
    if problem.lattice is None or problem.lattice.cand_shape is None:
        raise InvalidConfigError("transport requires lattice cells and lattice candidates")
    lat = problem.lattice
    shift = _shift_vector(problem, lattice_shift)
    assign = _check_assign(problem, codebook.assign)
    if problem.topology == "torus" and shift[0] % lat.stride != 0:
        raise InvalidConfigError(
            f"shift {shift[0]} along the scale axis is incompatible with candidate stride {lat.stride}"
        )

    # Cell x takes the candidate of cell x - shift, moved by the same step.
    src_assign = np.roll(assign.reshape(lat.shape), tuple(shift), axis=tuple(range(len(lat.shape)))).ravel()
    if problem.topology == "torus":
        new_assign = (src_assign + shift[0] // lat.stride) % problem.n_candidates
    else:
        new_multi = np.stack(np.unravel_index(src_assign, lat.cand_shape), axis=1) + shift
        if np.any(new_multi < 0) or np.any(new_multi >= lat.cand_shape):
            raise InvalidConfigError(
                "shift moves an assigned candidate outside the extended candidate lattice"
            )
        new_assign = np.ravel_multi_index(tuple(new_multi.T), lat.cand_shape)
    return make_codebook(problem, new_assign)


def transport_cost_bound(problem: DiscreteProblem, lattice_shift) -> float:
    """Bound on ``|delta L|`` for transporting a codebook.

    On a torus it is ``0.0``: a compatible shift permutes the penalty matrix
    exactly, so ``L`` moves only by the rounding of its sums.  On a
    truncated instance it is the wrap-affected boundary layers' mass times
    the spread of the whole penalty matrix: a bound only for the one shift
    that keeps interior entries, along ``log s`` under the scale-free prior
    (see :func:`codebook_transport`).
    """
    if problem.lattice is None:
        raise InvalidConfigError("transport bound requires a lattice problem")
    lat = problem.lattice
    shift = _shift_vector(problem, lattice_shift)
    if problem.topology == "torus":
        return 0.0
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
# Serialization: problems and codebooks are ``reporting.render_json`` reports.
# A problem report holds its builder's inputs, and loading calls that builder,
# so every table and the penalty come back bit for bit (floats are written
# with ``repr``) and a report can describe only a problem a builder makes.

_RECIPE_KEYS = {  # beside report, N, J, prior_p and topology
    "torus": {"n_cells", "log_s_lo", "log_s_hi", "mean_coord", "candidate_stride"},
    "truncated": {"box", "resolution", "cand_steps"},
    "explicit": {"box", "resolution", "cand_sigma2", "cand_mu"},
}


def problem_to_text(problem: DiscreteProblem) -> str:
    lat = problem.lattice
    if lat is None:
        raise InvalidConfigError("only a problem built by discretize or torus_problem can be saved")
    if problem.topology == "torus":
        recipe = {"n_cells": lat.shape[0], "log_s_lo": lat.lo[0], "log_s_hi": lat.hi[0],
                  "mean_coord": problem.cell_coords[0, 1], "candidate_stride": lat.stride}
    elif lat.cand_shape is None:
        recipe = {"box": np.stack([lat.lo, lat.hi], axis=1), "resolution": lat.shape,
                  "cand_sigma2": problem.cand_sigma2, "cand_mu": problem.cand_mu}
    else:
        recipe = {"box": np.stack([lat.lo, lat.hi], axis=1), "resolution": lat.shape,
                  "cand_steps": [(n - r) // 2 for n, r in zip(lat.cand_shape, lat.shape)]}
    head = {"N": problem.cfg.N, "J": problem.cfg.J, "prior_p": problem.prior.p, "topology": problem.topology}
    return render_json("discrete-problem", {**head, **recipe})


@contextmanager
def _parsing(kind: str):
    """Report a missing, mistyped or unconvertible field of a serialized
    ``kind`` report as malformed input; usable as a decorator."""
    try:
        yield
    except InvalidConfigError:
        raise
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"malformed {kind} report: {exc}") from exc


def _load_report(text: str, kind: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("report") != kind:
        raise InvalidConfigError(f"not a {kind} report")
    return data


def _json_array(data: dict, key: str, kinds: str = "if") -> np.ndarray:
    """``data[key]`` as an array of a numpy dtype kind in ``kinds``; integer
    fields pass ``"i"``, so a stored 2.5 is rejected rather than truncated."""
    arr = np.asarray(data[key])
    if arr.dtype.kind not in kinds:
        raise InvalidConfigError(f"{key} must hold {'integers' if kinds == 'i' else 'numbers'}")
    return arr.astype(float) if "f" in kinds else arr


@_parsing("discrete-problem")
def problem_from_text(text: str) -> DiscreteProblem:
    data = _load_report(text, "discrete-problem")
    topology = data["topology"]
    if topology not in ("truncated", "torus"):
        raise InvalidConfigError(f"unknown topology {topology!r}")
    recipe = "explicit" if topology == "truncated" and "cand_steps" not in data else topology
    keys = {"report", "N", "J", "prior_p", "topology"} | _RECIPE_KEYS[recipe]
    if data.keys() != keys:
        raise InvalidConfigError(
            f"discrete-problem report has unknown keys {sorted(data.keys() - keys)}"
            f" and lacks keys {sorted(keys - data.keys())}"
        )
    cfg = ProblemConfig(N=data["N"], J=data["J"])
    prior = PriorSpec(_json_array(data, "prior_p").item())
    if recipe == "torus":
        ints = {key: _json_array(data, key, "i").item() for key in ("n_cells", "candidate_stride")}
        floats = {key: _json_array(data, key).item() for key in ("log_s_lo", "log_s_hi", "mean_coord")}
        return torus_problem(cfg, prior, **ints, **floats)
    if recipe == "truncated":
        candidates = _json_array(data, "cand_steps", "i")
    else:
        candidates = (_json_array(data, "cand_sigma2"), _json_array(data, "cand_mu"))
    return _discretize(cfg, prior, _json_array(data, "box"), _json_array(data, "resolution", "i"), candidates)


def codebook_to_text(codebook: Codebook) -> str:
    return render_json("codebook", {**dataclasses.asdict(codebook.cost), "assign": codebook.assign})


@_parsing("codebook")
def codebook_from_text(text: str, problem: DiscreteProblem) -> Codebook:
    data = _load_report(text, "codebook")
    cb = make_codebook(problem, _json_array(data, "assign", "i"))
    for key, recomputed in dataclasses.asdict(cb.cost).items():
        value = _json_array(data, key).item()
        if not abs(recomputed - value) <= 1e-9:  # rejects nan too
            raise InvalidConfigError(f"stored {key} {value} does not match recomputed {recomputed}")
    return cb

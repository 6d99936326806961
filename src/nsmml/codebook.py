"""Discrete strict-MML codebooks on truncated, discretized instances.

The continuum objective assigns to a piecewise-constant map ``F`` from
observations to parameters the cost ``L = L_E + L_P``: the entropy of the
induced parameter distribution plus the expected code penalty ``R``.  The
continuum minimizer is intractable, so this module works with finite
instances: observation cells in ``(log s, m/s)`` coordinates carrying a
scaled-marginal mass (uniform exactly when the prior is scale free), a
finite candidate-parameter list, and the penalty matrix of exact ``R``
values.  Costs are in nats.

Two minimizers are provided: exact search, by an arc-partition dynamic
program on rings that pass a checked convexity condition and otherwise by
a count-vector dynamic program over classes of equal-mass cells, and a
deterministic alternating local search with restarts.  Audits cover the largest region mass, the
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
from dataclasses import dataclass, field

import numpy as np

from .estimators import _from_coords, _ip_sigma2, _to_coords
from .model import (
    InvalidConfigError,
    NeymanScottError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    _check_array,
    _check_float,
    _check_int,
    _float_range,
    _in_range,
    _row_blocks,
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


@dataclass(frozen=True)
class DiscreteProblem:
    """Finite codebook-optimization instance, each fact stored once: cells
    as ``(log s, m/s)`` coordinates (the frozen instance derives ``cell_s2``
    and ``cell_m`` from them), candidates as parameters.

    ``penalty[i][j]`` is the code penalty of representing cell ``i``'s
    statistic by candidate ``j``; masses are positive and sum to one over
    the truncation box.  The tables are writable arrays, but no function
    here writes to them, so instances are safe to share.  A ``lattice``
    must match the tables: its axes and cell count, its candidate shape
    and, on a torus, a ``cand_shape[0]`` that divides ``shape[0]``.
    """

    cfg: ProblemConfig
    prior: PriorSpec
    mass: np.ndarray
    cell_coords: np.ndarray
    cand_sigma2: np.ndarray
    cand_mu: np.ndarray
    penalty: np.ndarray
    topology: str = "truncated"
    lattice: LatticeInfo | None = None
    cell_s2: np.ndarray = field(init=False, repr=False)
    cell_m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Reject a table, by name, when its shape is wrong or an entry is not
        finite (or, for masses and variances, not positive), cell coordinates
        whose statistics leave the float range, then a mismatched lattice."""
        object.__setattr__(self, "mass", _check_table("mass", self.mass, (None,)))
        if abs(float(self.mass.sum()) - 1.0) > 1e-12:
            raise InvalidConfigError("cell masses must sum to 1 within 1e-12")
        object.__setattr__(self, "cand_sigma2", _check_table("cand_sigma2", self.cand_sigma2, (None,)))
        c, b, dim = self.n_cells, self.n_candidates, self.cfg.N + 1
        for name, shape in (("cell_coords", (c, dim)), ("cand_mu", (b, dim - 1)), ("penalty", (c, b))):
            object.__setattr__(self, name, _check_table(name, getattr(self, name), shape))
        with _float_range("cell_coords take the cell statistics out of the float range"):
            cell_s2, cell_m = _from_coords(self.cell_coords)
            _in_range(float(cell_s2.min()), math.ulp(0.0))  # an s2 that underflows to 0
        object.__setattr__(self, "cell_s2", cell_s2)
        object.__setattr__(self, "cell_m", cell_m)
        if self.topology not in ("truncated", "torus"):
            raise InvalidConfigError(f"unknown topology {self.topology!r}")
        lat = self.lattice
        if lat is None:
            return
        if not (np.shape(lat.lo) == np.shape(lat.hi) == (dim,) and len(lat.shape) == dim):
            raise InvalidConfigError(f"lattice lo, hi and shape must have {dim} entries")
        if math.prod(lat.shape) != c:
            raise InvalidConfigError(f"lattice shape {lat.shape} does not hold the {c} cells")
        if lat.cand_shape is not None:
            if len(lat.cand_shape) != dim or math.prod(lat.cand_shape) != b:
                raise InvalidConfigError(f"lattice cand_shape {lat.cand_shape} does not hold the {b} candidates")
            if self.topology == "torus" and lat.shape[0] % lat.cand_shape[0]:
                raise InvalidConfigError(
                    f"lattice cand_shape[0] {lat.cand_shape[0]} does not divide shape[0] {lat.shape[0]}"
                )

    @property
    def n_cells(self) -> int:
        return self.mass.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.cand_sigma2.shape[0]

    def candidate_parameter(self, j: int) -> Parameter:
        return Parameter(self.cand_sigma2[j], self.cand_mu[j])

    def cell_stat(self, i: int) -> SufficientStat:
        return SufficientStat(self.cell_m[i], self.cell_s2[i])


def _check_table(name: str, table, shape: tuple) -> np.ndarray:
    """``table`` read by ``model._check_array``; masses and variances must be > 0."""
    table = _check_array(table, name, shape)
    if name in ("mass", "cand_sigma2") and not (table > 0.0).all():
        raise InvalidConfigError(f"{name} must be > 0")
    return table


_TABLE_LIMIT = 2**28  # most float64 entries (2 GiB) of a builder's penalty and coordinate tables


def _check_size(cells: int, candidates: int, dim: int) -> None:
    # Called before any table is allocated.
    if cells * candidates + (cells + candidates) * dim > _TABLE_LIMIT:
        raise InvalidConfigError(f"{cells} cells x {candidates} candidates exceed {_TABLE_LIMIT} table entries")


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
    rows (``model._row_blocks``) at a time with ``|m|^2 + |mu|^2`` minus
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
    for blk in _row_blocks(*out.shape):
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
    res = _check_array(resolution, "resolution", integer=True)
    res = np.full(cfg.N + 1, res) if res.ndim == 0 else res
    spec = candidate_spec if candidate_spec is not None else CandidateSpec()
    if spec.parameters is not None:
        candidates = ([p.sigma2 for p in spec.parameters], [p.mu for p in spec.parameters])
    else:
        extension = _check_float(spec.extension, "extension", 0)
        # More than _TABLE_LIMIT steps exceed the table limit on their own.
        candidates = [round(min(extension * r, _TABLE_LIMIT)) for r in res.tolist()]
    return _discretize(cfg, prior, box, res, candidates)


def _discretize(cfg: ProblemConfig, prior: PriorSpec, box, resolution, candidates) -> DiscreteProblem:
    """The truncated problem on ``box`` at ``resolution`` cells per axis.

    ``candidates`` is either the number of candidate-lattice steps beyond
    the box on each side of each axis, or the explicit ``(cand_sigma2,
    cand_mu)`` tables.  Every input is checked before anything is built.
    """
    with _float_range("box and candidates take the tables out of the float range"):
        dim = cfg.N + 1
        box = _check_array(box, "box", (dim, 2))
        if not (box[:, 1] > box[:, 0]).all():
            raise InvalidConfigError("box must be nondegenerate (hi > lo per axis)")
        res = _check_array(resolution, "resolution", (dim,), integer=True)
        if not (res >= 2).all():
            raise InvalidConfigError(f"resolution must be >= 2, got {res.tolist()}")
        shape = tuple(int(r) for r in res)
        if isinstance(candidates, tuple):
            cand_sigma2 = _check_table("cand_sigma2", candidates[0], (None,))
            cand_mu = _check_table("cand_mu", candidates[1], (cand_sigma2.shape[0], cfg.N))
            cand_shape = None
            n_candidates = cand_sigma2.shape[0]
        else:
            steps = _check_array(candidates, "cand_steps", (dim,), integer=True)
            if not (steps >= 0).all():
                raise InvalidConfigError(f"cand_steps must be >= 0, got {steps.tolist()}")
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
            cfg=cfg, prior=prior, mass=mass, cell_coords=cell_coords, cand_sigma2=cand_sigma2, cand_mu=cand_mu,
            penalty=_penalty_matrix(cell_s2, cell_m, cand_sigma2, cand_mu, prior, cfg),
            lattice=LatticeInfo(box[:, 0].copy(), box[:, 1].copy(), shape, cand_shape),
        )


def _circulant(column: np.ndarray, stride: int) -> np.ndarray:
    """The ``n x n // stride`` view whose entry ``(i, j)`` is ``column[(i -
    stride*j) % n]``: column ``j`` is ``column`` rolled by ``stride*j``."""
    n = column.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((column, column)), n)
    return windows[n:0:-stride].T


def _torus_penalty(n: int, stride: int, spacing: float, u0: np.ndarray, prior: PriorSpec, cfg: ProblemConfig):
    # R of the representative pair at each lattice offset k, lifted into
    # [-(n//2), n - n//2), at delta = k * spacing: stat (s = e^delta, m = u0 * s)
    # against theta (sigma = 1, mu = u0), where u0 is the mean coordinate
    # shared by every cell.  Entry (i, j) is the R at offset i - stride * j,
    # so a stride-compatible shift permutes the matrix exactly.
    half = n // 2
    delta = spacing * ((np.arange(n) + half) % n - half)
    sq_dev = float((u0**2).sum()) * (np.exp(delta) - 1.0) ** 2
    column = code_penalty_kernel(np.exp(2.0 * delta), sq_dev, 1.0, prior, cfg)
    return np.ascontiguousarray(_circulant(column, stride))


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
    with _float_range("log_s_lo, log_s_hi and mean_coord take the tables out of the float range"):
        if not prior.is_scale_free(cfg):
            raise InvalidConfigError("torus instances require the scale-free prior (uniform masses)")
        n_cells = _check_int(n_cells, "n_cells", 2)
        candidate_stride = _check_int(candidate_stride, "candidate_stride", 1)
        if n_cells % candidate_stride != 0:
            raise InvalidConfigError("candidate_stride must divide n_cells")
        log_s_lo, log_s_hi, mean_coord = (
            _check_float(value, name)
            for name, value in (("log_s_lo", log_s_lo), ("log_s_hi", log_s_hi), ("mean_coord", mean_coord))
        )
        period = _check_float(log_s_hi - log_s_lo, "log_s_hi - log_s_lo", 0, strict=True)
        _check_size(n_cells, n_cells // candidate_stride, cfg.N + 1)

        spacing = period / n_cells
        ls = log_s_lo + spacing * (np.arange(n_cells) + 0.5)
        u0 = np.full(cfg.N, mean_coord)

        cell_coords = np.concatenate([ls[:, None], np.tile(u0, (n_cells, 1))], axis=1)
        cand_sigma2, cand_mu = _from_coords(cell_coords[::candidate_stride])

        return DiscreteProblem(
            cfg=cfg, prior=prior, mass=np.full(n_cells, 1.0 / n_cells), cell_coords=cell_coords,
            cand_sigma2=cand_sigma2, cand_mu=cand_mu,
            penalty=_torus_penalty(n_cells, candidate_stride, spacing, u0, prior, cfg),
            topology="torus",
            lattice=LatticeInfo(
                lo=np.concatenate([[log_s_lo], u0 - 0.5]),
                hi=np.concatenate([[log_s_hi], u0 + 0.5]),
                shape=(n_cells,) + (1,) * cfg.N,
                cand_shape=(n_cells // candidate_stride,) + (1,) * cfg.N,
            ),
        )


def _neg_xlogx(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 1e-300)
    return np.where(x > 0.0, -x * np.log(safe), 0.0)


def _entropy(q: np.ndarray) -> float:
    return float(_neg_xlogx(q).sum())


def _check_assign(problem: DiscreteProblem, assign: np.ndarray) -> np.ndarray:
    assign = _check_array(assign, "assignment", (problem.n_cells,), integer=True)
    if assign.min() < 0 or assign.max() >= problem.n_candidates:
        raise InvalidConfigError("assignment indexes a candidate that does not exist")
    return assign


def codebook_cost(problem: DiscreteProblem, assign: np.ndarray) -> CodebookCost:
    """Cost triple of a total assignment: ``L_P`` is mass-weighted penalty,
    ``L_E`` the entropy of the induced candidate distribution (nats)."""
    return _codebook_cost(problem, _check_assign(problem, assign))


def _codebook_cost(problem: DiscreteProblem, assign: np.ndarray) -> CodebookCost:
    # codebook_cost of an assignment already read by _check_assign.
    l_p = float(problem.mass @ problem.penalty[np.arange(problem.n_cells), assign])
    q = np.bincount(assign, weights=problem.mass, minlength=problem.n_candidates)
    l_e = _entropy(q)
    return CodebookCost(L_E=l_e, L_P=l_p, L=l_e + l_p)


def make_codebook(problem: DiscreteProblem, assign: np.ndarray) -> Codebook:
    assign = _check_assign(problem, assign).copy()
    return Codebook(assign=assign, cost=_codebook_cost(problem, assign))


def pointwise_assignment(problem: DiscreteProblem) -> np.ndarray:
    """Assign every cell to its penalty-minimizing candidate (entropy ignored)."""
    return np.argmin(problem.penalty, axis=1)


_EXACT_TOL = 1e-12  # codebooks within this cost of the minimum are all optimal
_DP_STATE_LIMIT = 4_000_000  # most count vectors in one layer of the exact DP
_DP_BEAM = 64  # count vectors per layer in the bounding pass of the exact DP
_EMIT_CAP = 100_000  # most optima, and most partial optima per layer of the count-vector walk back


def smml_exhaustive(problem: DiscreteProblem) -> list[Codebook]:
    """All globally optimal codebooks: every assignment within ``_EXACT_TOL``
    of the least cost, sorted lexicographically, each costed by
    :func:`make_codebook` and all on rows of one shared array (:func:`_emit`).

    Two exact routes, chosen from the problem itself.  A ring of uniform
    masses whose penalty is a circulant, strictly convex over every offset
    a near-optimal codebook can use (checked by :func:`_arc_stride` in
    ``O(n b)`` for ``n`` cells and ``b`` candidates), is solved by the
    arc-partition DP of :func:`_arc_optima` in ``O(stride n (n + b))``
    time.  Every other instance -- lattices, explicit problems and rings
    that fail the check -- falls back to the count-vector DP of
    :func:`_count_vector_optima`, exponential in the worst case.  Both
    refuse past ``_EMIT_CAP`` optima with :class:`SizeLimitError`, the
    ring route as it counts them, before it expands any; the count-vector
    DP also past its code range and ``_DP_STATE_LIMIT`` states in a layer.
    """
    stride = _arc_stride(problem)
    return _count_vector_optima(problem) if stride is None else _arc_optima(problem, stride)


def _arc_stride(problem: DiscreteProblem) -> int | None:
    """The candidate stride when :func:`_arc_optima` is exact on ``problem``,
    else ``None``.

    The sufficient condition, checked in ``O(n b)``:

    (a) the topology is ``"torus"``, every mass equals one ``m``, ``b``
        divides ``n`` and, with ``s = n / b`` and ``R`` the first penalty
        column, ``penalty[i, j] == R[(i - s j) % n]`` for every entry.  It
        is read off the matrix, so a loaded or hand-built torus is checked
        too.
    (b) Moving one cell of a codebook onto the least-penalty candidate of
        its row changes the entropy by at most ``m (1 - log m)``, as
        ``f(x) = -x log x`` is concave: joining a region gains at most
        ``f(m)`` and leaving one at most ``f(1 - m) <= m``.  So in a
        codebook within ``_EXACT_TOL`` of the optimum every cell sits at an
        offset ``d = i - s j`` with ``R[d]`` at most ``1 - log m +
        _EXACT_TOL / m`` above the least ``R`` of its residue ``d mod s``:
        an admissible offset.
    (c) Lifted to ``[-(n//2), n - n//2)``, the admissible offsets span an
        interval ``[lo, hi]`` across which every second difference of ``R``
        exceeds ``_EXACT_TOL / m``.

    Then every codebook within ``_EXACT_TOL`` of the optimum is a cyclic
    sequence of arcs with one candidate each.  Give cell ``i`` the lifted
    candidate position ``P_i = i - d_i``, with ``d_i`` its offset in
    ``[lo, hi]``, and ``P_{i+n} = P_i + n``.  Were ``x < y`` with ``P_x >
    P_y``, then with ``t = P_x - P_y``, ``u = d_x`` and ``v = d_y`` we have
    ``v - u = y - x + t > t``, so swapping the two cells' candidates gives
    them offsets ``u + t`` and ``v - t``, strictly inside ``[u, v]`` with
    the same sum.  The candidates differ (``0 < t < hi - lo < n``), so the
    region masses and the entropy stay put, while by (c) ``L_P`` falls by
    more than ``_EXACT_TOL``: a codebook below the optimum.  So ``P``
    never decreases, its runs are arcs, and the runs of one period sit at
    distinct positions in ``[P_0, P_0 + n)``, on distinct candidates
    (Farr & Wallace 2002; the Monge property on the circle of Delon,
    Salomon & Sobolevski 2010).  The checks compare stored entries in
    floating point; (b)'s bound exceeds the true entropy change by at
    least ``m**2 / 2``, far more than the comparison rounds.
    """
    n, b = problem.n_cells, problem.n_candidates
    mass, pen = problem.mass, problem.penalty
    if problem.topology != "torus" or n % b or not (mass == mass[0]).all():
        return None
    stride, m = n // b, float(mass[0])
    row = pen[:, 0]
    if not np.array_equal(pen, _circulant(row, stride)):
        return None
    least = row.reshape(b, stride).min(axis=0)  # the least entry of row i is least[i % stride]
    admissible = row <= np.tile(least, b) + (1.0 - math.log(m) + _EXACT_TOL / m)
    half = n // 2
    span = np.flatnonzero(np.roll(admissible, half))  # lifted: index k is offset k - half
    curvature = np.diff(np.roll(row, half)[span[0] : span[-1] + 1], 2)
    return stride if (curvature > _EXACT_TOL / m).all() else None


def _arc_optima(problem: DiscreteProblem, stride: int) -> list[Codebook]:
    """Every codebook within ``_EXACT_TOL`` of the optimum of a ring that
    passes :func:`_arc_stride`, by an arc-partition DP.

    With uniform masses ``m`` and a circulant penalty, an arc of ``l``
    cells whose first cell lies ``e`` cells past its candidate costs
    ``f(l m) + m (C[e + l] - C[e])``, with ``f(x) = -x log x`` and ``C``
    the prefix sums of the penalty row doubled; so its least cost over
    candidates depends only on ``l`` and its start modulo ``stride``.  A
    table of those least costs and a linear DP over arc ends, on the ring
    cut at each of the ``stride`` offsets, give the least cost of every
    cut.  The walk back lists every arc sequence and arc candidate within
    ``_EXACT_TOL`` of the least cost over cuts.  A sequence that puts one
    candidate on two arcs is costed at least ``2 m log 2`` above its
    codebook (``f`` is subadditive), so none is listed, and the DP's least
    cost is the optimum: by the precondition, optima are arcs on distinct
    candidates.  Rotation by a multiple ``s`` of ``stride`` keeps arc costs
    and starts the arcs of a sequence from cut ``c`` at ``c + s, ..., c + s
    + n - l``, ``l`` its last arc's length: led by ``c + s`` in ``[0, n)``
    exactly when ``c + s < l``.  An optimum with least arc start ``a`` and
    greatest ``p`` has ``l = n - p + a > a``, so these rotations list it
    once, from cut ``a mod stride``; a one-arc codebook, with no arc start,
    from cut 0 only.  The optima are counted, and refused past
    ``_EMIT_CAP``, before one array is filled.  ``O(stride n (n + b))``
    time; the table and the DP hold ``O(stride n + b)`` values.
    """
    n, b = problem.n_cells, problem.n_candidates
    m = float(problem.mass[0])
    row = problem.penalty[:, 0]
    prefix = np.concatenate(([0.0], np.cumsum(np.concatenate((row, row)))))
    arc_entropy = _neg_xlogx(m * np.arange(n + 1))
    # least_sum[r, l]: the least penalty sum of an arc of l cells starting at
    # residue r, over the candidates e = r, r + stride, ... cells behind it.
    least_sum = np.full((stride, n + 1), np.inf)
    for blk in _row_blocks(n, n):
        lengths = np.arange(1, n + 1)[blk]
        sums = prefix[lengths[:, None] + np.arange(n)] - prefix[:n]
        least_sum[:, lengths] = sums.reshape(-1, b, stride).min(axis=1).T
    arc = arc_entropy + m * least_sum

    # total[c, k]: the least cost of the k cells after cut c, in whole arcs.
    total = np.zeros((stride, n + 1))
    cuts = np.arange(stride)[:, None]
    for k in range(1, n + 1):
        starts = np.arange(k)  # the last arc covers cells starts..k-1 after the cut
        total[:, k] = (total[:, :k] + arc[(cuts + starts) % stride, k - starts]).min(axis=1)

    target = total[:, n].min() + _EXACT_TOL
    listed, count = [], 0  # (arcs, rows, r) per sequence: rotations by stride * r with c + stride * r < l
    for c in range(stride):
        # Depth first from the end: (cells left, cost of the arcs after them,
        # those arcs as (first cell, length, offset from the candidate)).
        stack = [(n, 0.0, ())]
        while stack:
            k, used, arcs = stack.pop()
            if k:
                # An arc whose least cost misses the target misses it on every
                # candidate, so only the arcs that reach it are costed in full.
                starts = np.arange(k)
                for t in np.flatnonzero(total[c, :k] + arc[(c + starts) % stride, k - starts] + used <= target):
                    length = k - t
                    offsets = (c + t) % stride + stride * np.arange(b)
                    cost = arc_entropy[length] + m * (prefix[offsets + length] - prefix[offsets])
                    for j in np.flatnonzero(total[c, t] + cost + used <= target):
                        stack.append((t, used + cost[j], arcs + ((c + t, length, offsets[j]),)))
                continue
            r = np.arange(c, arcs[0][1] if len(arcs) > 1 else 1, stride)[:, None] // stride
            listed.append((arcs, count + r, r))
            count += len(r)
            if count > _EMIT_CAP:
                raise SizeLimitError("too many optimal codebooks to enumerate")
    rows = np.empty((count, n), dtype=np.int64)
    for arcs, at, r in listed:
        for first, length, offset in arcs:
            rows[at, (first + stride * r + np.arange(length)) % n] = ((first - offset) % n // stride + r) % b
    return _emit(problem, rows)


def _emit(problem: DiscreteProblem, rows: np.ndarray) -> list[Codebook]:
    """Codebooks of the valid assignments ``rows`` in lexicographic order, each
    on its row of ``rows``, a view: the codebooks of one call share that array."""
    return [Codebook(assign=rows[i], cost=_codebook_cost(problem, rows[i])) for i in np.lexsort(rows.T[::-1])]


def _count_vector_optima(problem: DiscreteProblem) -> list[Codebook]:
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

    A state carries its code, least partial ``L_P`` and region entropy:
    cell ``i`` on candidate ``j`` adds ``mass_i * penalty_ij`` and
    ``f(q_j + mass_i) - f(q_j)``, with ``f(x) = -x log x`` and ``q_j`` the
    parent's region mass on ``j``.  Children are formed a block of
    candidates at a time, from ``model._row_blocks`` over candidates x
    parent states (one candidate per block once a layer is wider than
    ``_BLOCK``): one step decodes the parents' region masses on every
    candidate of the block and makes one entropy call.  Children are
    pruned as they are formed, when a lower bound on every
    completion's cost exceeds the cost of a known codebook: each later
    cell's least cost plus the least entropy change, all later mass on the
    largest region (``f`` is concave).  The two known codebooks need no
    heuristic: every cell on the candidate of least total cost, and the
    best of a first pass of this DP that keeps the ``_DP_BEAM`` states of
    least partial cost per layer.  The bound never decreases along an
    assignment, so every state on the way to a codebook within
    ``_EXACT_TOL`` of the minimum is kept with its least partial ``L_P``.
    Carried entropies differ from a direct sum only in the last bits, far
    inside that slack, and :func:`_emit` recomputes every returned cost and
    sorts the optima lexicographically.  The walk back needs only exact
    membership of a step in the previous layer: a step that takes a cell
    from a zero digit is negative, or borrows and so holds more cells of
    that cell's class than any state of the previous layer.  The DP gives
    up past ``_DP_STATE_LIMIT`` distinct states in a layer, or past
    ``_EMIT_CAP`` partial optima in the walk back.  The exact pass merges
    the children it has kept whenever they pass the limit, so a layer
    never holds more than the limit and one block of children; it is
    refused when the merged children still pass it.  A merge keeps each
    code's least value and first entropy, as the layer's final merge
    does, so the merged layer has the bits of one merge.
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
    ub = w.sum(axis=0).min()
    # f(x) = -x log x is concave, so the cells after cell i change the
    # entropy of the region masses by at least f(total) - f(mass of 0..i).
    prefix = np.cumsum(problem.mass)
    later_entropy = _neg_xlogx(prefix[-1]) - _neg_xlogx(prefix)

    def merge(runs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One sorted run of distinct codes, each with its least value and
        the entropy of its first copy, from runs of sorted codes."""
        # One sorted run per candidate, so the stable (merge) sort is cheap.
        codes, vals, ents = (np.concatenate(parts) for parts in zip(*runs))
        order = np.argsort(codes, kind="stable")
        codes, vals, ents = codes[order], vals[order], ents[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        return codes[starts], np.minimum.reduceat(vals, starts), ents[starts]

    def extend(codes: np.ndarray, vals: np.ndarray, ents: np.ndarray, i: int, ub: float, cap: float):
        """Sorted count vectors after cell i, least partial L_P and entropy,
        within ub; refused once more than cap distinct children are kept."""
        limit = ub + _EXACT_TOL - suffix_min[i + 1] - later_entropy[i]
        runs, kept = [], 0
        for blk in _row_blocks(b, codes.shape[0]):
            # The parents' region masses on each candidate of the block, from
            # their class digits: one row of children per candidate.
            q = 0.0
            for k in range(size.shape[0]):
                q = q + codes // radix[k, blk, None] % (size[k] + 1) * weight[k]
            h = _neg_xlogx(np.stack((q + problem.mass[i], q)))
            child_vals = vals + w[i, blk, None]
            child_ents = ents + (h[0] - h[1])
            keep = child_vals + child_ents <= limit
            runs.append(((codes + radix[cls[i], blk, None])[keep], child_vals[keep], child_ents[keep]))
            kept += runs[-1][0].shape[0]
            if kept > cap:
                # Merge the children kept so far into one run, as the whole
                # layer would merge them: the layer holds every distinct one.
                runs = [merge(runs)]
                kept = runs[0][0].shape[0]
                if kept > cap:
                    raise SizeLimitError(f"count-vector DP exceeded {cap} states at layer {i + 1}")
        return merge(runs)

    # Bounding pass: the same DP, keeping the _DP_BEAM states of least cost.
    root = np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1)
    codes, vals, ents = root
    for i in range(c):
        codes, vals, ents = extend(codes, vals, ents, i, ub, math.inf)
        if not codes.shape[0]:
            break
        if codes.shape[0] > _DP_BEAM:
            kept = np.sort(np.argpartition(vals + ents, _DP_BEAM)[:_DP_BEAM])
            codes, vals, ents = codes[kept], vals[kept], ents[kept]
    else:
        ub = min(ub, (vals + ents).min())

    # Layer i: sorted codes of the count vectors reachable from the first i
    # cells within the bound, and the least partial L_P of reaching each.
    codes, vals, ents = root
    layers = [(codes, vals)]
    for i in range(c):
        codes, vals, ents = extend(codes, vals, ents, i, ub, _DP_STATE_LIMIT)
        if not codes.shape[0]:
            raise SizeLimitError("count-vector DP pruned every state; upper bound inconsistent")
        layers.append((codes, vals))

    target = (vals + ents).min() + _EXACT_TOL - ents
    final = vals <= target

    # Walk back from every optimal final state, one layer at a time, keeping
    # the steps whose prefix can still complete within the target.
    front, target = codes[final], target[final]
    used = np.zeros(front.shape[0])
    picks = np.empty((front.shape[0], c), dtype=np.int64)
    for i in range(c, 0, -1):
        prev_codes, prev_vals = layers[i - 1]
        place = radix[cls[i - 1]]
        step = front[:, None] - place[None, :]
        pos = np.minimum(np.searchsorted(prev_codes, step), prev_codes.shape[0] - 1)
        nused = used[:, None] + w[i - 1][None, :]
        ok = (prev_codes[pos] == step) & (prev_vals[pos] + nused <= target[:, None] + 1e-15)
        rows, js = np.nonzero(ok)
        if rows.shape[0] > _EMIT_CAP:
            raise SizeLimitError("too many optimal codebooks to enumerate")
        picks = picks[rows]
        picks[:, i - 1] = js
        front, used, target = step[rows, js], nused[rows, js], target[rows]
    return _emit(problem, picks)


_TOP_K = 32  # length of each cell's list of least-penalty candidates
# Move costs per window of the local search's cell scan, the one blocked
# loop not cut by model._row_blocks: after a window's first mover the rest
# of the window is scored again, so a window stays far below _BLOCK.
_MOVE_WINDOW = 1024


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
        for blk in _row_blocks(c, b):  # row blocks bound the index array argpartition makes
            part = np.argpartition(pen[blk], _TOP_K, axis=1)
            top[blk] = part[:, :_TOP_K]
            edge[blk] = np.take_along_axis(pen[blk], part[:, _TOP_K, None], axis=1)[:, 0]
    return top, np.take_along_axis(pen, top, axis=1), edge


def _descend(
    problem: DiscreteProblem, assign: np.ndarray, least: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Iterator[tuple[float, np.ndarray]]:
    """Alternating descent to a local optimum, as a generator of its moves.

    (a) single-cell reassignment, first improvement in cell index order
    (the best candidate per cell, lowest index among ties); (b) per-region
    candidate re-selection minimizing the region's mass-weighted penalty.
    Every accepted move strictly decreases the incrementally tracked cost.
    Yields ``(level, assign)`` at the start and after every accepted move;
    the last pair is the local optimum.  ``assign`` is the descent's own
    working array, a copy of the start that later moves overwrite, so a
    caller copies it to keep a step.

    A cell visit costs O(candidates in use), not O(candidates).  Every
    column gets the one move cost of cell ``i`` from ``a`` to ``t``,
    ``m_i (R_it - R_ia) + [f(q_t + m_i) - f(q_t)] + [f(q_a - m_i) -
    f(q_a)]`` with ``f(x) = -x log x``.  The columns are the cell's
    least-penalty list and, when that leaves candidates out, every
    candidate with nonzero mass (a float residue included).  A candidate
    of no mass gains ``f(m_i)`` whichever it is, so its move cost rises
    with its penalty: the best left out of the list costs at least the
    list's floor, and comes from an exact scan of the row when the floor
    cannot settle it.  Cells that would not move are skipped a window at a
    time.  The moves,
    their order and the yielded levels are those of a scan of every
    candidate on every visit, bit for bit.  ``least`` is
    ``_least_penalties(problem.penalty)``, built once per search and
    shared by its restarts.
    """
    mass = problem.mass
    pen = problem.penalty
    c = problem.n_cells
    b = problem.n_candidates
    assign = assign.astype(np.int64)
    q = np.bincount(assign, weights=mass, minlength=b)
    level = _codebook_cost(problem, assign).L
    top, top_pen, edge = least
    partial = top.shape[1] < b  # the lists leave candidates out
    yield level, assign

    def best_moves(lo: int) -> tuple[int, np.ndarray, np.ndarray]:
        # The end hi of a window of cells from lo, of about _MOVE_WINDOW move
        # costs; the least move cost of each cell in lo:hi against the current
        # state, and its candidate (the lowest index among equal costs).
        used = (q != 0.0).nonzero()[0] if partial else np.arange(0)
        hi = min(lo + max(1, _MOVE_WINDOW // (used.shape[0] + top.shape[1])), c)
        n = hi - lo
        a = assign[lo:hi]
        m = mass[lo:hi]
        rows = pen[lo:hi]
        cand, cand_pen = top[lo:hi], top_pen[lo:hi]
        if partial:
            cand = np.concatenate((used[None, :].repeat(n, axis=0), cand), axis=1)
            cand_pen = np.concatenate((rows[:, used], cand_pen), axis=1)
        pa = rows[np.arange(n), a]
        q_t, q_a = q[cand], q[a]
        nk = q_t.size
        # One call for every entropy term: each column's candidate joined by
        # the cell and alone, the cell's candidate without and with it, and
        # -m_i log m_i, the gain of joining a candidate of no mass.
        h = _neg_xlogx(np.concatenate(((q_t + m[:, None]).ravel(), q_t.ravel(), q_a - m, q_a, m)))
        gain = (h[:nk] - h[nk : 2 * nk]).reshape(n, -1)
        gain_a = h[2 * nk : 2 * nk + n] - h[2 * nk + n : 2 * nk + 2 * n]
        gain_free = h[2 * nk + 2 * n :]
        cost = m[:, None] * (cand_pen - pa[:, None]) + gain + gain_a[:, None]
        cost[cand == a[:, None]] = np.inf
        best = cost.min(axis=1)
        j = np.where(cost == best[:, None], cand, b).min(axis=1)
        if partial:
            # Candidates of no mass left out of a list cost at least its
            # floor; where that does not settle the best, scan the whole row.
            floor = m * (edge[lo:hi] - pa) + gain_free + gain_a
            for r in (~(best < floor)).nonzero()[0]:
                row = m[r] * (rows[r] - pa[r]) + gain_free[r] + gain_a[r]
                row[cand[r]] = cost[r]
                j[r] = np.argmin(row)
                best[r] = row[j[r]]
        return hi, best, j

    for _sweep in range(10_000):
        changed = False
        # The cells before a window's first mover do not move.
        i = 0
        while i < c:
            hi, costs, targets = best_moves(i)
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
            h = _neg_xlogx(np.array((q[j] + q[r], q[j], q[r])))
            delta = float(region_cost[j] - region_cost[r]) + float(h[0] - h[1] - h[2])
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
    the result never costs more than it); each later restart draws a
    seeded uniform-random start as it begins, and only the best local
    optimum so far is kept.  Deterministic given ``seed``.
    """
    restarts = _check_int(restarts, "restarts", 1)
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    least = _least_penalties(problem.penalty)
    starts = (rng.integers(0, problem.n_candidates, problem.n_cells) if r else pointwise_assignment(problem)
              for r in range(restarts))
    finals = (deque(_descend(problem, init, least), maxlen=1).pop() for init in starts)
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
    interior_margin = _check_int(interior_margin, "interior_margin", 1)
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
    assigned_coords = _to_coords(problem.cand_sigma2[assign], problem.cand_mu[assign])
    dist = _coord_distances(problem, assigned_coords - ip_coords)

    diameters = np.zeros(problem.n_candidates)
    for r in np.unique(assign):
        # Each cell's differences to the whole region, a block of cells at a
        # time: a max of maxima is exact.
        pts = problem.cell_coords[assign == r]
        diameters[r] = max(
            _coord_distances(problem, pts[blk, None, :] - pts[None, :, :]).max()
            for blk in _row_blocks(pts.shape[0], pts.size)
        )

    idx = np.flatnonzero(interior)
    d_int = dist[idx]
    thresh = diameters[assign[idx]] + 1e-9
    frac = float((d_int <= thresh).mean()) if idx.size else float("nan")
    return OverlapReport(d_int, frac, int(idx.size), idx)


def _shift_vector(problem: DiscreteProblem, lattice_shift) -> np.ndarray:
    dim = problem.cfg.N + 1
    shift = _check_array(lattice_shift, "lattice shift", integer=True)
    if shift.ndim == 0:  # a step along log s alone
        vector = np.zeros(dim, dtype=np.int64)
        vector[0] = shift
        shift = vector
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
    stride = lat.shape[0] // lat.cand_shape[0]
    if problem.topology == "torus" and shift[0] % stride != 0:
        raise InvalidConfigError(
            f"shift {shift[0]} along the scale axis is incompatible with candidate stride {stride}"
        )

    # Cell x takes the candidate of cell x - shift, moved by the same step.
    src_assign = np.roll(assign.reshape(lat.shape), tuple(shift), axis=tuple(range(len(lat.shape)))).ravel()
    if problem.topology == "torus":
        new_assign = (src_assign + shift[0] // stride) % problem.n_candidates
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
                  "mean_coord": problem.cell_coords[0, 1],
                  "candidate_stride": problem.n_cells // problem.n_candidates}
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
    prior = PriorSpec(data["prior_p"])
    if recipe == "torus":
        return torus_problem(cfg, prior, **{key: data[key] for key in _RECIPE_KEYS["torus"]})
    candidates = data["cand_steps"] if recipe == "truncated" else (data["cand_sigma2"], data["cand_mu"])
    return _discretize(cfg, prior, data["box"], data["resolution"], candidates)


def codebook_to_text(codebook: Codebook) -> str:
    return render_json("codebook", {**dataclasses.asdict(codebook.cost), "assign": codebook.assign})


@_parsing("codebook")
def codebook_from_text(text: str, problem: DiscreteProblem) -> Codebook:
    data = _load_report(text, "codebook")
    cb = make_codebook(problem, data["assign"])
    for key, recomputed in dataclasses.asdict(cb.cost).items():
        value = _check_float(data[key], key)
        if abs(recomputed - value) > 1e-9:
            raise InvalidConfigError(f"stored {key} {value} does not match recomputed {recomputed}")
    return cb

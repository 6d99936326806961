"""Discrete codebook construction, search, audits and serialization."""

import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import mmap
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from nsmml import (
    InvalidConfigError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    code_penalty_R,
    stat_log_marginal,
)
from nsmml.codebook import (
    CandidateSpec,
    Codebook,
    CodebookCost,
    DiscreteProblem,
    SizeLimitError,
    _MAP_MIN,
    _TOP_K,
    _arc_stride,
    _count_vector_optima,
    _descend,
    _gather_rows,
    _least_penalties,
    _mapped_empty,
    _penalty_matrix,
    codebook_cost,
    codebook_from_text,
    codebook_to_text,
    codebook_transport,
    discretize,
    make_codebook,
    pointwise_assignment,
    problem_from_text,
    problem_to_text,
    region_mass_audit,
    smml_exhaustive,
    smml_ip_overlap,
    smml_local_search,
    torus_problem,
    transport_cost_bound,
)
from nsmml.cli import main
from nsmml.estimators import _from_coords, _to_coords
from nsmml.model import _BLOCK

from oracles import (
    closed_under_ring_rotation,
    descent_steps,
    oracle_brute_optima,
    oracle_descend,
    oracle_least_penalties,
    oracle_penalty_matrix,
    oracle_smml_optima,
    oracle_torus_penalty,
    record_blocks,
)

CFG = ProblemConfig(N=1, J=2)
SCALE_FREE = PriorSpec.scale_free(CFG)
WALLACE = PriorSpec.wallace()
BOX = [[-1.5, 1.5], [-1.5, 1.5]]


def synthetic_problem(mass, penalty):
    """Algorithmic test instance with explicit masses and penalties."""
    penalty = np.asarray(penalty, dtype=float)
    c, b = penalty.shape
    coords = np.zeros((c, 2))
    coords[:, 0] = np.arange(c) * 0.1
    return DiscreteProblem(
        cfg=CFG,
        prior=SCALE_FREE,
        mass=np.asarray(mass, dtype=float),
        cell_coords=coords,
        cand_sigma2=np.ones(b),
        cand_mu=np.linspace(-1, 1, b)[:, None],
        penalty=penalty,
    )


def _resident_pages(buf: np.ndarray) -> int:
    """How many pages of ``buf``, a page-aligned array, are resident (Linux ``mincore``)."""
    pages = -(-buf.nbytes // mmap.PAGESIZE)
    vec = (ctypes.c_ubyte * pages)()
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
    assert libc.mincore(buf.ctypes.data, buf.nbytes, vec) == 0, ctypes.get_errno()
    return sum(v & 1 for v in vec)


def malformed_variants(text):
    """Every truncation of a serialized report at a line end, and each of
    its lines with its value (number, string or null) made the string
    ``"x"``."""
    lines = text.splitlines()
    out = ["\n".join(lines[:k]) for k in range(len(lines))]
    for k, line in enumerate(lines):
        mangled, n = re.subn(r'(-?[0-9][0-9.eE+-]*|"[^"]*"|null)(,?)$', r'"x"\2', line)
        if n:
            out.append("\n".join(lines[:k] + [mangled] + lines[k + 1:]))
    return out


def edited(text, **fields):
    """A serialized report with some top-level fields replaced."""
    return json.dumps({**json.loads(text), **fields})


class TestDiscretize:
    def test_scale_free_masses_uniform(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 8)
        assert prob.n_cells == 64
        np.testing.assert_allclose(prob.mass, 1.0 / 64.0, atol=1e-15)

    def test_masses_match_marginal_density(self):
        # Cell-mass ratios equal ratios of the transformed scaled marginal
        # integrated per cell; the density route goes through
        # stat_log_marginal plus the (N+1) log s coordinate term.
        prob = discretize(CFG, WALLACE, BOX, [6, 2])

        def density(ls):
            stat = SufficientStat([0.0], math.exp(2.0 * ls))
            return math.exp(stat_log_marginal(stat, WALLACE, CFG) + 2.0 * ls)

        shape = prob.lattice.shape
        edges = np.linspace(BOX[0][0], BOX[0][1], shape[0] + 1)
        col = [quad(density, edges[i], edges[i + 1], epsabs=1e-13)[0] for i in range(shape[0])]
        got = prob.mass.reshape(shape)[:, 0]
        np.testing.assert_allclose(got / got[0], np.array(col) / col[0], rtol=1e-9)

    def test_wallace_masses_nonuniform_sum_one(self):
        prob = discretize(CFG, WALLACE, BOX, 8)
        assert np.ptp(prob.mass) > 0.0
        assert prob.mass.sum() == pytest.approx(1.0, abs=1e-14)

    def test_penalty_matches_scalar_route(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 4, CandidateSpec(extension=0.5))
        rng = np.random.default_rng(2)
        for _ in range(20):
            i = int(rng.integers(prob.n_cells))
            j = int(rng.integers(prob.n_candidates))
            scalar = code_penalty_R(prob.candidate_parameter(j), prob.cell_stat(i), SCALE_FREE, CFG)
            assert prob.penalty[i, j] == pytest.approx(scalar, abs=1e-11)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="_penalty_matrix expands |m-mu|^2 as |m|^2+|mu|^2-2m.mu, which cancels at "
        "large means; the direct difference moves the pinned perfbench/golden.json value "
        "codebook-local sf8x3.local_L, so the fix waits for a re-recorded golden",
    )
    def test_penalty_matches_scalar_route_at_large_means(self):
        cfg = ProblemConfig(N=2, J=2)
        rng = np.random.default_rng(7)
        cell_m = 1e4 + rng.uniform(-1.0, 1.0, (12, 2))
        cell_s2 = rng.uniform(0.5, 2.0, 12)
        cand_mu = 1e4 + rng.uniform(-1.0, 1.0, (9, 2))
        cand_sigma2 = rng.uniform(0.5, 2.0, 9)
        prior = PriorSpec.scale_free(cfg)
        penalty = _penalty_matrix(cell_s2, cell_m, cand_sigma2, cand_mu, prior, cfg)
        for i in range(cell_s2.shape[0]):
            for j in range(cand_sigma2.shape[0]):
                scalar = code_penalty_R(
                    Parameter(cand_sigma2[j], cand_mu[j]), SufficientStat(cell_m[i], cell_s2[i]), prior, cfg
                )
                assert penalty[i, j] == pytest.approx(scalar, rel=1e-11)

    def test_torus_penalty_matches_scalar_route(self):
        # Entry (i, j) is R of the representative pair at the wrapped offset
        # delta: stat (s = e^delta, m = u0 * s) against theta (sigma = 1, mu = u0).
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        tor = torus_problem(cfg, prior, 12, candidate_stride=2, mean_coord=0.7)
        period = tor.lattice.hi[0] - tor.lattice.lo[0]
        u0 = np.full(cfg.N, 0.7)
        theta = Parameter(1.0, u0)
        cand_coords = _to_coords(tor.cand_sigma2, tor.cand_mu)
        for i in range(tor.n_cells):
            for j in range(tor.n_candidates):
                delta = tor.cell_coords[i, 0] - cand_coords[j, 0]
                delta = (delta + 0.5 * period) % period - 0.5 * period
                s = math.exp(delta)
                scalar = code_penalty_R(theta, SufficientStat(u0 * s, s * s), prior, cfg)
                assert tor.penalty[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_candidate_lattice_alignment_and_extension(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 8, CandidateSpec(extension=1.0))
        assert prob.lattice.cand_shape == (24, 24)
        # cell centers occur among candidate coordinates
        cand = {tuple(np.round(c, 10)) for c in _to_coords(prob.cand_sigma2, prob.cand_mu)}
        for cc in prob.cell_coords:
            assert tuple(np.round(cc, 10)) in cand

    def test_empty_or_degenerate_grid_rejected(self):
        with pytest.raises(InvalidConfigError):
            discretize(CFG, SCALE_FREE, BOX, 1)
        with pytest.raises(InvalidConfigError, match=re.escape("resolution must have shape (2,), got (3,)")):
            discretize(CFG, SCALE_FREE, BOX, [4, 4, 4])
        with pytest.raises(InvalidConfigError):
            discretize(CFG, SCALE_FREE, [[0.0, 0.0], [-1.0, 1.0]], 4)


class TestPenaltyBuild:
    """The lattice builder fills the penalty matrix in place a block of
    whole rows (about ``_BLOCK`` entries, from ``model._row_blocks``) at a
    time, and the torus builder copies it from one strided view of its
    offset row: the bits and the float-range checks are those of a
    one-shot build, and the peak allocation stays near the matrix's own
    size.  The sweep's trials, the locality grid and the local search's
    least-penalty lists walk the same row blocks."""

    @pytest.mark.parametrize(
        "n, prior, resolution, spec",
        [
            (1, SCALE_FREE, 16, CandidateSpec()),
            (1, WALLACE, [13, 10], CandidateSpec()),
            (2, PriorSpec(2.0), 5, CandidateSpec()),
            (2, WALLACE, 6, CandidateSpec()),
            (3, PriorSpec(4.0), [3, 3, 3, 4], CandidateSpec()),
            # 74,088 candidates: one row per block, where a product split by
            # rows would round differently.
            (2, PriorSpec(3.0), 2, CandidateSpec(extension=10.0)),
            (1, WALLACE, [40, 30], CandidateSpec(parameters=[
                Parameter(s2, [mu]) for s2, mu in np.random.default_rng(16).uniform([0.1, -3], [10, 3], (3000, 2))
            ])),
        ],
    )
    def test_lattice_penalty_matches_one_shot_build(self, n, prior, resolution, spec):
        cfg = ProblemConfig(N=n, J=2)
        prob = discretize(cfg, prior, [[-1.5, 1.5]] * (n + 1), resolution, spec)
        step = max(1, _BLOCK // prob.n_candidates)
        # Several blocks, the last of them partial unless blocks are one row.
        assert prob.n_cells > step and (prob.n_cells % step != 0 or step == 1)
        want = oracle_penalty_matrix(prob.cell_s2, prob.cell_m, prob.cand_sigma2, prob.cand_mu, prior, cfg)
        assert np.array_equal(prob.penalty, want)

    @pytest.mark.parametrize(
        "n_cells, stride",
        # Every stride up to 5 that divides the ring, on odd and even rings
        # from 2 cells up, and the rings of 1024 and 2000 cells.
        [(n, stride) for n in (2, 3, 4, 7, 8, 12, 16, 20, 31, 64, 100, 400, 1000)
         for stride in range(1, 6) if n % stride == 0] + [(1024, 1), (2000, 4)],
    )
    def test_torus_penalty_matches_one_shot_build(self, n_cells, stride):
        for n_groups, mean in itertools.product((1, 2, 3), (0.0, 0.7, 1.3)):
            cfg = ProblemConfig(N=n_groups, J=2)
            prior = PriorSpec.scale_free(cfg)
            tor = torus_problem(cfg, prior, n_cells, -2.0, 2.0, mean, stride)
            want = oracle_torus_penalty(n_cells, stride, 4.0 / n_cells, np.full(n_groups, mean), prior, cfg)
            assert tor.penalty.shape == want.shape, (n_groups, mean)
            assert tor.penalty.tobytes() == want.tobytes(), (n_groups, mean)

    @pytest.mark.parametrize("one_row", [False, True])
    @pytest.mark.parametrize("n, res", [(1, 16), (2, 8)])
    def test_least_penalty_lists_match_one_shot_partition(self, monkeypatch, n, res, one_row):
        # Candidates lie on the cell lattice, so mirrored candidates tie; on
        # the 8^3 lattice some rows tie at the edge of the list itself.
        cfg = ProblemConfig(N=n, J=2)
        pen = discretize(cfg, PriorSpec.scale_free(cfg), [[-1.5, 1.5]] * (n + 1), res).penalty
        ranked = np.sort(pen, axis=1)
        assert np.all(np.any(ranked[:, 1:] == ranked[:, :-1], axis=1))
        assert n == 1 or np.any(ranked[:, _TOP_K - 1] == ranked[:, _TOP_K])
        if one_row:
            monkeypatch.setattr("nsmml.model._BLOCK", 1)
        blocks = record_blocks(monkeypatch, "nsmml.codebook")
        got, want = _least_penalties(pen), oracle_least_penalties(pen, _TOP_K)
        c, rows = pen.shape[0], 1 if one_row else _BLOCK // pen.shape[1]
        assert [blk.stop - blk.start for blk in blocks] == [min(rows, c - lo) for lo in range(0, c, rows)]
        assert len(blocks) > 1
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @staticmethod
    def traced_peak(build):
        # tracemalloc does not see an array on a mapping of its own, so the
        # bytes of every array the build maps count in full, as if all were
        # held at its peak.
        mapped = []

        def counted(rows, cols):
            out = _mapped_empty(rows, cols)
            if out.base is not None:  # not on numpy's allocator
                mapped.append(out.nbytes)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("nsmml.codebook._mapped_empty", counted)
            tracemalloc.start()
            try:
                problem = build()
                return problem, tracemalloc.get_traced_memory()[1] + sum(mapped)
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("n, res", [(1, 32), (2, 8)])
    def test_lattice_build_peak_near_penalty_size(self, n, res):
        # A one-shot build peaks at about three times the penalty's bytes;
        # of the allowed quarter above it, the finiteness check's boolean
        # mask takes an eighth.
        cfg = ProblemConfig(N=n, J=2)
        prior = PriorSpec.scale_free(cfg)
        box = [[-1.5, 1.5]] * (n + 1)
        prob, peak = self.traced_peak(lambda: discretize(cfg, prior, box, res))
        assert peak <= 1.25 * prob.penalty.nbytes
        loaded, peak = self.traced_peak(lambda: problem_from_text(problem_to_text(prob)))
        assert peak <= 1.25 * loaded.penalty.nbytes
        assert np.array_equal(loaded.penalty, prob.penalty)

    def test_torus_build_peak_near_penalty_size(self):
        tor, peak = self.traced_peak(lambda: torus_problem(CFG, SCALE_FREE, 1024))
        assert peak <= 1.25 * tor.penalty.nbytes

    @pytest.mark.parametrize(
        "build", [lambda: discretize(CFG, SCALE_FREE, BOX, 32), lambda: torus_problem(CFG, SCALE_FREE, 1024)]
    )
    def test_penalty_on_heap_without_private_mappings(self, monkeypatch, build):
        # Where mmap makes no private mappings (Windows), a penalty of 1 MiB
        # or more stays on numpy's allocator, with the same bits.
        prob = build()
        assert prob.penalty.nbytes >= _MAP_MIN
        assert (prob.penalty.base is not None) == hasattr(mmap, "MAP_PRIVATE")
        monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
        heap = build()
        assert heap.penalty.base is None
        assert heap.penalty.tobytes() == prob.penalty.tobytes()

    def test_overflow_in_last_row_block_is_malformed_input(self):
        # 512 cells against 512 candidates.  Only cells 454-511, at the top
        # of the log-scale axis, take s^2 / sigma^2 past e^709, and they all
        # fall in the last of four row blocks.
        step = _BLOCK // 512
        assert -(-512 // step) == 4 and 454 // step == 3
        box = [[-200.0, 200.0], [-1.5, 1.5]]
        message = "box and candidates take the tables out of the float range"
        spec = CandidateSpec(extension=0.0)
        text = edited(problem_to_text(discretize(CFG, SCALE_FREE, BOX, [256, 2], spec)), box=box)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match=re.escape(message)):
                discretize(CFG, SCALE_FREE, box, [256, 2], spec)
            with pytest.raises(InvalidConfigError, match=re.escape(message)):
                problem_from_text(text)


class TestCodebookCost:
    def test_single_candidate_zero_entropy(self):
        prob = synthetic_problem([0.25, 0.25, 0.5], [[1.0], [2.0], [3.0]])
        cost = codebook_cost(prob, np.zeros(3, dtype=int))
        assert cost.L_E == 0.0
        assert cost.L_P == pytest.approx(0.25 + 0.5 + 1.5)

    def test_even_split_entropy_log2(self):
        prob = synthetic_problem([0.5, 0.5], [[1.0, 5.0], [5.0, 1.0]])
        cost = codebook_cost(prob, np.array([0, 1]))
        assert cost.L_E == pytest.approx(math.log(2.0), abs=1e-14)
        assert cost.L == pytest.approx(cost.L_E + cost.L_P, abs=1e-12)

    def test_matches_handrolled_duplicate(self):
        rng = np.random.default_rng(5)
        mass = rng.dirichlet(np.ones(6))
        penalty = rng.uniform(0.0, 3.0, (6, 4))
        prob = synthetic_problem(mass, penalty)
        assign = rng.integers(0, 4, 6)

        l_p = sum(mass[i] * penalty[i, assign[i]] for i in range(6))
        region = {}
        for i in range(6):
            region[assign[i]] = region.get(assign[i], 0.0) + mass[i]
        l_e = -sum(q * math.log(q) for q in region.values())

        cost = codebook_cost(prob, assign)
        assert cost.L_P == pytest.approx(l_p, abs=1e-12)
        assert cost.L_E == pytest.approx(l_e, abs=1e-12)
        assert cost.L == pytest.approx(l_p + l_e, abs=1e-12)

    @pytest.mark.parametrize("assign", [[0.6] * 8, [0.0] * 8, [math.nan] * 8, ["1"] * 8, [True] * 8])
    def test_non_integer_assignment_rejected_by_name(self, assign):
        # A fractional index was truncated to candidate 0, a NaN escaped as
        # a bare ValueError and a string was parsed; each now names its type.
        prob = synthetic_problem(np.full(8, 1.0 / 8), np.ones((8, 2)))
        message = f"assignment must hold integers, not {np.asarray(assign).dtype}"
        book = Codebook(np.asarray(assign), CodebookCost(0.0, 0.0, 0.0))
        for call in (lambda: make_codebook(prob, assign), lambda: codebook_cost(prob, assign),
                     lambda: region_mass_audit(prob, book)):
            with pytest.raises(InvalidConfigError, match=re.escape(message)):
                call()
        for ints in (np.ones(8, dtype=np.uint8), np.ones(8, dtype=np.int32), [1] * 8):
            assert make_codebook(prob, ints).assign.dtype == np.int64

    def test_bool_inside_integer_list_rejected_by_name(self):
        # numpy reads [True, 0] as the integers [1, 0], so no dtype check
        # sees the bool: an assignment was accepted, a shift moved by one
        # cell and a problem file loaded.
        prob = discretize(CFG, SCALE_FREE, BOX, 4, CandidateSpec(extension=1.0))
        book = make_codebook(prob, pointwise_assignment(prob))
        with pytest.raises(InvalidConfigError, match="^assignment must hold integers, not bools$"):
            make_codebook(prob, [True] * 15 + [0])
        for shift in ([True, 0], [np.True_, 0]):
            with pytest.raises(InvalidConfigError, match="^lattice shift must hold integers, not bools$"):
                codebook_transport(prob, book, shift)
        with pytest.raises(InvalidConfigError, match="^cand_steps must hold integers, not bools$"):
            problem_from_text(edited(problem_to_text(prob), cand_steps=[True, 0]))
        assert codebook_transport(prob, book, [1, 0]).assign.shape == (16,)


class TestExhaustive:
    def test_single_cell_all_minimizers(self):
        prob = synthetic_problem([1.0], [[2.0, 1.5, 1.5]])
        optima = smml_exhaustive(prob)
        assert sorted(tuple(o.assign) for o in optima) == [(1,), (2,)]
        assert all(o.cost.L == pytest.approx(1.5) for o in optima)

    def test_two_cell_entropy_price(self):
        # Shared candidate wins when the specialist saving is below log 2,
        # loses when it is above.
        shared_wins = synthetic_problem(
            [0.5, 0.5], [[1.0, 0.7, 9.0], [1.0, 9.0, 0.7]]
        )
        optima = smml_exhaustive(shared_wins)
        assert [tuple(o.assign) for o in optima] == [(0, 0)]
        assert optima[0].cost.L == pytest.approx(1.0)

        split_wins = synthetic_problem(
            [0.5, 0.5], [[1.0, 0.1, 9.0], [1.0, 9.0, 0.1]]
        )
        optima = smml_exhaustive(split_wins)
        assert [tuple(o.assign) for o in optima] == [(1, 2)]
        assert optima[0].cost.L == pytest.approx(0.1 + math.log(2.0))

    def test_never_beats_pointwise_assignment(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mass = rng.dirichlet(np.ones(6))
            prob = synthetic_problem(mass, rng.uniform(0, 4, (6, 3)))
            best = smml_exhaustive(prob)[0]
            pw = codebook_cost(prob, pointwise_assignment(prob)).L
            assert best.cost.L <= pw + 1e-12

    def test_brute_and_dp_routes_agree(self):
        params = tuple(Parameter(s2, [mu]) for s2 in (0.5, 1.5) for mu in (-0.5, 0.5))
        problems = [
            discretize(CFG, SCALE_FREE, [[-0.8, 0.8], [-0.8, 0.8]], [3, 2],
                       CandidateSpec(parameters=params)),
            torus_problem(CFG, SCALE_FREE, 8, candidate_stride=2),
            torus_problem(CFG, SCALE_FREE, 10, candidate_stride=2),
        ]
        rng = np.random.default_rng(13)
        for k in range(8):
            c = int(rng.integers(3, 9))
            penalty = rng.uniform(0, 3, (c, int(rng.integers(2, 5))))
            if k % 2:  # a duplicated candidate makes tied optima
                penalty = np.concatenate([penalty, penalty[:, :1]], axis=1)
            problems.append(synthetic_problem(np.full(c, 1.0 / c), penalty))
        # Non-uniform masses: one mass class per cell, one per log-scale
        # row, and equal masses but for one entry an ulp away (two classes).
        for k in range(4):
            c = int(rng.integers(3, 8))
            penalty = rng.uniform(0, 3, (c, int(rng.integers(2, 5))))
            if k % 2:
                penalty = np.concatenate([penalty, penalty[:, :1]], axis=1)
            problems.append(synthetic_problem(rng.dirichlet(np.ones(c)), penalty))
        wallace = discretize(CFG, WALLACE, [[-0.8, 0.8], [-0.8, 0.8]], [3, 2],
                             CandidateSpec(parameters=params))
        assert np.unique(wallace.mass).size == 3
        problems.append(wallace)
        mass = np.full(8, 1.0 / 8)
        mass[3] = np.nextafter(mass[3], 1.0)
        ulp = synthetic_problem(mass, rng.uniform(0, 3, (8, 3)))
        assert np.unique(ulp.mass).size == 2
        problems.append(ulp)
        for prob in problems:
            brute = sorted(tuple(a) for a in oracle_brute_optima(prob))
            dp = [tuple(o.assign) for o in smml_exhaustive(prob)]
            assert brute == dp and brute

    def test_brute_force_matches_enumeration_oracle(self):
        # Every candidate is duplicated, so each optimum ties with the
        # codebooks that swap its regions onto the twin columns; the brute
        # force must return all of them.
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            mass = rng.dirichlet(np.ones(c))
            penalty = np.repeat(rng.uniform(0, 3, (c, int(rng.integers(2, 4)))), 2, axis=1)
            optima = [tuple(int(v) for v in o.assign)
                      for o in smml_exhaustive(synthetic_problem(mass, penalty))]
            assert optima == oracle_smml_optima(mass, penalty)
            assert len(optima) >= 2

    def test_size_limits_raise(self):
        rng = np.random.default_rng(7)
        mass = rng.dirichlet(np.ones(15))
        prob = synthetic_problem(mass, rng.uniform(0, 1, (15, 8)))
        with pytest.raises(SizeLimitError):
            smml_exhaustive(prob)

    def test_dp_code_overflow_raises_before_search(self, monkeypatch):
        # 12 candidates on 40 uniform cells: (40 + 1)^12 >= 2^63, so count
        # vectors do not fit an int64 code.  The check precedes all search.
        def no_search(*args, **kwargs):
            raise AssertionError("search started before the precondition check")

        # The search computes its completion-entropy bound before its first
        # layer.
        monkeypatch.setattr("nsmml.codebook._neg_xlogx", no_search)
        rng = np.random.default_rng(14)
        prob = synthetic_problem(np.full(40, 1.0 / 40), rng.uniform(0, 1, (40, 12)))
        with pytest.raises(SizeLimitError, match="int64"):
            smml_exhaustive(prob)

    def test_dp_state_limit_refuses_by_layer(self, monkeypatch, capsys):
        # Each route to the count-vector DP refuses a layer past the limit,
        # naming the limit and the layer; the CLI maps it to exit 1.
        monkeypatch.setattr("nsmml.codebook._DP_STATE_LIMIT", 100)
        message = "^count-vector DP exceeded 100 states at layer 3$"
        with pytest.raises(SizeLimitError, match=message):
            _count_vector_optima(torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2))
        ring12 = torus_problem(CFG, SCALE_FREE, 12, mean_coord=1.3)
        assert _arc_stride(ring12) is None
        with pytest.raises(SizeLimitError, match=message):
            smml_exhaustive(ring12)
        assert main(["smml", "--torus", "12", "--torus-mean", "1.3", "--solver", "exhaustive"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: count-vector DP exceeded 100 states at layer 3\n"

    def test_exact_search_runs_no_local_search(self, monkeypatch):
        # The DP bounds itself from its own cost table; the heuristic it is
        # the oracle for never runs.
        def no_heuristic(*args, **kwargs):
            raise AssertionError("the exact search ran the local search")

        monkeypatch.setattr("nsmml.codebook.smml_local_search", no_heuristic)
        monkeypatch.setattr("nsmml.codebook._descend", no_heuristic)
        ring16 = torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2)
        for solve in (smml_exhaustive, _count_vector_optima):  # the arc route, then the count-vector DP
            ring = solve(ring16)
            assert ["".join(map(str, o.assign)) for o in ring] == [
                "0004444444400000", "1111155555555111", "2222222666666662", "7333333337777777"
            ]
            assert all(o.cost.L == 2.1701103981812238 for o in ring)
        # Wallace masses: four mass classes, and an optimum of three regions.
        params = tuple(Parameter(math.exp(2 * ls), [u * math.exp(ls)]) for ls in (-1.2, 1.2) for u in (-1.2, 1.2))
        prob = discretize(CFG, WALLACE, BOX, [4, 4], CandidateSpec(parameters=params + (Parameter(1.0, [0.0]),)))
        assert np.unique(prob.mass).size == 4
        lattice = smml_exhaustive(prob)
        assert ["".join(map(str, o.assign)) for o in lattice] == ["4444444424432233"]
        assert lattice[0].cost.L == 3.7898899481891126

    def test_exact_bound_keeps_ring16_layers_small(self, monkeypatch):
        # The cost-table bound alone keeps about 245,000 of the 245,157 count
        # vectors of 16 cells on 8 candidates; the entropy term of the bound
        # and the bounding pass leave fewer than 10,000 per layer.
        monkeypatch.setattr("nsmml.codebook._DP_STATE_LIMIT", 10_000)
        ring = _count_vector_optima(torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2))
        assert len(ring) == 4
        assert all(o.cost.L == 2.1701103981812238 for o in ring)

    def test_too_many_optima_refused(self, monkeypatch):
        # Two regions, each on any of three copies of its column: nine tied
        # optima, more than the walk back may list under a cap of four.
        prob = synthetic_problem(np.full(6, 1.0 / 6), np.repeat([[0.0, 9.0]] * 3 + [[9.0, 0.0]] * 3, 3, axis=1))
        assert len(smml_exhaustive(prob)) == 9
        monkeypatch.setattr("nsmml.codebook._EMIT_CAP", 4)
        with pytest.raises(SizeLimitError, match="too many optimal codebooks to enumerate"):
            smml_exhaustive(prob)

    def test_torus20_solve_peak(self):
        # Children are pruned before they are concatenated, so no layer's
        # full expansion is built: the count-vector solve peaked at 65 MB
        # when it was.
        prob = torus_problem(CFG, SCALE_FREE, 20, candidate_stride=2)
        tracemalloc.start()
        try:
            optima = _count_vector_optima(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(optima) == 5 and optima[0].cost.L == 2.1609924954703033
        assert peak <= 50 * 2**20
        assert [o.assign.tolist() for o in smml_exhaustive(prob)] == [o.assign.tolist() for o in optima]

    def test_state_limit_counts_distinct_states(self, monkeypatch):
        # Layer 11 of this ring keeps 19,580 children that merge to 9,640
        # count vectors, its largest.  The children are merged whenever
        # they pass the limit, so a limit of 9,640 still solves, with the
        # bits of an unlimited solve, and 9,639 refuses at that layer.
        ring = torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2)
        want = _count_vector_optima(ring)
        monkeypatch.setattr("nsmml.codebook._DP_STATE_LIMIT", 9_640)
        got = _count_vector_optima(ring)
        bits = [(o.assign.tobytes(), o.cost.L.hex()) for o in want]
        assert [(o.assign.tobytes(), o.cost.L.hex()) for o in got] == bits
        monkeypatch.setattr("nsmml.codebook._DP_STATE_LIMIT", 9_639)
        with pytest.raises(SizeLimitError, match="^count-vector DP exceeded 9639 states at layer 11$"):
            _count_vector_optima(ring)

    def test_refused_layer_peak_bounded_by_state_limit(self, monkeypatch):
        # A layer merges its kept children whenever they pass the limit, so
        # it never holds more than the limit and one block of children:
        # with one candidate per block, a refused solve, earlier layers
        # included, peaks at 7.0 times the limit's 24 bytes (code, value
        # and entropy) per state.  Checked after the whole layer was built
        # and merged, the same solve peaked at 27.6 times.
        monkeypatch.setattr("nsmml.codebook._DP_STATE_LIMIT", 16_000)
        monkeypatch.setattr("nsmml.model._BLOCK", 1)
        ring = torus_problem(CFG, SCALE_FREE, 24, candidate_stride=2)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="^count-vector DP exceeded 16000 states at layer 7$"):
                _count_vector_optima(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 16_000 * 24

    @staticmethod
    def class_dp_problems():
        """The benchmark's three explicit-candidate lattices (a fixed
        candidate pattern with seeded jitter), a Wallace-prior lattice of
        four mass classes and an explicit-candidate instance under p = 1."""
        rng = np.random.default_rng(25)
        problems = []
        for shape, b in (((4, 4), 5), ((3, 5), 6), ((4, 4), 6)):
            log_sigma = np.repeat(np.linspace(-0.45, 0.45, (b + 1) // 2), 2)[:b] + rng.normal(0.0, 0.05, b)
            coord = np.tile([-0.35, 0.35], (b + 1) // 2)[:b] + rng.normal(0.0, 0.05, b)
            params = tuple(Parameter(math.exp(2 * ls), [u * math.exp(ls)]) for ls, u in zip(log_sigma, coord))
            problems.append(discretize(CFG, SCALE_FREE, [[-0.8, 0.8]] * 2, shape, CandidateSpec(parameters=params)))
        params = tuple(Parameter(math.exp(2 * ls), [u * math.exp(ls)]) for ls in (-1.2, 1.2) for u in (-1.2, 1.2))
        problems.append(discretize(CFG, WALLACE, BOX, [4, 4], CandidateSpec(parameters=params + (Parameter(1.0, [0.0]),))))
        params = tuple(Parameter(math.exp(rng.normal(0.2, 0.6)) ** 2, [rng.normal(0.0, 0.6)]) for _ in range(4))
        problems.append(discretize(ProblemConfig(N=1, J=3), PriorSpec(1.0), [[-0.4, 0.8], [-0.6, 0.6]], [3, 3],
                                   CandidateSpec(parameters=params)))
        assert [np.unique(p.mass).size for p in problems] == [1, 1, 1, 4, 3]
        return problems

    @pytest.mark.parametrize("block", [1, 2**40])
    def test_candidate_blocks_keep_optima_and_costs(self, monkeypatch, block):
        # Each DP step forms the children of a block of candidates at once
        # (model._row_blocks over candidates x parent states): one candidate
        # per block, or every candidate in one block, must give the optima
        # and cost bits of the default blocks.
        problems = self.class_dp_problems()
        want = [[(o.assign.tobytes(), o.cost.L.hex()) for o in _count_vector_optima(p)] for p in problems]
        monkeypatch.setattr("nsmml.model._BLOCK", block)
        for prob, optima in zip(problems, want):
            blocks = record_blocks(monkeypatch, "nsmml.codebook")
            assert [(o.assign.tobytes(), o.cost.L.hex()) for o in _count_vector_optima(prob)] == optima
            assert blocks
            assert {blk.stop - blk.start for blk in blocks} == {1 if block == 1 else prob.n_candidates}

    def test_wide_layer_peak_does_not_grow_with_candidates(self, monkeypatch):
        # At _BLOCK = 1024 the widest layers of the ring-16 DP (up to about
        # 9,600 count vectors) are wider than a block, so their blocks hold
        # one candidate each.  Six more candidates, each 100 nats above a
        # column of the ring, never survive the bound, so every layer stays
        # as it is and so must the peak: 2.26 MiB for both, where blocks of
        # every candidate at once peak at 6.1 and 10.1 MiB.  The ring's
        # lattice no longer fits the widened tables; the DP never reads it.
        ring = torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2)
        wide = dataclasses.replace(
            ring,
            penalty=np.concatenate([ring.penalty, ring.penalty[:, :6] + 100.0], axis=1),
            cand_sigma2=np.concatenate([ring.cand_sigma2, ring.cand_sigma2[:6]]),
            cand_mu=np.concatenate([ring.cand_mu, ring.cand_mu[:6]]),
            lattice=None,
        )
        monkeypatch.setattr("nsmml.model._BLOCK", 1024)
        peaks, results = [], []
        for prob in (ring, wide):
            blocks = record_blocks(monkeypatch, "nsmml.codebook")
            tracemalloc.start()
            try:
                results.append([(o.assign.tobytes(), o.cost.L.hex()) for o in _count_vector_optima(prob)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert any(blk.stop - blk.start == 1 for blk in blocks)
        assert results[0] == results[1] and len(results[0]) == 4
        assert peaks[1] <= 1.05 * peaks[0]

    def test_arc_route_verdicts(self, monkeypatch):
        # The benchmark's rings pass the precondition and never reach the
        # count-vector DP.  At mean 1.3 the penalty row is not convex across
        # the admissible offsets, and a "torus" whose penalty is not
        # circulant, or a circulant matrix on a truncated topology, is not a
        # ring.
        def no_count_vectors(*args, **kwargs):
            raise AssertionError("a ring that passes took the count-vector DP")

        for n, optima in ((12, 3), (14, 7), (16, 4)):
            ring = torus_problem(CFG, SCALE_FREE, n, candidate_stride=2)
            assert _arc_stride(ring) == 2
            with monkeypatch.context() as patch:
                patch.setattr("nsmml.codebook._count_vector_optima", no_count_vectors)
                assert len(smml_exhaustive(ring)) == optima
        ring = torus_problem(CFG, SCALE_FREE, 12, candidate_stride=2)
        penalty = ring.penalty.copy()
        penalty[5, 3] += 1e-9
        failing = [torus_problem(CFG, SCALE_FREE, 12, mean_coord=1.3, candidate_stride=s) for s in (1, 2)]
        failing += [dataclasses.replace(ring, penalty=penalty), dataclasses.replace(ring, topology="truncated")]

        def no_arcs(*args, **kwargs):
            raise AssertionError("a ring that fails took the arc route")

        monkeypatch.setattr("nsmml.codebook._arc_optima", no_arcs)
        for prob in failing:
            assert _arc_stride(prob) is None
            assert [o.assign.tolist() for o in smml_exhaustive(prob)] == [
                o.assign.tolist() for o in _count_vector_optima(prob)
            ]

    def test_torus24_ring_pinned(self):
        # The 4 optima and L, in hex candidate digits, were recorded once
        # from the count-vector DP (_count_vector_optima), a run of 16-18 s
        # and 1.15 GB that the arc route replaces.
        cfg = ProblemConfig(N=2, J=2)
        prob = torus_problem(cfg, PriorSpec.scale_free(cfg), 24, candidate_stride=2)
        tracemalloc.start()
        try:
            optima = smml_exhaustive(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ["".join(f"{a:x}" for a in o.assign) for o in optima] == [
            "000044444444888888880000", "111111555555559999999911",
            "2222222266666666aaaaaaaa", "bb3333333377777777bbbbbb",
        ]
        assert all(o.cost.L == 2.727997292044347 for o in optima)
        assert peak <= 2 * 2**20

    def test_tied_ring_lists_each_optimum_once(self):
        # 100 tied optima, each listed once by its least arc start.  The
        # sha256 over each assignment's bytes and L's hex was recorded from
        # the listing that closed a set of tuples under rotation, which
        # peaked at 61 MiB traced.
        cfg = ProblemConfig(N=50, J=2)
        prob = torus_problem(cfg, PriorSpec.scale_free(cfg), 1600, candidate_stride=2)
        tracemalloc.start()
        try:
            optima = smml_exhaustive(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        digest = hashlib.sha256()
        for o in optima:
            digest.update(o.assign.tobytes())
            digest.update(o.cost.L.hex().encode())
        assert len(optima) == 100
        assert digest.hexdigest() == "0a765db9fe0bc2a884f7063bc4ada1a5ed30f5af6c8f996451835f7b95d4ca0c"
        assert peak <= 16 * 2**20
        assert len({o.assign.tobytes() for o in optima}) == 100
        assert closed_under_ring_rotation([o.assign for o in optima], 2, prob.n_candidates)

    def test_tied_optima_share_one_array(self):
        # The 600 optima of this ring are views of the one array the arc
        # route filled, so the solve peaks at 1.63 times their assignment
        # bytes; copying each optimum off that array peaked at 2.10 times.
        cfg = ProblemConfig(N=100, J=2)
        prob = torus_problem(cfg, PriorSpec.scale_free(cfg), 1200, candidate_stride=2)
        tracemalloc.start()
        try:
            optima = smml_exhaustive(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        base = optima[0].assign.base
        assert base is not None and all(o.assign.base is base for o in optima)
        assert peak <= 1.8 * sum(o.assign.nbytes for o in optima)

    def test_arc_route_refuses_too_many_optima(self, monkeypatch):
        # The 7 optima of the 14-cell ring are one orbit of rotations, so a
        # cap below 7 is passed by the count while the optima are listed.
        ring = torus_problem(CFG, SCALE_FREE, 14, candidate_stride=2)
        assert len(smml_exhaustive(ring)) == 7
        monkeypatch.setattr("nsmml.codebook._EMIT_CAP", 6)
        with pytest.raises(SizeLimitError, match="^too many optimal codebooks to enumerate$"):
            smml_exhaustive(ring)

    @pytest.mark.parametrize("beam", [1, 10**6])
    def test_every_tied_optimum_survives_any_bounding_pass(self, monkeypatch, beam):
        # A one-state beam leaves the cost-table bound nearly alone; a beam
        # wider than any layer makes the bound the minimum itself, so tied
        # optima sit exactly at the pruning threshold.
        monkeypatch.setattr("nsmml.codebook._DP_BEAM", beam)
        rng = np.random.default_rng(15)
        for k in range(12):
            c = int(rng.integers(2, 6))
            mass = np.full(c, 1.0 / c) if k % 2 else rng.dirichlet(np.ones(c))
            penalty = np.repeat(rng.uniform(0, 3, (c, int(rng.integers(2, 4)))), 2, axis=1)
            optima = [tuple(int(v) for v in o.assign)
                      for o in smml_exhaustive(synthetic_problem(mass, penalty))]
            assert optima == oracle_smml_optima(mass, penalty)
            assert len(optima) >= 2


class TestLocalSearch:
    def test_deterministic_given_seed(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 8)
        a = smml_local_search(prob, restarts=3, seed=11)
        b = smml_local_search(prob, restarts=3, seed=11)
        np.testing.assert_array_equal(a.assign, b.assign)
        assert a.cost.L == b.cost.L

    def test_incremental_bookkeeping_matches_recomputation(self):
        rng = np.random.default_rng(8)
        mass = rng.dirichlet(np.ones(10))
        prob = synthetic_problem(mass, rng.uniform(0, 4, (10, 5)))
        init = rng.integers(0, 5, 10)
        steps = descent_steps(prob, _descend(prob, init, _least_penalties(prob.penalty)))
        assert len(steps) > 1, "descent accepted no moves"
        for incremental, recomputed, _ in steps:
            assert incremental == pytest.approx(recomputed, abs=1e-9)

    def test_monotone_descent(self):
        rng = np.random.default_rng(9)
        mass = rng.dirichlet(np.ones(12))
        prob = synthetic_problem(mass, rng.uniform(0, 4, (12, 4)))
        init = rng.integers(0, 4, 12)
        levels = [level for level, _ in _descend(prob, init, _least_penalties(prob.penalty))]
        assert all(b < a for a, b in zip(levels, levels[1:]))

    def test_equal_cost_used_and_unused_candidates_take_lower_index(self):
        # Candidates 0 and 1 share a penalty column.  Candidate 1 holds only
        # a cell of mass 1e-40, too little to change the entropy gain of
        # joining it, so moving cell 0 to either costs the same bits; the
        # unused candidate 0 has the lower index and wins, as in a full scan.
        prob = synthetic_problem([0.5, 1e-40, 0.5], [[0.0, 0.0, 5.0], [0.0, 0.0, 0.0], [5.0, 5.0, 0.0]])
        init = np.array([2, 1, 2])
        steps = descent_steps(prob, _descend(prob, init, _least_penalties(prob.penalty)))
        want = descent_steps(prob, oracle_descend(prob, init))
        assert steps[-1][2].tolist() == want[-1][2].tolist() == [0, 0, 2]
        assert [level.hex() for level, _, _ in steps] == [level.hex() for level, _, _ in want]

    @pytest.mark.parametrize("partial", [False, True])
    def test_descent_follows_full_scan_on_both_column_layouts(self, partial):
        # Every move cost has one formula.  With at most _TOP_K candidates
        # the least-penalty list holds them all and is the only column set;
        # with more, the used candidates sit beside each cell's list.
        prob = (discretize(CFG, SCALE_FREE, BOX, 8) if partial else
                torus_problem(CFG, SCALE_FREE, 24, candidate_stride=2))
        assert (prob.n_candidates > _TOP_K) == partial
        least = _least_penalties(prob.penalty)
        rng = np.random.default_rng(26)
        for init in (pointwise_assignment(prob), rng.integers(0, prob.n_candidates, prob.n_cells)):
            steps = descent_steps(prob, _descend(prob, init, least))
            want = descent_steps(prob, oracle_descend(prob, init))
            assert len(steps) > 1
            assert [level.hex() for level, _, _ in steps] == [level.hex() for level, _, _ in want]
            assert [a.tobytes() for _, _, a in steps] == [a.tobytes() for _, _, a in want]

    def test_moved_cell_waits_for_next_sweep(self):
        # Each sweep visits every cell once, in order.  Revisiting a cell
        # straight after its move would here find a second move whose cost
        # rounds to just below zero, and leave the full scan's trajectory.
        prob = synthetic_problem([0.03, 0.29, 0.68], [[1.4, 1.9, 1.0], [1.7, 1.1, 0.2], [0.3, 1.8, 0.3]])
        init = np.array([0, 0, 1])
        steps = descent_steps(prob, _descend(prob, init, _least_penalties(prob.penalty)))
        want = descent_steps(prob, oracle_descend(prob, init))
        assert [level.hex() for level, _, _ in steps] == [level.hex() for level, _, _ in want]

    @pytest.mark.parametrize("restarts", [1, 2, 3, 4, 5])
    def test_result_is_first_best_of_individual_descents(self, restarts):
        # Starts are drawn one at a time from the seeded stream, and the
        # earliest of equally good local optima wins.
        prob = discretize(CFG, SCALE_FREE, BOX, 6)
        rng = np.random.default_rng(3)
        starts = [pointwise_assignment(prob)]
        starts += [rng.integers(0, prob.n_candidates, prob.n_cells) for _ in range(restarts - 1)]
        least = _least_penalties(prob.penalty)
        finals = [list(_descend(prob, init, least))[-1] for init in starts]
        _, assign = finals[[f[0] for f in finals].index(min(f[0] for f in finals))]
        book = smml_local_search(prob, restarts=restarts, seed=3)
        assert book.assign.tobytes() == assign.tobytes()
        assert book.cost == make_codebook(prob, assign).cost

    def test_row_buffer_holds_only_the_largest_region(self, monkeypatch):
        # From a random start the regions grow, and the rows written to the
        # descent's one buffer grow with them: only the leading rows of the
        # largest region so far, so only their pages become resident.  The
        # moves keep the full scan's bits.
        prob = discretize(CFG, SCALE_FREE, BOX, 8)
        init = np.random.default_rng(5).integers(0, prob.n_candidates, prob.n_cells)
        buffers, sizes = [], []

        def made(rows, cols):
            buffers.append(_mapped_empty(rows, cols))
            return buffers[-1]

        def recorded(pen, cells, buf):
            assert buf is buffers[-1]
            sizes.append(cells.shape[0])
            return _gather_rows(pen, cells, buf)

        monkeypatch.setattr("nsmml.codebook._mapped_empty", made)
        monkeypatch.setattr("nsmml.codebook._MAP_MIN", 0)  # map this 295 kB buffer too
        monkeypatch.setattr("nsmml.codebook._gather_rows", recorded)
        steps = descent_steps(prob, _descend(prob, init, _least_penalties(prob.penalty)))
        want = descent_steps(prob, oracle_descend(prob, init))
        (buf,) = buffers
        held = np.maximum.accumulate(sizes)
        assert buf.shape == prob.penalty.shape
        assert np.unique(held).shape[0] > 2
        if sys.platform.startswith("linux"):  # first: reading the rows past them maps their pages
            assert _resident_pages(buf) == -(-int(held[-1]) * buf.strides[0] // mmap.PAGESIZE)
        if hasattr(mmap, "MAP_PRIVATE"):
            assert not buf[held[-1] :].any()  # never written
        assert [level.hex() for level, _, _ in steps] == [level.hex() for level, _, _ in want]
        assert [a.tobytes() for _, _, a in steps] == [a.tobytes() for _, _, a in want]

    def test_least_penalty_lists_built_once_per_search(self, monkeypatch):
        calls = []

        def counted(pen):
            calls.append(pen.shape)
            return _least_penalties(pen)

        monkeypatch.setattr("nsmml.codebook._least_penalties", counted)
        smml_local_search(discretize(CFG, SCALE_FREE, BOX, 8), restarts=4)
        assert calls == [(64, 576)]

    def test_bounded_by_pointwise_cost(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 8)
        book = smml_local_search(prob, restarts=1, seed=0)
        pw = codebook_cost(prob, pointwise_assignment(prob)).L
        assert book.cost.L <= pw + 1e-12


class TestRegionMassAudit:
    def test_single_cell_mass_one(self):
        prob = synthetic_problem([1.0], [[0.5, 0.2]])
        book = make_codebook(prob, [1])
        audit = region_mass_audit(prob, book)
        assert audit.max_region_mass == 1.0
        assert list(audit.histogram) == [1.0]

    def test_equal_penalties_collapse_to_one_region(self):
        prob = synthetic_problem([0.25] * 4, np.full((4, 3), 2.0))
        optima = smml_exhaustive(prob)
        assert all(len(set(o.assign)) == 1 for o in optima)
        assert all(region_mass_audit(prob, o).max_region_mass == 1.0 for o in optima)

    def test_resolution_refinement_stability_and_ceiling(self):
        # Doubling resolution at fixed box leaves the recorded maximum
        # region mass stable within +-20%; the audit corpus also fixes the
        # empirical mass ceiling asserted on every optimized codebook.
        recorded = {}
        all_masses = []
        for res in (8, 16):
            prob = discretize(CFG, SCALE_FREE, BOX, res)
            seeds = [smml_local_search(prob, restarts=4, seed=s) for s in range(10)]
            masses = [region_mass_audit(prob, b).max_region_mass for b in seeds]
            recorded[res] = max(masses)
            all_masses.extend(masses)
        ratio = recorded[16] / recorded[8]
        assert 0.8 <= ratio <= 1.2
        # empirical ceiling from this audit corpus (largest observed 0.62)
        assert max(all_masses) <= 0.75


class TestOverlap:
    def test_single_candidate_distance(self):
        params = (Parameter(1.0, [0.0]),)
        prob = discretize(CFG, SCALE_FREE, [[-1.0, 1.0], [-1.0, 1.0]], 6,
                          CandidateSpec(parameters=params))
        book = make_codebook(prob, np.zeros(prob.n_cells, dtype=int))
        rep = smml_ip_overlap(prob, book, interior_margin=1)
        # IP estimate in these coordinates is the cell center itself.
        shape = prob.lattice.shape
        idx = rep.interior_cells
        expected = np.linalg.norm(prob.cell_coords[idx] - _to_coords(prob.cand_sigma2[0], prob.cand_mu[0]), axis=1)
        np.testing.assert_allclose(rep.distances, expected, atol=1e-10)

    def test_benchmark_fraction_high(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 16)
        book = smml_local_search(prob, restarts=8, seed=0)
        rep = smml_ip_overlap(prob, book, interior_margin=2)
        assert rep.n_interior == 144
        assert rep.fraction_within_one_region_diameter >= 0.9

    def test_transport_leaves_distances_unchanged(self):
        tor = torus_problem(CFG, SCALE_FREE, 12, candidate_stride=2)
        book = smml_local_search(tor, restarts=4, seed=3)
        rep = smml_ip_overlap(tor, book, interior_margin=1)
        moved = codebook_transport(tor, book, 4)
        rep2 = smml_ip_overlap(tor, moved, interior_margin=1)
        np.testing.assert_allclose(np.sort(rep.distances), np.sort(rep2.distances), atol=1e-10)

    def test_one_region_diameter_in_bounded_blocks(self):
        # One region of 1024 cells.  Its pairwise-difference tensor alone
        # takes 16.8 MB, and the report peaked at 50 MB when it was built
        # whole; a block of rows at a time keeps the peak under 4 MB.
        prob = discretize(CFG, PriorSpec.wallace(), BOX, 32, CandidateSpec(extension=0.5))
        book = make_codebook(prob, np.zeros(prob.n_cells, dtype=int))
        tracemalloc.start()
        try:
            rep = smml_ip_overlap(prob, book, interior_margin=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # The diameter of a rectangular lattice joins opposite corners.
        diameter = np.linalg.norm(prob.cell_coords[-1] - prob.cell_coords[0])
        assert rep.fraction_within_one_region_diameter == np.mean(rep.distances <= diameter + 1e-9)
        assert 0.0 < rep.fraction_within_one_region_diameter < 1.0


class TestTransport:
    def test_zero_shift_identity(self):
        tor = torus_problem(CFG, SCALE_FREE, 8)
        book = smml_local_search(tor, restarts=2, seed=1)
        moved = codebook_transport(tor, book, 0)
        np.testing.assert_array_equal(moved.assign, book.assign)
        assert moved.cost.L == book.cost.L

    def test_torus_shift_exactly_cost_preserving(self):
        tor = torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2)
        book = smml_local_search(tor, restarts=3, seed=2)
        for shift in range(0, 16, 2):
            moved = codebook_transport(tor, book, shift)
            assert abs(moved.cost.L - book.cost.L) < 1e-12
            assert transport_cost_bound(tor, shift) == 0.0

    def test_torus_incompatible_stride_rejected(self):
        tor = torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2)
        book = smml_local_search(tor, restarts=1, seed=0)
        with pytest.raises(InvalidConfigError):
            codebook_transport(tor, book, 3)

    def test_truncated_shift_within_boundary_bound(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 8, CandidateSpec(extension=1.0))
        book = smml_local_search(prob, restarts=4, seed=0)
        shift = np.array([1, 0])
        moved = codebook_transport(prob, book, shift)
        bound = transport_cost_bound(prob, shift)
        assert abs(moved.cost.L - book.cost.L) <= bound

    def test_scale_free_log_s_step_is_a_penalty_symmetry(self):
        # (sigma, mu) -> (a sigma, a mu + b) moves log s by log a, so one
        # log s step of cells and candidates keeps every entry up to
        # rounding under the scale-free prior; a Wallace-prior step and a
        # mean-axis step are no symmetry.
        def step_change(prior, axis):
            prob = discretize(CFG, prior, BOX, 16, CandidateSpec(extension=0.5))
            # Axes: cell log s, cell u, candidate log s, candidate u.
            pen = prob.penalty.reshape(prob.lattice.shape + prob.lattice.cand_shape)
            src = np.moveaxis(pen, (axis, axis + 2), (0, 1))[:-1, :-1]
            dst = np.moveaxis(pen, (axis, axis + 2), (0, 1))[1:, 1:]
            return np.abs(dst - src) / np.abs(src)

        assert step_change(SCALE_FREE, 0).max() <= 1e-14
        assert step_change(WALLACE, 0).max() > 1e-3
        assert step_change(SCALE_FREE, 1).max() > 1e-3

    def test_truncated_shift_outside_extension_rejected(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 4, CandidateSpec(extension=0.0))
        book = make_codebook(prob, pointwise_assignment(prob))
        with pytest.raises(InvalidConfigError):
            codebook_transport(prob, book, np.array([1, 0]))


class TestSerialization:
    def test_problem_roundtrip_lattice(self):
        prob = discretize(CFG, WALLACE, BOX, 4)
        back = problem_from_text(problem_to_text(prob))
        np.testing.assert_array_equal(back.mass, prob.mass)
        np.testing.assert_array_equal(back.penalty, prob.penalty)
        # Costs on a reloaded problem are bit-identical, not merely close.
        for prior in (WALLACE, SCALE_FREE):
            prob = discretize(CFG, prior, BOX, 12)
            back = problem_from_text(problem_to_text(prob))
            assert back.cell_coords.tobytes() == prob.cell_coords.tobytes()
            assign = pointwise_assignment(prob)
            assert codebook_cost(back, assign) == codebook_cost(prob, assign)
        assert back.lattice.shape == prob.lattice.shape
        assert back.topology == prob.topology

    def test_problem_roundtrip_torus(self):
        tor = torus_problem(CFG, SCALE_FREE, 12, candidate_stride=3)
        back = problem_from_text(problem_to_text(tor))
        np.testing.assert_array_equal(back.penalty, tor.penalty)
        assert back.lattice.shape[0] // back.lattice.cand_shape[0] == 3
        # Stored coordinates: re-deriving log s from s2 moved offsets near a
        # half period to the other side of the circle.
        for cells, stride, mean in ((16, 2, 0.0), (100, 2, 0.0), (200, 4, 1.3)):
            tor = torus_problem(CFG, SCALE_FREE, cells, candidate_stride=stride, mean_coord=mean)
            back = problem_from_text(problem_to_text(tor))
            for name in ("cell_coords", "cand_sigma2", "cand_mu", "penalty"):
                assert getattr(back, name).tobytes() == getattr(tor, name).tobytes(), name

    def test_problem_roundtrip_explicit_candidates(self):
        params = tuple(Parameter(s2, [0.0]) for s2 in (0.5, 2.0))
        prob = discretize(CFG, SCALE_FREE, BOX, 3, CandidateSpec(parameters=params))
        back = problem_from_text(problem_to_text(prob))
        np.testing.assert_array_equal(back.penalty, prob.penalty)
        assert back.lattice.cand_shape is None

    def test_codebook_roundtrip_and_integrity(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 4)
        book = smml_local_search(prob, restarts=2, seed=5)
        text = codebook_to_text(book)
        back = codebook_from_text(text, prob)
        np.testing.assert_array_equal(back.assign, book.assign)
        assert back.cost.L == pytest.approx(book.cost.L, abs=1e-12)
        with pytest.raises(InvalidConfigError):
            codebook_from_text(edited(text, assign=[0, *book.assign.tolist()]), prob)

    def test_malformed_problem_text_rejected(self):
        text = problem_to_text(torus_problem(CFG, SCALE_FREE, 4, candidate_stride=2))
        bad = malformed_variants(text) + [
            "\n\n",
            codebook_to_text(Codebook(np.zeros(4, dtype=int), CodebookCost(0.0, 0.0, 0.0))),
            edited(text, cand_coords=[[0.0, 0.0], [0.5, 0.0]]),
            # the line format that preceded the JSON reports
            "nsmml/discrete-problem 1\nN 1\nJ 2\nprior_p 2.0\ntopology torus\nlattice 0\n",
        ]
        for t in bad:
            with pytest.raises(InvalidConfigError):
                problem_from_text(t)
        with pytest.raises(InvalidConfigError, match="discrete-problem"):
            problem_from_text(bad[-1])

    def test_malformed_problem_geometry_rejected(self):
        text = problem_to_text(discretize(CFG, SCALE_FREE, BOX, 2, CandidateSpec(extension=0.5)))
        params = tuple(Parameter(s2, [0.0]) for s2 in (0.5, 2.0))
        explicit = problem_to_text(discretize(CFG, SCALE_FREE, BOX, 2, CandidateSpec(parameters=params)))
        torus = problem_to_text(torus_problem(CFG, SCALE_FREE, 4, candidate_stride=2))
        for t in (
            edited(text, box=[[-1.5, 1.5]]),
            edited(text, box=[[-1.5, 1.5, 0.0], [-1.5, 1.5, 0.0]]),
            edited(text, box=[[-1.5, 1.5], [-1.5, float("inf")]]),
            edited(text, box=[[1.5, -1.5], [-1.5, 1.5]]),
            edited(text, resolution=[2.5, 2]),
            edited(text, resolution=[-2, -2]),
            edited(text, resolution=[2, 2, 1]),
            edited(text, cand_steps=[-1, 0]),
            edited(text, cand_steps=[1.0, 1.0]),
            edited(text, cand_steps=[1]),
            edited(text, N=2),
            edited(text, N=10**400),
            edited(explicit, cand_sigma2=[]),
            edited(explicit, cand_mu=[[0.0]]),
            edited(explicit, cand_mu=[[0.0], [float("inf")]]),
            edited(torus, candidate_stride=3),
            edited(torus, candidate_stride=0),
            edited(torus, candidate_stride=2.5),
            edited(torus, n_cells=[4, 4]),
            edited(torus, N=2),
            edited(explicit, topology="explicit"),
        ):
            with pytest.raises(InvalidConfigError):
                problem_from_text(t)

    def test_nonpositive_variance_table_named_without_warning(self):
        # Explicit candidate tables are checked before the penalty build, so
        # the log of a negative variance never runs.
        params = tuple(Parameter(s2, [0.0]) for s2 in (0.5, 2.0))
        text = problem_to_text(discretize(CFG, SCALE_FREE, BOX, 3, CandidateSpec(parameters=params)))
        for value in (-1.0, 0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidConfigError, match="^cand_sigma2 must be > 0$"):
                    problem_from_text(edited(text, cand_sigma2=[value, 2.0]))

    def test_torus_report_cannot_move_a_candidate_off_the_lattice(self):
        # A torus report holds the ring, not its candidates, so a candidate
        # moved a third of a cell (which would break the transport symmetry)
        # has no field to live in.
        tor = torus_problem(CFG, SCALE_FREE, 18, candidate_stride=3)
        text = problem_to_text(tor)
        moved = tor.cell_coords[::3].copy()
        moved[0, 0] += (tor.lattice.hi[0] - tor.lattice.lo[0]) / 18 / 3
        cand_sigma2, cand_mu = np.exp(2.0 * moved[:, 0]), moved[:, 1:] * np.exp(moved[:, :1])
        for fields in (
            {"cand_coords": moved.tolist()},
            {"cand_sigma2": cand_sigma2.tolist(), "cand_mu": cand_mu.tolist()},
            {"cand_steps": [0, 0]},
            {"box": [[-2.0, 2.0], [-0.5, 0.5]]},
        ):
            with pytest.raises(InvalidConfigError, match="unknown keys"):
                problem_from_text(edited(text, **fields))
        back = problem_from_text(text)
        cand_sigma2, cand_mu = _from_coords(back.cell_coords[::3])
        assert back.cand_sigma2.tobytes() == cand_sigma2.tobytes()
        assert back.cand_mu.tobytes() == cand_mu.tobytes()

    def test_malformed_codebook_text_rejected(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 3)
        text = codebook_to_text(make_codebook(prob, pointwise_assignment(prob)))
        cost = json.loads(text)
        bad = malformed_variants(text) + [
            problem_to_text(prob),
            edited(text, L=cost["L"] + 1e-6),
            edited(text, L_E=float("nan")),
            edited(text, assign=cost["assign"][:-1]),
            edited(text, assign=[a + 0.5 for a in cost["assign"]]),
            "nsmml/codebook 1\ncells 9\n",
        ]
        for t in bad:
            with pytest.raises(InvalidConfigError):
                codebook_from_text(t, prob)

    def test_cost_identity_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            mass = rng.dirichlet(np.ones(7))
            prob = synthetic_problem(mass, rng.uniform(0, 5, (7, 3)))
            cost = codebook_cost(prob, rng.integers(0, 3, 7))
            assert cost.L == pytest.approx(cost.L_E + cost.L_P, abs=1e-12)


class TestRefusals:
    """Each refusal of a malformed call, by class and message."""

    def test_malformed_calls_refused_by_name(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 4)
        book = make_codebook(prob, pointwise_assignment(prob))
        bare = dataclasses.replace(prob, lattice=None)
        explicit = discretize(
            CFG, SCALE_FREE, BOX, 4, CandidateSpec(parameters=[Parameter(1.0, [0.0]), Parameter(2.0, [0.5])])
        )
        too_high, negative = book.assign.copy(), book.assign.copy()
        too_high[0], negative[0] = prob.n_candidates, -1
        for call, message in (
            (lambda: dataclasses.replace(prob, mass=prob.mass * 2), "cell masses must sum to 1 within 1e-12"),
            (lambda: dataclasses.replace(prob, topology="sphere"), "unknown topology 'sphere'"),
            (lambda: codebook_cost(prob, too_high), "assignment indexes a candidate that does not exist"),
            (lambda: codebook_cost(prob, negative), "assignment indexes a candidate that does not exist"),
            (lambda: smml_ip_overlap(bare, book), "overlap report requires a lattice-discretized problem"),
            (lambda: transport_cost_bound(bare, 1), "transport bound requires a lattice problem"),
            (lambda: problem_to_text(bare), "only a problem built by discretize or torus_problem can be saved"),
            (
                # Saved as its builder's recipe, it would reload with the old penalty.
                lambda: problem_to_text(dataclasses.replace(prob, penalty=prob.penalty + 1.0)),
                "only a problem built by discretize or torus_problem can be saved",
            ),
            (lambda: codebook_transport(prob, book, [1, 0, 0]), "lattice shift must have 2 components"),
            (
                lambda: codebook_transport(explicit, make_codebook(explicit, pointwise_assignment(explicit)), 1),
                "transport requires lattice cells and lattice candidates",
            ),
        ):
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                call()

    def test_mismatched_lattice_refused_by_name(self):
        # A lattice that does not fit the tables once let plain ValueErrors
        # out of the audits, and a save-and-load returned a smaller problem.
        prob = discretize(CFG, SCALE_FREE, BOX, 4)
        axes = "lattice lo, hi and shape must have 2 entries"
        cands = "lattice cand_shape {} does not hold the 144 candidates"
        for problem, change, message in (
            (prob, {"lo": np.zeros(3)}, axes),
            (prob, {"hi": np.zeros(1)}, axes),
            (prob, {"shape": (4, 4, 1)}, axes),
            (prob, {"shape": (3, 3)}, "lattice shape (3, 3) does not hold the 16 cells"),
            (prob, {"cand_shape": (144,)}, cands.format((144,))),
            (prob, {"cand_shape": (12, 11)}, cands.format((12, 11))),
        ):
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(problem, lattice=dataclasses.replace(problem.lattice, **change))
        # A torus stride is shape[0] // cand_shape[0], so 6 candidates cannot
        # share a ring of 16 cells.
        ring = torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2)
        with pytest.raises(InvalidConfigError, match=r"^lattice cand_shape\[0\] 6 does not divide shape\[0\] 16$"):
            dataclasses.replace(
                ring, cand_sigma2=ring.cand_sigma2[:6], cand_mu=ring.cand_mu[:6], penalty=ring.penalty[:, :6],
                lattice=dataclasses.replace(ring.lattice, cand_shape=(6, 1)),
            )

    def test_cell_coords_past_the_float_range_refused_by_name(self):
        # Cells are stored as coordinates only: a log s whose s^2 underflows
        # to 0 or overflows is refused as the caller's cell_coords, not as a
        # derived table the caller never passed.
        prob = discretize(CFG, SCALE_FREE, BOX, 4)
        message = "^cell_coords take the cell statistics out of the float range$"
        for log_s in (-1000.0, 1000.0):
            coords = prob.cell_coords.copy()
            coords[3, 0] = log_s
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidConfigError, match=message):
                    dataclasses.replace(prob, cell_coords=coords)

    def test_torus_guard_covers_its_checks(self):
        # An N past the float range is compared with the prior's exponent
        # exactly, with no float of N formed, so the builder refuses the
        # prior by name rather than reporting an overflow.
        with pytest.raises(InvalidConfigError, match=r"^torus instances require the scale-free prior \(uniform masses\)$"):
            torus_problem(ProblemConfig(N=10**400, J=2), WALLACE, 4)

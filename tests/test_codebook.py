"""Discrete codebook construction, search, audits and serialization."""

import json
import math
import re
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
    _BLOCK,
    _descend,
    _least_penalties,
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

from oracles import (
    descent_steps,
    oracle_brute_optima,
    oracle_descend,
    oracle_penalty_matrix,
    oracle_smml_optima,
    oracle_torus_penalty,
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
    s = np.exp(coords[:, 0])
    return DiscreteProblem(
        cfg=CFG,
        prior=SCALE_FREE,
        mass=np.asarray(mass, dtype=float),
        cell_s2=s**2,
        cell_m=coords[:, 1:] * s[:, None],
        cell_coords=coords,
        cand_sigma2=np.ones(b),
        cand_mu=np.linspace(-1, 1, b)[:, None],
        cand_coords=np.concatenate([np.zeros((b, 1)), np.linspace(-1, 1, b)[:, None]], axis=1),
        penalty=penalty,
    )


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
        for i in range(tor.n_cells):
            for j in range(tor.n_candidates):
                delta = tor.cell_coords[i, 0] - tor.cand_coords[j, 0]
                delta = (delta + 0.5 * period) % period - 0.5 * period
                s = math.exp(delta)
                scalar = code_penalty_R(theta, SufficientStat(u0 * s, s * s), prior, cfg)
                assert tor.penalty[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_candidate_lattice_alignment_and_extension(self):
        prob = discretize(CFG, SCALE_FREE, BOX, 8, CandidateSpec(extension=1.0))
        assert prob.lattice.cand_shape == (24, 24)
        # cell centers occur among candidate coordinates
        cand = {tuple(np.round(c, 10)) for c in prob.cand_coords}
        for cc in prob.cell_coords:
            assert tuple(np.round(cc, 10)) in cand

    def test_empty_or_degenerate_grid_rejected(self):
        with pytest.raises(InvalidConfigError):
            discretize(CFG, SCALE_FREE, BOX, 1)
        with pytest.raises(InvalidConfigError):
            discretize(CFG, SCALE_FREE, [[0.0, 0.0], [-1.0, 1.0]], 4)


class TestPenaltyBuild:
    """The builders fill the penalty matrix in place a block of whole rows
    (about ``_BLOCK`` entries) at a time: the bits and the float-range
    checks are those of a one-shot build, and the peak allocation stays
    near the matrix's own size."""

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

    @pytest.mark.parametrize("n_cells, stride", [(1024, 1), (1000, 2), (2000, 4)])
    def test_torus_penalty_matches_one_shot_build(self, n_cells, stride):
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        tor = torus_problem(cfg, prior, n_cells, -2.0, 2.0, 0.7, stride)
        assert tor.n_cells > _BLOCK // tor.n_candidates
        want = oracle_torus_penalty(n_cells, stride, 4.0 / n_cells, np.full(2, 0.7), prior, cfg)
        assert np.array_equal(tor.penalty, want)

    @staticmethod
    def traced_peak(build):
        tracemalloc.start()
        try:
            problem = build()
            return problem, tracemalloc.get_traced_memory()[1]
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

    def test_overflow_in_last_row_block_is_malformed_input(self):
        # 512 cells against 512 candidates.  Only cells 454-511, at the top
        # of the log-scale axis, take s^2 / sigma^2 past e^709, and they all
        # fall in the last of four row blocks.
        step = _BLOCK // 512
        assert -(-512 // step) == 4 and 454 // step == 3
        box = [[-200.0, 200.0], [-1.5, 1.5]]
        message = "box and candidates take the tables out of the float range (overflow encountered in divide)"
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

        # The search computes the entropy of its bounding codebook before its
        # first layer.
        monkeypatch.setattr("nsmml.codebook._entropy", no_search)
        rng = np.random.default_rng(14)
        prob = synthetic_problem(np.full(40, 1.0 / 40), rng.uniform(0, 1, (40, 12)))
        with pytest.raises(SizeLimitError, match="int64"):
            smml_exhaustive(prob)

    def test_exact_search_runs_no_local_search(self, monkeypatch):
        # The DP bounds itself from its own cost table; the heuristic it is
        # the oracle for never runs.
        def no_heuristic(*args, **kwargs):
            raise AssertionError("the exact search ran the local search")

        monkeypatch.setattr("nsmml.codebook.smml_local_search", no_heuristic)
        monkeypatch.setattr("nsmml.codebook._descend", no_heuristic)
        ring = smml_exhaustive(torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2))
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
        ring = smml_exhaustive(torus_problem(CFG, SCALE_FREE, 16, candidate_stride=2))
        assert len(ring) == 4
        assert all(o.cost.L == 2.1701103981812238 for o in ring)

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

    def test_moved_cell_waits_for_next_sweep(self):
        # Each sweep visits every cell once, in order.  Revisiting a cell
        # straight after its move would here find a second move whose cost
        # rounds to just below zero, and leave the full scan's trajectory.
        prob = synthetic_problem([0.03, 0.29, 0.68], [[1.4, 1.9, 1.0], [1.7, 1.1, 0.2], [0.3, 1.8, 0.3]])
        init = np.array([0, 0, 1])
        steps = descent_steps(prob, _descend(prob, init, _least_penalties(prob.penalty)))
        want = descent_steps(prob, oracle_descend(prob, init))
        assert [level.hex() for level, _, _ in steps] == [level.hex() for level, _, _ in want]

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
        expected = np.linalg.norm(prob.cell_coords[idx] - prob.cand_coords[0], axis=1)
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
        assert back.lattice.stride == 3
        # Stored coordinates: re-deriving log s from s2 moved offsets near a
        # half period to the other side of the circle.
        for cells, stride, mean in ((16, 2, 0.0), (100, 2, 0.0), (200, 4, 1.3)):
            tor = torus_problem(CFG, SCALE_FREE, cells, candidate_stride=stride, mean_coord=mean)
            back = problem_from_text(problem_to_text(tor))
            for name in ("cell_coords", "cand_coords", "penalty"):
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
        moved = tor.cand_coords.copy()
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
        assert back.cand_coords.tobytes() == back.cell_coords[::3].tobytes()

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

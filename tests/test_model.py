"""Core density, penalty and Fisher-information tests."""

import dataclasses
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import nsmml
from nsmml import (
    DegenerateInputError,
    InvalidConfigError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    code_penalty_R,
    fisher_log_sqrt_det,
    log_likelihood,
    log_marginal,
    simulate,
    stat_log_jacobian,
    stat_log_marginal,
    sufficient_stats,
)
from nsmml import codebook as cbk
from nsmml import regularity as reg
from nsmml.estimators import ideal_group, ip_reverse, ml_estimate, param_from_coords, stat_from_coords
from nsmml.harness import SweepSpec
from nsmml.model import _LGAM_MAX, LOG_2PI, _check_array, _check_float, _float_range, _in_range, _lgamma, _shown
from nsmml.model import sufficient_stats_kernel

from oracles import fd_hessian, log_normal_pdf_product, oracle_log_marginal, raw_sample_with_stats


def random_stat(rng, n):
    return SufficientStat(rng.normal(0.0, 2.0, n), math.exp(rng.normal(0.0, 1.0)))


def random_param(rng, n):
    return Parameter(math.exp(rng.normal(0.0, 1.0)), rng.normal(0.0, 2.0, n))


class TestSufficientStats:
    def test_hand_example_two_points(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = sufficient_stats(np.array([[0.0, 2.0]]), cfg)
        assert stat.m == pytest.approx([1.0])
        assert stat.s2 == pytest.approx(1.0)

    def test_zero_within_group_spread(self):
        cfg = ProblemConfig(N=2, J=2)
        stat = sufficient_stats(np.array([[3.5, 3.5], [-1.25, -1.25]]), cfg)
        np.testing.assert_allclose(stat.m, [3.5, -1.25])
        assert stat.s2 == 0.0

    def test_hand_example_three_points(self):
        cfg = ProblemConfig(N=1, J=3)
        stat = sufficient_stats(np.array([[-1.0, 0.0, 1.0]]), cfg)
        assert stat.m == pytest.approx([0.0])
        assert stat.s2 == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("j", range(2, 13))
    def test_stacked_group_means_keep_the_bits_of_mean(self, j):
        # The kernel sums J < 8 columns one vector add at a time and calls
        # mean from J = 8, where numpy sums in 8-wide blocks; either way each
        # sample of a stack, or of a view into a wider buffer as the sweep
        # passes, gets its own data.mean(axis=1), -0.0 rows included.
        cfg = ProblemConfig(N=40, J=j)
        rng = np.random.default_rng(j)
        scale = np.array([1e-150, 1e-3, 1.0, 1e3, 1e150])[:, None, None]
        stack = scale * (rng.normal(0.0, 1.0, (5, cfg.N, j)) + rng.normal(0.0, 3.0, (5, cfg.N, 1)))
        stack[0, 0], stack[1, 1] = -0.0, np.where(np.arange(j) % 2, 0.0, -0.0)
        wide = np.zeros((5, 3 + cfg.nj))
        wide[:, 3:] = stack.reshape(5, -1)
        for x in (stack, wide[:, 3:].reshape(5, cfg.N, j)):
            m, s2 = sufficient_stats_kernel(x, cfg)
            for i, sample in enumerate(stack):
                mean = sample.mean(axis=1)
                assert m[i].tobytes() == mean.tobytes(), i
                assert s2[i].tobytes() == (((sample - mean[:, None]) ** 2).sum() / cfg.nj).tobytes(), i

    def test_dimension_mismatch_rejected(self):
        cfg = ProblemConfig(N=2, J=3)
        with pytest.raises(InvalidConfigError):
            sufficient_stats(np.zeros((2, 2)), cfg)

    @pytest.mark.parametrize("row", [[1e200, -1e200], [1.7e308, 1.7e308]])
    def test_overflow_rejected_by_name(self, row):
        # The squared deviations, or the group mean itself, overflow.
        with pytest.raises(InvalidConfigError, match="^data take the group means or s2 out of the float range$"):
            sufficient_stats(np.array([row]), ProblemConfig(N=1, J=2))

    def test_config_invariants(self):
        with pytest.raises(InvalidConfigError):
            ProblemConfig(N=1, J=1)
        with pytest.raises(InvalidConfigError):
            ProblemConfig(N=0, J=2)
        with pytest.raises(InvalidConfigError):
            PriorSpec(0.5)


def test_one_float_range_guard():
    # model._float_range is the one place that sets numpy's error state.
    calls = [
        (path.name, line)
        for path in sorted(Path(nsmml.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if "np.errstate" in line
    ]
    assert [name for name, _ in calls] == ["model.py"]
    assert calls[0][1].strip() in inspect.getsource(_float_range)


def test_one_finiteness_rule():
    # model's two readers and _in_range are the only code that tests finiteness.
    lines = [
        (path.name, line.strip())
        for path in sorted(Path(nsmml.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if "isfinite" in line
    ]
    sources = [inspect.getsource(f) for f in (_check_float, _check_array, _in_range)]
    assert {name for name, _ in lines} == {"model.py"}
    assert all(sum(line in source for source in sources) == 1 for _, line in lines)


_CFG1, _CFG2 = ProblemConfig(N=1, J=2), ProblemConfig(N=2, J=2)
_SF1 = PriorSpec.scale_free(_CFG1)
_AUT = reg.Automorphism(2.0, np.zeros(1))
_THETA2, _GRID = Parameter(1.0, np.zeros(2)), reg.GridSpec(4, 4)
_THETA1, _STAT1 = Parameter(1.0, [0.0]), SufficientStat([0.0], 1.0)


def _instance():
    problem = cbk.discretize(_CFG1, _SF1, [[-1.5, 1.5]] * 2, 4)
    return problem, cbk.make_codebook(problem, cbk.pointwise_assignment(problem))


# (entry point, parameter, least value or None for no bound, call taking the value)
COUNT_ARGUMENTS = [
    ("ProblemConfig", "N", 1, lambda v: ProblemConfig(N=v, J=2)),
    ("ProblemConfig", "J", 2, lambda v: ProblemConfig(N=1, J=v)),
    ("SweepSpec", "J", 2, lambda v: SweepSpec(J=v, N_list=(10,), trials=1)),
    ("SweepSpec", "N_list", 1, lambda v: SweepSpec(J=2, N_list=(v,), trials=1)),
    ("SweepSpec", "trials", 1, lambda v: SweepSpec(J=2, N_list=(10,), trials=v)),
    ("SweepSpec", "seed", 0, lambda v: SweepSpec(J=2, N_list=(10,), trials=1, seed=v)),
    ("simulate", "seed", 0, lambda v: simulate(_CFG1, 1.0, 0.0, v)),
    ("check_automorphism", "seed", 0, lambda v: reg.check_automorphism(_AUT, _SF1, _CFG1, samples=1, seed=v)),
    ("check_automorphism", "samples", 1, lambda v: reg.check_automorphism(_AUT, _SF1, _CFG1, samples=v)),
    ("locality_certificate", "seed", 0, lambda v: reg.locality_certificate(_THETA2, _CFG2, grid=_GRID, seed=v)),
    ("locality_certificate", "c", 2, lambda v: reg.locality_certificate(_THETA2, _CFG2, c=v, grid=_GRID)),
    ("GridSpec", "points_scale", 1, lambda v: reg.GridSpec(points_scale=v)),
    ("GridSpec", "points_mean", 1, lambda v: reg.GridSpec(points_mean=v)),
    ("discretize", "resolution", 2, lambda v: cbk.discretize(_CFG1, _SF1, [[-1.5, 1.5]] * 2, v)),
    ("discretize-axis", "resolution", 2, lambda v: cbk.discretize(_CFG1, _SF1, [[-1.5, 1.5]] * 2, [4, v])),
    ("torus_problem", "n_cells", 2, lambda v: cbk.torus_problem(_CFG1, _SF1, v)),
    ("torus_problem", "candidate_stride", 1, lambda v: cbk.torus_problem(_CFG1, _SF1, 8, candidate_stride=v)),
    ("smml_local_search", "seed", 0, lambda v: cbk.smml_local_search(_instance()[0], restarts=1, seed=v)),
    ("smml_local_search", "restarts", 1, lambda v: cbk.smml_local_search(_instance()[0], restarts=v)),
    ("smml_ip_overlap", "interior_margin", 1, lambda v: cbk.smml_ip_overlap(*_instance(), interior_margin=v)),
    ("codebook_transport", "lattice shift", None, lambda v: cbk.codebook_transport(*_instance(), v)),
    ("codebook_transport-vector", "lattice shift", None, lambda v: cbk.codebook_transport(*_instance(), [v, v])),
]


class TestCountArguments:
    @pytest.mark.parametrize("name, least, call", [case[1:] for case in COUNT_ARGUMENTS],
                             ids=[f"{case[0]}-{case[1]}" for case in COUNT_ARGUMENTS])
    def test_non_integer_or_small_count_rejected_by_name(self, name, least, call):
        # A fraction was truncated, a bool counted as 0 or 1, a string was
        # parsed or escaped as a bare TypeError, and a negative seed escaped
        # as numpy's bare ValueError; each now names its parameter.  An int
        # too long for Python to print once failed the message itself.
        for value in (2.5, True, "3", np.float64(3.0), *(() if least is None else (least - 1, -(10**5000)))):
            with pytest.raises(InvalidConfigError, match=f"^{name} must "):
                call(value)

    def test_numpy_integer_stored_as_int(self):
        tor = cbk.torus_problem(_CFG1, _SF1, np.int64(8), candidate_stride=np.int64(2))
        assert tor.lattice.shape == (8, 1) and tor.lattice.cand_shape == (4, 1)
        assert all(type(v) is int for v in (*tor.lattice.shape, *tor.lattice.cand_shape))
        lattice = cbk.discretize(_CFG1, _SF1, [[-1.5, 1.5]] * 2, np.uint8(4)).lattice
        assert lattice.shape == (4, 4) and all(type(v) is int for v in lattice.shape + lattice.cand_shape)
        spec = SweepSpec(J=np.int64(2), N_list=(np.int32(10),), trials=np.uint8(3), seed=np.int64(4))
        assert all(type(v) is int for v in (spec.J, *spec.N_list, spec.trials, spec.seed))

    def test_huge_integer_shown_by_digit_count(self):
        # Python prints no int of more than 4300 digits: messages give the
        # digit count, exact on both sides of a power of ten.
        for value, shown in [(10**5000, "a 5001-digit integer"), (10**5000 - 1, "a 5000-digit integer"),
                             (-(10**4300), "a negative 4301-digit integer"), (7, "7"), (1.5, "1.5")]:
            assert _shown(value) == shown
        with pytest.raises(InvalidConfigError, match="^N must be >= 1, got a negative 5001-digit integer$"):
            ProblemConfig(N=-(10**5000), J=2)
        with pytest.raises(InvalidConfigError, match="^N_list must be a sequence, got a 5001-digit integer$"):
            SweepSpec(J=2, N_list=10**5000, trials=1)


def _with_first(example, value):
    """``example``, a nested list, with its first number replaced by ``value``."""
    return [_with_first(example[0], value), *example[1:]] if isinstance(example, list) else value


# (entry point, argument, its bound or None, None for a number or an example
# value for an array, call taking the value)
FLOAT_ARGUMENTS = [
    ("PriorSpec", "prior exponent p", ">= 1", None, lambda v: PriorSpec(v)),
    ("SufficientStat", "s2", ">= 0", None, lambda v: SufficientStat([0.0], v)),
    ("Parameter", "sigma2", None, None, lambda v: Parameter(v, [0.0])),
    ("Automorphism", "alpha", "> 0", None, lambda v: reg.Automorphism(v, [0.0])),
    ("check_automorphism", "tol", "> 0", None, lambda v: reg.check_automorphism(_AUT, _SF1, _CFG1, samples=1, tol=v)),
    ("homogeneity_check", "tol", "> 0", None, lambda v: reg.homogeneity_check(_SF1, _CFG1, [_THETA1], tol=v)),
    ("comprehensiveness_check", "tol", "> 0", None,
     lambda v: reg.comprehensiveness_check(_SF1, _CFG1, [_STAT1], tol=v)),
    ("ideal_group", "epsilon", "> 0", None, lambda v: ideal_group(_THETA1, _SF1, v, _CFG1)),
    ("concentration_box", "epsilon", "> 0", None, lambda v: reg.concentration_box(_STAT1, _SF1, v, _CFG1)),
    ("simulate", "sigma2_true", "> 0", None, lambda v: simulate(_CFG1, v, 0.0, 0)),
    ("SweepSpec", "sigma2_true", "> 0", None, lambda v: SweepSpec(J=2, N_list=(10,), trials=1, sigma2_true=v)),
    ("discretize", "extension", ">= 0", None,
     lambda v: cbk.discretize(_CFG1, _SF1, [[-1.5, 1.5]] * 2, 4, cbk.CandidateSpec(extension=v))),
    ("torus_problem", "log_s_lo", None, None, lambda v: cbk.torus_problem(_CFG1, _SF1, 8, log_s_lo=v)),
    ("torus_problem", "log_s_hi", None, None, lambda v: cbk.torus_problem(_CFG1, _SF1, 8, log_s_hi=v)),
    ("torus_problem", "mean_coord", None, None, lambda v: cbk.torus_problem(_CFG1, _SF1, 8, mean_coord=v)),
    ("SufficientStat", "m", None, [0.0], lambda v: SufficientStat(v, 1.0)),
    ("Parameter", "mu", None, [0.0], lambda v: Parameter(1.0, v)),
    ("Automorphism", "beta", None, [0.0], lambda v: reg.Automorphism(2.0, v)),
    ("simulate", "mu_true", None, [0.0], lambda v: simulate(_CFG1, 1.0, v, 0)),
    ("sufficient_stats", "data", None, [[0.0, 1.0]], lambda v: sufficient_stats(v, _CFG1)),
    ("discretize", "box", None, [[-1.5, 1.5]] * 2, lambda v: cbk.discretize(_CFG1, _SF1, v, 4)),
    ("stat_from_coords", "coords", None, [0.0, 0.0], stat_from_coords),
    ("param_from_coords", "coords", None, [0.0, 0.0], param_from_coords),
    ("DiscreteProblem", "mass", None, [1.0 / 16] * 16, lambda v: dataclasses.replace(_instance()[0], mass=v)),
    ("DiscreteProblem", "penalty", None, [[0.0] * 144] * 16,
     lambda v: dataclasses.replace(_instance()[0], penalty=v)),
]


class TestFloatArguments:
    @pytest.mark.parametrize("name, bound, example, call", [case[1:] for case in FLOAT_ARGUMENTS],
                             ids=[f"{case[0]}-{case[1]}" for case in FLOAT_ARGUMENTS])
    def test_malformed_number_rejected_by_name(self, name, bound, example, call):
        # Each let a bare TypeError or ValueError escape for some of these
        # values, or took the string "1.5" as a number; each now names itself.
        values = [None, "1.5", True, np.True_, math.nan, math.inf, -math.inf, 10**400, 10**5000, -(10**5000)]
        if example is None:
            values.append([1.5])
        else:
            values += [[example, [example]], ["1.5", "2.5"]]
            values += [_with_first(example, v) for v in (None, "1.5", math.nan, math.inf, 10**400)]
        for value in values:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidConfigError, match=f"^{re.escape(name)} must "):
                    call(value)
        if bound is not None:
            op, least = bound.split()
            for value in (int(least) - 1, -0.5 + int(least), *((int(least),) if op == ">" else ())):
                message = f"{name} must be finite and {bound}, got {value!r}"
                with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                    call(value)
            message = f"{name} must be finite and {bound}, got a negative 5001-digit integer"
            with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
                call(-(10**5000))

    def test_numbers_stored_as_python_floats(self):
        stored = {
            "p": lambda v: PriorSpec(v).p,
            "s2": lambda v: SufficientStat([0.0], v).s2,
            "sigma2": lambda v: Parameter(v, [0.0]).sigma2,
            "alpha": lambda v: reg.Automorphism(v, [0.0]).alpha,
            "tol": lambda v: reg.check_automorphism(_AUT, _SF1, _CFG1, samples=1, tol=v).tol,
            "epsilon": lambda v: ideal_group(_THETA1, _SF1, v, _CFG1).epsilon,
            "box epsilon": lambda v: reg.concentration_box(_STAT1, _SF1, v, _CFG1).epsilon,
            "sigma2_true": lambda v: SweepSpec(J=2, N_list=(10,), trials=1, sigma2_true=v).sigma2_true,
        }
        for value in (2, np.int64(2), np.uint8(2), np.float32(2.5), np.float64(2.5)):
            for name, read in stored.items():
                assert type(read(value)) is float and read(value) == float(value), name
        for value in ([1, 2], np.array([1, 2], dtype=np.int32), np.array([1.0, 2.0], dtype=np.float32)):
            assert SufficientStat(value, 1.0).m.dtype == np.float64
        # A scalar mean reads as one group's; a float64 array is copied, so
        # the object holds its own read-only means (test_value_objects_own_their_arrays).
        assert Parameter(1.0, 0.5).mu.tolist() == [0.5]
        means = np.array([0.5, 1.5])
        assert Parameter(1.0, means).mu is not means

    @pytest.mark.parametrize("held", [
        lambda v: Parameter(1.3, v).mu,
        lambda v: SufficientStat(v, 0.7).m,
        lambda v: reg.Automorphism(2.0, v).beta,
    ], ids=["Parameter", "SufficientStat", "Automorphism"])
    def test_value_objects_own_their_arrays(self, held):
        # A checked value object once kept the caller's float64 array, so a
        # later write reached it unchecked; it now holds a read-only copy.
        for means in (np.zeros(2), np.zeros(4)[::2], np.zeros((2, 2))[0], np.array(0.0)):
            array = held(means)
            means[...] = np.nan
            assert np.array_equal(array, np.zeros(array.shape)) and not np.shares_memory(array, means)
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_objects_built_from_tables_and_objects_share_no_memory(self):
        # The copies that guarded these against aliasing are gone: the
        # objects copy for themselves.
        problem = _instance()[0]
        theta, stat = problem.candidate_parameter(0), problem.cell_stat(0)
        assert not np.shares_memory(theta.mu, problem.cand_mu) and not np.shares_memory(stat.m, problem.cell_m)
        assert not np.shares_memory(ml_estimate(stat, _CFG1).theta.mu, stat.m)
        assert not np.shares_memory(ip_reverse(theta, _SF1, _CFG1).m, theta.mu)


class TestLogLikelihood:
    def test_hand_value(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([1.0], 1.0)
        theta = Parameter(1.0, [1.0])
        assert log_likelihood(stat, theta, cfg) == pytest.approx(-LOG_2PI - 1.0, abs=1e-12)

    def test_mu_equal_m_maximizes(self):
        cfg = ProblemConfig(N=3, J=4)
        rng = np.random.default_rng(11)
        stat = random_stat(rng, 3)
        best = log_likelihood(stat, Parameter(0.7, stat.m), cfg)
        for _ in range(20):
            other = Parameter(0.7, stat.m + rng.normal(0, 0.5, 3))
            assert log_likelihood(stat, other, cfg) <= best

    def test_matches_raw_density_product(self):
        cfg = ProblemConfig(N=2, J=2)
        stat = SufficientStat([0.0, 0.0], 1.0)
        theta = Parameter(2.0, [1.0, -1.0])
        data = raw_sample_with_stats(stat.m, stat.s2, cfg)
        direct = log_normal_pdf_product(data, theta.sigma2, theta.mu)
        assert log_likelihood(stat, theta, cfg) == pytest.approx(direct, abs=1e-10)

    def test_overflow_rejected_by_name(self):
        # The squared mean deviation overflows, and the value would be -inf.
        cfg = ProblemConfig(N=2, J=2)
        with pytest.raises(InvalidConfigError, match="^stat and theta take the log-likelihood out of the float range$"):
            log_likelihood(SufficientStat([1e200, 0.0], 1.0), Parameter(1e-200, [-1e200, 0.0]), cfg)

    def test_degenerate_inputs_rejected(self):
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(DegenerateInputError):
            log_likelihood(SufficientStat([0.0], 0.0), Parameter(1.0, [0.0]), cfg)
        with pytest.raises(DegenerateInputError):
            Parameter(0.0, [0.0])


class TestLgamma:
    def test_matches_scipy_gammaln_bit_for_bit(self):
        from scipy.special import gammaln

        rng = np.random.default_rng(17)
        edges = np.array([0.5, 2.0, 3.0, 13.0, 1000.0, 1.0e8, _LGAM_MAX])
        x = np.concatenate([
            0.5 * np.arange(1, 20001),  # half-integers 0.5 - 10^4
            np.exp(rng.uniform(math.log(0.5), math.log(1e300), 50_000)),
            edges,
            np.nextafter(edges[1:], -np.inf),
            np.nextafter(edges, np.inf),
        ])
        ported = [_lgamma(float(v)) for v in x]
        # np.float64 from every branch, as the ufunc returned: the regularity
        # report prints comparisons of these values as numpy bools.
        assert {type(v) for v in ported} == {np.float64}
        ported = np.array(ported)
        np.testing.assert_array_equal(ported.view(np.int64), gammaln(x).view(np.int64))
        # Past Cephes's MAXLGM both overflow to inf.
        assert ported[-1] == math.inf


class TestLogMarginal:
    def test_wallace_value_quadrature(self):
        # The closed form gives r = 1/4 here; the quadrature oracle agrees.
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([0.3], 1.0)
        prior = PriorSpec.wallace()
        value = log_marginal(stat, prior, cfg)
        assert value == pytest.approx(math.log(0.25), abs=1e-12)
        assert value == pytest.approx(oracle_log_marginal(stat, 1.0, cfg), rel=1e-9)

    def test_group_count_must_match_n(self):
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(InvalidConfigError, match="^stat has 2 group means but the configuration has N=1$"):
            log_marginal(SufficientStat([0.0, 1.0], 1.0), PriorSpec.scale_free(cfg), cfg)

    def test_scale_free_value_quadrature(self):
        cfg = ProblemConfig(N=1, J=2)
        stat = SufficientStat([-0.7], 1.0)
        prior = PriorSpec.scale_free(cfg)
        value = log_marginal(stat, prior, cfg)
        assert value == pytest.approx(math.log(1.0 / (4.0 * math.sqrt(math.pi))), abs=1e-12)
        assert value == pytest.approx(oracle_log_marginal(stat, 2.0, cfg), rel=1e-9)

    def test_depends_only_on_s2(self):
        cfg = ProblemConfig(N=3, J=2)
        prior = PriorSpec(2.5)
        a = log_marginal(SufficientStat([0.0, 1.0, -4.0], 0.8), prior, cfg)
        b = log_marginal(SufficientStat([9.0, 2.0, 3.0], 0.8), prior, cfg)
        assert a == b

    def test_general_p_quadrature_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 4)))
            stat = random_stat(rng, n)
            for p in (1.0, cfg.N + 1.0, 1.7):
                closed = log_marginal(stat, PriorSpec(p), cfg)
                assert closed == pytest.approx(oracle_log_marginal(stat, p, cfg), rel=1e-6)

    def test_s2_zero_rejected(self):
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(DegenerateInputError):
            log_marginal(SufficientStat([0.0], 0.0), PriorSpec.wallace(), cfg)

    @pytest.mark.parametrize("density", [log_marginal, stat_log_marginal])
    def test_overflow_rejected_by_name(self, density):
        # Past Cephes's MAXLGM the gamma factor of p = 1e306 is inf.
        cfg = ProblemConfig(N=1, J=2)
        with pytest.raises(InvalidConfigError, match="^stat and prior take the log-marginal out of the float range$"):
            density(SufficientStat([0.0], 1e10), PriorSpec(1e306), cfg)


def expanded_penalty(theta, stat, prior, cfg):
    """Expanded penalty formulas for the two named priors, written out
    term by term as an independent route."""
    n, j = cfg.N, cfg.J
    nj = n * j
    quad = nj * stat.s2 + j * float(((stat.m - theta.mu) ** 2).sum())
    common = (
        -0.5 * n * math.log(j)
        + 0.5 * n * math.log(math.pi)
        + 0.5 * nj * math.log(theta.sigma2)
        + quad / (2.0 * theta.sigma2)
    )
    if prior.is_wallace:
        return common + (
            0.5 * (nj - 2) * math.log(2.0)
            + math.lgamma(0.5 * n * (j - 1))
            - 0.5 * n * (j - 1) * math.log(nj * stat.s2)
        )
    assert prior.is_scale_free(cfg)
    return common + (
        0.5 * (nj + n - 2) * math.log(2.0)
        + math.lgamma(0.5 * nj)
        - 0.5 * nj * math.log(nj * stat.s2)
    )


class TestCodePenalty:
    def test_overflow_rejected_by_name(self):
        # The squared mean deviation overflows, and the value would be inf.
        cfg = ProblemConfig(N=2, J=2)
        theta, stat = Parameter(1e-200, [-1e200, 0.0]), SufficientStat([1e200, 0.0], 1.0)
        with pytest.raises(InvalidConfigError, match="^stat and theta take the penalty out of the float range$"):
            code_penalty_R(theta, stat, PriorSpec.scale_free(cfg), cfg)

    def test_group_permutation_invariance(self):
        cfg = ProblemConfig(N=3, J=2)
        prior = PriorSpec.scale_free(cfg)
        stat = SufficientStat([0.5, -1.0, 2.0], 1.3)
        theta = Parameter(0.9, [1.0, 0.0, -2.0])
        perm = [2, 0, 1]
        r1 = code_penalty_R(theta, stat, prior, cfg)
        r2 = code_penalty_R(
            Parameter(theta.sigma2, theta.mu[perm]),
            SufficientStat(stat.m[perm], stat.s2),
            prior,
            cfg,
        )
        assert r1 == pytest.approx(r2, abs=1e-12)

    @pytest.mark.parametrize("p_name", ["wallace", "scale_free"])
    def test_expanded_formula_agreement(self, p_name):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            prior = PriorSpec.wallace() if p_name == "wallace" else PriorSpec.scale_free(cfg)
            stat = random_stat(rng, n)
            theta = random_param(rng, n)
            direct = code_penalty_R(theta, stat, prior, cfg)
            assert direct == pytest.approx(expanded_penalty(theta, stat, prior, cfg), abs=1e-9)

    def test_strictly_convex_in_observation(self):
        # Hessian of R with respect to (s2, m) is positive definite.
        cfg = ProblemConfig(N=2, J=3)
        prior = PriorSpec.wallace()
        theta = Parameter(1.4, [0.5, -0.5])
        rng = np.random.default_rng(8)
        for _ in range(5):
            x0 = np.concatenate(([math.exp(rng.normal())], rng.normal(0, 1, 2)))

            def penalty_of(x):
                return code_penalty_R(theta, SufficientStat(x[1:], x[0]), prior, cfg)

            eigs = np.linalg.eigvalsh(fd_hessian(penalty_of, x0, h=1e-5))
            assert np.all(eigs > 0.0)

    def test_identity_with_marginal_and_likelihood(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
            prior = PriorSpec(float(rng.uniform(1.0, n + 2.0)))
            stat = random_stat(rng, n)
            theta = random_param(rng, n)
            lhs = code_penalty_R(theta, stat, prior, cfg)
            rhs = log_marginal(stat, prior, cfg) - log_likelihood(stat, theta, cfg)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_scale_free_reduced_dependence(self):
        # R depends on the pair only through (s2/sigma2, (m-mu)/sigma).
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.scale_free(cfg)
        rng = np.random.default_rng(13)
        for _ in range(30):
            stat = random_stat(rng, 2)
            theta = random_param(rng, 2)
            alpha = math.exp(rng.normal())
            beta = rng.normal(0, 2, 2)
            moved_stat = SufficientStat(alpha * stat.m + beta, alpha**2 * stat.s2)
            moved_theta = Parameter(alpha**2 * theta.sigma2, alpha * theta.mu + beta)
            r1 = code_penalty_R(theta, stat, prior, cfg)
            r2 = code_penalty_R(moved_theta, moved_stat, prior, cfg)
            assert r1 == pytest.approx(r2, abs=1e-10)

    def test_wallace_translation_exact(self):
        # With dyadic inputs the translated penalty difference is exactly 0.
        cfg = ProblemConfig(N=2, J=2)
        prior = PriorSpec.wallace()
        stat = SufficientStat([0.25, -1.5], 0.75)
        theta = Parameter(1.25, [0.5, 2.0])
        beta = np.array([0.5, -3.25])
        r1 = code_penalty_R(theta, stat, prior, cfg)
        r2 = code_penalty_R(
            Parameter(theta.sigma2, theta.mu + beta),
            SufficientStat(stat.m + beta, stat.s2),
            prior,
            cfg,
        )
        assert r1 == r2


class TestFisher:
    def test_hand_value(self):
        cfg = ProblemConfig(N=1, J=2)
        assert fisher_log_sqrt_det(Parameter(1.0, [0.0]), cfg) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_scaling_law(self):
        cfg = ProblemConfig(N=3, J=4)
        theta = Parameter(1.7, np.zeros(3))
        gamma = 2.5
        scaled = Parameter(gamma**2 * theta.sigma2, theta.mu)
        diff = fisher_log_sqrt_det(scaled, cfg) - fisher_log_sqrt_det(theta, cfg)
        assert diff == pytest.approx(-(cfg.N + 2) * math.log(gamma), abs=1e-12)

    def test_expected_nll_hessian_oracle(self):
        # Fisher information = Hessian of the expected negative
        # log-likelihood; the expectation has a closed form in the exact
        # Gaussian / chi-square moments, differentiated numerically here.
        cfg = ProblemConfig(N=2, J=3)
        sigma2_true = 4.0
        mu_true = np.array([0.7, -1.1])

        def expected_nll(x):
            sigma2, mu = x[0], x[1:]
            e_quad = sigma2_true * cfg.dof + cfg.N * sigma2_true + cfg.J * float(
                ((mu_true - mu) ** 2).sum()
            )
            return 0.5 * cfg.nj * math.log(2.0 * math.pi * sigma2) + e_quad / (2.0 * sigma2)

        hess = fd_hessian(expected_nll, np.concatenate(([sigma2_true], mu_true)), h=1e-4)
        sign, logdet = np.linalg.slogdet(hess)
        assert sign > 0
        value = fisher_log_sqrt_det(Parameter(sigma2_true, mu_true), cfg)
        assert value == pytest.approx(0.5 * logdet, abs=1e-4)

    def test_monte_carlo_cross_check(self):
        # Sample second derivative of the negative log-likelihood in
        # sigma^2; asserted at four standard errors of the seeded run.
        cfg = ProblemConfig(N=2, J=3)
        sigma2 = 4.0
        rng = np.random.default_rng(314159)
        trials = 1_000_000
        z = rng.standard_normal((trials, cfg.N, cfg.J))
        data = math.sqrt(sigma2) * z  # true means zero
        m = data.mean(axis=2)
        quad = ((data - m[:, :, None]) ** 2).sum(axis=(1, 2)) + cfg.J * (m**2).sum(axis=1)
        samples = -cfg.nj / (2.0 * sigma2**2) + quad / sigma2**3
        est = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(trials)
        exact = cfg.nj / (2.0 * sigma2**2)
        assert abs(est - exact) < 4.0 * se


class TestStatSpaceDensities:
    def test_stat_density_normalizes(self):
        # Integrating the (s, m)-space likelihood over its domain gives 1.
        from scipy.integrate import dblquad

        from nsmml import stat_log_likelihood

        cfg = ProblemConfig(N=1, J=3)
        theta = Parameter(0.8, [0.4])

        def density(s, m):
            return math.exp(stat_log_likelihood(SufficientStat([m], s * s), theta, cfg))

        total, _ = dblquad(density, -np.inf, np.inf, 0.0, np.inf, epsabs=1e-10, epsrel=1e-9)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_jacobian_overflow_rejected_by_name(self):
        # N*J*s2 overflows, and the value would be nan (0 * log inf at N = J = 2).
        for cfg in (ProblemConfig(N=2, J=2), ProblemConfig(N=2, J=3)):
            with pytest.raises(InvalidConfigError, match="^stat takes the log-Jacobian out of the float range$"):
                stat_log_jacobian(SufficientStat([0.0, 0.0], 1e308), cfg)

    def test_jacobian_depends_only_on_s(self):
        cfg = ProblemConfig(N=2, J=2)
        a = stat_log_jacobian(SufficientStat([5.0, -2.0], 1.3), cfg)
        b = stat_log_jacobian(SufficientStat([0.0, 0.0], 1.3), cfg)
        assert a == b

"""Property tests: the estimator table, the penalty kernel and the
coordinate kernels against their scalar wrappers, the public scalar API
on extreme finite inputs (a finite value or a NeymanScottError, never a
warning), the Ideal Point as the
minimizer of the code penalty, the sweep config parser under fuzzed text,
sweep pairs keyed by prior exponent,
problem and codebook round trips through their JSON reports, intact and
fuzzed, the local-search descent against its full-scan oracle, exact <=
local <= pointwise costs, torus shifts that permute the penalty bit for
bit and preserve cost, the uniform masses that the count-vector DP
requires of scale-free lattices, and exact search on rings, whose arc
route returns what the count-vector DP does."""

import json
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nsmml import (
    Automorphism,
    InvalidConfigError,
    NeymanScottError,
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    SweepSpec,
    code_penalty_R,
    ip_estimate,
    ip_reverse,
    log_likelihood,
    log_marginal,
    marginalized_sigma2_ml,
    ml_estimate,
    parse_sweep_config,
    penalty_at_ideal_point,
    run_sweep,
    sufficient_stats,
    trial_ratios,
    wf_estimate,
)
from nsmml.codebook import (
    _TOP_K,
    CandidateSpec,
    _arc_stride,
    _count_vector_optima,
    _descend,
    _least_penalties,
    codebook_cost,
    codebook_transport,
    codebook_from_text,
    codebook_to_text,
    discretize,
    make_codebook,
    pointwise_assignment,
    problem_from_text,
    problem_to_text,
    smml_exhaustive,
    smml_local_search,
    torus_problem,
)
from nsmml.estimators import (
    METHOD_IP,
    METHOD_MARGINALIZED,
    METHOD_ML,
    METHOD_WF,
    PRIOR_FREE_METHODS,
    SIGMA2_HAT,
    _from_coords,
    _to_coords,
    coords_from_param,
    coords_from_stat,
    param_from_coords,
    stat_from_coords,
)
from nsmml.model import code_penalty_kernel

from oracles import descent_steps, oracle_brute_optima, oracle_descend
from test_codebook import synthetic_problem


@st.composite
def problems(draw):
    """``(cfg, prior, m)`` with N <= 50, J <= 10 and 1 <= p <= N + 5."""
    n = draw(st.integers(1, 50))
    cfg = ProblemConfig(N=n, J=draw(st.integers(2, 10)))
    prior = PriorSpec(draw(st.floats(1.0, n + 5.0)))
    m = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return cfg, prior, m


positive_s2 = st.floats(1e-250, 1e250)


@given(problems(), st.lists(positive_s2, min_size=1, max_size=16))
def test_table_equals_scalar_wrappers_bit_for_bit(problem, values):
    cfg, prior, m = problem
    s2 = np.array(values)
    scalar = {
        METHOD_ML: lambda x: ml_estimate(x, cfg).theta.sigma2,
        METHOD_IP: lambda x: ip_estimate(x, prior, cfg).theta.sigma2,
        METHOD_WF: lambda x: wf_estimate(x, prior, cfg).theta.sigma2,
        METHOD_MARGINALIZED: lambda x: marginalized_sigma2_ml(x, cfg),
    }
    assert list(scalar) == list(SIGMA2_HAT)
    for method, form in SIGMA2_HAT.items():
        column = form(s2, prior, cfg)
        expected = [scalar[method](SufficientStat(m, v)) for v in values]
        assert column.tobytes() == np.array(expected).tobytes(), method
    np.testing.assert_array_equal(SIGMA2_HAT[METHOD_WF](s2, prior, cfg), SIGMA2_HAT[METHOD_IP](s2, prior, cfg))


magnitudes = st.floats(1e-300, 1e300)
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x))


def _finite_numbers(value) -> list:
    """Every number a scalar-API result holds."""
    if isinstance(value, SufficientStat):
        return [value.s2, *value.m]
    if isinstance(value, Parameter):
        return [value.sigma2, *value.mu]
    if isinstance(value, Automorphism):
        return [value.alpha, *value.beta]
    if hasattr(value, "theta"):
        return _finite_numbers(value.theta)
    return list(np.ravel(value))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(ProblemConfig(N=n, J=2)),
    st.floats(1.0, 1e300).map(PriorSpec),
    st.lists(signed, min_size=2 * n, max_size=2 * n).map(lambda x: np.reshape(x, (n, 2))),
    st.builds(SufficientStat, st.lists(signed, min_size=n, max_size=n), magnitudes),
    st.builds(Parameter, magnitudes, st.lists(signed, min_size=n, max_size=n)),
    st.builds(Automorphism, magnitudes, st.lists(signed, min_size=n, max_size=n)),
)))
def test_scalar_api_returns_finite_or_rejects_extreme_inputs(case):
    cfg, prior, data, stat, theta, aut = case
    calls = {
        "sufficient_stats": lambda: sufficient_stats(data, cfg),
        "log_likelihood": lambda: log_likelihood(stat, theta, cfg),
        "log_marginal": lambda: log_marginal(stat, prior, cfg),
        "code_penalty_R": lambda: code_penalty_R(theta, stat, prior, cfg),
        "ml_estimate": lambda: ml_estimate(stat, cfg),
        "ip_estimate": lambda: ip_estimate(stat, prior, cfg),
        "wf_estimate": lambda: wf_estimate(stat, prior, cfg),
        "marginalized_sigma2_ml": lambda: marginalized_sigma2_ml(stat, cfg),
        "ip_reverse": lambda: ip_reverse(theta, prior, cfg),
        "penalty_at_ideal_point": lambda: penalty_at_ideal_point(theta, prior, cfg),
        "stat_from_coords": lambda: stat_from_coords(np.array([data[0, 0], *stat.m])),
        "coords_from_stat": lambda: coords_from_stat(stat),
        "param_from_coords": lambda: param_from_coords(np.array([data[0, 1], *theta.mu])),
        "coords_from_param": lambda: coords_from_param(theta),
        "apply_stat": lambda: aut.apply_stat(stat),
        "apply_param": lambda: aut.apply_param(theta),
        "inverse": lambda: aut.inverse(),
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = call()
            except NeymanScottError:
                continue
        assert all(math.isfinite(v) for v in _finite_numbers(value)), name


@given(
    problems(),
    st.lists(positive_s2, min_size=1, max_size=8),
    st.lists(st.tuples(st.floats(1e-50, 1e50), st.floats(-10.0, 10.0)), min_size=1, max_size=8),
)
def test_penalty_kernel_equals_scalar_wrapper_bit_for_bit(problem, cell_s2, candidates):
    # Cells share the means m; candidate j has variance sigma2_j and means m + shift_j.
    cfg, prior, m = problem
    s2 = np.array(cell_s2)
    sigma2 = np.array([v for v, _ in candidates])
    mus = [m + shift for _, shift in candidates]
    sq_dev = np.array([float(((m - mu) ** 2).sum()) for mu in mus])
    matrix = code_penalty_kernel(s2[:, None], sq_dev[None, :], sigma2[None, :], prior, cfg)
    for i, x in enumerate(s2):
        expected = [code_penalty_R(Parameter(v, mu), SufficientStat(m, x), prior, cfg) for v, mu in zip(sigma2, mus)]
        assert matrix[i].tobytes() == np.array(expected).tobytes()


@given(st.integers(1, 50).flatmap(lambda n: st.lists(
    st.tuples(st.floats(-100.0, 100.0), st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)),
    min_size=1, max_size=16,
)))
def test_coordinate_kernels_equal_scalar_wrappers_bit_for_bit(rows):
    coords = np.array([[log_scale, *means] for log_scale, means in rows])
    scale2, means = _from_coords(coords)
    back = _to_coords(scale2, means)
    for k, row in enumerate(coords):
        stat, theta = stat_from_coords(row), param_from_coords(row)
        for got in ((stat.s2, stat.m), (theta.sigma2, theta.mu)):
            assert np.float64(got[0]).tobytes() == scale2[k].tobytes()
            assert got[1].tobytes() == means[k].tobytes()
        assert coords_from_stat(stat).tobytes() == back[k].tobytes()
        assert coords_from_param(theta).tobytes() == back[k].tobytes()
    assert np.all(np.abs(back - coords) <= 1e-15 * np.maximum(np.abs(coords), 1.0))


@given(problems(), st.floats(-5.0, 5.0))
def test_ip_estimate_minimizes_penalty_over_s2(problem, log_s2):
    # theta = IP(x) is the parameter whose penalty-minimizing observation is x.
    cfg, prior, m = problem
    x = SufficientStat(m, math.exp(log_s2))
    theta = ip_estimate(x, prior, cfg).theta
    at_x = code_penalty_R(theta, x, prior, cfg)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        assert code_penalty_R(theta, SufficientStat(m, x.s2 * factor), prior, cfg) >= at_x


# Characters that matter to the parser, plus a few that Unicode treats as
# digits, spaces or line breaks.  A fixed alphabet also spares Hypothesis
# its full Unicode table.
config_text = st.text(alphabet="JNl_ist,=#:.-+e0123456789 \tfixnaMLIPWF\x00\xa0\u0663\u2028", max_size=16)
config_keys = st.sampled_from(
    ["J", "N_list", "trials", "sigma2_true", "mu_law", "estimators", "priors", "seed", "sigma2true", "j", ""]
)
config_values = st.one_of(
    config_text,
    st.integers(-3, 300).map(str),
    st.sampled_from(
        ["2", "10, 100", "10, a", "1.5", "nan", "-inf", "fixed:abc", "fixed:0.5", "fixed:", "zero",
         "ml, Marginalized", "ML, foo", "wallace, 2.5", "", "1e999"]
    ),
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    config_text,
)


@given(st.lists(config_lines, max_size=10))
def test_fuzzed_sweep_config_raises_only_invalid_config(lines):
    try:
        parse_sweep_config("\n".join(lines))
    except InvalidConfigError:
        pass


@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.sampled_from(["wallace", "1", 1.0, "scale-free", str(n + 1), float(n + 1), "3.5"]), min_size=1, max_size=6,
    ))),
    st.lists(st.sampled_from(list(SIGMA2_HAT)), min_size=1, max_size=4),
)
def test_sweep_pairs_are_keyed_by_exponent(case, methods):
    # One key per method and distinct exponent, in first-listed order, and
    # the sweep's rows name the same pairs; scale-free is p = N + 1.
    n, priors = case
    spec = SweepSpec(J=2, N_list=(n,), trials=2, estimators=methods, priors=priors)
    named = {"wallace": 1.0, "scale-free": n + 1.0}
    exponents = list(dict.fromkeys(named[p] if p in named else float(p) for p in priors))
    keys = list(trial_ratios(spec, n))
    assert keys == [(r.estimator, r.prior_p) for r in run_sweep(spec) if r.N == n]
    assert keys == [(m, p) for m in dict.fromkeys(methods) for p in ([None] if m in PRIOR_FREE_METHODS else exponents)]


PROBLEM_ARRAYS = ("mass", "cell_s2", "cell_m", "cell_coords", "cand_sigma2", "cand_mu", "penalty")


@st.composite
def discretized_problems(draw):
    """Small truncated instances: N <= 2, Wallace, scale-free or other
    priors, random boxes, lattice or explicit candidates."""
    n = draw(st.integers(1, 2))
    cfg = ProblemConfig(N=n, J=draw(st.integers(2, 5)))
    prior = PriorSpec(draw(st.one_of(st.just(1.0), st.just(n + 1.0), st.floats(1.0, n + 3.0))))
    lo = draw(st.lists(st.floats(-3.0, 1.0), min_size=n + 1, max_size=n + 1))
    width = draw(st.lists(st.floats(0.1, 3.0), min_size=n + 1, max_size=n + 1))
    box = np.stack([lo, np.add(lo, width)], axis=1)
    res = draw(st.lists(st.integers(2, 6 if n == 1 else 3), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        spec = CandidateSpec(extension=draw(st.sampled_from([0.0, 0.5, 1.0])))
    else:
        params = draw(st.lists(
            st.tuples(st.floats(0.05, 20.0), st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)),
            min_size=1, max_size=5,
        ))
        spec = CandidateSpec(parameters=tuple(Parameter(s2, mu) for s2, mu in params))
    return discretize(cfg, prior, box, res, spec)


@st.composite
def torus_problems(draw):
    """Torus instances with up to 200 cells and any stride dividing them."""
    n = draw(st.integers(1, 2))
    cfg = ProblemConfig(N=n, J=draw(st.integers(2, 5)))
    cells = draw(st.integers(2, 200))
    stride = draw(st.sampled_from([k for k in range(1, cells + 1) if cells % k == 0]))
    lo = draw(st.floats(-3.0, 0.0))
    return torus_problem(
        cfg, PriorSpec.scale_free(cfg), cells,
        log_s_lo=lo, log_s_hi=lo + draw(st.floats(0.5, 6.0)),
        mean_coord=draw(st.floats(-3.0, 3.0)), candidate_stride=stride,
    )


# Re-deriving log s from s2 once moved 4 offsets of this instance to the
# other side of the circle and 471 penalty entries by up to 114 nats.
TORUS_200 = torus_problem(ProblemConfig(N=1, J=2), PriorSpec(2.0), 200, mean_coord=1.3, candidate_stride=4)


@given(st.one_of(discretized_problems(), torus_problems()), st.integers(0, 2**32 - 1))
@example(TORUS_200, 0)
def test_round_trips_are_bit_identical(problem, seed):
    back = problem_from_text(problem_to_text(problem))
    for name in PROBLEM_ARRAYS:
        a, b = getattr(back, name), getattr(problem, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    # The text fixes every other field, lattice geometry included.
    assert problem_to_text(back) == problem_to_text(problem)

    assign = np.random.default_rng(seed).integers(0, problem.n_candidates, problem.n_cells)
    book = make_codebook(problem, assign)
    again = codebook_from_text(codebook_to_text(book), back)
    assert again.assign.tobytes() == book.assign.tobytes()
    assert again.cost == book.cost


_CFG = ProblemConfig(N=1, J=2)
_SMALL = {
    "torus": torus_problem(_CFG, PriorSpec(2.0), 4, candidate_stride=2),
    "lattice": discretize(_CFG, PriorSpec(1.0), [[-1.0, 1.0]] * 2, 2, CandidateSpec(extension=0.5)),
}
_TEXTS = {
    **{name: problem_to_text(prob) for name, prob in _SMALL.items()},
    "codebook": codebook_to_text(make_codebook(_SMALL["lattice"], np.arange(4))),
}

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.integers(), st.just(10**400),
    st.floats(), st.text(alphabet="x0.-", max_size=3),
    st.lists(st.one_of(st.integers(-2, 5), st.floats(-3.0, 3.0)), max_size=3),
    st.dictionaries(st.sampled_from(["lo", "hi", "shape", "stride"]), st.integers(0, 3), max_size=2),
)


@st.composite
def fuzzed_reports(draw):
    """``(kind, text)``: a small report truncated, spliced with characters,
    or with a field, an element or a lattice entry replaced or deleted."""
    kind = draw(st.sampled_from(sorted(_TEXTS)))
    text = _TEXTS[kind]
    how = draw(st.sampled_from(["truncate", "splice", "field"]))
    if how == "truncate":
        return kind, text[: draw(st.integers(0, len(text)))]
    if how == "splice":
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        return kind, text[:i] + draw(st.text(alphabet='{}[],:"-.0123456789eEnul x', max_size=8)) + text[j:]
    data = json.loads(text)
    node = data
    key = draw(st.sampled_from(sorted(data)))
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(json_values)
    return kind, json.dumps(data)


@settings(max_examples=300)
@given(fuzzed_reports())
def test_fuzzed_reports_raise_only_invalid_config(report):
    kind, text = report
    try:
        if kind == "codebook":
            codebook_from_text(text, _SMALL["lattice"])
        else:
            problem_from_text(text)
    except InvalidConfigError:
        pass


@st.composite
def synthetic_problems(draw):
    """Explicit instances: masses spread over up to 80 e-folds (or equal),
    penalties rounded so that move costs tie, duplicated candidates (exact
    ties), and candidate counts below, at and above the length of the
    descent's least-penalty lists."""
    c = draw(st.integers(1, 40))
    b = draw(st.one_of(st.just(_TOP_K), st.just(_TOP_K + 1), st.integers(1, 2 * _TOP_K)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = np.exp(rng.uniform(-draw(st.sampled_from([0.0, 5.0, 40.0, 80.0])), 0.0, c))
    mass /= mass.sum()
    penalty = rng.uniform(0.0, 4.0, (c, b))
    if draw(st.booleans()):
        penalty = np.round(penalty, 1)
    if draw(st.booleans()):
        penalty = np.concatenate([penalty, penalty[:, rng.integers(0, b, draw(st.integers(1, b)))]], axis=1)
    return synthetic_problem(mass, penalty)


# With one-entry lists, a row scan that left out the used candidates would
# miss a best move of this instance.
SCAN_NEEDS_USED = synthetic_problem(
    [0.09, 0.11, 0.08, 0.72], [[1.7, 0.0, 0.4], [1.6, 1.5, 1.5], [1.8, 0.2, 1.4], [1.0, 1.0, 2.0]]
)


# Cell 0 is alone on its pointwise candidate, so leaving it empties the
# region exactly (q_a - m_i == 0.0), and joining cells 1 and 2 pays.
ALONE = synthetic_problem([0.2, 0.4, 0.4], [[0.0, 1.0, 3.0], [2.0, 0.0, 3.0], [2.0, 0.0, 3.0]])
# Masses over 80 e-folds and two triples of equal columns.  From the
# seed-13 start [5, 5, 4], cell 0 ties between candidates 0, 2 and 3 and
# takes 0; cell 2 then joins candidate 5, which holds a negative residue
# of the mass that left it.  Used-candidate sets carried across visits
# (or read from the assignment) miss moves here.
SPREAD = synthetic_problem(
    np.exp(-np.array([0.0, 60.0, 80.0])) / np.exp(-np.array([0.0, 60.0, 80.0])).sum(),
    [[1.4, 2.6, 1.4, 1.4, 2.6, 2.6], [1.5, 3.5, 0.3, 0.3, 3.5, 3.5], [2.7, 1.4, 3.7, 3.7, 1.4, 1.4]],
)


@settings(max_examples=150)
@given(
    st.one_of(synthetic_problems(), discretized_problems(), torus_problems()),
    st.sampled_from(["pointwise", "random", "one region"]),
    st.sampled_from([1, 2, _TOP_K]),
    st.integers(0, 2**32 - 1),
)
@example(SCAN_NEEDS_USED, "random", 1, 430)
@example(ALONE, "pointwise", 1, 0)
@example(ALONE, "pointwise", _TOP_K, 0)
@example(SPREAD, "random", 2, 13)
def test_descent_follows_full_scan_oracle(problem, start, top_k, seed):
    rng = np.random.default_rng(seed)
    if start == "pointwise":
        init = pointwise_assignment(problem)
    elif start == "random":
        init = rng.integers(0, problem.n_candidates, problem.n_cells)
    else:
        init = np.full(problem.n_cells, rng.integers(problem.n_candidates))
    # Shorter least-penalty lists leave more visits to the exact row scan.
    with mock.patch("nsmml.codebook._TOP_K", top_k):
        steps = descent_steps(problem, _descend(problem, init, _least_penalties(problem.penalty)))
    want = descent_steps(problem, oracle_descend(problem, init))
    # The same accepted moves in the same order, and the same bits.
    assert [level.hex() for level, _, _ in steps] == [level.hex() for level, _, _ in want]
    assert [a.tobytes() for _, _, a in steps] == [a.tobytes() for _, _, a in want]


@st.composite
def exact_route_problems(draw):
    """Small instances for exact search: any masses on a few cells, or
    equal masses, or 2-3 distinct mass values, on instances past 2^20
    assignments."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    branch = draw(st.sampled_from(["dirichlet", "equal", "classes"]))
    if branch == "dirichlet":
        c, b = draw(st.integers(1, 6)), draw(st.integers(1, 5))
        mass = rng.dirichlet(np.ones(c))
    elif branch == "equal":
        c, b = draw(st.integers(11, 14)), draw(st.integers(4, 5))
        mass = np.full(c, 1.0 / c)
    else:
        c, k = draw(st.integers(8, 12)), draw(st.integers(2, 3))
        b = int(2 ** (20 / c)) + 1 + draw(st.integers(0, 1))  # b**c > 2**20
        mass = rng.uniform(0.5, 1.5, k)[rng.permutation(np.arange(c) % k)]
        mass /= mass.sum()
        assert np.unique(mass).size == k
    return synthetic_problem(mass, rng.uniform(0.0, 3.0, (c, b)))


# Float offsets of log-scale coordinates made shifts of this torus move L
# by up to 1.36e-12 (seed 4 among them).
_CFG_3 = ProblemConfig(N=3, J=3)
TORUS_56 = torus_problem(_CFG_3, PriorSpec.scale_free(_CFG_3), 56, 0.0, 6.0, 3.0, 4)


@given(torus_problems(), st.integers(0, 2**32 - 1))
@example(TORUS_56, 4)
def test_torus_transport_preserves_cost(problem, seed):
    assign = np.random.default_rng(seed).integers(0, problem.n_candidates, problem.n_cells)
    book = make_codebook(problem, assign)
    for shift in range(0, problem.n_cells, problem.n_cells // problem.n_candidates):
        assert abs(codebook_transport(problem, book, shift).cost.L - book.cost.L) <= 1e-12


@given(torus_problems())
@example(TORUS_56)
def test_torus_shifts_permute_the_penalty_exactly(problem):
    pen, stride = problem.penalty, problem.n_cells // problem.n_candidates
    for shift in range(0, problem.n_cells, stride):
        assert np.array_equal(np.roll(np.roll(pen, shift, 0), shift // stride, 1), pen)


def test_scale_free_lattices_pass_the_uniform_mass_gate():
    # Bit-identical masses make one mass class, so exact search on a
    # scale-free lattice counts cells per candidate and nothing more.
    for n, res in ((1, 32), (1, 64), (2, 16), (2, 24)):
        cfg = ProblemConfig(N=n, J=2)
        one = CandidateSpec(parameters=(Parameter(1.0, np.zeros(n)),))
        problem = discretize(cfg, PriorSpec.scale_free(cfg), [[-1.5, 1.5]] * (n + 1), res, one)
        assert problem.n_cells == res ** (n + 1)
        assert np.unique(problem.mass).size == 1


# 5^16 assignments in four mass classes (one per log-scale row).
WALLACE_44 = discretize(
    _CFG, PriorSpec.wallace(), [[-1.5, 1.5]] * 2, 4,
    CandidateSpec(parameters=tuple(Parameter(math.exp(2.0 * ls), [u * math.exp(ls)])
                                   for ls, u in ((-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1)))),
)


@given(exact_route_problems(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(WALLACE_44, 4, 0)
def test_exact_local_pointwise_ordering(problem, restarts, seed):
    exact = smml_exhaustive(problem)[0].cost.L
    local = smml_local_search(problem, restarts=restarts, seed=seed).cost.L
    pointwise = codebook_cost(problem, pointwise_assignment(problem)).L
    assert exact - 1e-12 <= local <= pointwise + 1e-12


@st.composite
def exact_dp_problems(draw):
    """Instances of up to 5^7 assignments: uniform masses, two mass classes
    one ulp apart, or one class per cell; often with a duplicated column, so
    that optima tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, b = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    masses = draw(st.sampled_from(["uniform", "ulp", "per cell"]))
    mass = rng.dirichlet(np.ones(c)) if masses == "per cell" else np.full(c, 1.0 / c)
    if masses == "ulp":
        mass[rng.integers(c)] = np.nextafter(1.0 / c, 1.0)
    penalty = rng.uniform(0.0, 3.0, (c, b))
    if draw(st.booleans()):
        penalty = np.concatenate([penalty, penalty[:, rng.integers(b), None]], axis=1)
    return synthetic_problem(mass, penalty)


@given(exact_dp_problems())
def test_exact_search_returns_the_brute_force_optima(problem):
    exact = [o.assign.tolist() for o in smml_exhaustive(problem)]
    assert exact == sorted(a.tolist() for a in oracle_brute_optima(problem))


@st.composite
def small_rings(draw):
    """Rings of 2-16 cells at a stride dividing them, with 1-12 candidates
    drawn evenly (past 12 the count-vector DP takes seconds, and 16
    candidates overflow its codes), N 1-3, J 2-3, mean coordinate 0-1.5."""
    candidates = draw(st.integers(1, 12))
    stride = draw(st.integers(2 if candidates == 1 else 1, 16 // candidates))
    cells = candidates * stride
    cfg = ProblemConfig(N=draw(st.integers(1, 3)), J=draw(st.integers(2, 3)))
    return torus_problem(
        cfg, PriorSpec.scale_free(cfg), cells, mean_coord=draw(st.floats(0.0, 1.5)), candidate_stride=stride
    )


_CFG_1 = ProblemConfig(N=1, J=2)
_CFG_2 = ProblemConfig(N=2, J=2)


@given(small_rings())
@example(torus_problem(_CFG_1, PriorSpec.scale_free(_CFG_1), 12, mean_coord=1.3, candidate_stride=1))
@example(torus_problem(_CFG_1, PriorSpec.scale_free(_CFG_1), 12, mean_coord=1.3, candidate_stride=2))
# Six one-region optima, and one 4-region optimum that every stride rotation
# maps to itself: each is listed once only by the arc route's once-only rule.
@example(torus_problem(_CFG_1, PriorSpec.scale_free(_CFG_1), 12, log_s_lo=-0.5, log_s_hi=0.5, candidate_stride=2))
@example(torus_problem(_CFG_2, PriorSpec.scale_free(_CFG_2), 8, candidate_stride=2))
def test_ring_routes_return_the_same_optima(problem):
    # Rings that pass the precondition take the arc route, the rest fall
    # back; either way the optima and their L bits are the count-vector DP's.
    routed, reference = smml_exhaustive(problem), _count_vector_optima(problem)
    assert _arc_stride(problem) in (None, problem.n_cells // problem.n_candidates)
    assert [o.assign.tolist() for o in routed] == [o.assign.tolist() for o in reference]
    assert np.array([o.cost.L for o in routed]).tobytes() == np.array([o.cost.L for o in reference]).tobytes()

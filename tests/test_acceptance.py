"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a passing run (pytest shows captured output automatically when a
criterion fails).
"""

import math

import numpy as np

from nsmml import (
    Parameter,
    PriorSpec,
    ProblemConfig,
    SufficientStat,
    check_automorphism,
    comprehensiveness_check,
    find_valid_c,
    homogeneity_check,
    ip_estimate,
    locality_certificate,
    log_marginal,
    marginalized_sigma2_ml,
    ml_estimate,
    wf_estimate,
)
from nsmml.codebook import (
    CandidateSpec,
    codebook_cost,
    codebook_transport,
    discretize,
    pointwise_assignment,
    smml_exhaustive,
    smml_ip_overlap,
    smml_local_search,
    torus_problem,
)
from nsmml.harness import SweepSpec, run_sweep
from nsmml.regularity import Automorphism
from nsmml.cli import main

from oracles import oracle_log_marginal


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")


def random_stat(rng, n):
    return SufficientStat(rng.normal(0.0, 2.0, n), math.exp(rng.normal(0.0, 1.0)))


def test_criterion_1_consistency_dichotomy():
    spec = SweepSpec(J=2, N_list=(2000,), trials=200, sigma2_true=1.0, seed=20250810)
    rows = {(r.estimator, r.prior_p): r.mean_ratio for r in run_sweep(spec)}
    inconsistent = [
        rows[("ML", None)],
        rows[("IP", 2001.0)],
        rows[("WF", 2001.0)],
    ]
    consistent = [
        rows[("IP", 1.0)],
        rows[("WF", 1.0)],
        rows[("MARGINALIZED_SIGMA2", None)],
    ]
    ok_inc = all(0.48 <= v <= 0.52 for v in inconsistent)
    ok_con = all(0.97 <= v <= 1.03 for v in consistent)
    # Each mean is c chi2(N) / (2N) averaged over the trials, c = 1 on the
    # ML side and 2 on the consistent side: exact mean c / 2, and sd
    # c sqrt(2N) / (2N sqrt(trials)).
    se = math.sqrt(2 * 2000) / (2 * 2000 * math.sqrt(200))
    z = [(v - 0.5) / se for v in inconsistent] + [(v / 2 - 0.5) / se for v in consistent]
    report(1, "consistency dichotomy", ok_inc and ok_con,
           f"ML-side means {['%.4f' % v for v in inconsistent]}, "
           f"consistent-side means {['%.4f' % v for v in consistent]}, "
           f"z against the exact means {['%+.2f' % v for v in z]}")
    assert ok_inc and ok_con


def test_criterion_2_exact_coincidences():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
        stat = random_stat(rng, n)
        sf = PriorSpec.scale_free(cfg)
        ml = ml_estimate(stat, cfg).theta.sigma2
        for est in (ip_estimate(stat, sf, cfg), wf_estimate(stat, sf, cfg)):
            worst = max(worst, abs(est.theta.sigma2 - ml) / ml)
    ok = worst < 1e-10
    report(2, "IP/WF = ML under the scale-free prior", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_3_internal_consistency_counterexample():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        cfg = ProblemConfig(N=n, J=int(rng.integers(2, 5)))
        stat = random_stat(rng, n)
        marg = marginalized_sigma2_ml(stat, cfg)
        joint = ip_estimate(stat, PriorSpec.scale_free(cfg), cfg).theta.sigma2
        expected = cfg.J / (cfg.J - 1.0)
        if marg == joint or abs(marg / joint - expected) > 1e-12 * expected:
            ok = False
    report(3, "marginalized vs joint variance estimates differ by J/(J-1)", ok)
    assert ok


def test_criterion_4_regularity_suite():
    cfg = ProblemConfig(N=2, J=3)
    sf = PriorSpec.scale_free(cfg)
    w = PriorSpec.wallace()
    rng = np.random.default_rng(4)
    thetas = [Parameter(math.exp(rng.normal()), rng.normal(0, 2, 2)) for _ in range(100)]
    stats = [random_stat(rng, 2) for _ in range(100)]

    h_sf = homogeneity_check(sf, cfg, thetas)
    c_sf = comprehensiveness_check(sf, cfg, stats)
    h_w = homogeneity_check(w, cfg, thetas)
    c_w = comprehensiveness_check(w, cfg, stats)
    ok_props = (
        h_sf.is_homogeneous and h_sf.spread < 1e-9
        and c_sf.is_comprehensive and c_sf.spread < 1e-9
        and not h_w.is_homogeneous and h_w.drift["max_residual"] < 1e-9
        and not c_w.is_comprehensive and c_w.drift["max_residual"] < 1e-9
    )

    ok_aut = True
    for alpha, beta in ((2.0, 0.4), (0.5, -1.0), (1.0, 2.0)):
        aut = Automorphism(alpha, np.full(2, beta))
        for prior in (sf, w, PriorSpec(1.7)):
            rep = check_automorphism(aut, prior, cfg, samples=50, seed=44)
            predicted = abs(prior.p - (cfg.N + 1)) * abs(math.log(alpha))
            should_pass = predicted < 1e-9
            if rep.marginal_ok != should_pass or not rep.likelihood_ok:
                ok_aut = False
            if not should_pass and abs(rep.max_marginal_violation - predicted) > 1e-9:
                ok_aut = False
    report(4, "regularity suite", ok_props and ok_aut,
           f"scale-free spreads {h_sf.spread:.1e}/{c_sf.spread:.1e}, "
           f"Wallace drift residuals {h_w.drift['max_residual']:.1e}/{c_w.drift['max_residual']:.1e}")
    assert ok_props and ok_aut


def test_criterion_5_marginal_closed_forms():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cfg = ProblemConfig(N=n, J=int(rng.integers(2, 4)))
        stat = random_stat(rng, n)
        for prior in (PriorSpec.wallace(), PriorSpec.scale_free(cfg)):
            closed = log_marginal(stat, prior, cfg)
            oracle = oracle_log_marginal(stat, prior.p, cfg)
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    ok = worst < 1e-6
    report(5, "marginals match adaptive quadrature", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_6_locality_certificate():
    cfg = ProblemConfig(N=2, J=2)
    c = find_valid_c(cfg)
    cert, rep = locality_certificate(Parameter(1.0, np.zeros(2)), cfg, c=c)
    ok = rep.all_pass and rep.n_exterior >= 10_000 and rep.worst_margin > 0.0

    rng = np.random.default_rng(6)
    v0_values = {rep.v0_bound}
    for _ in range(10):
        theta = Parameter(math.exp(rng.normal()), rng.normal(0, 2, 2))
        _, r2 = locality_certificate(theta, cfg, c=c, seed=int(rng.integers(10**6)))
        v0_values.add(r2.v0_bound)
        ok = ok and r2.all_pass
    ok = ok and len(v0_values) == 1
    report(6, "locality certificate", ok,
           f"c={c}, exterior points {rep.n_exterior}, worst margin {rep.worst_margin:.3f}, "
           f"V0 distinct values {len(v0_values)}")
    assert ok


def corpus_instance(seed: int):
    rng = np.random.default_rng((20250800, seed))
    cfg = ProblemConfig(N=1, J=int(rng.integers(2, 4)))
    prior = PriorSpec(float(rng.choice([1.0, 2.0])))
    shapes = [(3, 4), (4, 3), (2, 6), (3, 3), (2, 5), (4, 2), (2, 4), (3, 2), (2, 3)]
    shape = shapes[int(rng.integers(len(shapes)))]
    cells = shape[0] * shape[1]
    max_b = max(2, int((2**20) ** (1.0 / cells)))
    n_cand = int(rng.integers(2, min(6, max_b) + 1))
    center = rng.uniform(-0.6, 0.6)
    w0 = rng.uniform(0.8, 2.0)
    w1 = rng.uniform(0.8, 2.0)
    box = [[center - w0 / 2, center + w0 / 2], [-w1 / 2, w1 / 2]]
    params = tuple(
        Parameter(math.exp(rng.normal(center, 0.6)) ** 2, [rng.normal(0, 0.6)])
        for _ in range(n_cand)
    )
    return discretize(cfg, prior, box, shape, CandidateSpec(parameters=params))


def test_criterion_7_local_search_vs_exhaustive():
    matches = 0
    ordering_ok = True
    for seed in range(50):
        problem = corpus_instance(seed)
        exact = smml_exhaustive(problem)[0].cost.L
        local = smml_local_search(problem, restarts=4, seed=seed).cost.L
        greedy = codebook_cost(problem, pointwise_assignment(problem)).L
        if local < exact - 1e-12 or local > greedy + 1e-12:
            ordering_ok = False
        if abs(local - exact) <= 1e-9:
            matches += 1
    ok = matches >= 45 and ordering_ok
    report(7, "local search vs exhaustive oracle", ok,
           f"matched {matches}/50, ordering chain holds: {ordering_ok}")
    assert ok


def test_criterion_8_torus_transport_closure():
    cfg = ProblemConfig(N=1, J=2)
    torus = torus_problem(cfg, PriorSpec.scale_free(cfg), 16, candidate_stride=2)
    optima = smml_exhaustive(torus)
    best = optima[0].cost.L
    optimal_set = {tuple(o.assign) for o in optima}
    ok = len(optima) > 0
    worst_dl = 0.0
    for book in optima:
        for shift in range(0, 16, 2):
            moved = codebook_transport(torus, book, shift)
            worst_dl = max(worst_dl, abs(moved.cost.L - best))
            if tuple(moved.assign) not in optimal_set:
                ok = False
    ok = ok and worst_dl < 1e-12
    report(8, "torus transport closure of the optimal set", ok,
           f"{len(optima)} optima, worst |dL| {worst_dl:.2e}")
    assert ok


def test_criterion_9_overlap_benchmark():
    cfg = ProblemConfig(N=1, J=2)
    problem = discretize(cfg, PriorSpec.scale_free(cfg), [[-1.5, 1.5], [-1.5, 1.5]], 16)
    book = smml_local_search(problem, restarts=8, seed=0)
    rep = smml_ip_overlap(problem, book, interior_margin=2)
    ok = rep.fraction_within_one_region_diameter >= 0.9
    report(9, "codebook / Ideal-Point overlap (empirical)", ok,
           f"fraction {rep.fraction_within_one_region_diameter:.3f} over {rep.n_interior} interior cells")
    assert ok


def test_criterion_10_byte_identical_csv(tmp_path, capsys):
    cfgfile = tmp_path / "acceptance.cfg"
    cfgfile.write_text(
        "J = 2\nN_list = 100, 2000\ntrials = 200\nsigma2_true = 1.0\n"
        "mu_law = normal\nestimators = ML, IP, WF, MARGINALIZED\n"
        "priors = wallace, scale-free\nseed = 20250810\n"
    )
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    ok = b1 == b2 and len(b1) > 0
    report(10, "byte-identical CSV under fixed seeds", ok, f"{len(b1)} bytes")
    assert ok

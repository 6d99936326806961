"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (set-up) and
runs one pass of its timed phase in ``run_pass``.  A pass is a closed loop:
every call waits for the previous one, in this single-threaded process.
Every library call goes through ``Recorder.call`` under the name of the
``nsmml`` module it belongs to, and every checked step is one
``Recorder.op``.  Invariants are checked on every seed; golden values
(``golden.json``) only on the default seed.  The choice of each workload,
and which layer change each one exercises or bypasses, is set out in
``PREDICTIONS.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from nsmml import cli as nsmml_cli
from nsmml import codebook as cbk
from nsmml import estimators as est
from nsmml import harness, model, regularity

from tracing import check

DEFAULT_SEED = 0
BRUTE_LIMIT = 2**20  # smml_exhaustive's default brute-force limit


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    name = ""
    count_names: tuple[str, ...] = ()

    def __init__(self, seed: int, golden: dict | None, tmp: Path) -> None:
        self.seed = seed
        self.golden = golden
        self.tmp = tmp
        self.rng = np.random.default_rng((20261017, seed))
        self.observed: dict = {}
        self.counts: dict[str, float] = {}

    def start_pass(self) -> None:
        self.counts = dict.fromkeys(self.count_names, 0)
        self.counts["cli.exit_mismatch"] = 0

    def pin(self, key: str, value, tol: float | None = None) -> None:
        """Record a value; on the default seed, compare it to its golden value."""
        self.observed[key] = value
        if self.golden is None:
            return
        check(key in self.golden, f"no golden value for {key}")
        want = self.golden[key]
        if tol is None:
            check(value == want, f"{key}: {value!r} != golden {want!r}")
        else:
            check(abs(value - want) <= tol, f"{key}: {value!r} differs from golden {want!r}")

    def cli(self, rec, argv: list[str], expect: int) -> str:
        """Run one ``nsmml`` subcommand in-process; check its exit code."""

        def invoke():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = nsmml_cli.main(argv)
            return code, out.getvalue()

        code, out = rec.call("cli", argv[0], invoke)
        if code != expect:
            self.counts["cli.exit_mismatch"] += 1
        check(code == expect, f"nsmml {' '.join(argv)} exited {code}, expected {expect}")
        return out

    def run_pass(self, rec) -> None:
        raise NotImplementedError


def _optima_key(optima) -> list[list[int]]:
    return [[int(a) for a in book.assign] for book in optima]


class CodebookLocal(Workload):
    """Lattice instances solved by local search, audited and serialized."""

    name = "codebook-local"
    count_names = ("codebook.penalty_mb", "codebook.serialized_mb", "codebook.restarts")
    # (label, N, prior, cells per axis, local-search restarts).  Penalty
    # matrices run from 4.7 MB (16^2) to 75 MB (32^2): about the L2 size up
    # to just under the L3 size.
    INSTANCES = (
        ("sf16", 1, "scale-free", 16, 4),
        ("sf24", 1, "scale-free", 24, 1),
        ("sf32", 1, "scale-free", 32, 1),
        ("wallace24", 1, "wallace", 24, 1),
        ("sf8x3", 2, "scale-free", 8, 1),
    )
    PENALTY_SAMPLES = 16

    def __init__(self, seed, golden, tmp) -> None:
        super().__init__(seed, golden, tmp)
        # The instances are fixed: even a 2% change of the box changes the
        # number of local-search sweeps, and with it the work, by up to 50%
        # on one instance.  The seed drives the random restarts of the 16^2
        # instance and the sampled penalty checks.
        self.instances = []
        for label, n, prior_name, res, restarts in self.INSTANCES:
            cfg = model.ProblemConfig(N=n, J=2)
            prior = harness.resolve_prior(prior_name, cfg)
            box = [[-1.5, 1.5]] * (n + 1)
            cells = res ** (n + 1)
            cands = (3 * res) ** (n + 1)
            samples = list(
                zip(
                    self.rng.integers(0, cells, self.PENALTY_SAMPLES).tolist(),
                    self.rng.integers(0, cands, self.PENALTY_SAMPLES).tolist(),
                )
            )
            self.instances.append((label, cfg, prior, box, res, restarts, samples))

    def run_pass(self, rec) -> None:
        for inst in self.instances:
            self._instance(rec, *inst)
        self._cli(rec)

    def _instance(self, rec, label, cfg, prior, box, res, restarts, samples) -> None:
        problem = book = None
        with rec.op(f"{label}.discretize"):
            problem = rec.call("codebook", "discretize", cbk.discretize, cfg, prior, box, res)
            self.counts["codebook.penalty_mb"] += problem.penalty.size * 8 / 1e6
            for i, j in samples:
                want = rec.call(
                    "model", "code_penalty_R", model.code_penalty_R,
                    problem.candidate_parameter(j), problem.cell_stat(i), prior, cfg,
                )
                # The tests' absolute tolerance (1e-11 on O(1) entries),
                # scaled to the entry: entries reach ~4e5 nats, where one
                # ulp is already ~6e-11.
                check(_rel_close(problem.penalty[i, j], want, 1e-11), f"penalty[{i},{j}] != R")
        with rec.op(f"{label}.smml_local_search"):
            book = rec.call(
                "codebook", "smml_local_search", cbk.smml_local_search,
                problem, restarts=restarts, seed=self.seed,
            )
            self.counts["codebook.restarts"] += restarts
            pointwise = rec.call("codebook", "pointwise_assignment", cbk.pointwise_assignment, problem)
            greedy = rec.call("codebook", "codebook_cost", cbk.codebook_cost, problem, pointwise)
            check(book.cost.L <= greedy.L + 1e-12, "local search costs more than pointwise")
            self.pin(f"{label}.local_L", book.cost.L, 1e-9)
        with rec.op(f"{label}.region_mass_audit"):
            audit = rec.call("codebook", "region_mass_audit", cbk.region_mass_audit, problem, book)
            masses = list(audit.region_masses.values())
            check(abs(sum(masses) - 1.0) <= 1e-12, "region masses do not sum to 1")
            check(audit.max_region_mass == max(masses), "max region mass is not the maximum")
        with rec.op(f"{label}.smml_ip_overlap"):
            rep = rec.call(
                "codebook", "smml_ip_overlap", cbk.smml_ip_overlap, problem, book, interior_margin=1
            )
            check(rep.n_interior == (res - 2) ** (cfg.N + 1), "wrong interior cell count")
            check(0.0 <= rep.fraction_within_one_region_diameter <= 1.0, "overlap fraction range")
        with rec.op(f"{label}.codebook_transport"):
            moved = rec.call("codebook", "codebook_transport", cbk.codebook_transport, problem, book, 1)
            bound = rec.call("codebook", "transport_cost_bound", cbk.transport_cost_bound, problem, 1)
            # The bound covers uniform-mass instances only.
            if np.ptp(problem.mass) <= 1e-15:
                check(abs(moved.cost.L - book.cost.L) <= bound + 1e-12, "transport exceeds its bound")
            check(math.isfinite(moved.cost.L), "transported cost is not finite")
        with rec.op(f"{label}.serialize"):
            text = rec.call("codebook", "problem_to_text", cbk.problem_to_text, problem)
            back = rec.call("codebook", "problem_from_text", cbk.problem_from_text, text)
            check(np.array_equal(back.penalty, problem.penalty), "reloaded penalty is not bit-equal")
            check(np.array_equal(back.mass, problem.mass), "reloaded masses differ")
            book_text = rec.call("codebook", "codebook_to_text", cbk.codebook_to_text, book)
            back_book = rec.call("codebook", "codebook_from_text", cbk.codebook_from_text, book_text, back)
            check(np.array_equal(back_book.assign, book.assign), "reloaded codebook differs")
            check(back_book.cost.L == book.cost.L, "reloaded codebook cost differs")
            self.counts["codebook.serialized_mb"] += (len(text) + len(book_text)) / 1e6

    def _cli(self, rec) -> None:
        problem_file = self.tmp / "problem.txt"
        book_file = self.tmp / "codebook.txt"
        common = ["--restarts", "1", "--interior-margin", "1"]
        first = None
        with rec.op("cli.smml.save"):
            first = self.cli(
                rec,
                ["smml", "--resolution", "16", *common,
                 "--save-problem", str(problem_file), "--save-codebook", str(book_file)],
                expect=0,
            )
            self.pin("cli.smml.report_sha256", _sha256(first))
        with rec.op("cli.smml.load"):
            second = self.cli(rec, ["smml", "--load-problem", str(problem_file), *common], expect=0)
            check(second == first, "report of the reloaded problem differs")
            problem = rec.call(
                "codebook", "problem_from_text", cbk.problem_from_text, problem_file.read_text()
            )
            book = rec.call(
                "codebook", "codebook_from_text", cbk.codebook_from_text, book_file.read_text(), problem
            )
            check(f"\nL {book.cost.L!r}\n" in first, "saved codebook cost is not the reported L")


class CodebookExact(Workload):
    """Exact search on torus rings, 2-D lattices and a brute-force corpus."""

    name = "codebook-exact"
    count_names = (
        "codebook.optima",
        "codebook.exact_instances",
        "codebook.local_exact_matches",
        "codebook.brute.assignments",
        "codebook.restarts",
    )
    RINGS = (12, 14, 16)  # cells; candidates at stride 2
    # (cells per axis, explicit candidates): beyond the brute-force limit,
    # so smml_exhaustive takes the count-vector DP on a 2-D instance.
    LATTICES = (((4, 4), 5), ((3, 5), 6), ((4, 4), 6))
    # (cells per axis, candidates, prior p): candidates**cells near 2**20.
    CORPUS = (
        ((2, 5), 4, 1.0),
        ((4, 5), 2, 2.0),
        ((3, 3), 4, 2.0),
        ((2, 4), 5, 1.0),
        ((2, 3), 8, 2.0),
        ((3, 4), 3, 1.0),
    )
    RESTARTS = 4

    def __init__(self, seed, golden, tmp) -> None:
        super().__init__(seed, golden, tmp)
        rng = self.rng
        self.cfg = model.ProblemConfig(N=1, J=2)
        self.lattices = []
        for shape, b in self.LATTICES:
            # A fixed candidate pattern with small seeded jitter, so that DP
            # pruning, and with it the work, barely depends on the seed.
            log_sigma = np.repeat(np.linspace(-0.45, 0.45, (b + 1) // 2), 2)[:b]
            coord = np.tile([-0.35, 0.35], (b + 1) // 2)[:b]
            log_sigma = log_sigma + rng.normal(0.0, 0.05, b)
            coord = coord + rng.normal(0.0, 0.05, b)
            params = tuple(
                model.Parameter(math.exp(2.0 * ls), [u * math.exp(ls)])
                for ls, u in zip(log_sigma, coord)
            )
            self.lattices.append((shape, params))
        self.corpus = []
        for shape, b, p in self.CORPUS:
            cfg = model.ProblemConfig(N=1, J=int(rng.integers(2, 4)))
            centre = rng.uniform(-0.6, 0.6)
            w0, w1 = rng.uniform(0.8, 2.0, 2)
            box = [[centre - w0 / 2, centre + w0 / 2], [-w1 / 2, w1 / 2]]
            params = tuple(
                model.Parameter(math.exp(rng.normal(centre, 0.6)) ** 2, [rng.normal(0.0, 0.6)])
                for _ in range(b)
            )
            self.corpus.append((shape, cfg, model.PriorSpec(p), box, params))

    def run_pass(self, rec) -> None:
        sf = model.PriorSpec.scale_free(self.cfg)
        for n in self.RINGS:
            self._ring(rec, n, sf)
        for k, (shape, params) in enumerate(self.lattices):
            box = [[-0.8, 0.8], [-0.8, 0.8]]
            self._exact(rec, f"lattice{k}", "dp_lattice", self.cfg, sf, box, shape, params)
        for k, (shape, cfg, prior, box, params) in enumerate(self.corpus):
            self._exact(rec, f"corpus{k}", "brute", cfg, prior, box, shape, params)

    def _solve(self, rec, label: str, route: str, problem) -> list:
        """Exact optima, checked against local search and the pointwise
        assignment (exact <= local <= pointwise)."""
        brute = problem.n_candidates**problem.n_cells <= BRUTE_LIMIT
        check(brute == (route == "brute"), f"{label}: instance does not take the {route} route")
        optima = rec.call("codebook", "smml_exhaustive", cbk.smml_exhaustive, problem, tag=route)
        check(len(optima) > 0, "no optimum returned")
        best = optima[0].cost.L
        check(all(abs(o.cost.L - best) <= 1e-12 for o in optima), "optima costs differ")
        key = _optima_key(optima)
        check(key == sorted(key), "optima are not sorted")
        self.counts["codebook.optima"] += len(optima)
        self.counts["codebook.exact_instances"] += 1
        if brute:
            self.counts["codebook.brute.assignments"] += problem.n_candidates**problem.n_cells
        local = rec.call(
            "codebook", "smml_local_search", cbk.smml_local_search,
            problem, restarts=self.RESTARTS, seed=self.seed,
        )
        self.counts["codebook.restarts"] += self.RESTARTS
        pointwise = rec.call("codebook", "pointwise_assignment", cbk.pointwise_assignment, problem)
        greedy = rec.call("codebook", "codebook_cost", cbk.codebook_cost, problem, pointwise)
        check(best - 1e-12 <= local.cost.L <= greedy.L + 1e-12, "exact <= local <= pointwise fails")
        if abs(local.cost.L - best) <= 1e-9:
            self.counts["codebook.local_exact_matches"] += 1
        self.pin(f"{label}.exact_L", best, 1e-9)
        self.pin(f"{label}.optima", [" ".join(map(str, a)) for a in key])
        return optima

    def _ring(self, rec, n: int, prior) -> None:
        problem = optima = None
        with rec.op(f"ring{n}.torus_problem"):
            problem = rec.call(
                "codebook", "torus_problem", cbk.torus_problem, self.cfg, prior, n, candidate_stride=2
            )
            check(np.ptp(problem.mass) <= 1e-15, "torus masses are not uniform")
        with rec.op(f"ring{n}.smml_exhaustive"):
            optima = self._solve(rec, f"ring{n}", "dp_ring", problem)
        with rec.op(f"ring{n}.transport_closure"):
            best = optima[0].cost.L
            optimal = {tuple(k) for k in _optima_key(optima)}
            for book in optima:
                for shift in range(0, n, 2):
                    moved = rec.call(
                        "codebook", "codebook_transport", cbk.codebook_transport, problem, book, shift
                    )
                    check(abs(moved.cost.L - best) < 1e-12, "transport changed the cost")
                    check(tuple(int(a) for a in moved.assign) in optimal, "transport left the optimal set")

    def _exact(self, rec, label, route, cfg, prior, box, shape, params) -> None:
        problem = None
        with rec.op(f"{label}.discretize"):
            problem = rec.call(
                "codebook", "discretize", cbk.discretize,
                cfg, prior, box, shape, cbk.CandidateSpec(parameters=params),
            )
        with rec.op(f"{label}.smml_exhaustive"):
            self._solve(rec, label, route, problem)


class SweepCertify(Workload):
    """Consistency sweep, estimator and density batch, regularity checks,
    locality certificates and the non-codebook CLI subcommands."""

    name = "sweep-certify"
    # (N, trials): N <= 100 is interpreter-bound and N >= 2000 numpy-bound;
    # each regime takes about half of the sweep time.
    SWEEPS = ((10, 2000), (100, 2000), (2000, 300), (20000, 150))
    CLI_SWEEP = ((10, 100), 2000)  # N_list and trials of the CLI sweep
    BATCH = 2000
    BATCH_CONFIGS = ((1, 2), (2, 3), (5, 2), (20, 4))
    REGULARITY_SAMPLES = 200
    LOCALITY = ((2, 6), (3, 2))  # (N, seeded centres)
    count_names = (
        "harness.trials",
        *(f"harness.trials.N{n}" for n, _ in SWEEPS),
        "regularity.locality.points",
        "regularity.locality.exterior_points",
    )

    def __init__(self, seed, golden, tmp) -> None:
        super().__init__(seed, golden, tmp)
        rng = self.rng
        self.specs = [
            harness.SweepSpec(J=2, N_list=(n,), trials=trials, seed=seed) for n, trials in self.SWEEPS
        ]
        n_list, trials = self.CLI_SWEEP
        self.sweep_config = self.tmp / "sweep.cfg"
        self.sweep_config.write_text(
            f"J = 2\nN_list = {', '.join(map(str, n_list))}\ntrials = {trials}\n"
        )
        self.batch = []
        for _ in range(self.BATCH):
            n, j = self.BATCH_CONFIGS[int(rng.integers(len(self.BATCH_CONFIGS)))]
            cfg = model.ProblemConfig(N=n, J=j)
            stat = model.SufficientStat(rng.normal(0.0, 2.0, n), math.exp(rng.normal()))
            theta = model.Parameter(math.exp(rng.normal()), rng.normal(0.0, 2.0, n))
            self.batch.append((cfg, stat, theta))
        self.reg_cfg = model.ProblemConfig(N=2, J=3)
        self.reg_thetas = [
            model.Parameter(math.exp(rng.normal()), rng.normal(0.0, 2.0, 2))
            for _ in range(self.REGULARITY_SAMPLES)
        ]
        self.reg_stats = [
            model.SufficientStat(rng.normal(0.0, 2.0, 2), math.exp(rng.normal()))
            for _ in range(self.REGULARITY_SAMPLES)
        ]
        self.auts = [
            regularity.Automorphism(math.exp(rng.uniform(-1.0, 1.0)), rng.normal(0.0, 1.0, 2))
            for _ in range(3)
        ]
        self.centres = [
            (
                model.ProblemConfig(N=n, J=2),
                model.Parameter(math.exp(rng.normal()), rng.normal(0.0, 2.0, n)),
                int(rng.integers(10**6)),
            )
            for n, count in self.LOCALITY
            for _ in range(count)
        ]
        self.raw_file = self.tmp / "raw.csv"

    def run_pass(self, rec) -> None:
        self._sweep(rec)
        for k, item in enumerate(self.batch):
            with rec.op(f"batch{k}"):
                self._batch_item(rec, *item)
        self._regularity(rec)
        for k, (cfg, theta, seed) in enumerate(self.centres):
            with rec.op(f"locality{k}.N{cfg.N}"):
                self._locality(rec, cfg, theta, seed)
        self._cli(rec)

    def _sweep(self, rec) -> None:
        rows_by_n = {}
        for spec in self.specs:
            n = spec.N_list[0]
            with rec.op(f"run_sweep.N{n}"):
                rows = rec.call("harness", "run_sweep", harness.run_sweep, spec, tag=f"N{n}")
                check(len(rows) == 6 and all(r.N == n and r.trials == spec.trials for r in rows),
                      "unexpected sweep rows")
                by = {(r.estimator, r.prior_p): r.mean_ratio for r in rows}
                ml = by[(est.METHOD_ML, None)]
                for method in (est.METHOD_IP, est.METHOD_WF):
                    check(_rel_close(by[(method, n + 1.0)], ml, 1e-10),
                          f"{method} != ML under the scale-free prior at N={n}")
                rows_by_n[n] = rows
                self.counts["harness.trials"] += spec.trials
                self.counts[f"harness.trials.N{n}"] += spec.trials
        with rec.op("rows_to_csv"):
            rows = [r for spec in self.specs for r in rows_by_n[spec.N_list[0]]]
            csv = rec.call("harness", "rows_to_csv", harness.rows_to_csv, rows)
            self.pin("sweep_csv_sha256", _sha256(csv))
        with rec.op("cli.sweep"):
            # The seed goes in --seed: the CLI overrides a config-file seed
            # with NSMML_SEED's default of 0.
            out = self.cli(
                rec, ["sweep", "--config", str(self.sweep_config), "--seed", str(self.seed)], expect=0
            )
            # Each trial has its own substream, so the rows of a multi-N
            # sweep are those of the single-N sweeps.
            want = rec.call(
                "harness", "rows_to_csv", harness.rows_to_csv,
                [r for n in self.CLI_SWEEP[0] for r in rows_by_n[n]],
            )
            check(out == want, "CLI sweep CSV differs from rows_to_csv of the same rows")

    def _batch_item(self, rec, cfg, stat, theta) -> None:
        sf = model.PriorSpec.scale_free(cfg)
        w = model.PriorSpec.wallace()
        e, m = "estimators", "model"
        ml = rec.call(e, "ml_estimate", est.ml_estimate, stat, cfg).theta.sigma2
        ip_sf = rec.call(e, "ip_estimate", est.ip_estimate, stat, sf, cfg).theta.sigma2
        wf_sf = rec.call(e, "wf_estimate", est.wf_estimate, stat, sf, cfg).theta.sigma2
        ip_w = rec.call(e, "ip_estimate", est.ip_estimate, stat, w, cfg).theta.sigma2
        wf_w = rec.call(e, "wf_estimate", est.wf_estimate, stat, w, cfg).theta.sigma2
        marg = rec.call(e, "marginalized_sigma2_ml", est.marginalized_sigma2_ml, stat, cfg)
        rev = rec.call(e, "ip_reverse", est.ip_reverse, theta, w, cfg)
        back = rec.call(e, "ip_estimate", est.ip_estimate, rev, w, cfg).theta
        loglik = rec.call(m, "log_likelihood", model.log_likelihood, stat, theta, cfg)
        logm_sf = rec.call(m, "log_marginal", model.log_marginal, stat, sf, cfg)
        logm_w = rec.call(m, "log_marginal", model.log_marginal, stat, w, cfg)
        r = rec.call(m, "code_penalty_R", model.code_penalty_R, theta, stat, w, cfg)
        fisher = rec.call(m, "fisher_log_sqrt_det", model.fisher_log_sqrt_det, theta, cfg)
        ratio = cfg.J / (cfg.J - 1.0)
        check(_rel_close(ip_sf, ml, 1e-10) and _rel_close(wf_sf, ml, 1e-10), "IP/WF != ML (scale-free)")
        check(_rel_close(ip_w, ratio * ml, 1e-12) and _rel_close(wf_w, ip_w, 1e-12), "Wallace IP/WF")
        check(_rel_close(marg, ratio * ml, 1e-12), "marginalized != J/(J-1) * ML")
        check(_rel_close(back.sigma2, theta.sigma2, 1e-12) and np.array_equal(back.mu, theta.mu),
              "ip_estimate(ip_reverse(theta)) != theta")
        check(_rel_close(r, logm_w - loglik, 1e-12), "R != log marginal - log likelihood")
        check(math.isfinite(logm_sf) and math.isfinite(fisher), "non-finite density value")

    def _regularity(self, rec) -> None:
        cfg = self.reg_cfg
        for prior in (model.PriorSpec.scale_free(cfg), model.PriorSpec.wallace()):
            scale_free = prior.is_scale_free(cfg)
            with rec.op(f"homogeneity_check.p{prior.p:g}"):
                rep = rec.call(
                    "regularity", "homogeneity_check", regularity.homogeneity_check,
                    prior, cfg, self.reg_thetas,
                )
                check(rep.is_homogeneous == scale_free, "homogeneity verdict")
                check(rep.drift["max_residual"] < 1e-9, "homogeneity drift residual")
            with rec.op(f"comprehensiveness_check.p{prior.p:g}"):
                rep = rec.call(
                    "regularity", "comprehensiveness_check", regularity.comprehensiveness_check,
                    prior, cfg, self.reg_stats,
                )
                check(rep.is_comprehensive == scale_free, "comprehensiveness verdict")
                check(rep.drift["max_residual"] < 1e-9, "comprehensiveness drift residual")
            for k, aut in enumerate(self.auts):
                with rec.op(f"check_automorphism{k}.p{prior.p:g}"):
                    rep = rec.call(
                        "regularity", "check_automorphism", regularity.check_automorphism,
                        aut, prior, cfg, samples=self.REGULARITY_SAMPLES, seed=self.seed,
                    )
                    predicted = abs(prior.p - (cfg.N + 1)) * abs(math.log(aut.alpha))
                    check(rep.likelihood_ok, "likelihood not preserved")
                    check(rep.marginal_ok == (predicted < 1e-9), "marginal verdict")
                    check(abs(rep.max_marginal_violation - predicted) <= 1e-9, "violation law")

    def _locality(self, rec, cfg, theta, seed) -> None:
        c = rec.call("regularity", "find_valid_c", regularity.find_valid_c, cfg)
        _, rep = rec.call(
            "regularity", "locality_certificate", regularity.locality_certificate,
            theta, cfg, c=c, seed=seed,
        )
        grid = regularity.GridSpec()
        check(rep.all_pass and rep.worst_margin > 0.0, "locality certificate failed")
        check(rep.n_points == grid.points_scale * grid.points_mean**cfg.N, "grid size")
        check(rep.n_exterior + rep.n_exempt == rep.n_points, "exterior + exempt != points")
        if cfg.N == 2:
            check(rep.n_exterior >= 10_000, "fewer than 1e4 exterior points at N=2")
        self.counts["regularity.locality.points"] += rep.n_points
        self.counts["regularity.locality.exterior_points"] += rep.n_exterior

    def _cli(self, rec) -> None:
        seed = str(self.seed)
        for prior, expect in (("scale-free", 0), ("wallace", 1)):
            with rec.op(f"cli.regularity.{prior}"):
                out = self.cli(
                    rec, ["regularity", "--prior", prior, "--N", "2", "--J", "2", "--seed", seed], expect
                )
                self.pin(f"cli.regularity.{prior}.sha256", _sha256(out))
        with rec.op("cli.locality"):
            out = self.cli(rec, ["locality", "--N", "2", "--J", "2", "--seed", seed], expect=0)
            check("all_pass true" in out, "CLI locality report does not pass")
        with rec.op("cli.simulate"):
            out = self.cli(
                rec, ["simulate", "--N", "50", "--J", "3", "--sigma2", "1.5", "--seed", seed], expect=0
            )
            self.raw_file.write_text(out)
            self.pin("cli.simulate.sha256", _sha256(out))
        with rec.op("cli.estimate"):
            out = self.cli(rec, ["estimate", "--raw", str(self.raw_file), "--method", "ml"], expect=0)
            data = np.array([[float(v) for v in line.split(",")] for line in self.raw_file.read_text().split()])
            cfg = model.ProblemConfig(N=data.shape[0], J=data.shape[1])
            stat = rec.call("model", "sufficient_stats", model.sufficient_stats, data, cfg)
            check(out.splitlines()[1].split(",")[2] == repr(stat.s2), "CLI ML estimate differs")


WORKLOADS = {w.name: w for w in (CodebookLocal, CodebookExact, SweepCertify)}

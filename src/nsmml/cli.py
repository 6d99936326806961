"""Command-line harness.

Subcommands: ``estimate``, ``simulate``, ``sweep``, ``regularity``,
``locality``, ``smml``.  Tables are CSV and reports are versioned
structured text; ``--json`` switches both to JSON.  ``NSMML_SEED`` and
``NSMML_OUTDIR`` provide environment defaults for the seed and the output
directory; explicit flags take precedence, and so does the seed of a
``sweep`` config file.  Exit codes: 0 on success, 1 when a requested
check fails (with a diagnostic line on stderr), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .model import (
    InvalidConfigError,
    NeymanScottError,
    Parameter,
    ProblemConfig,
    SufficientStat,
    _check_float,
    _check_int,
    sufficient_stats,
)
from .estimators import METHOD_MARGINALIZED, SIGMA2_HAT, _sigma2_hat, method_from_name
from . import codebook as cbk
from . import regularity as reg
from .harness import _method_priors, parse_sweep_config, resolve_prior, rows_to_csv, run_sweep, simulate
from .reporting import render_json, render_report, table_to_csv


def _default_seed() -> int:
    text = os.environ.get("NSMML_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidConfigError(f"NSMML_SEED must be an integer, got {text!r}") from None


def _given(args, *names: str) -> dict:
    """The options among ``names`` given on the command line; the rest keep the library's defaults."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _resolve_out(path: str | None, outdir: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = outdir if outdir is not None else os.environ.get("NSMML_OUTDIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(text: str, args) -> None:
    out = _resolve_out(getattr(args, "out", None), getattr(args, "outdir", None))
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _emit_report(kind: str, data: dict, args) -> None:
    _emit(render_json(kind, data) if args.json else render_report(kind, data), args)


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise InvalidConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_methods(text: str) -> list[str]:
    if text.strip().lower() == "all":
        return list(SIGMA2_HAT)
    return [method_from_name(name) for name in text.split(",")]


def _read_text(source: str, stdin: bool = False) -> str:
    """The UTF-8 text of file ``source``, or of standard input when ``stdin``
    allows ``-``; bytes that do not decode are malformed input."""
    try:
        data = sys.stdin.buffer.read() if stdin and source == "-" else Path(source).read_bytes()
        return data.decode()
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"{source} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_raw_matrix(source: str) -> np.ndarray:
    text = _read_text(source, stdin=True)
    try:
        rows = [
            [float(v) for v in line.replace(",", " ").split()]
            for line in text.splitlines()
            if line.strip()
        ]
    except ValueError as exc:
        raise InvalidConfigError(f"raw data must be numeric: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InvalidConfigError("raw data must be a rectangular numeric matrix")
    return np.array(rows)


def _cmd_estimate(args) -> int:
    if args.raw is not None:
        data = _read_raw_matrix(args.raw)
        cfg = ProblemConfig(N=data.shape[0], J=data.shape[1])
        stat = sufficient_stats(data, cfg)
    else:
        if args.m is None or args.s2 is None or args.J is None:
            raise InvalidConfigError("estimate needs either --raw or all of --J/--m/--s2")
        m = _parse_floats(args.m)
        cfg = ProblemConfig(N=m.shape[0], J=args.J)
        stat = SufficientStat(m=m, s2=args.s2)

    methods = _parse_methods(args.method)
    prior_names = [p.strip() for p in args.prior.split(",") if p.strip()]
    header = ["method", "prior_p", "sigma2_hat", "mu_hat"]
    rows = []
    for method, prior in _method_priors(methods, prior_names, cfg):
        sigma2 = _sigma2_hat(method, stat, prior, cfg)
        # the marginalized estimator is variance-only: no mean estimate to report
        mu = None if method == METHOD_MARGINALIZED else [float(v) for v in stat.m]
        rows.append(dict(zip(header, (method, None if prior is None else prior.p, sigma2, mu))))

    if args.json:
        _emit(render_json("estimates", {"rows": rows}), args)
    else:
        table = [
            [r["method"], r["prior_p"], r["sigma2_hat"],
             None if r["mu_hat"] is None else ";".join(map(repr, r["mu_hat"]))]
            for r in rows
        ]
        _emit(table_to_csv(header, table), args)
    return 0


def _cmd_simulate(args) -> int:
    cfg = ProblemConfig(N=args.N, J=args.J)
    data = simulate(cfg, args.sigma2, _parse_floats(args.mu), args.seed)
    if args.json:
        _emit(render_json("raw-data", {"data": data}), args)
    else:
        lines = [",".join(repr(float(v)) for v in row) for row in data]
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_sweep(args) -> int:
    # Seed precedence: --seed, then the config's seed, then NSMML_SEED.  The
    # last value of a config key wins, so the environment default goes first.
    text = _read_text(args.config)
    spec = parse_sweep_config(f"seed = {_default_seed()}\n{text}")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    rows = run_sweep(spec)
    if args.json:
        _emit(render_json("sweep", {"rows": [dataclasses.asdict(r) for r in rows]}), args)
    else:
        _emit(rows_to_csv(rows), args)
    return 0


def _cmd_regularity(args) -> int:
    samples = _check_int(args.samples, "--samples", 1)
    cfg = ProblemConfig(N=args.N, J=args.J)
    prior = resolve_prior(args.prior, cfg)
    rng = np.random.default_rng(args.seed)
    checks = ["homogeneity", "comprehensiveness", "automorphism"] if args.check == "all" else [args.check]
    report: dict = {"N": cfg.N, "J": cfg.J, "prior_p": prior.p, "seed": args.seed}
    failed = []

    if "homogeneity" in checks:
        thetas = [reg._random_param(rng, cfg) for _ in range(samples)]
        res = reg.homogeneity_check(prior, cfg, thetas, **_given(args, "tol"))
        report["homogeneity"] = res.to_dict()
        if not res.is_homogeneous:
            failed.append("homogeneity")
    if "comprehensiveness" in checks:
        stats = [reg._random_stat(rng, cfg) for _ in range(samples)]
        res = reg.comprehensiveness_check(prior, cfg, stats, **_given(args, "tol"))
        report["comprehensiveness"] = res.to_dict()
        if not res.is_comprehensive:
            failed.append("comprehensiveness")
    if "automorphism" in checks:
        aut = reg.Automorphism(args.alpha, np.full(cfg.N, args.beta))
        res = reg.check_automorphism(aut, prior, cfg, samples=samples, seed=args.seed, **_given(args, "tol"))
        report["automorphism"] = {"alpha": args.alpha, "beta": args.beta, **dataclasses.asdict(res)}
        if not (res.marginal_ok and res.likelihood_ok):
            failed.append("automorphism")

    report["failed_checks"] = failed
    _emit_report("regularity", report, args)
    if failed:
        print(f"regularity check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_locality(args) -> int:
    cfg = ProblemConfig(N=args.N, J=args.J)
    mu = _parse_floats(args.mu) if args.mu else np.zeros(cfg.N)
    theta = Parameter(_check_float(args.sigma2, "--sigma2", 0, strict=True), mu)
    grid = reg.GridSpec(**_given(args, "points_scale", "points_mean"))
    try:
        cert, rep = reg.locality_certificate(theta, cfg, c=args.c, grid=grid, seed=args.seed)
    except reg.CertificateError as exc:
        print(f"locality verification failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            _emit_report("locality", dataclasses.asdict(exc.report), args)
        return 1
    _emit_report("locality", dataclasses.asdict(rep), args)
    return 0


def _build_smml_problem(args) -> cbk.DiscreteProblem:
    if args.load_problem:
        return cbk.problem_from_text(_read_text(args.load_problem))
    cfg = ProblemConfig(N=args.N, J=args.J)
    prior = resolve_prior(args.prior, cfg)
    if args.torus:
        return cbk.torus_problem(
            cfg, prior, args.torus, **_given(args, "log_s_lo", "log_s_hi", "mean_coord", "candidate_stride")
        )
    w = args.box_half_width
    box = np.array([[-w, w]] * (cfg.N + 1))
    return cbk.discretize(
        cfg,
        prior,
        box,
        args.resolution,
        cbk.CandidateSpec(**_given(args, "extension")),
    )


def _cmd_smml(args) -> int:
    problem = _build_smml_problem(args)
    if args.solver == "exhaustive":
        optima = cbk.smml_exhaustive(problem)
        book = optima[0]
        n_optima = len(optima)
    else:
        book = cbk.smml_local_search(problem, seed=args.seed, **_given(args, "restarts"))
        n_optima = None

    audit = cbk.region_mass_audit(problem, book)
    report: dict = {
        "cells": problem.n_cells,
        "candidates": problem.n_candidates,
        "topology": problem.topology,
        "prior_p": problem.prior.p,
        "solver": args.solver,
        "L_E": book.cost.L_E,
        "L_P": book.cost.L_P,
        "L": book.cost.L,
        "audit": audit.to_dict(),
    }
    if n_optima is not None:
        report["n_optimal_codebooks"] = n_optima
    if args.interior_margin:
        report["overlap"] = cbk.smml_ip_overlap(problem, book, interior_margin=args.interior_margin).to_dict()
    if args.shift:
        try:
            shift = [int(v) for v in args.shift.split(",")]
        except ValueError:
            raise InvalidConfigError(f"--shift must be comma-separated integers, got {args.shift!r}") from None
        moved = cbk.codebook_transport(problem, book, shift[0] if len(shift) == 1 else shift)
        report["transport"] = {"shift": shift, "delta_L": moved.cost.L - book.cost.L}
    if args.save_problem:
        _resolve_out(args.save_problem, args.outdir).write_text(cbk.problem_to_text(problem))
    if args.save_codebook:
        _resolve_out(args.save_codebook, args.outdir).write_text(cbk.codebook_to_text(book))

    _emit_report("smml", report, args)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV/structured text")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--outdir", help="base directory for relative output paths (env NSMML_OUTDIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsmml",
        description="Estimators, regularity checks, locality certificates and discrete "
        "strict-MML codebooks for the Neyman-Scott problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate parameters from a statistic or raw matrix")
    p.add_argument("--J", type=int, help="observations per group (with --m/--s2)")
    p.add_argument("--m", help="comma-separated group means")
    p.add_argument("--s2", type=float, help="pooled within-group variance")
    p.add_argument("--raw", help="CSV matrix of raw data (path or - for stdin)")
    p.add_argument("--method", default="all", help="comma list of ml,ip,wf,marginalized or 'all'")
    p.add_argument("--prior", default="wallace,scale-free", help="comma list: wallace, scale-free, or numeric p")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="draw a raw data matrix")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--mu", default="0.0", help="scalar or comma-separated true means")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a Monte Carlo consistency sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("regularity", help="homogeneity / comprehensiveness / automorphism checks")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--prior", default="scale-free")
    p.add_argument("--check", default="all", choices=["all", "homogeneity", "comprehensiveness", "automorphism"])
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--alpha", type=float, default=2.0, help="automorphism scale")
    p.add_argument("--beta", type=float, default=0.7, help="automorphism translation (per coordinate)")
    _add_common(p)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("locality", help="build and verify a locality certificate")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--c", type=int, default=None, help="grid constant (default: smallest valid)")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--mu", default="", help="comma-separated center means (default zeros)")
    p.add_argument("--points-scale", type=int, default=argparse.SUPPRESS)
    p.add_argument("--points-mean", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_locality)

    p = sub.add_parser("smml", help="build, solve, audit and serialize discrete instances")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--prior", default="scale-free")
    p.add_argument("--box-half-width", type=float, default=1.5)
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--cand-extension", type=float, dest="extension", metavar="CAND_EXTENSION",
                   default=argparse.SUPPRESS)
    p.add_argument("--torus", type=int, default=0, help="build a scale-circle torus with this many cells")
    p.add_argument("--torus-stride", type=int, dest="candidate_stride", metavar="TORUS_STRIDE",
                   default=argparse.SUPPRESS)
    p.add_argument("--torus-mean", type=float, dest="mean_coord", metavar="TORUS_MEAN", default=argparse.SUPPRESS)
    p.add_argument("--log-s-lo", type=float, default=argparse.SUPPRESS)
    p.add_argument("--log-s-hi", type=float, default=argparse.SUPPRESS)
    p.add_argument("--solver", default="local", choices=["local", "exhaustive"])
    p.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--interior-margin", type=int, default=0, help="report Ideal-Point overlap with this margin")
    p.add_argument("--shift", default="", help="transport the codebook by this lattice shift (comma ints)")
    p.add_argument("--load-problem", help="load a serialized problem instead of building one")
    p.add_argument("--save-problem")
    p.add_argument("--save-codebook")
    _add_common(p)
    p.set_defaults(func=_cmd_smml)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # sweep resolves its own default (a config file may set the seed),
        # and SweepSpec checks it.
        if hasattr(args, "seed") and args.command != "sweep":
            args.seed = _check_int(_default_seed() if args.seed is None else args.seed, "seed", 0)
        return args.func(args)
    except (InvalidConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}; ask for less", file=sys.stderr)
        return 2
    except NeymanScottError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

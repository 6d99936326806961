"""Benchmark of the nsmml package: seeded workloads, checked outputs,
end-to-end metrics and, in a traced run, per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree holding ``BENCHMARK.json`` and
``src/nsmml``; the package is imported from that ``src`` and nowhere else.
Set-up (``setup_s``) is timed in fresh interpreters: each imports ``nsmml``
and builds the workload's seeded inputs, and the median is reported.  The
timed phase then runs whole passes of the workload until ``--seconds``
have passed; ``wall_s`` is the median pass time.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics are means
over the traced passes.  The last line of standard output is the result
object; the line before it holds the run's metadata, and a traced run also
writes its spans to ``.perfbench/``.  ``--record-golden`` rewrites
``golden.json`` for one workload from one pass at the default seed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

from tracing import END, PARENT, START, Recorder, check, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
LAYERS = ("codebook", "harness", "estimators", "model", "regularity", "cli")


def import_nsmml() -> None:
    """Import ``nsmml`` from this tree's ``src``, or exit with an error."""
    package = SRC / "nsmml"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of an nsmml source tree")
    sys.path.insert(0, str(SRC))
    import nsmml

    if Path(nsmml.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported nsmml from {nsmml.__file__}, not from {package}")


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite this workload's golden values from one pass at seed 0")
    return parser.parse_args()


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    nsmml and built the workload's seeded inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line != "ready\n":
        sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")
    return elapsed


def blas_threads() -> int | None:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cache_bytes() -> dict:
    """Per-core L2 and L3 sizes, read from sysfs."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            out[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_metadata(args, passes: int, traced_passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "passes": passes,
        "traced_passes": traced_passes,
        "setup_probes": SETUP_PROBES,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        **cache_bytes(),
        "commit": git_commit(),
    }


def per_layer_metrics(rec, counts: dict, calls: dict, traced_walls: list, walls: list):
    """Per-layer metrics of the traced passes, as means per pass, and the
    duration statistics of every function called."""
    n = len(traced_walls)
    by_layer, by_name, operations = summarize(rec.spans)
    roots = [s[END] - s[START] for s in rec.spans if s[PARENT] is None]
    m: dict[str, float] = {}
    for layer in (*LAYERS, "bench"):
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0) / n
        m[f"{layer}.calls"] = calls.get(layer, 0)
    for key, total in by_name.items():
        m[f"{key}.self_s"] = total / n
    m.update(counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m["codebook.smml_local_search.s_per_restart"] = ratio(
        m.get("codebook.smml_local_search.self_s", 0.0), counts.get("codebook.restarts", 0))
    m["codebook.brute.assignments_per_s"] = ratio(
        counts.get("codebook.brute.assignments", 0), m.get("codebook.smml_exhaustive.brute.self_s", 0.0))
    m["codebook.local_exact_match_ratio"] = ratio(
        counts.get("codebook.local_exact_matches", 0), counts.get("codebook.exact_instances", 0))
    m["harness.sweep_trials_per_s"] = ratio(
        counts.get("harness.trials", 0), m.get("harness.run_sweep.self_s", 0.0))
    for key in [k for k in counts if k.startswith("harness.trials.N")]:
        n_groups = key.rsplit(".", 1)[1]
        m[f"harness.trial_us.{n_groups}"] = 1e6 * ratio(
            m.get(f"harness.run_sweep.{n_groups}.self_s", 0.0), counts[key])
    m["regularity.cert_points_per_s"] = ratio(
        counts.get("regularity.locality.points", 0), m.get("regularity.locality_certificate.self_s", 0.0))
    m["trace.wall_s"] = sum(roots) / n
    m["trace.overhead_s"] = mean(traced_walls) - mean(walls)
    return m, operations


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec)
    import_nsmml()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.record_golden and (args.seed != DEFAULT_SEED or args.trace):
        sys.exit(f"error: --record-golden needs --seed {DEFAULT_SEED} --trace 0")
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        golden = json.loads(GOLDEN.read_text())[args.workload]

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, golden, tmp)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup = [] if args.record_golden else [time_setup(args) for _ in range(SETUP_PROBES)]

        rec = Recorder()
        walls: list[float] = []
        traced_walls: list[float] = []
        pass_counts: list[dict] = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(walls) > len(traced_walls)
            workload.start_pass()
            t0 = perf_counter()
            with rec.run_pass(traced):
                workload.run_pass(rec)
            (traced_walls if traced else walls).append(perf_counter() - t0)
            pass_counts.append({"counts": workload.counts, "calls": rec.calls})
            if args.record_golden:
                break
            if perf_counter() - start >= args.seconds and (traced_walls or not args.trace):
                break
        with rec.op("counts repeat in every pass"):
            check(all(c == pass_counts[0] for c in pass_counts), "counts differ between passes")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.record_golden:
        if rec.failed:
            sys.exit("error: checks failed; golden values not recorded")
        table = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        table[args.workload] = workload.observed
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0

    counts = pass_counts[0]["counts"]
    meta = run_metadata(args, len(walls), len(traced_walls))
    meta["counts"] = counts
    meta["calls"] = pass_counts[0]["calls"]
    meta["hashes"] = {k: v for k, v in workload.observed.items() if isinstance(v, str)}
    meta["setup_samples_s"] = setup
    meta["wall_samples_s"] = walls

    if args.trace:
        values, operations = per_layer_metrics(rec, counts, meta["calls"], traced_walls, walls)
        declared = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "meta": meta,
            "per_layer": values,
            "operations": operations,
            "spans": [[*s[:3], s[3] - start, s[4] - start, *s[5:]] for s in rec.spans],
        }))
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = {
            "wall_s": median(walls),
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (rec.attempted - rec.failed) / rec.attempted,
        }
        declared = spec["end_to_end"]
    # A layer, function or count that a workload never reaches reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}

    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

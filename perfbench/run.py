"""Closed-loop benchmark of the deltaspec CLI.

    python3 perfbench/run.py --workload resonances --seed 1 --seconds 40 --trace 0

Runs every job of the workload through `deltaspec.cli.dispatch`, in this
process and one at a time, for --seconds, checks every output, and prints one
line per metric followed by a JSON result line.  With --trace 0 the result
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
traced passes, run alternately with untraced ones.  The package is imported
from `src/` next to this directory; the benchmark exits with code 2 and prints
no result when it is not there.  See README.md in this directory.
"""

import os

# One BLAS thread: with OpenBLAS on 2 threads a pass spread by 20-100 %.
# Set before numpy is imported, and inherited by the set-up subprocesses.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing deltaspec.cli, the
    start-up cost every CLI invocation pays.  One untimed import first
    compiles the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import deltaspec.cli"], env=env, cwd=ROOT, check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def output_counts(out: dict) -> Counter:
    """Work counts read from one CLI output."""
    command = out["manifest"]["command"]
    counts = Counter()
    if command == "resonances":
        counts["roots"] = len(out["roots"])
    elif command == "certify":
        counts["grid_points"] = out["num_grid_points"]
    elif command == "spectrum":
        counts["bound_states"] = sum(e["multiplicity"] for e in out["eigenvalues"])
    elif command == "laurent":
        counts["laurent_nodes"] = out["nodes"]
        requested = out["manifest"]["parameters"]["radius"]
        counts["laurent_halvings"] = round(math.log2(requested / out["radius"]))
    elif command == "resolvent":
        counts["resolvent_calls"] = 1
    return counts


class Runner:
    """Runs passes over one workload's job list inside a scratch directory."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.problems = set()
        for name, cfg in workload.configs.items():
            (workdir / name).write_text(json.dumps(cfg))

    def run_pass(self, dispatch):
        """One pass: (per-job seconds, failed jobs, counts)."""
        gc.collect()
        job_times, failed, counts = [], 0, Counter()
        index = 0
        for group in self.workload.groups:
            ok, outputs = True, []
            for argv in group.jobs:
                out_path = self.workdir / f"out{index:03d}.json"
                index += 1
                start = time.perf_counter()
                # A job that raises counts as failed; the sweep goes on.
                try:
                    code = dispatch([*argv, "--out", out_path.name])
                    problem = f"exit code {code}"
                except Exception as exc:  # noqa: BLE001
                    code, problem = None, f"raised {type(exc).__name__}: {exc}"
                job_times.append(time.perf_counter() - start)
                if code != 0:
                    ok = False
                    self.problems.add(f"{' '.join(argv)}: {problem}")
                    continue
                counts["out_bytes"] += out_path.stat().st_size
                outputs.append(json.loads(out_path.read_text()))
            if ok:
                try:
                    for out in outputs:
                        counts.update(output_counts(out))
                    found = group.check(outputs)
                except (KeyError, TypeError, ValueError) as exc:
                    found = [f"malformed output: {type(exc).__name__}: {exc}"]
                self.problems.update(f"{' '.join(group.jobs[0])}: {p}" for p in found)
                ok = not found
            if not ok:
                failed += len(group.jobs)
        return job_times, failed, counts


def per_layer_metrics(tr, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass."""

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.self_s": tr.self_s["cli"],
        "cli.out_bytes": counts["out_bytes"],
        "model.calls": tr.calls["model"],
        "model.matrices": sum(tr.model_matrices.values()),
        "model.self_s": tr.self_s["model"],
        "linalg.self_s": tr.self_s["linalg"],
    }
    for r in tracer.NUMPY_ROUTINES:
        m[f"linalg.{r}.calls"] = tr.routine_calls[r]
        m[f"linalg.{r}.matrices"] = tr.routine_matrices[r]
        m[f"linalg.{r}.self_s"] = tr.routine_self_s[r]
    eig_solves = sum(
        tr.routine_calls_by_caller[("spectral.negative_eigenvalues", routine)]
        for routine in ("eigvalsh", "eigh")
    )
    kernel_calls = tr.function_calls["resolvent.resolvent_kernel"]
    resolvent_lapack = sum(
        n
        for (caller, _), n in tr.routine_calls_by_caller.items()
        if caller.startswith("resolvent.")
    )
    m.update(
        {
            "linalg.cholesky_fallbacks": tr.cholesky_fallbacks,
            "resonance.self_s": tr.self_s["resonance"],
            "resonance.roots": counts["roots"],
            "resonance.matrices_per_root": ratio(
                tr.model_matrices["resonance.find_resonances"], counts["roots"]
            ),
            "resonance.grid_points": counts["grid_points"],
            "spectral.self_s": tr.self_s["spectral"],
            "spectral.bound_states": counts["bound_states"],
            "spectral.eig_solves_per_state": ratio(eig_solves, counts["bound_states"]),
            "spectral.laurent_nodes": counts["laurent_nodes"],
            "spectral.laurent_halvings": counts["laurent_halvings"],
            "resolvent.kernel_calls": kernel_calls,
            "resolvent.self_s": tr.self_s["resolvent"],
            "resolvent.lapack_per_kernel": ratio(resolvent_lapack, kernel_calls),
        }
    )
    return m


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio" if "_per_" in name else "count"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_SETTINGS,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "deltaspec" / "cli.py").is_file():
        print(f"perfbench: no deltaspec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deltaspec.cli as cli

    workload = workloads.build(args.workload, args.seed)
    setup = setup_seconds() if args.trace == 0 else None

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    passes = {"plain": [], "traced": []}  # mode -> per-job seconds of each pass
    tracers, pass_counts, failed, attempted = [], [], 0, 0

    def traced_dispatch():
        tr = tracer.Tracer()
        tracers.append(tr)

        def dispatch(argv):
            with tr.installed():
                return cli.dispatch(argv)

        return dispatch

    # A traced run alternates untraced and traced passes, so that the tracing
    # overhead compares passes made close together in time.
    modes = ["plain", "traced"] if args.trace else ["plain"]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        runner = Runner(workload, workdir)
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for mode in modes:
                dispatch = cli.dispatch if mode == "plain" else traced_dispatch()
                times, bad, counts = runner.run_pass(dispatch)
                passes[mode].append(times)
                failed += bad
                attempted += len(times)
                pass_counts.append(counts)
            now = time.perf_counter()
            if now - start + (now - cycle_start) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in sorted(runner.problems):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if any(c != pass_counts[0] for c in pass_counts):
        print("perfbench: work counts differ between passes", file=sys.stderr)

    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    # Each job's median over the passes: a slow spell of the machine that hits
    # one job in one pass does not move the figures.
    job_times = {mode: [statistics.median(ts) for ts in zip(*p)] for mode, p in passes.items()}
    pass_walls = [round(sum(ts), 4) for ts in passes["plain"]]
    jobs = len(job_times["plain"])
    print(f"passes {len(pass_walls)} jobs_per_pass {jobs} pass_walls_s {pass_walls}")
    print(f"attempted {attempted} failed {failed} fail_frac {failed / attempted:.6g}")
    print(f"counts {json.dumps(dict(sorted(pass_counts[0].items())))}")
    if args.trace:
        wall, traced_wall = sum(job_times["plain"]), sum(job_times["traced"])
        per_pass = [per_layer_metrics(tr, pass_counts[0]) for tr in tracers]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {name: per_layer_unit(name) for name in metrics}
        tr = tracers[0]
        trace_detail = {
            "traced_passes": len(tracers),
            "function_calls": dict(sorted(tr.function_calls.items())),
            "function_self_s": {k: round(v, 6) for k, v in sorted(tr.function_self_s.items())},
            "model_matrices_by_caller": dict(sorted(tr.model_matrices.items())),
        }
        print(f"trace_detail {json.dumps(trace_detail)}")
    else:
        # Not a BENCHMARK.json metric: one mid-size job's median follows the
        # machine's speed swings too closely to stay within any allowed bound.
        print(f"job_p50_ms {1e3 * statistics.median(job_times['plain']):.6g} ms")
        metrics = {"wall_s": sum(job_times["plain"]), "peak_rss_mb": peak_rss_mb, "setup_s": setup}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

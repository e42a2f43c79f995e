"""rigidflock benchmark: run one workload, check it, print its metrics.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload formation_sweep --seed 0 \
        --seconds 28 --trace 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy. The workload's fixed job is repeated for ``--seconds``;
``wall_s`` is the third quartile of the job times (see bench/README.md,
"Noise") and ``setup_s`` the median over fresh processes started at even
intervals across the run. ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics
instead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``report``, carries provenance, output digests and failures. See
bench/README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
WORKLOAD_NAMES = ("formation_sweep", "sim4d_long", "analysis_1d",
                  "analysis_rigidity")
# Fresh processes timed for setup_s, and repeats required of each job kind.
SETUP_SAMPLES = {"full": 5, "smoke": 1}
MIN_JOBS = {"full": 3, "smoke": 1}
END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def import_package():
    """Import rigidflock from this checkout's src/, or exit non-zero."""
    init = SRC / "rigidflock" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run "
                         "the benchmark from a rigidflock checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rigidflock
    if Path(rigidflock.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported rigidflock from "
                         f"{rigidflock.__file__}, not from {init}")


def setup_sample(args) -> float:
    """Seconds from starting a fresh process to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    ready = [ln for ln in out.splitlines() if ln.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return (int(ready[-1].split()[1]) - t0) / 1e9


def measure(wl, args):
    """Repeat the job for ``args.seconds``; with trace, alternate
    plain/traced repeats.

    Without trace, the set-up processes are timed between jobs at even
    intervals across the run, so that they see the host as the jobs do
    rather than one stretch of it.
    """
    import tracer as T
    import workloads as W

    seconds, trace = args.seconds, args.trace
    min_jobs = MIN_JOBS[args.size]
    setup_samples = 0 if trace else SETUP_SAMPLES[args.size]
    tracing = T.Tracer() if trace else None
    modes = (False, True) if trace else (False,)
    jobs, checked, setups = [], {}, []
    start = time.perf_counter()
    deadline = start + seconds
    for traced in itertools.cycle(modes):
        if len(setups) < setup_samples and (
                time.perf_counter() - start
                >= len(setups) * seconds / setup_samples):
            setups.append(setup_sample(args))
        if traced:
            tracing.reset()
            tracing.install()
        t0 = time.perf_counter()
        try:
            outputs = wl.job()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracing.uninstall()
        digest = W.digest(wl.digest_outputs(outputs))
        if digest not in checked:
            checked[digest] = wl.check(outputs)
        job = {"traced": traced, "wall": wall, "ops": len(outputs),
               "digest": digest, "reasons": checked[digest]}
        if traced:
            job["layer"] = T.layer_metrics(tracing.spans,
                                           tracing.observations)
            job["layer"].update(wl.layer_counts(outputs))
        jobs.append(job)
        done = min(sum(1 for j in jobs if j["traced"] == m) for m in modes)
        typical = statistics.median(j["wall"] for j in jobs)
        if done >= min_jobs and time.perf_counter() + typical > deadline:
            setups += [setup_sample(args)
                       for _ in range(setup_samples - len(setups))]
            return jobs, tracing, setups


def provenance(rigidflock_sim) -> dict:
    import numpy
    import scipy

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            head = subprocess.run(git + ["rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                sha = head.stdout.strip()
                dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    workers = getattr(rigidflock_sim, "_worker_count", None)
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_model": cpu, "platform": platform.platform(),
        "sweep_workers": workers() if callable(workers) else None,
        "rigidflock_threads": os.environ.get("RIGIDFLOCK_THREADS"),
    }


def run(args) -> dict:
    """Set up, measure and check one workload; return the result object."""
    t_start = time.perf_counter()
    import_package()
    import tracer as T
    import workloads as W
    from rigidflock import sim

    if "RIGIDFLOCK_THREADS" in os.environ:
        print("warning: RIGIDFLOCK_THREADS is set; the sweep pool does not "
              "run as users get it", file=sys.stderr)
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = W.WORKLOADS[args.workload](args.seed, args.size, scratch)
        wl.setup()
        setup_main = time.perf_counter() - t_start
        jobs, tracing, setups = measure(wl, args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        once = wl.check_once()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = []
    for k, job in enumerate(jobs):
        failures += [(k, str(op), why) for op, why in job["reasons"].items()]
        if job["digest"] != jobs[0]["digest"]:
            failures += [(k, "*", "output digest differs from the first "
                                  "job's")] * (job["ops"] - len(job["reasons"]))
    failures += [(None, op, why) for op, why in once.items() if why]
    attempted = sum(job["ops"] for job in jobs) + len(once)

    plain = [j["wall"] for j in jobs if not j["traced"]]
    # The third quartile tracks the host's usual speed; the median moves
    # with the share of a run that fell in its faster phases.
    wall_s = (statistics.quantiles(plain, n=4)[2] if len(plain) > 1
              else plain[0])
    if args.trace:
        traced = [j for j in jobs if j["traced"]]
        metrics = {name: {"value": statistics.median(
            j["layer"].get(name, 0.0) for j in traced), "unit": unit}
            for name, unit in T.LAYER_METRICS.items()}
        metrics["trace.overhead_frac"]["value"] = statistics.median(
            j["wall"] for j in traced) / statistics.median(plain) - 1.0
        SCRATCH.mkdir(exist_ok=True)
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.csv"
        tracing.write(spans_path)
    else:
        values = {"wall_s": wall_s, "work_per_s": wl.work() / wall_s,
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "work_unit": wl.work_unit,
        "work_per_job": wl.work(), "jobs": len(jobs),
        "job_walls_s": [j["wall"] for j in jobs],
        "wall_median_s": statistics.median(plain),
        "traced_jobs": [j["traced"] for j in jobs],
        "setup_samples_s": setups, "setup_in_process_s": setup_main,
        "digest": jobs[0]["digest"],
        "digests_equal": len({j["digest"] for j in jobs}) == 1,
        "failed_frac": len(failures) / attempted,
        "failures": [{"job": k, "op": op, "reason": why}
                     for k, op, why in failures[:20]],
        "absent_hooks": tracing.absent if tracing else [],
        "provenance": provenance(sim),
    }
    if args.trace:
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return {"report": report,
            "result": {"correct": not failures, "attempted": attempted,
                       "failed": len(failures), "metrics": metrics}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; held-out seed 1009)")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="how long to repeat the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' runs every workload at a tiny size")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        import_package()
        import workloads as W
        scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            W.WORKLOADS[args.workload](args.seed, args.size, scratch).setup()
            print(f"ready {time.monotonic_ns()}", flush=True)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return 0
    out = run(args)
    for name, m in out["result"]["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {out['report']['failed_frac']!r}")
    print("report " + json.dumps(out["report"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

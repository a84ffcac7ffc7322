"""One workload process: set up, report readiness, then run the job repeatedly.

run.py starts this with ``src`` first on the path and BLAS pinned to one
thread, so the Monte Carlo pool (one worker per CPU) plus BLAS threads
never exceed the CPU count.  The process prints ``READY`` once
``landscape`` is imported, the inputs are generated and one warm-up
operation is done; with ``--setup-only`` it stops there.  Otherwise it
repeats the workload's fixed job for about ``--seconds`` seconds and
prints one JSON line with the measurements.

With ``--trace 1`` it first times the Monte Carlo calls again at one
worker, takes tracemalloc peaks and CLI overheads, then alternates
untraced and traced jobs; the per-layer metrics come from the traced
jobs' spans and the tracing overhead from the pair.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import jobs
import landscape
import metrics
from landscape.errors import LandscapeError
from spans import Library, Tracer

MAX_MESSAGES = 10


class Tally:
    """Outcome of each distinct operation, with the first failure messages.

    The job is fixed, so a repetition redoes the same operation on the same
    inputs.  Each operation counts once, as failed if any of its runs
    failed, so a seed gives the same attempted and failed counts however
    many repetitions fit in the run.
    """

    def __init__(self):
        self.outcomes = {}      # key -> None, or (wrong, exception name, message)

    def record(self, key, failure=None):
        if self.outcomes.get(key) is None:
            self.outcomes[key] = failure

    def fail(self, key, op_name, exc, wrong):
        self.record(key, (wrong, type(exc).__name__, f"{op_name}: {type(exc).__name__}: {exc}"))

    def _failures(self):
        return [f for f in self.outcomes.values() if f is not None]

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return len(self._failures())

    @property
    def wrong(self):
        return sum(wrong for wrong, _, _ in self._failures())

    @property
    def raised(self):
        counts = {}
        for wrong, name, _ in self._failures():
            if not wrong:
                counts[name] = counts.get(name, 0) + 1
        return counts

    @property
    def messages(self):
        return [message for _, _, message in self._failures()][:MAX_MESSAGES]


def run_op(op, lib, tracer, tally, observations=None):
    key = id(op)
    with tracer.operation(op.name, **op.attrs) as span:
        try:
            observed = op.fn(lib)
        except jobs.WrongResult as exc:
            tally.fail(key, op.name, exc, wrong=True)
        except Exception as exc:  # every other failure is counted, never fatal
            if not isinstance(exc, LandscapeError):
                traceback.print_exc(file=sys.stderr)
            tally.fail(key, op.name, exc, wrong=False)
        else:
            tally.record(key)
            if observations is not None and span is not None:
                observations[span.op] = observed or {}


def run_job(job, lib, tracer, tally, observations=None):
    start = time.perf_counter()
    for op in job.ops:
        run_op(op, lib, tracer, tally, observations)
    return time.perf_counter() - start


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the pinning variable if it cannot be asked."""
    with open("/proc/self/maps") as handle:
        libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", handle.read()))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(np, root, nproc, workers):
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '?')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "mc_workers": workers,
        "git_commit": git_commit(root),
    }


def alloc_peaks(job, lib, tally):
    peaks = {}
    null = Tracer(enabled=False)
    for key, op in job.alloc:
        tracemalloc.start()
        try:
            run_op(op, lib, null, tally)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[key] = max(peaks.get(key, 0.0), peak / 2**20)
    return peaks


def cli_overhead(job, lib, tracer, tally, reps):
    """Median time of ``cli.main`` with ``--out`` minus the library call on the same inputs."""
    kind, argv, lib_call = job.cli
    cli_times, lib_times = [], []
    with tracer.operation(f"cli.{kind}", role="cli"):
        for _ in range(reps):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = lib.cli.main(argv)
            cli_times.append(time.perf_counter() - start)
            failure = None if code == 0 else (False, "exit", f"cli {kind} exited with {code}")
            tally.record(("cli", kind), failure)
            start = time.perf_counter()
            lib_call(lib)
            lib_times.append(time.perf_counter() - start)
    return {kind: 1e3 * (statistics.median(cli_times) - statistics.median(lib_times))}


def measure_plain(job, lib, tally, seconds):
    null = Tracer(enabled=False)
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run_job(job, lib, null, tally))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def measure_traced(job, plain, tally, seconds, cli_reps):
    start = time.perf_counter()
    tracer = Tracer()
    traced = Library(tracer)
    null = Tracer(enabled=False)
    observations = {}
    extras = {"alloc_mb": alloc_peaks(job, plain, tally), "cli_overhead_ms": {}}
    for op in job.serial:
        run_op(op, traced, tracer, tally)
    if job.cli is not None:
        extras["cli_overhead_ms"] = cli_overhead(job, traced, tracer, tally, cli_reps)

    plain_walls, traced_walls, cpus = [], [], []
    while True:
        cpu = time.process_time()
        plain_walls.append(run_job(job, plain, null, tally))
        cpus.append(time.process_time() - cpu)
        traced_walls.append(run_job(job, traced, tracer, tally, observations))
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() - start + pair > seconds:
            break

    extras["cpu_s"] = statistics.median(cpus)
    extras["cpu_per_wall"] = statistics.median(c / w for c, w in zip(cpus, plain_walls))
    extras["overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    per_layer = metrics.derive(tracer, observations, len(traced_walls), extras)
    detail = {
        "per_layer": per_layer,
        "self_s": metrics.self_times(tracer, len(traced_walls)),
        "baselines": metrics.baselines(tracer, observations, len(traced_walls)),
        "traced_walls": traced_walls,
    }
    return plain_walls, detail, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs.MAKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(jobs.SIZES), default="full")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = args.root.resolve()
    source = Path(landscape.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"error: imported landscape from {source}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    out_dir = root / "benchmarks" / "_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    workers = landscape.volume.resolve_workers(nproc)
    plain = Library(Tracer(enabled=False))
    job = jobs.make(args.workload, plain, args.seed, args.size, workers, out_dir)
    tally = Tally()
    run_op(job.warmup, plain, Tracer(enabled=False), tally)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        cli_reps = jobs.SIZES[args.size]["cli_reps"]
        walls, detail, tracer = measure_traced(job, plain, tally, args.seconds, cli_reps)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        detail["spans_file"] = str(spans_path.relative_to(root))
    else:
        walls, detail = measure_plain(job, plain, tally, args.seconds), {}
    result = {
        "walls": walls,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "raised": tally.raised,
        "messages": tally.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(np, root, nproc, workers),
        **detail,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

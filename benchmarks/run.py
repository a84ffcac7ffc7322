"""landscape-lab benchmark: one workload, measured end to end or traced by layer.

    python3 benchmarks/run.py --workload {mc,train,geometry,all} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``landscape`` from the
checkout's ``src``.  Inputs are generated from ``--seed``.  The workload
runs in a process of its own: set-up time is measured over several fresh
processes, each timed from its start until it has imported ``landscape``,
generated the inputs and done one warm-up operation.  The last line of
standard output is the result as one JSON object; the lines before it
report every metric by name with its unit, the environment and, when
traced, the per-layer metrics and the hand-measured baselines.  With
``--workload all`` the three workloads run in turn, each printing its
report and its result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, ERROR_RATE, PER_LAYER, UNITS

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = Path(__file__).resolve().parent / "workload.py"

# Fresh processes timed for setup_s, besides the measured one; the median
# of the eleven set-up times is reported.
SETUP_PROBES = 10

# BLAS runs single-threaded so that the Monte Carlo pool, one worker per
# CPU, plus BLAS threads never exceed the CPU count.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEADLINE_S = 170

WORKLOADS = ("mc", "train", "geometry")


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env.pop("LANDSCAPE_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_workload(argv, timeout):
    """Start a workload process; return it and the seconds until it reported READY."""
    command = [sys.executable, str(WORKLOAD), "--root", str(ROOT), *argv]
    begin = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - begin
        if line.strip() != "READY":
            raise BenchmarkError(f"workload process did not get ready: {line.strip()!r}")
    except BaseException:
        proc.kill()
        proc.wait(timeout)
        raise
    return proc, setup


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited with {proc.returncode}")
    return out


def measure(workload, args):
    deadline = time.perf_counter() + DEADLINE_S
    argv = ["--workload", workload, "--seed", str(args.seed), "--size", args.size]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_workload([*argv, "--seconds", "0", "--setup-only"], 30)
        finish(proc, 30)
        setups.append(setup)
    proc, setup = start_workload(
        [*argv, "--seconds", str(args.seconds), "--trace", str(args.trace)], 30)
    setups.append(setup)
    out = finish(proc, max(deadline - time.perf_counter(), 1.0))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError("workload process printed no result")
    return json.loads(lines[-1]), setups


def report(workload, args, result, setups):
    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        ERROR_RATE[0]: failed / attempted,
    }
    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for key, value in result["env"].items():
        print(f"  env.{key}: {value}")
    print(f"  wall_s: {values['wall_s']:.6g} s (median of {len(walls)} jobs, "
          f"{min(walls):.6g}..{max(walls):.6g})")
    print(f"  setup_s: {values['setup_s']:.6g} s (median of {len(setups)} processes, "
          f"{min(setups):.6g}..{max(setups):.6g})")
    print(f"  peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
    print(f"  error_rate: {values['error_rate']:.6g} fraction "
          f"({failed} of {attempted} operations failed; raised {result['raised']}, "
          f"wrong results {result['wrong']})")
    for message in result["messages"]:
        print(f"    {message}")
    if args.trace:
        for name, value in result["per_layer"].items():
            print(f"  {name}: {value:.6g} {UNITS[name]}")
        for layer, seconds in result["self_s"].items():
            print(f"  self time per job, {layer}: {seconds:.6g} s")
        for name, pair in result["baselines"].items():
            print(f"  baseline {name}: {pair['benchmark']:.4g} here, {pair['hand']:.4g} by hand")
        print(f"  spans: {result['spans_file']}")
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}
    return {
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="all: every workload in turn, each with its own result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced job")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "landscape" / "__init__.py").is_file():
        print(f"error: no landscape package under {ROOT / 'src'}; "
              "run from the root of a landscape-lab checkout", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, setups = measure(workload, args)
        except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        line = report(workload, args, result, setups)
        out_dir = ROOT / "benchmarks" / "_out"
        record = out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({"result": line, "setups": setups, **result}, indent=1))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: tiny runs of every workload, and planted failures.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import metrics  # noqa: E402
import workload  # noqa: E402
from landscape.errors import DegenerateData  # noqa: E402
from spans import Library, Tracer  # noqa: E402

WORKLOADS = ("mc", "train", "geometry")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in metrics.PER_LAYER]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_reports_every_metric(name, trace):
    done = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        row[0]: row[1] for row in expected}
    report = "\n".join(lines[:-1])
    for metric, unit, *_ in metrics.END_TO_END + [metrics.ERROR_RATE]:
        assert f"  {metric}: " in report and f" {unit}" in report
    for key in ("python", "numpy", "blas", "lapack", "blas_threads", "nproc", "mc_workers",
                "git_commit"):
        assert f"  env.{key}: " in report


def test_all_runs_every_workload_in_turn():
    done = run_bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    headers = [line.split(",")[0] for line in lines if line.startswith("workload ")]
    assert headers == [f"workload {name}" for name in WORKLOADS]
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert result["correct"] is True
        assert set(result["metrics"]) == {row[0] for row in metrics.END_TO_END}


def test_planted_wrong_value_counts_as_error():
    lib = Library(Tracer(enabled=False))
    call = lambda lib, t, s, w: lib.volume.estimate_orthant_probability(1, 1, 1, t, s, w)  # noqa: E731
    honest = lambda est: jobs.expect_near(est, 0.5, "orthant 1x1x1")  # noqa: E731
    planted = lambda est: jobs.expect_near(est, 0.3, "orthant 1x1x1, wrong exact")  # noqa: E731
    tally = workload.Tally()
    for check in (honest, planted):
        op = jobs._mc_op("orthant", "1x1x1", call, check, 4000, 7, 1)
        workload.run_op(op, lib, Tracer(enabled=False), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "wrong exact" in tally.messages[0]


def test_raised_error_is_counted_but_not_wrong():
    def fn(lib):
        raise DegenerateData("planted")

    tally = workload.Tally()
    workload.run_op(jobs.Op("planted", fn), None, Tracer(enabled=False), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert tally.raised == {"DegenerateData": 1}


def test_counts_do_not_depend_on_repetitions():
    def refuse(lib):
        raise DegenerateData("planted")

    ops = [jobs.Op("refused", refuse), jobs.Op("passed", lambda lib: {})]
    counts = []
    for reps in (1, 4):
        tally = workload.Tally()
        for _ in range(reps):
            for op in ops:
                workload.run_op(op, None, Tracer(enabled=False), tally)
        counts.append((tally.attempted, tally.failed, tally.raised))
    assert counts == [(2, 1, {"DegenerateData": 1})] * 2


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = run_bench("--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout

"""Metric catalogue, and the per-layer metrics derived from a traced run.

Every per-layer metric names the end-to-end metric and workload it should
move; BENCHMARK.json lists the same names and units.  A workload that
does not call a layer reports 0 for that layer's metrics.  Per-job
figures (counts, busy seconds) are averaged over the traced repetitions
of the job; ratios are totals over totals.
"""

import statistics
from collections import defaultdict

from jobs import FLOOR

# name, unit, better, bound (share of the parent's median).  On a shared
# 2-vCPU host the same job runs 20-30% slower for seconds at a time, so
# run medians of wall_s and setup_s spread by 0.1-0.2 between runs.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Reported by name on every run but not bounded: it is 0 on mc and train,
# and the benchmark's result line carries it as failed / attempted.
ERROR_RATE = ("error_rate", "fraction")

MC_KINDS = ("orthant", "sign_match", "angular", "custom", "margin", "coherence")
BUILD_SHAPES = ("20x200", "5x400", "50x1000")
MC_MOVES = "wall_s on mc and geometry"


def _volume_metrics():
    rows = [
        ("volume.trials", "count", "higher", "base of the volume ratios"),
        ("volume.busy_s", "s", "lower", MC_MOVES),
    ]
    for kind in MC_KINDS:
        where = "geometry" if kind == "coherence" else "mc"
        rows += [
            (f"volume.us_per_trial.{kind}", "us", "lower", f"wall_s on {where}"),
            (f"volume.serial_us_per_trial.{kind}", "us", "lower", f"wall_s on {where}"),
            (f"volume.speedup.{kind}", "ratio", "higher", MC_MOVES),
            (f"volume.peak_alloc_mb.{kind}", "MB", "lower", "peak_rss_mb on mc and geometry"),
        ]
    return rows


PER_LAYER = _volume_metrics() + [
    ("train.runs", "count", "higher", "base of the train ratios"),
    ("train.epochs", "count", "lower", "wall_s on train"),
    ("train.steps", "count", "lower", "wall_s on train"),
    ("train.busy_s", "s", "lower", "wall_s on train"),
    ("train.ms_per_epoch.over", "ms", "lower", "wall_s on train"),
    ("train.ms_per_epoch.under", "ms", "lower", "wall_s on train"),
    ("train.ms_per_epoch.decay", "ms", "lower", "wall_s on train"),
    ("train.us_per_step", "us", "lower", "wall_s on train"),
    ("train.epoch_use_frac", "fraction", "higher", "wall_s on train"),
    ("train.data_init_s", "s", "lower", "wall_s on train"),
    ("train.peak_alloc_mb", "MB", "lower", "peak_rss_mb on train"),
    ("train.floor_misses", "count", "lower", "criterion-06 evidence, not gated"),
    ("train.min_neural_input_p50", "value", "higher", "criterion-06 evidence, not gated"),
    ("network.busy_s", "s", "lower", "wall_s on train and geometry"),
    ("construct.builds", "count", "higher", "base of the construct ratios"),
    ("construct.failed", "count", "lower", "error_rate on geometry"),
] + [
    (f"construct.ms_per_build.{shape}", "ms", "lower", "wall_s on geometry")
    for shape in BUILD_SHAPES
] + [
    ("construct.margin_ms", "ms", "lower", "wall_s on geometry"),
    ("construct.mse_max", "value", "lower", "error_rate on geometry"),
    ("stationarity.oracle_s.holds", "s", "lower", "wall_s on geometry"),
    ("stationarity.oracle_s.violated", "s", "lower", "wall_s on geometry"),
    ("stationarity.oracle_subsets_per_s", "1/s", "higher", "wall_s on geometry"),
    ("stationarity.dlm_condition_ms", "ms", "lower", "wall_s on geometry"),
    ("linalg.rank_ms", "ms", "lower", "wall_s on geometry"),
    ("bounds.theta_star_ms", "ms", "lower", "wall_s on geometry"),
    ("bounds.evals_per_s", "1/s", "higher", "wall_s on geometry"),
    ("bounds.theta", "value", "higher", "criterion-04 evidence, not gated"),
    ("cli.overhead_ms.volume", "ms", "lower", "wall_s and setup_s on mc"),
    ("cli.overhead_ms.train", "ms", "lower", "wall_s and setup_s on train"),
    ("cli.overhead_ms.construct", "ms", "lower", "wall_s and setup_s on geometry"),
    ("proc.cpu_s", "s", "lower", MC_MOVES),
    ("proc.cpu_per_wall", "ratio", "higher", MC_MOVES),
    ("trace.overhead_frac", "fraction", "lower", "none: cost of tracing itself"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS[ERROR_RATE[0]] = ERROR_RATE[1]


class _Ops:
    """Operation spans of the traced repetitions, each with its library calls."""

    def __init__(self, spans, observations, reps):
        self.reps = max(reps, 1)
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        self.ops = [
            (span, children[i], observations.get(span.op, {}))
            for i, span in enumerate(spans) if span.parent is None
        ]

    def calls(self, prefix, role="main", **match):
        """Library spans named with ``prefix`` under ops of that role and attributes."""
        found = []
        for op, calls, _ in self.ops:
            if op.attrs.get("role", "main") != role:
                continue
            if any(op.attrs.get(k) != v for k, v in match.items()):
                continue
            found += [(op, c) for c in calls if c.name.startswith(prefix)]
        return found

    def busy(self, prefix):
        return sum(c.duration for _, c in self.calls(prefix)) / self.reps

    def observed(self, key, role="main", **match):
        values = []
        for op, _, obs in self.ops:
            if op.attrs.get("role", "main") == role and key in obs and all(
                    op.attrs.get(k) == v for k, v in match.items()):
                values += obs[key] if isinstance(obs[key], list) else [obs[key]]
        return values


def _mean_ms(calls):
    return 1e3 * sum(c.duration for _, c in calls) / len(calls) if calls else 0.0


def _per_trial_us(calls):
    trials = sum(op.attrs["trials"] for op, _ in calls)
    return 1e6 * sum(c.duration for _, c in calls) / trials if trials else 0.0


def derive(tracer, observations, reps, extras):
    """Per-layer metrics from the spans of ``reps`` traced jobs plus untraced passes.

    ``observations`` maps an operation id to what the operation returned;
    ``extras`` holds what was measured outside the traced jobs (allocation
    peaks, CLI overheads, process CPU and the tracing overhead).
    """
    ops = _Ops(tracer.spans, observations, reps)
    m = {name: 0.0 for name, *_ in PER_LAYER}

    volume_calls = ops.calls("volume.") + ops.calls("volume.", role="determinism")
    m["volume.trials"] = sum(op.attrs["trials"] for op, _ in volume_calls) / ops.reps
    m["volume.busy_s"] = sum(c.duration for _, c in volume_calls) / ops.reps
    for kind in MC_KINDS:
        parallel = _per_trial_us(ops.calls("volume.", kind=kind))
        serial = _per_trial_us(ops.calls("volume.", role="serial", kind=kind))
        m[f"volume.us_per_trial.{kind}"] = parallel
        m[f"volume.serial_us_per_trial.{kind}"] = serial
        m[f"volume.speedup.{kind}"] = serial / parallel if parallel else 0.0
        m[f"volume.peak_alloc_mb.{kind}"] = extras.get("alloc_mb", {}).get(kind, 0.0)

    trains = ops.calls("train.adam_train")
    m["train.runs"] = len(trains) / ops.reps
    epochs = ops.observed("epochs")
    steps = ops.observed("steps")
    m["train.epochs"] = sum(epochs) / ops.reps
    m["train.steps"] = sum(steps) / ops.reps
    m["train.busy_s"] = ops.busy("train.")
    for kind in ("over", "under", "decay"):
        m[f"train.ms_per_epoch.{kind}"] = _ms_per_epoch(ops, kind=kind)
    if steps:
        m["train.us_per_step"] = 1e6 * sum(c.duration for _, c in trains) / sum(steps)
        m["train.epoch_use_frac"] = sum(epochs) / sum(ops.observed("caps"))
    m["train.data_init_s"] = ops.busy("train.gen_gaussian_dataset") + ops.busy("train.he_init")
    m["train.peak_alloc_mb"] = extras.get("alloc_mb", {}).get("train", 0.0)
    floors = ops.observed("min_inputs", kind="decay")
    if floors:
        m["train.floor_misses"] = sum(v < FLOOR for v in floors) / ops.reps
        m["train.min_neural_input_p50"] = statistics.median(floors)

    m["network.busy_s"] = ops.busy("network.")

    builds = ops.calls("construct.build_global_minimum")
    m["construct.builds"] = len(builds) / ops.reps
    m["construct.failed"] = sum(
        c.attrs.get("error") == "DegenerateData" for _, c in builds) / ops.reps
    for shape in BUILD_SHAPES:
        m[f"construct.ms_per_build.{shape}"] = _mean_ms(
            ops.calls("construct.build_global_minimum", shape=shape))
    m["construct.margin_ms"] = _mean_ms(ops.calls("construct.angular_margin"))
    mses = ops.observed("mse")
    m["construct.mse_max"] = max(mses) if mses else 0.0

    for case in ("holds", "violated"):
        calls = ops.calls("stationarity.rank_condition_oracle", case=case)
        m[f"stationarity.oracle_s.{case}"] = _mean_ms(calls) / 1e3
    holds = ops.calls("stationarity.rank_condition_oracle", case="holds")
    if holds:
        subsets = sum(2 ** op.attrs["N"] - 1 for op, _ in holds)
        m["stationarity.oracle_subsets_per_s"] = subsets / sum(c.duration for _, c in holds)
    m["stationarity.dlm_condition_ms"] = _mean_ms(ops.calls("stationarity.dlm_condition"))
    m["linalg.rank_ms"] = _mean_ms(ops.calls("linalg.numerical_rank"))

    m["bounds.theta_star_ms"] = _mean_ms(ops.calls("bounds.find_theta_star"))
    sweep = [(op, c) for op, c in ops.calls("bounds.") if op.name == "geometry.bounds_sweep"]
    if sweep:
        m["bounds.evals_per_s"] = len(sweep) / sum(c.duration for _, c in sweep)
    thetas = ops.observed("theta")
    m["bounds.theta"] = thetas[0] if thetas else 0.0

    for kind, value in extras.get("cli_overhead_ms", {}).items():
        m[f"cli.overhead_ms.{kind}"] = value
    m["proc.cpu_s"] = extras["cpu_s"]
    m["proc.cpu_per_wall"] = extras["cpu_per_wall"]
    m["trace.overhead_frac"] = extras["overhead_frac"]
    return m


def self_times(tracer, reps):
    """Seconds per traced job spent in each layer's own code, not in its child spans.

    Operation spans belong to the benchmark itself; each library call is
    charged to its module.
    """
    ops = _Ops(tracer.spans, {}, reps)
    totals = defaultdict(float)
    for op, calls, _ in ops.ops:
        if op.attrs.get("role", "main") not in ("main", "determinism"):
            continue
        totals["benchmark"] += op.duration - sum(c.duration for c in calls)
        for call in calls:
            totals[call.name.split(".")[0]] += call.duration
    return {layer: value / ops.reps for layer, value in sorted(totals.items())}


def _ms_per_epoch(ops, **match):
    spent = sum(c.duration for _, c in ops.calls("train.adam_train", **match))
    epochs = sum(ops.observed("epochs", **match))
    return 1e3 * spent / epochs if epochs else 0.0


# Figures the ROADMAP gives as measured by hand on a 2-core machine, 2026-10-17
HAND_BASELINES = {
    "orthant 1x1x1, 1 worker (us/trial)": 14.5,
    "orthant 1x1x1, nproc workers (us/trial)": 11.7,
    "coherence M=2000 N=5, 1 worker (us/trial)": 355.0,
    "Adam d=20 N=80 (ms/epoch)": 0.45,
    "Adam d=30 N=450 (ms/epoch)": 2.3,
    "rank oracle N=16, holds (s)": 1.95,
    "find_theta_star (ms)": 10.0,
}


def baselines(tracer, observations, reps):
    """This run's figure for each hand-measured baseline the job covers."""
    ops = _Ops(tracer.spans, observations, reps)
    figures = {
        "orthant 1x1x1, 1 worker (us/trial)":
            _per_trial_us(ops.calls("volume.", role="serial", label="1x1x1")),
        "orthant 1x1x1, nproc workers (us/trial)":
            _per_trial_us(ops.calls("volume.", label="1x1x1")),
        "coherence M=2000 N=5, 1 worker (us/trial)":
            _per_trial_us(ops.calls("volume.", role="serial", kind="coherence")),
        "Adam d=20 N=80 (ms/epoch)": _ms_per_epoch(ops, kind="decay", d=20),
        "Adam d=30 N=450 (ms/epoch)": _ms_per_epoch(ops, kind="over", d=30),
        "rank oracle N=16, holds (s)": _mean_ms(ops.calls(
            "stationarity.rank_condition_oracle", case="holds", N=16)) / 1e3,
        "find_theta_star (ms)": _mean_ms(ops.calls("bounds.find_theta_star")),
    }
    return {name: {"benchmark": value, "hand": HAND_BASELINES[name]}
            for name, value in figures.items() if value}

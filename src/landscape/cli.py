"""Command-line front end: seeded experiment commands with JSON/CSV outputs.

Every command builds a RunRecord carrying its full configuration snapshot
and seed, so rerunning with the recorded values reproduces all numeric
outputs bit for bit in single-threaded mode.  Structured results go to a
JSON document, plot-ready tables to CSV, both written atomically
(temp file and rename), and the outputs object is printed to stdout.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import train as train_mod
from . import volume as volume_mod
from .errors import (
    BadLeak,
    ConfigError,
    DatasetFormatError,
    DegenerateData,
    DegenerateInput,
    DomainError,
    InstanceTooLarge,
    LabelDomainError,
    NonFinite,
    RankDeficient,
    TargetTooSmall,
    UsageError,
    ZeroColumn,
    ZeroVector,
)
from .linalg import numerical_rank
from .network import Dataset, activation_slopes, evaluate, khatri_rao, mean_square, misclassified
from .stationarity import rank_condition_oracle

EXIT_OK = 0
EXIT_USAGE = 1        # usage, I/O, config, parameter-domain problems
EXIT_NUMERICAL = 2    # degenerate data or numerical failure

_USAGE_ERRORS = (
    UsageError,
    ConfigError,
    DatasetFormatError,
    LabelDomainError,
    DomainError,
    InstanceTooLarge,
    BadLeak,
    TargetTooSmall,
    OSError,
    ValueError,
)
_NUMERICAL_ERRORS = (
    DegenerateData,
    NonFinite,
    RankDeficient,
    DegenerateInput,
    ZeroVector,
    ZeroColumn,
    np.linalg.LinAlgError,
)


@dataclass
class RunRecord:
    command: str
    config: dict
    seed: int
    started: str = ""
    finished: str = ""
    outputs: dict = field(default_factory=dict)


def _now():
    return datetime.now(timezone.utc).isoformat()


def write_json_atomic(path, payload):
    """Serialize to a sibling temp file, then rename over the target."""
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")


def write_text_atomic(path, text):
    _write_atomic(path, text)


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_run_record(path):
    with open(path) as handle:
        raw = json.load(handle)
    return RunRecord(**raw)


def load_dataset_csv(path):
    """Parse the dataset format: header 'd0=<int>,N=<int>' then N sample rows.

    Raises
    ------
    DatasetFormatError
        Naming the 1-based offending line for any structural problem.
    LabelDomainError
        Naming the line whose label is outside {0, 1}.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise DatasetFormatError("line 1: empty file, expected header 'd0=<int>,N=<int>'")
    header = lines[0].replace(" ", "")
    parts = header.split(",")
    try:
        if len(parts) != 2 or not parts[0].startswith("d0=") or not parts[1].startswith("N="):
            raise ValueError
        d0 = int(parts[0][3:])
        N = int(parts[1][2:])
    except ValueError:
        raise DatasetFormatError("line 1: expected header 'd0=<int>,N=<int>'") from None
    data_lines = [l for l in lines[1:] if l.strip()]
    if len(data_lines) != N:
        raise DatasetFormatError(
            f"line {len(lines)}: header promises N={N} rows, found {len(data_lines)}"
        )
    X = np.empty((d0, N))
    y = np.empty(N)
    for n, line in enumerate(data_lines):
        lineno = n + 2
        fields = line.split(",")
        if len(fields) != d0 + 1:
            raise DatasetFormatError(
                f"line {lineno}: expected {d0 + 1} comma-separated fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, values)):
            raise DatasetFormatError(f"line {lineno}: non-finite field")
        label = values[-1]
        if label not in (0.0, 1.0):
            raise LabelDomainError(f"line {lineno}: label must be 0 or 1, got {fields[-1]}")
        X[:, n] = values[:-1]
        y[n] = label
    return Dataset(X=X, y=y)


def write_dataset_csv(path, data):
    lines = [f"d0={data.d0},N={data.n_samples}"]
    for n in range(data.n_samples):
        fields = [repr(float(v)) for v in data.X[:, n]] + [str(int(data.y[n]))]
        lines.append(",".join(fields))
    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config handling for train / scan / diagnostic

_TRAIN_KEYS = {
    "epochs", "lr", "batch", "beta1", "beta2", "adam_eps",
    "lr_decay_epochs", "seed", "rho", "stop_on_zero_mce",
}


def _check_keys(config, allowed, context):
    for key in config:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}' in {context}")


def _train_config(config, defaults=None):
    values = dict(defaults or {})
    values.update({k: v for k, v in config.items() if k in _TRAIN_KEYS})
    try:
        return train_mod.TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid training configuration: {exc}") from None


def _load_config(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _dataset_from_config(spec):
    if not isinstance(spec, dict):
        raise ConfigError("config key 'dataset' must be an object")
    if "path" in spec:
        _check_keys(spec, {"path"}, "dataset")
        return load_dataset_csv(spec["path"]), {"path": spec["path"]}
    _check_keys(spec, {"d0", "n", "seed"}, "dataset")
    for key in ("d0", "n"):
        if key not in spec:
            raise ConfigError(f"dataset config needs key '{key}' (or 'path')")
    seed = spec.get("seed", 0)
    data = train_mod.gen_gaussian_dataset(spec["d0"], spec["n"], seed)
    return data, {"d0": spec["d0"], "n": spec["n"], "seed": seed}


# ---------------------------------------------------------------------------
# commands

def cmd_construct(args):
    if args.data is not None:
        if args.d0 is not None or args.n is not None:
            raise UsageError("--data and --d0/--n are mutually exclusive")
        data = load_dataset_csv(args.data)
        dataset_cfg = {"path": args.data}
    else:
        if args.d0 is None or args.n is None:
            raise UsageError("construct needs --data or both --d0 and --n")
        data = train_mod.gen_gaussian_dataset(args.d0, args.n, args.data_seed)
        dataset_cfg = {"d0": args.d0, "n": args.n, "seed": args.data_seed}
    built = construct_mod.build_global_minimum(
        data, rho=args.rho, beta=args.beta, gamma=args.gamma,
        target_d1=args.target_d1, seed=args.seed,
    )
    params = built.params
    P, _, _, yhat = evaluate(params.W, params.z, params.rho, data.X)
    outputs = {
        "d1_star": built.d1_star,
        "blocks": len(built.blocks),
        "eps": [[b.eps1, b.eps2] for b in built.blocks],
        "mse": mean_square(data.y - yhat),
        "mce": misclassified(data.y, yhat),
    }
    if params.d1:
        outputs["min_neural_input"] = float(np.min(np.abs(P)))
        margin = construct_mod.angular_margin(data.X, params.W)
        outputs["margin"] = {
            "sin_alpha": margin.sin_alpha,
            "row": margin.argmin_pair[0],
            "sample": margin.argmin_pair[1],
        }
    else:
        outputs["min_neural_input"] = None
        outputs["margin"] = None
    config = {
        "dataset": dataset_cfg,
        "rho": args.rho,
        "beta": args.beta,
        "gamma": args.gamma,
        "target_d1": args.target_d1,
    }
    return RunRecord("construct", config, args.seed or 0, outputs=outputs)


def cmd_train(args):
    raw = _load_config(args.config)
    _check_keys(raw, _TRAIN_KEYS | {"dataset", "d1"}, "train config")
    if "dataset" not in raw:
        raise ConfigError("train config needs key 'dataset'")
    data, dataset_cfg = _dataset_from_config(raw["dataset"])
    d1 = raw.get("d1", data.d0)
    config = _train_config(raw)
    params = train_mod.he_init(
        d1, data.d0, train_mod.derive_seed(config.seed, "init", 0), rho=config.rho
    )
    _, result = train_mod.adam_train(params, data, config)
    outputs = {
        "final_mse": result.final_mse,
        "final_mce": result.final_mce,
        "min_neural_input": result.min_neural_input,
        "epochs_run": result.epochs_run,
    }
    csv_lines = ["epoch,mse,mce"]
    csv_lines += [f"{i},{repr(m)},{repr(c)}" for i, (m, c) in enumerate(result.history)]
    snapshot = dict(raw, dataset=dataset_cfg, d1=d1)
    record = RunRecord("train", snapshot, config.seed, outputs=outputs)
    return record, "\n".join(csv_lines) + "\n"


def cmd_scan(args):
    raw = _load_config(args.config)
    _check_keys(raw, _TRAIN_KEYS | {"d_values", "n_factors", "seeds"}, "scan config")
    for key in ("d_values", "n_factors", "seeds"):
        if key not in raw:
            raise ConfigError(f"scan config needs key '{key}'")
    config = _train_config(raw)
    rows = train_mod.scan_overparam(raw["d_values"], raw["n_factors"], raw["seeds"], config)
    csv_lines = ["d,N,params_over_N,mce_mean,mce_std"]
    csv_lines += [
        f"{r['d']},{r['N']},{repr(r['params_over_N'])},{repr(r['mce_mean'])},{repr(r['mce_std'])}"
        for r in rows
    ]
    record = RunRecord("scan", raw, config.seed, outputs={"rows": rows})
    return record, "\n".join(csv_lines) + "\n"


def cmd_diagnostic(args):
    raw = _load_config(args.config)
    _check_keys(raw, _TRAIN_KEYS | {"d", "seeds"}, "diagnostic config")
    for key in ("d", "seeds"):
        if key not in raw:
            raise ConfigError(f"diagnostic config needs key '{key}'")
    defaults = {"epochs": 2000, "lr_decay_epochs": 1000, "stop_on_zero_mce": False}
    config = _train_config(raw, defaults=defaults)
    rows = train_mod.dlm_diagnostic(raw["d"], raw["seeds"], config)
    csv_lines = ["seed_index,min_neural_input,final_mse"]
    csv_lines += [
        f"{r['seed_index']},{repr(r['min_neural_input'])},{repr(r['final_mse'])}" for r in rows
    ]
    record = RunRecord("diagnostic", raw, config.seed, outputs={"rows": rows})
    return record, "\n".join(csv_lines) + "\n"


def _estimate_dict(est):
    return asdict(est)


def cmd_volume(args):
    workers = args.workers
    seed = args.seed
    trials = args.trials
    config = {k: v for k, v in vars(args).items()
              if k not in {"func", "out", "workers"} and v is not None}
    if args.volume_kind == "angular":
        rng = np.random.default_rng(args.pattern_seed)
        X = rng.standard_normal((args.d0, args.n))
        W0 = rng.standard_normal((args.d1, args.d0))
        A = activation_slopes(W0 @ X, 0.5)
        region = volume_mod.RegionSpec.from_activation_pattern(A, X)
        est = volume_mod.estimate_angular_volume(region, trials, seed, workers)
        outputs = {"estimate": _estimate_dict(est), "bound": None}
    elif args.volume_kind == "global":
        rng = np.random.default_rng(args.pattern_seed)
        X = rng.standard_normal((args.d0, args.n))
        Wstar = rng.standard_normal((args.d1star, args.d0))
        d1 = args.d1 if args.d1 is not None else args.d1star
        est = volume_mod.estimate_global_region_volume(X, Wstar, d1, trials, seed, workers)
        margin = construct_mod.angular_margin(X, Wstar)
        exact, asymptotic_log = bounds_mod.global_volume_lower_bound(
            args.d0, args.d1star, margin.sin_alpha
        )
        outputs = {
            "estimate": _estimate_dict(est),
            "bound": {
                "sin_alpha": margin.sin_alpha,
                "lower_exact": exact,
                "lower_log": bounds_mod.global_volume_log_lower_bound(
                    args.d0, args.d1star, margin.sin_alpha
                ),
                "asymptotic_log": asymptotic_log,
            },
        }
    elif args.volume_kind == "orthant":
        est = volume_mod.estimate_orthant_probability(
            args.n, args.m, args.l, trials, seed, workers
        )
        alpha = args.m * args.l / args.n
        bound = (
            {"log": bounds_mod.orthant_probability_log_bound(args.n, args.m, args.l)}
            if alpha > 1.0
            else None
        )
        outputs = {"estimate": _estimate_dict(est), "alpha": alpha, "bound": bound}
    elif args.volume_kind == "coherence":
        est = volume_mod.estimate_coherence_tail(args.m, args.n, args.eps, trials, seed, workers)
        outputs = {
            "estimate": _estimate_dict(est),
            "bound": {"tail": bounds_mod.coherence_tail_bound(args.m, args.n, args.eps)},
        }
    else:  # margin
        rng = np.random.default_rng(args.pattern_seed)
        Wstar = rng.standard_normal((args.d1star, args.d0))
        est = volume_mod.estimate_margin_probability(
            Wstar, args.n, args.sin_alpha, trials, seed, workers
        )
        upper = bounds_mod.beta_angle_bounds(args.d0, args.sin_alpha, "upper")
        outputs = {
            "estimate": _estimate_dict(est),
            "bound": {"lower": max(0.0, 1.0 - args.n * args.d1star * upper)},
        }
    return RunRecord(f"volume {args.volume_kind}", config, seed, outputs=outputs)


def cmd_bounds(args):
    kind = args.bounds_kind
    config = {k: v for k, v in vars(args).items()
              if k not in {"func", "out"} and v is not None}
    if kind == "theta-star":
        star = bounds_mod.find_theta_star()
        outputs = {"theta": star.theta, "psi": star.psi_at_theta, "objective": star.objective}
    elif kind == "gamma-eps":
        inputs = bounds_mod.BoundInputs(
            N=1, d0=1, d1=1, epsilon=args.epsilon, rho=args.rho, lim_ratio=args.lim_ratio
        )
        outputs = {"gamma_epsilon": bounds_mod.gamma_epsilon(inputs)}
    elif kind in ("suboptimal", "ratio"):
        inputs = bounds_mod.BoundInputs(
            N=args.n, d0=args.d0, d1=args.d1,
            epsilon=args.epsilon, rho=args.rho, lim_ratio=args.lim_ratio,
        )
        log_bound = bounds_mod.suboptimal_volume_log_bound(inputs)
        if kind == "suboptimal":
            outputs = {"log": log_bound, "value": bounds_mod.suboptimal_volume_bound(inputs)}
        else:
            log_ratio, companion = bounds_mod.ratio_bound(inputs)
            outputs = {"log": log_ratio, "nlogn_companion": companion}
    elif kind == "global-lower":
        exact, asymptotic_log = bounds_mod.global_volume_lower_bound(
            args.d0, args.d1star, args.sin_alpha
        )
        outputs = {
            "exact": exact,
            "log": bounds_mod.global_volume_log_lower_bound(args.d0, args.d1star, args.sin_alpha),
            "asymptotic_log": asymptotic_log,
        }
    elif kind == "delta":
        outputs = {"delta": bounds_mod.delta_probability(args.d0, args.n)}
    elif kind == "dichotomy":
        schlafli, loose = bounds_mod.dichotomy_count_bound(args.n, args.d0)
        outputs = {"schlafli": schlafli, "loose": loose}
    elif kind == "coherence-tail":
        outputs = {"tail": bounds_mod.coherence_tail_bound(args.m, args.n, args.eps)}
    elif kind == "orthant":
        outputs = {"log": bounds_mod.orthant_probability_log_bound(args.n, args.m, args.l)}
    else:  # beta
        if args.which == "lower":
            if args.angle is None:
                raise UsageError("bounds beta --which lower needs --angle (radians)")
            value = args.angle
        else:
            if args.u is None:
                raise UsageError("bounds beta --which upper needs --u")
            value = args.u
        outputs = {"bound": bounds_mod.beta_angle_bounds(args.d0, value, args.which)}
    return RunRecord(f"bounds {kind}", config, 0, outputs=outputs)


def cmd_rank_oracle(args):
    rng = np.random.default_rng(args.seed)
    X = rng.standard_normal((args.d0, args.n))
    W = rng.standard_normal((args.d1, args.d0))
    A = activation_slopes(W @ X, args.rho)
    holds, witness = rank_condition_oracle(A, X)
    kr_rank = numerical_rank(khatri_rao(A, X), 1e-8)
    outputs = {
        "holds": holds,
        "witness": list(witness) if witness is not None else None,
        "khatri_rao_rank": kr_rank,
        "full_column_rank": kr_rank == args.n,
    }
    config = {"d0": args.d0, "d1": args.d1, "n": args.n, "rho": args.rho}
    return RunRecord("rank-oracle", config, args.seed, outputs=outputs)


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="landscape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an exact zero-error network")
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--d0", type=int, help="synthetic input dimension")
    p.add_argument("--n", type=int, help="synthetic sample count")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--target-d1", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="RunRecord JSON path")
    p.set_defaults(func=cmd_construct)

    for name, fn in (("train", cmd_train), ("scan", cmd_scan), ("diagnostic", cmd_diagnostic)):
        p = sub.add_parser(name, help=f"run the {name} protocol from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True, help="output prefix: writes <out>.json and <out>.csv")
        p.set_defaults(func=fn)

    p = sub.add_parser("volume", help="Monte Carlo volume estimators")
    vsub = p.add_subparsers(dest="volume_kind", required=True)
    pv = vsub.add_parser("angular")
    pv.add_argument("--d0", type=int, required=True)
    pv.add_argument("--d1", type=int, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--pattern-seed", type=int, default=0)
    pv = vsub.add_parser("global")
    pv.add_argument("--d0", type=int, required=True)
    pv.add_argument("--d1star", type=int, required=True)
    pv.add_argument("--d1", type=int, default=None)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--pattern-seed", type=int, default=0)
    pv = vsub.add_parser("orthant")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--m", type=int, required=True)
    pv.add_argument("--l", type=int, required=True)
    pv = vsub.add_parser("coherence")
    pv.add_argument("--m", type=int, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--eps", type=float, required=True)
    pv = vsub.add_parser("margin")
    pv.add_argument("--d0", type=int, required=True)
    pv.add_argument("--d1star", type=int, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--sin-alpha", type=float, required=True)
    pv.add_argument("--pattern-seed", type=int, default=0)
    for pv in vsub.choices.values():
        pv.add_argument("--trials", type=int, required=True)
        pv.add_argument("--seed", type=int, required=True)
        pv.add_argument("--workers", type=int, default=None)
        pv.add_argument("--out")
        pv.set_defaults(func=cmd_volume)

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    bsub = p.add_subparsers(dest="bounds_kind", required=True)
    bsub.add_parser("theta-star")
    pb = bsub.add_parser("gamma-eps")
    pb.add_argument("--epsilon", type=float, required=True)
    pb.add_argument("--rho", type=float, required=True)
    pb.add_argument("--lim-ratio", type=float, default=0.0)
    for name in ("suboptimal", "ratio"):
        pb = bsub.add_parser(name)
        pb.add_argument("--n", type=int, required=True)
        pb.add_argument("--d0", type=int, required=True)
        pb.add_argument("--d1", type=int, required=True)
        pb.add_argument("--epsilon", type=float, required=True)
        pb.add_argument("--rho", type=float, required=True)
        pb.add_argument("--lim-ratio", type=float, default=0.0)
    pb = bsub.add_parser("global-lower")
    pb.add_argument("--d0", type=int, required=True)
    pb.add_argument("--d1star", type=int, required=True)
    pb.add_argument("--sin-alpha", type=float, required=True)
    pb = bsub.add_parser("delta")
    pb.add_argument("--d0", type=int, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb = bsub.add_parser("dichotomy")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--d0", type=int, required=True)
    pb = bsub.add_parser("coherence-tail")
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--eps", type=float, required=True)
    pb = bsub.add_parser("orthant")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--l", type=int, required=True)
    pb = bsub.add_parser("beta")
    pb.add_argument("--d0", type=int, required=True)
    pb.add_argument("--which", choices=("lower", "upper"), required=True)
    pb.add_argument("--angle", type=float, default=None)
    pb.add_argument("--u", type=float, default=None)
    for pb in bsub.choices.values():
        pb.add_argument("--out")
        pb.set_defaults(func=cmd_bounds)

    p = sub.add_parser("rank-oracle", help="exhaustive subset rank condition on a random instance")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = _now()
        produced = args.func(args)
        record, csv_text = produced if isinstance(produced, tuple) else (produced, None)
        record.started = started
        record.finished = _now()
        payload = asdict(record)
        if getattr(args, "out", None):
            if csv_text is not None:
                write_json_atomic(args.out + ".json", payload)
                write_text_atomic(args.out + ".csv", csv_text)
            else:
                write_json_atomic(args.out, payload)
        print(json.dumps(payload["outputs"], indent=2))
        return EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

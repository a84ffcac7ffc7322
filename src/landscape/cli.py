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
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import train as train_mod
from . import volume as volume_mod
from .errors import (
    ConfigError,
    DatasetFormatError,
    LabelDomainError,
    LandscapeError,
    NumericalError,
    UsageError,
)
from .linalg import numerical_rank
from .network import (
    Dataset, activation_slopes, check_leak, evaluate, khatri_rao, mean_square, misclassified,
)
from .stationarity import rank_condition_oracle

EXIT_OK = 0
EXIT_USAGE = 1        # every LandscapeError that is not a NumericalError, I/O, ValueError
EXIT_NUMERICAL = 2    # NumericalError and numpy LinAlgError


@dataclass
class RunRecord:
    command: str
    config: dict
    seed: int
    started: str = ""
    finished: str = ""
    outputs: dict = field(default_factory=dict)


def write_atomic(path, text):
    """Write text to a sibling temp file, then rename it over the target."""
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
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config handling for train / scan / diagnostic

_TRAIN_KEYS = {f.name for f in fields(train_mod.TrainConfig)}


def _check_keys(config, allowed, context, required=()):
    for key in config:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}' in {context}")
    for key in required:
        if key not in config:
            raise ConfigError(f"{context} needs key '{key}'")


def _check_types(config, context, types, keys, listed=False):
    """Each present key holds a finite number of the given types (a list of them if listed)."""
    for key in keys:
        if key not in config:
            continue
        items = config[key] if listed else [config[key]]
        if not isinstance(items, list) or not all(
            isinstance(v, types) and not isinstance(v, bool) and math.isfinite(v) for v in items
        ):
            raise ConfigError(f"invalid value for config key '{key}' in {context}: {config[key]!r}")


def _train_config(config, defaults=None):
    values = dict(defaults or {})
    values.update({k: v for k, v in config.items() if k in _TRAIN_KEYS})
    try:
        return train_mod.TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid training configuration: {exc}") from None


def _csv_text(header, table):
    """A CSV table: the header line, then one line of repr'd values per row."""
    return "\n".join([header] + [",".join(map(repr, row)) for row in table]) + "\n"


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
        _check_keys(spec, {"path"}, "dataset config")
        return load_dataset_csv(spec["path"]), {"path": spec["path"]}
    _check_keys(spec, {"d0", "n", "seed"}, "dataset config", required=("d0", "n"))
    _check_types(spec, "dataset config", int, ("d0", "n", "seed"))
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
    _check_keys(raw, _TRAIN_KEYS | {"dataset", "d1"}, "train config", required=("dataset",))
    _check_types(raw, "train config", int, ("d1",))
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
    table = [(i, m, c) for i, (m, c) in enumerate(result.history)]
    snapshot = dict(raw, dataset=dataset_cfg, d1=d1)
    record = RunRecord("train", snapshot, config.seed, outputs=outputs)
    return record, _csv_text("epoch,mse,mce", table)


def cmd_scan(args):
    raw = _load_config(args.config)
    keys = ("d_values", "n_factors", "seeds")
    _check_keys(raw, _TRAIN_KEYS | set(keys), "scan config", required=keys)
    _check_types(raw, "scan config", int, ("seeds",))
    _check_types(raw, "scan config", int, ("d_values",), listed=True)
    _check_types(raw, "scan config", (int, float), ("n_factors",), listed=True)
    config = _train_config(raw)
    rows = train_mod.scan_overparam(raw["d_values"], raw["n_factors"], raw["seeds"], config)
    columns = ("d", "N", "params_over_N", "mce_mean", "mce_std")
    record = RunRecord("scan", raw, config.seed, outputs={"rows": rows})
    return record, _csv_text(",".join(columns), [[r[c] for c in columns] for r in rows])


def cmd_diagnostic(args):
    raw = _load_config(args.config)
    _check_keys(raw, _TRAIN_KEYS | {"d", "seeds"}, "diagnostic config", required=("d", "seeds"))
    _check_types(raw, "diagnostic config", int, ("d", "seeds"))
    defaults = {"epochs": 2000, "lr_decay_epochs": 1000, "stop_on_zero_mce": False}
    config = _train_config(raw, defaults=defaults)
    rows = train_mod.dlm_diagnostic(raw["d"], raw["seeds"], config)
    columns = ("seed_index", "min_neural_input", "final_mse")
    record = RunRecord("diagnostic", raw, config.seed, outputs={"rows": rows})
    return record, _csv_text(",".join(columns), [[r[c] for c in columns] for r in rows])


def cmd_kind(args):
    """RunRecord of one `volume` or `bounds` kind: its outputs under the flags it ran with."""
    config = {k: v for k, v in vars(args).items()
              if k not in {"func", "outputs", "out", "workers"} and v is not None}
    command = f"{args.command} {config[args.command + '_kind']}"
    return RunRecord(command, config, config.get("seed", 0), outputs=args.outputs(args))


def volume_angular(args):
    rng = np.random.default_rng(args.pattern_seed)
    X = rng.standard_normal((args.d0, args.n))
    W0 = rng.standard_normal((args.d1, args.d0))
    region = volume_mod.RegionSpec.from_activation_pattern(activation_slopes(W0 @ X, 0.5), X)
    est = volume_mod.estimate_angular_volume(region, args.trials, args.seed, args.workers)
    return {"estimate": asdict(est), "bound": None}


def volume_global(args):
    rng = np.random.default_rng(args.pattern_seed)
    X = rng.standard_normal((args.d0, args.n))
    Wstar = rng.standard_normal((args.d1star, args.d0))
    d1 = args.d1 if args.d1 is not None else args.d1star
    est = volume_mod.estimate_global_region_volume(
        X, Wstar, d1, args.trials, args.seed, args.workers
    )
    sin_alpha = construct_mod.angular_margin(X, Wstar).sin_alpha
    exact, asymptotic_log = bounds_mod.global_volume_lower_bound(args.d0, args.d1star, sin_alpha)
    return {
        "estimate": asdict(est),
        "bound": {
            "sin_alpha": sin_alpha,
            "lower_exact": exact,
            "lower_log": bounds_mod.global_volume_log_lower_bound(args.d0, args.d1star, sin_alpha),
            "asymptotic_log": asymptotic_log,
        },
    }


def volume_orthant(args):
    est = volume_mod.estimate_orthant_probability(
        args.n, args.m, args.l, args.trials, args.seed, args.workers
    )
    alpha = args.m * args.l / args.n
    bound = (
        {"log": bounds_mod.orthant_probability_log_bound(args.n, args.m, args.l)}
        if alpha > 1.0
        else None
    )
    return {"estimate": asdict(est), "alpha": alpha, "bound": bound}


def volume_coherence(args):
    est = volume_mod.estimate_coherence_tail(
        args.m, args.n, args.eps, args.trials, args.seed, args.workers
    )
    return {
        "estimate": asdict(est),
        "bound": {"tail": bounds_mod.coherence_tail_bound(args.m, args.n, args.eps)},
    }


def volume_margin(args):
    rng = np.random.default_rng(args.pattern_seed)
    Wstar = rng.standard_normal((args.d1star, args.d0))
    est = volume_mod.estimate_margin_probability(
        Wstar, args.n, args.sin_alpha, args.trials, args.seed, args.workers
    )
    upper = bounds_mod.beta_angle_bounds(args.d0, args.sin_alpha, "upper")
    return {
        "estimate": asdict(est),
        "bound": {"lower": max(0.0, 1.0 - args.n * args.d1star * upper)},
    }


def _bound_inputs(args):
    return bounds_mod.BoundInputs(
        N=args.n, d0=args.d0, d1=args.d1,
        epsilon=args.epsilon, rho=args.rho, lim_ratio=args.lim_ratio,
    )


def bounds_theta_star(args):
    star = bounds_mod.find_theta_star()
    return {"theta": star.theta, "psi": star.psi_at_theta, "objective": star.objective}


def bounds_gamma_eps(args):
    inputs = bounds_mod.BoundInputs(
        N=1, d0=1, d1=1, epsilon=args.epsilon, rho=args.rho, lim_ratio=args.lim_ratio
    )
    return {"gamma_epsilon": bounds_mod.gamma_epsilon(inputs)}


def bounds_suboptimal(args):
    inputs = _bound_inputs(args)
    return {
        "log": bounds_mod.suboptimal_volume_log_bound(inputs),
        "value": bounds_mod.suboptimal_volume_bound(inputs),
    }


def bounds_ratio(args):
    log_ratio, companion = bounds_mod.ratio_bound(_bound_inputs(args))
    return {"log": log_ratio, "nlogn_companion": companion}


def bounds_global_lower(args):
    exact, asymptotic_log = bounds_mod.global_volume_lower_bound(
        args.d0, args.d1star, args.sin_alpha
    )
    return {
        "exact": exact,
        "log": bounds_mod.global_volume_log_lower_bound(args.d0, args.d1star, args.sin_alpha),
        "asymptotic_log": asymptotic_log,
    }


def bounds_delta(args):
    return {"delta": bounds_mod.delta_probability(args.d0, args.n)}


def bounds_dichotomy(args):
    schlafli, loose = bounds_mod.dichotomy_count_bound(args.n, args.d0)
    return {"schlafli": schlafli, "loose": loose}


def bounds_coherence_tail(args):
    return {"tail": bounds_mod.coherence_tail_bound(args.m, args.n, args.eps)}


def bounds_orthant(args):
    return {"log": bounds_mod.orthant_probability_log_bound(args.n, args.m, args.l)}


def bounds_beta(args):
    value = args.angle if args.which == "lower" else args.u
    if value is None:
        flag = "--angle (radians)" if args.which == "lower" else "--u"
        raise UsageError(f"bounds beta --which {args.which} needs {flag}")
    return {"bound": bounds_mod.beta_angle_bounds(args.d0, value, args.which)}


def cmd_rank_oracle(args):
    check_leak(args.rho)
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


def _kind_parser(sub, name, outputs, ints=(), floats=()):
    """Subparser for one kind with its required int and float flags; cmd_kind records it."""
    p = sub.add_parser(name)
    for flags, kind in ((ints, int), (floats, float)):
        for flag in flags:
            p.add_argument(flag, type=kind, required=True)
    p.set_defaults(func=cmd_kind, outputs=outputs)
    return p


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
    pv = _kind_parser(vsub, "angular", volume_angular, ints=("--d0", "--d1", "--n"))
    pv.add_argument("--pattern-seed", type=int, default=0)
    pv = _kind_parser(vsub, "global", volume_global, ints=("--d0", "--d1star"))
    pv.add_argument("--d1", type=int, default=None)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--pattern-seed", type=int, default=0)
    _kind_parser(vsub, "orthant", volume_orthant, ints=("--n", "--m", "--l"))
    _kind_parser(vsub, "coherence", volume_coherence, ints=("--m", "--n"), floats=("--eps",))
    pv = _kind_parser(vsub, "margin", volume_margin,
                      ints=("--d0", "--d1star", "--n"), floats=("--sin-alpha",))
    pv.add_argument("--pattern-seed", type=int, default=0)
    for pv in vsub.choices.values():
        pv.add_argument("--trials", type=int, required=True)
        pv.add_argument("--seed", type=int, required=True)
        pv.add_argument("--workers", type=int, default=None)
        pv.add_argument("--out")

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    bsub = p.add_subparsers(dest="bounds_kind", required=True)
    _kind_parser(bsub, "theta-star", bounds_theta_star)
    pb = _kind_parser(bsub, "gamma-eps", bounds_gamma_eps, floats=("--epsilon", "--rho"))
    pb.add_argument("--lim-ratio", type=float, default=0.0)
    for name, outputs in (("suboptimal", bounds_suboptimal), ("ratio", bounds_ratio)):
        pb = _kind_parser(bsub, name, outputs,
                          ints=("--n", "--d0", "--d1"), floats=("--epsilon", "--rho"))
        pb.add_argument("--lim-ratio", type=float, default=0.0)
    _kind_parser(bsub, "global-lower", bounds_global_lower,
                 ints=("--d0", "--d1star"), floats=("--sin-alpha",))
    _kind_parser(bsub, "delta", bounds_delta, ints=("--d0", "--n"))
    _kind_parser(bsub, "dichotomy", bounds_dichotomy, ints=("--n", "--d0"))
    _kind_parser(bsub, "coherence-tail", bounds_coherence_tail,
                 ints=("--m", "--n"), floats=("--eps",))
    _kind_parser(bsub, "orthant", bounds_orthant, ints=("--n", "--m", "--l"))
    pb = _kind_parser(bsub, "beta", bounds_beta, ints=("--d0",))
    pb.add_argument("--which", choices=("lower", "upper"), required=True)
    pb.add_argument("--angle", type=float, default=None)
    pb.add_argument("--u", type=float, default=None)
    for pb in bsub.choices.values():
        pb.add_argument("--out")

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
        started = datetime.now(timezone.utc).isoformat()
        produced = args.func(args)
        record, csv_text = produced if isinstance(produced, tuple) else (produced, None)
        record.started = started
        record.finished = datetime.now(timezone.utc).isoformat()
        payload = asdict(record)
        if getattr(args, "out", None):
            record_text = json.dumps(payload, indent=2) + "\n"
            if csv_text is not None:
                write_atomic(args.out + ".json", record_text)
                write_atomic(args.out + ".csv", csv_text)
            else:
                write_atomic(args.out, record_text)
        print(json.dumps(payload["outputs"], indent=2))
        return EXIT_OK
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LandscapeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

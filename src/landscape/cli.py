"""Command-line front end: seeded experiment commands with JSON/CSV outputs.

Every command is one handler whose keyword parameters are its inputs: the
flags of an argv command (data_seed is --data-seed), the keys of a JSON
command's config file.  Every command builds a RunRecord with its seed
and those inputs.  Rerunning with the recorded values reproduces all numeric
outputs bit for bit in single-threaded mode.  Structured results go to a
JSON document, plot-ready tables to CSV, both written atomically (temp
file and rename), and the outputs object is printed to stdout.
"""

import argparse
import inspect
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
from .errors import DatasetFormatError, DomainError, LandscapeError, NumericalError
from .linalg import numerical_rank
from .network import (
    Dataset, activation_slopes, check_leak, khatri_rao, mean_square, misclassified,
)
from .stationarity import rank_condition_oracle
from .train import Seed, conforms

EXIT_OK = 0
EXIT_USAGE = 1        # DomainError and every other caller fault: I/O, ValueError, OverflowError
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
        Naming the 1-based offending line for any structural problem or a
        label outside {0, 1}.
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
    if d0 < 0 or N < 0:
        raise DatasetFormatError(f"line 1: d0 and N must be non-negative, got d0={d0}, N={N}")
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
            raise DatasetFormatError(f"line {lineno}: label must be 0 or 1, got {fields[-1]}")
        X[:, n] = values[:-1]
        y[n] = label
    return Dataset(X=X, y=y)


# ---------------------------------------------------------------------------
# config handling for train / scan / diagnostic

_TRAIN_KEYS = {f.name for f in fields(train_mod.TrainConfig)}


def _call(handler, values, context):
    """handler(**values), once values pass the check read off handler's signature.

    values must be a JSON object.  Each key must be a parameter, or a
    TrainConfig field if handler takes **config; each parameter without a
    default must be present; each annotated value must conform (train.conforms).
    """
    if not isinstance(values, dict):
        raise DomainError(f"{context} must be a JSON object, got {values!r}")
    params = inspect.signature(handler).parameters
    named = {k: p for k, p in params.items() if p.kind is not p.VAR_KEYWORD}
    extra = _TRAIN_KEYS if len(named) < len(params) else set()   # handler takes **config
    for key in values:
        if key not in named and key not in extra:
            raise DomainError(f"unknown config key '{key}' in {context}")
    for name, param in named.items():
        value = values.get(name, param.default)
        if value is param.empty:
            raise DomainError(f"{context} needs key '{name}'")
        if name in values and not conforms(value, param.annotation):
            raise DomainError(f"invalid value for config key '{name}' in {context}: {value!r}")
    return handler(**values)


def _csv_text(columns, rows):
    """A CSV table: the column names, then one line per row (a dict) of its repr'd values."""
    lines = [",".join(columns)] + [",".join(repr(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _gaussian_dataset(*, d0: int, n: int, seed: Seed = 0):
    return train_mod.gen_gaussian_dataset(d0, n, seed)


def _csv_dataset(*, path: str):
    return load_dataset_csv(path)


# ---------------------------------------------------------------------------
# commands

def construct(*, data: str = None, d0: int = None, n: int = None, data_seed: Seed = 0,
              rho: float = 0.0, target_d1: int = None, seed: Seed = 0):
    if data is not None:
        if d0 is not None or n is not None:
            raise DomainError("--data and --d0/--n are mutually exclusive")
        dataset = _csv_dataset(path=data)
    else:
        if d0 is None or n is None:
            raise DomainError("construct needs --data or both --d0 and --n")
        dataset = _gaussian_dataset(d0=d0, n=n, seed=data_seed)
    built = construct_mod.build_global_minimum(dataset, rho=rho, target_d1=target_d1, seed=seed)
    outputs = {
        "d1_star": built.d1_star,
        "blocks": len(built.blocks),
        "eps": [[b.eps1, b.eps2] for b in built.blocks],
        "mse": mean_square(dataset.y - built.yhat),
        "mce": misclassified(dataset.y, built.yhat),
        "min_neural_input": built.min_neural_input,
        "margin": None,     # an empty network has none
    }
    if built.params.d1:
        margin = construct_mod.angular_margin(dataset.X, built.params.W)
        outputs["margin"] = {
            "sin_alpha": margin.sin_alpha,
            "row": margin.argmin_pair[0],
            "sample": margin.argmin_pair[1],
        }
    return outputs


def train(*, dataset: dict, d1: int = None, **config):
    source = _csv_dataset if isinstance(dataset, dict) and "path" in dataset else _gaussian_dataset
    data = _call(source, dataset, "dataset config")
    spec = inspect.signature(source).bind(**dataset)
    spec.apply_defaults()
    d1 = data.d0 if d1 is None else d1
    config = train_mod.TrainConfig(**config)
    init_seed = train_mod.derive_seed(config.seed, "init", 0)
    params = train_mod.he_init(d1, data.d0, init_seed, rho=config.rho)
    _, result = train_mod.adam_train(params, data, config)
    outputs = {
        "final_mse": result.final_mse,
        "final_mce": result.final_mce,
        "min_neural_input": result.min_neural_input,
        "epochs_run": result.epochs_run,
    }
    rows = [{"epoch": i, "mse": m, "mce": c} for i, (m, c) in enumerate(result.history)]
    return outputs, _csv_text(("epoch", "mse", "mce"), rows), {"dataset": spec.arguments, "d1": d1}


def scan(*, d_values: [int], n_factors: [float], seeds: int, **config):
    rows = train_mod.scan_overparam(d_values, n_factors, seeds, train_mod.TrainConfig(**config))
    return {"rows": rows}, _csv_text(("d", "N", "params_over_N", "mce_mean", "mce_std"), rows), {}


def diagnostic(*, d: int, seeds: int, **config):
    defaults = {"epochs": 2000, "lr_decay_epochs": 1000, "stop_on_zero_mce": False}
    rows = train_mod.dlm_diagnostic(d, seeds, train_mod.TrainConfig(**{**defaults, **config}))
    return {"rows": rows}, _csv_text(("seed_index", "min_neural_input", "final_mse"), rows), {}


def cmd_config(args):
    """RunRecord and CSV of a JSON command: its handler called on the config file's keys,
    recorded with the inputs the handler filled in (train's dataset and d1)."""
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from None
    outputs, csv_text, filled = _call(args.handler, raw, f"{args.command} config")
    record = RunRecord(args.command, dict(raw, **filled), raw.get("seed", 0), outputs=outputs)
    return record, csv_text


def cmd_kind(args):
    """RunRecord of an argv command: its handler's outputs, with every flag that holds a value."""
    config = {k: v for k, v in vars(args).items()
              if k not in {"func", "handler", "out", "workers"} and v is not None}
    kind = config.get(f"{args.command}_kind")
    command = f"{args.command} {kind}" if kind else args.command
    params = inspect.signature(args.handler).parameters
    outputs = args.handler(**{name: getattr(args, name) for name in params})
    return RunRecord(command, config, config.get("seed", 0), outputs=outputs), None


def _gaussian_instance(seed, d0, n, rows):
    """Standard normal X (d0, n), then W (rows, d0), from one default_rng(seed)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d0, n))
    return X, rng.standard_normal((rows, d0))


def volume_angular(*, d0: int, d1: int, n: int, pattern_seed: Seed = 0,
                   trials: int, seed: Seed, workers: int = None):
    X, W0 = _gaussian_instance(pattern_seed, d0, n, d1)
    region = volume_mod.RegionSpec.from_activation_pattern(activation_slopes(W0 @ X, 0.5), X)
    est = volume_mod.estimate_angular_volume(region, trials, seed, workers)
    return {"estimate": asdict(est), "bound": None}


def volume_global(*, d0: int, d1star: int, d1: int = None, n: int, pattern_seed: Seed = 0,
                  trials: int, seed: Seed, workers: int = None):
    X, Wstar = _gaussian_instance(pattern_seed, d0, n, d1star)
    region = volume_mod.RegionSpec.from_sign_match(X, Wstar, d1=d1)
    sin_alpha = construct_mod.angular_margin(X, Wstar).sin_alpha
    exact, asymptotic_log = bounds_mod.global_volume_lower_bound(d0, d1star, sin_alpha)
    bound = {
        "sin_alpha": sin_alpha,
        "lower_exact": exact,
        "lower_log": bounds_mod.global_volume_log_lower_bound(d0, d1star, sin_alpha),
        "asymptotic_log": asymptotic_log,
    }
    est = volume_mod.estimate_angular_volume(region, trials, seed, workers)
    return {"estimate": asdict(est), "bound": bound}


def volume_orthant(*, n: int, m: int, l: int, trials: int, seed: Seed, workers: int = None):
    est = volume_mod.estimate_orthant_probability(n, m, l, trials, seed, workers)
    alpha = m * l / n
    bound = {"log": bounds_mod.orthant_probability_log_bound(n, m, l)} if alpha > 1.0 else None
    return {"estimate": asdict(est), "alpha": alpha, "bound": bound}


def volume_coherence(*, m: int, n: int, eps: float, trials: int, seed: Seed, workers: int = None):
    bound = bounds_coherence_tail(m=m, n=n, eps=eps)
    est = volume_mod.estimate_coherence_tail(m, n, eps, trials, seed, workers)
    return {"estimate": asdict(est), "bound": bound}


def volume_margin(*, d0: int, d1star: int, n: int, sin_alpha: float, pattern_seed: Seed = 0,
                  trials: int, seed: Seed, workers: int = None):
    Wstar = np.random.default_rng(pattern_seed).standard_normal((d1star, d0))
    upper = bounds_mod.beta_angle_bounds(d0, sin_alpha, "upper")
    est = volume_mod.estimate_margin_probability(Wstar, n, sin_alpha, trials, seed, workers)
    return {"estimate": asdict(est), "bound": {"lower": max(0.0, 1.0 - n * d1star * upper)}}


def bounds_theta_star():
    star = bounds_mod.find_theta_star()
    return {"theta": star.theta, "psi": star.psi_at_theta, "objective": star.objective}


def bounds_gamma_eps(*, epsilon: float, rho: float, lim_ratio: float = 0.0):
    inputs = bounds_mod.BoundInputs(1, 1, 1, epsilon, rho, lim_ratio)
    return {"gamma_epsilon": bounds_mod.gamma_epsilon(inputs)}


def bounds_suboptimal(*, n: int, d0: int, d1: int, epsilon: float, rho: float,
                      lim_ratio: float = 0.0):
    inputs = bounds_mod.BoundInputs(n, d0, d1, epsilon, rho, lim_ratio)
    return {
        "log": bounds_mod.suboptimal_volume_log_bound(inputs),
        "value": bounds_mod.suboptimal_volume_bound(inputs),
    }


def bounds_ratio(*, n: int, d0: int, d1: int, epsilon: float, rho: float,
                 lim_ratio: float = 0.0):
    inputs = bounds_mod.BoundInputs(n, d0, d1, epsilon, rho, lim_ratio)
    log_ratio, companion = bounds_mod.ratio_bound(inputs)
    return {"log": log_ratio, "nlogn_companion": companion}


def bounds_global_lower(*, d0: int, d1star: int, sin_alpha: float):
    exact, asymptotic_log = bounds_mod.global_volume_lower_bound(d0, d1star, sin_alpha)
    return {
        "exact": exact,
        "log": bounds_mod.global_volume_log_lower_bound(d0, d1star, sin_alpha),
        "asymptotic_log": asymptotic_log,
    }


def bounds_delta(*, d0: int, n: int):
    return {"delta": bounds_mod.delta_probability(d0, n)}


def bounds_dichotomy(*, n: int, d0: int):
    schlafli, loose = bounds_mod.dichotomy_count_bound(n, d0)
    limit = sys.get_int_max_str_digits()
    if limit and schlafli >= 10 ** limit:
        raise DomainError(f"the Schlafli count has more than {limit} decimal digits, "
                          "the interpreter's limit for integer string conversion")
    return {"schlafli": schlafli, "loose": loose}


def bounds_coherence_tail(*, m: int, n: int, eps: float):
    return {"tail": bounds_mod.coherence_tail_bound(m, n, eps)}


def bounds_orthant(*, n: int, m: int, l: int):
    return {"log": bounds_mod.orthant_probability_log_bound(n, m, l)}


def bounds_beta(*, d0: int, which: ("lower", "upper"), angle: float = None, u: float = None):
    value = angle if which == "lower" else u
    if value is None:
        flag = "--angle (radians)" if which == "lower" else "--u"
        raise DomainError(f"bounds beta --which {which} needs {flag}")
    return {"bound": bounds_mod.beta_angle_bounds(d0, value, which)}


def rank_oracle(*, d0: int, d1: int, n: int, rho: float = 0.5, seed: Seed = 0):
    check_leak(rho)
    X, W = _gaussian_instance(seed, d0, n, d1)
    A = activation_slopes(W @ X, rho)
    holds, witness = rank_condition_oracle(A, X)
    kr_rank = numerical_rank(khatri_rao(A, X), 1e-8)
    return {
        "holds": holds,
        "witness": list(witness) if witness is not None else None,
        "khatri_rao_rank": kr_rank,
        "full_column_rank": kr_rank == n,
    }


VOLUME = {
    "angular": volume_angular,
    "global": volume_global,
    "orthant": volume_orthant,
    "coherence": volume_coherence,
    "margin": volume_margin,
}

BOUNDS = {
    "theta-star": bounds_theta_star,
    "gamma-eps": bounds_gamma_eps,
    "suboptimal": bounds_suboptimal,
    "ratio": bounds_ratio,
    "global-lower": bounds_global_lower,
    "delta": bounds_delta,
    "dichotomy": bounds_dichotomy,
    "coherence-tail": bounds_coherence_tail,
    "orthant": bounds_orthant,
    "beta": bounds_beta,
}


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _kind_parser(sub, name, handler, **kwargs):
    """Subparser for one argv command, its flags read off the handler's keyword parameters.

    Parameter data_seed is flag --data-seed, of the parameter's annotated
    type (a tuple annotation lists the flag's choices); a parameter with no
    default is a required flag.  --out is added to every command, and
    cmd_kind runs and records it.
    """
    p = sub.add_parser(name, **kwargs)
    for param in inspect.signature(handler).parameters.values():
        kind = param.annotation
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        required = param.default is param.empty
        p.add_argument("--" + param.name.replace("_", "-"), required=required,
                       default=None if required else param.default, **typed)
    p.add_argument("--out", help="RunRecord JSON path")
    p.set_defaults(func=cmd_kind, handler=handler)


def build_parser():
    parser = _Parser(prog="landscape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _kind_parser(sub, "construct", construct, help="build an exact zero-error network")

    for name, handler in (("train", train), ("scan", scan), ("diagnostic", diagnostic)):
        p = sub.add_parser(name, help=f"run the {name} protocol from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True, help="output prefix: writes <out>.json and <out>.csv")
        p.set_defaults(func=cmd_config, handler=handler)

    for group, kinds, about in (("volume", VOLUME, "Monte Carlo volume estimators"),
                                ("bounds", BOUNDS, "closed-form bound evaluators")):
        ksub = sub.add_parser(group, help=about).add_subparsers(dest=f"{group}_kind", required=True)
        for name, handler in kinds.items():
            _kind_parser(ksub, name, handler)

    _kind_parser(sub, "rank-oracle", rank_oracle,
                 help="subset rank condition by matroid partition, N <= 256")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = datetime.now(timezone.utc).isoformat()
        record, csv_text = args.func(args)
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
    except (LandscapeError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""The benchmark's three workloads: seeded inputs, a fixed job, and its checks.

A job is a list of operations.  Every operation calls into ``landscape``
through a ``Library`` (plain modules, or proxies that record spans) and
checks what it gets back; a wrong result raises ``WrongResult``.  All
inputs and reference values are derived from the workload seed while the
job is built, so the timed job makes only the calls under test.

Sizes are set so that one job takes a few seconds on a 2-core machine and
a run of the benchmark repeats it several times.  ``tiny`` sizes exist for
the benchmark's self-test only.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Monte Carlo checks allow this many binomial standard errors, so a correct
# estimator on any random stream essentially never fails by chance.
SIGMAS = 5.0

# Construction acceptance: the budget build_global_minimum itself enforces.
BUILD_MSE_BUDGET = 1e-18

# Criterion-04 reference for the theta-star objective, and its tolerance.
THETA_OBJECTIVE = 0.6478
THETA_OBJECTIVE_TOL = 0.002

# Criterion-06 clauses: loss floor, and the share of seeds whose
# min |pre-activation| / loss ratio reaches 1e3.  The |pre-activation|
# floor of 1e-3 is reported as train.floor_misses, never checked here.
DECAY_MSE_MAX = 1e-7
DECAY_RATIO_MIN = 1e3
DECAY_RATIO_SHARE = 0.9
FLOOR = 1e-3

# Criterion-05 clause for full-budget (under-parameterized) cells.
UNDER_MCE_MIN = 0.05

RANK_TOL = 1e-8


class WrongResult(Exception):
    """An operation returned a value that failed its correctness check."""


@dataclass
class Op:
    name: str
    fn: Callable            # fn(lib) -> dict of observations; raises WrongResult
    attrs: dict = field(default_factory=dict)


@dataclass
class Job:
    workload: str
    ops: list
    warmup: Op
    serial: list = field(default_factory=list)   # MC ops re-run at workers=1 when traced
    alloc: list = field(default_factory=list)    # (key, op) run under tracemalloc when traced
    cli: tuple | None = None                     # (kind, argv, lib_fn) for cli.overhead_ms


SIZES = {
    "full": {
        "mc_trials": {"orthant": 40_000, "sign_match": 30_000, "angular": 30_000,
                      "custom": 30_000, "margin": 30_000},
        "det_trials": 2_001,
        "alloc_trials": 8_192,
        "train_d": (10, 20, 30),
        "train_seeds": 3,
        "over_cap": 1000,
        "under_cap": 12,
        "decay_epochs": 600,
        "builds": {(20, 200): 30, (5, 400): 60, (50, 1000): 60},
        "oracle_holds": (4, 8, 16),
        "coherence_trials": 2_000,
        "coherence_det_trials": 201,
        "cli_reps": 5,
    },
    "tiny": {
        "mc_trials": {"orthant": 400, "sign_match": 300, "angular": 300,
                      "custom": 300, "margin": 300},
        "det_trials": 101,
        "alloc_trials": 200,
        "train_d": (10,),
        "train_seeds": 2,
        "over_cap": 1000,
        "under_cap": 3,
        "decay_epochs": 400,
        "builds": {(20, 200): 2, (5, 400): 2, (50, 1000): 2},
        "oracle_holds": (3, 4, 8),
        "coherence_trials": 40,
        "coherence_det_trials": 21,
        "cli_reps": 1,
    },
}


def _rng(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _stream_seed(rng):
    return int(rng.integers(0, 2**63))


def _binomial_sigma(p, trials):
    return math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)


def expect_near(est, exact, what):
    tol = SIGMAS * _binomial_sigma(exact, est.trials)
    if abs(est.estimate - exact) > tol:
        raise WrongResult(f"{what}: estimate {est.estimate} not within {tol:.3g} of exact {exact}")


def expect_at_least(est, bound, what):
    tol = SIGMAS * _binomial_sigma(bound, est.trials)
    if est.estimate < bound - tol:
        raise WrongResult(f"{what}: estimate {est.estimate} below lower bound {bound} - {tol:.3g}")


def expect_at_most(est, bound, what):
    tol = SIGMAS * _binomial_sigma(bound, est.trials)
    if est.estimate > bound + tol:
        raise WrongResult(f"{what}: estimate {est.estimate} above upper bound {bound} + {tol:.3g}")


def _margin_lower_bound(landscape, X, W):
    """Closed-form lower bound on the sign-match volume around the rows of W.

    A Gaussian row within the angular margin of its target row keeps every
    sign, and lies on the target's side with half the probability of the
    two-sided cap that bounds.global_volume_log_lower_bound describes.
    """
    d0, rows = X.shape[0], W.shape[0]
    sin_alpha = landscape.construct.angular_margin(X, W).sin_alpha
    log_bound = landscape.bounds.global_volume_log_lower_bound(d0, rows, sin_alpha)
    return math.exp(log_bound - rows * math.log(2.0))


# ---------------------------------------------------------------------------
# mc: light-predicate Monte Carlo through landscape.volume

def _mc_cases(landscape, seed, size):
    """(kind, label, call(lib, trials, seed, workers), check(est)) for each estimate."""
    rng = _rng(seed, 1)
    trials = size["mc_trials"]
    volume, bounds = landscape.volume, landscape.bounds
    cases = []

    def orthant(N, M, L):
        return lambda lib, t, s, w: lib.volume.estimate_orthant_probability(N, M, L, t, s, w)

    cases.append(("orthant", "1x1x1", orthant(1, 1, 1),
                  lambda est: expect_near(est, 0.5, "orthant 1x1x1")))
    cases.append(("orthant", "6x1x1", orthant(6, 1, 1),
                  lambda est: expect_near(est, 2.0 ** -6, "orthant 6x1x1")))
    upper = math.exp(bounds.orthant_probability_log_bound(2, 2, 2))
    cases.append(("orthant", "2x2x2", orthant(2, 2, 2),
                  lambda est: expect_at_most(est, upper, "orthant 2x2x2")))

    X = rng.standard_normal((3, 5))
    Wstar = rng.standard_normal((2, 3))
    sign_lower = _margin_lower_bound(landscape, X, Wstar)
    cases.append(("sign_match", "3x5", (
        lambda lib, t, s, w: lib.volume.estimate_global_region_volume(X, Wstar, 2, t, s, w)),
        lambda est: expect_at_least(est, sign_lower, "sign-match region")))

    Xa = rng.standard_normal((3, 4))
    W0 = rng.standard_normal((2, 3))
    region = volume.RegionSpec.from_activation_pattern(
        landscape.network.activation_slopes(W0 @ Xa, 0.5), Xa)
    pattern_lower = _margin_lower_bound(landscape, Xa, W0)
    cases.append(("angular", "3x4", (
        lambda lib, t, s, w: lib.volume.estimate_angular_volume(region, t, s, w)),
        lambda est: expect_at_least(est, pattern_lower, "activation-pattern region")))

    x = rng.standard_normal(5)
    halfspace = volume.RegionSpec.custom(lambda W: bool(W[0] @ x > 0.0), d1=1, d0=5)
    cases.append(("custom", "halfspace", (
        lambda lib, t, s, w: lib.volume.estimate_angular_volume(halfspace, t, s, w)),
        lambda est: expect_near(est, 0.5, "custom halfspace")))

    # at d0 = 3 the |cosine| with a fixed row is uniform on [0, 1], so the
    # margin event over N independent columns has probability (1 - u)^N
    w = rng.standard_normal((1, 3))
    u, cols = 0.2, 5
    cases.append(("margin", "3x5", (
        lambda lib, t, s, wk: lib.volume.estimate_margin_probability(w, cols, u, t, s, wk)),
        lambda est: expect_near(est, (1.0 - u) ** cols, "margin d0=3")))
    return [(kind, label, call, check, trials[kind]) for kind, label, call, check in cases]


def _mc_op(kind, label, call, check, trials, seed, workers, role="main"):
    def fn(lib):
        est = call(lib, trials, seed, workers)
        if role == "main":
            check(est)
        return {"hits": est.hits}

    attrs = {"kind": kind, "label": label, "trials": trials, "workers": workers, "role": role}
    return Op(f"mc.{kind}.{label}", fn, attrs)


def _determinism_op(kind, call, trials, seed, workers):
    def fn(lib):
        serial = call(lib, trials, seed, 1)
        parallel = call(lib, trials, seed, workers)
        if serial.hits != parallel.hits:
            raise WrongResult(f"{kind}: {serial.hits} hits at 1 worker, "
                              f"{parallel.hits} at {workers}")
        return {}

    attrs = {"kind": kind, "trials": trials, "workers": workers, "role": "determinism"}
    return Op(f"mc.determinism.{kind}", fn, attrs)


def make_mc(landscape, seed, size, workers, out_dir):
    cases = _mc_cases(landscape, seed, size)
    seeds = _rng(seed, 2)
    ops, serial, alloc, seen = [], [], [], set()
    for kind, label, call, check, trials in cases:
        s = _stream_seed(seeds)
        ops.append(_mc_op(kind, label, call, check, trials, s, workers))
        serial.append(_mc_op(kind, label, call, check, trials, s, 1, role="serial"))
        if kind not in seen:
            seen.add(kind)
            ops.append(_determinism_op(kind, call, size["det_trials"], s, workers))
            alloc.append((kind, _mc_op(kind, label, call, check,
                                       min(trials, size["alloc_trials"]), s, workers,
                                       role="alloc")))
    kind, label, call, check, _ = cases[0]
    warmup = _mc_op(kind, label, call, check, 1000, _stream_seed(seeds), workers)

    cli_trials, cli_seed = 2000, _stream_seed(seeds)
    argv = ["volume", "orthant", "--n", "1", "--m", "1", "--l", "1",
            "--trials", str(cli_trials), "--seed", str(cli_seed), "--workers", str(workers),
            "--out", str(out_dir / "cli-volume.json")]

    def lib_call(lib):
        lib.volume.estimate_orthant_probability(1, 1, 1, cli_trials, cli_seed, workers)

    return Job("mc", ops, warmup, serial, alloc, ("volume", argv, lib_call))


# ---------------------------------------------------------------------------
# train: Adam protocols through landscape.train

def _train_cell(kind, d, N, seeds, config_kw, cell_seed):
    rng = _rng(cell_seed)
    runs = [tuple(_stream_seed(rng) for _ in range(3)) for _ in range(seeds)]
    epochs_cap = config_kw["epochs"]

    def fn(lib):
        results = []
        for data_seed, init_seed, train_seed in runs:
            data = lib.train.gen_gaussian_dataset(d, N, data_seed)
            params = lib.train.he_init(d, d, init_seed, rho=0.0)
            config = lib.train.TrainConfig(rho=0.0, seed=train_seed, **config_kw)
            trained, result = lib.train.adam_train(params, data, config)
            # the returned network must reproduce the loss the trainer reports
            mse = lib.network.mse(trained, data)
            mce = lib.network.mce(trained, data)
            if not (math.isclose(mse, result.final_mse, rel_tol=1e-9, abs_tol=1e-300)
                    and mce == result.final_mce):
                raise WrongResult(f"{kind} d={d}: trainer reported ({result.final_mse}, "
                                  f"{result.final_mce}), network gives ({mse}, {mce})")
            results.append(result)
        _check_cell(kind, d, results)
        batch = max(1, min(N // 2, d // 2))
        epochs = [r.epochs_run for r in results]
        return {
            "epochs": epochs,
            "caps": [epochs_cap] * len(results),
            "steps": [e * (N // batch) for e in epochs],
            "min_inputs": [r.min_neural_input for r in results],
        }

    attrs = {"kind": kind, "d": d, "N": N, "seeds": seeds}
    return Op(f"train.{kind}.d{d}", fn, attrs)


def _check_cell(kind, d, results):
    mces = [r.final_mce for r in results]
    if kind == "over" and float(np.median(mces)) != 0.0:
        raise WrongResult(f"over d={d}: median MCE {np.median(mces)} is not 0")
    if kind == "under" and not float(np.median(mces)) > UNDER_MCE_MIN:
        raise WrongResult(f"under d={d}: median MCE {np.median(mces)} not above {UNDER_MCE_MIN}")
    if kind == "decay":
        mses = [r.final_mse for r in results]
        if not all(m <= DECAY_MSE_MAX for m in mses):
            raise WrongResult(f"decay: final MSE {max(mses):.3g} above {DECAY_MSE_MAX}")
        ratios = [r.min_neural_input / m for r, m in zip(results, mses)]
        reached = sum(r >= DECAY_RATIO_MIN for r in ratios)
        if reached < math.ceil(DECAY_RATIO_SHARE * len(results)):
            raise WrongResult(f"decay: {reached} of {len(results)} seeds reach "
                              f"min-input / MSE >= {DECAY_RATIO_MIN:g}")


def make_train(landscape, seed, size, workers, out_dir):
    seeds = size["train_seeds"]
    cells = []
    for d in size["train_d"]:
        cells.append(("over", d, d * d // 2, {"epochs": size["over_cap"]}))
        cells.append(("under", d, 4 * d * d,
                      {"epochs": size["under_cap"], "stop_on_zero_mce": False}))
    decay = size["decay_epochs"]
    cells.append(("decay", 20, 80, {"epochs": decay, "lr_decay_epochs": decay // 2,
                                    "stop_on_zero_mce": False}))
    ops = [_train_cell(kind, d, N, seeds, kw, [seed, 3, i])
           for i, (kind, d, N, kw) in enumerate(cells)]
    warmup = _train_cell("warmup", 10, 50, 1, {"epochs": 5, "stop_on_zero_mce": False},
                         [seed, 4])
    largest = max(range(len(cells)), key=lambda i: cells[i][2])
    kind, d, N, kw = cells[largest]
    alloc = [("train", _train_cell(kind, d, N, 1, kw, [seed, 3, largest]))]

    rng = _rng(seed, 5)
    data_seed, train_seed = _stream_seed(rng), _stream_seed(rng)
    config = {"dataset": {"d0": 20, "n": 80, "seed": data_seed},
              "epochs": 50, "seed": train_seed, "stop_on_zero_mce": False}
    config_path = out_dir / "cli-train-config.json"
    config_path.write_text(json.dumps(config))
    argv = ["train", "--config", str(config_path), "--out", str(out_dir / "cli-train")]

    def lib_call(lib):
        data = lib.train.gen_gaussian_dataset(20, 80, data_seed)
        params = lib.train.he_init(20, 20, lib.train.derive_seed(train_seed, "init", 0))
        run = lib.train.TrainConfig(epochs=50, seed=train_seed, stop_on_zero_mce=False)
        lib.train.adam_train(params, data, run)

    return Job("train", ops, warmup, alloc=alloc, cli=("train", argv, lib_call))


# ---------------------------------------------------------------------------
# geometry: constructions, rank oracle, bounds and heavy Monte Carlo

def _balanced_dataset(landscape, rng, d0, N):
    """Gaussian X with exactly N/2 positive labels in random order.

    A fixed positive count fixes the constructed width, so every seed
    asks for the same amount of work and memory.
    """
    y = rng.permutation(np.arange(N) < N // 2).astype(float)
    return landscape.network.Dataset(X=rng.standard_normal((d0, N)), y=y)


def _build_op(d0, N, data, build_seed):
    shape = f"{d0}x{N}"

    def fn(lib):
        built = lib.construct.build_global_minimum(data, rho=0.0, seed=build_seed)
        params = built.params
        lib.stationarity.dlm_condition(params, data)
        lib.construct.angular_margin(data.X, params.W)
        mse = lib.network.mse(params, data)
        mce = lib.network.mce(params, data)
        min_input = float(np.min(np.abs(params.W @ data.X)))
        if not (mse <= BUILD_MSE_BUDGET and mce == 0.0 and min_input > 0.0):
            raise WrongResult(f"build {shape}: MSE {mse:.3g}, MCE {mce}, "
                              f"min |WX| {min_input:.3g}")
        return {"mse": mse}

    return Op(f"geometry.build.{shape}", fn, {"shape": shape})


def _oracle_op(case, W, X):
    N = X.shape[1]

    def fn(lib):
        A = lib.network.activation_slopes(W @ X, 0.5)
        holds, _ = lib.stationarity.rank_condition_oracle(A, X)
        full = lib.linalg.numerical_rank(lib.network.khatri_rao(A, X), RANK_TOL) == N
        if holds != full:
            raise WrongResult(f"oracle ({case}) says {holds}, Khatri-Rao full rank is {full}")
        if holds != (case == "holds"):
            raise WrongResult(f"oracle instance meant to be '{case}' returned {holds}")
        return {}

    return Op(f"geometry.oracle.{case}", fn, {"case": case, "N": N})


def _pattern_instance(rng, d0, d1, N):
    X = rng.standard_normal((d0, N))
    return rng.standard_normal((d1, d0)), X


def _holding_instance(landscape, rng, d0, d1, N):
    """First draw whose Khatri-Rao product has full column rank.

    Some Gaussian draws give a pattern on which the condition fails (for
    example five samples with the same column of A); the oracle then stops
    early, which would time a different case.
    """
    while True:
        W, X = _pattern_instance(rng, d0, d1, N)
        A = landscape.network.activation_slopes(W @ X, 0.5)
        product = landscape.network.khatri_rao(A, X)
        if landscape.linalg.numerical_rank(product, RANK_TOL) == N:
            return W, X


def _bounds_sweep(lib):
    b = lib.bounds
    values = []
    for eps in (0.05, 0.1, 0.2, 0.4):
        for N in (100, 1000, 10_000):
            inputs = b.BoundInputs(N=N, d0=20, d1=40, epsilon=eps)
            values.append(b.suboptimal_volume_bound(inputs))
            values.append(math.exp(b.ratio_bound(inputs)[0]))
            values.append(b.delta_probability(20, N))
            values.append(b.coherence_tail_bound(N, 5, eps))
            values.append(math.exp(b.orthant_probability_log_bound(N // 1000 + 1, 10, 10)))
    for d0 in (2, 3, 5, 10, 20):
        for s in (0.1, 0.3, 0.6, 0.9):
            values.append(b.beta_angle_bounds(d0, s, "upper"))
            values.append(b.beta_angle_bounds(d0, math.asin(s), "lower"))
            values.append(math.exp(b.global_volume_log_lower_bound(d0, 4, s)))
        schlafli, _ = b.dichotomy_count_bound(40, d0)
        if schlafli > 2 ** 40:
            raise WrongResult(f"Schlafli count {schlafli} exceeds 2^N at d0={d0}")
    psis = [b.psi(theta) for theta in (0.5, 1.0, 5.0, 20.0, 100.0)]
    if any(a <= c for a, c in zip(psis, psis[1:])):
        raise WrongResult(f"psi is not decreasing: {psis}")
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    if bad:
        raise WrongResult(f"{len(bad)} probability bounds outside [0, 1], e.g. {bad[0]}")
    return {}


def _theta_star(lib):
    star = lib.bounds.find_theta_star()
    if abs(star.objective - THETA_OBJECTIVE) > THETA_OBJECTIVE_TOL:
        raise WrongResult(f"theta-star objective {star.objective} not within "
                          f"{THETA_OBJECTIVE_TOL} of {THETA_OBJECTIVE}")
    return {"theta": star.theta}


def make_geometry(landscape, seed, size, workers, out_dir):
    ops = []
    rng = _rng(seed, 6)
    for d0, N in size["builds"]:
        for _ in range(size["builds"][(d0, N)]):
            data = _balanced_dataset(landscape, rng, d0, N)
            ops.append(_build_op(d0, N, data, _stream_seed(rng)))

    rng = _rng(seed, 7)
    ops.append(_oracle_op("holds", *_holding_instance(landscape, rng, *size["oracle_holds"])))
    # fewer product rows than columns, so the condition fails at a small subset
    ops.append(_oracle_op("violated", *_pattern_instance(rng, 2, 1, 16)))
    ops.append(_oracle_op("violated", *_pattern_instance(rng, 3, 2, 12)))

    ops.append(Op("geometry.theta_star", _theta_star))
    ops.append(Op("geometry.bounds_sweep", _bounds_sweep))

    M, N, eps = 2000, 5, 0.3
    tail = landscape.bounds.coherence_tail_bound(M, N, eps)

    def coherence(lib, t, s, w):
        return lib.volume.estimate_coherence_tail(M, N, eps, t, s, w)

    def check(est):
        expect_at_most(est, tail, "coherence tail")

    rng = _rng(seed, 8)
    s = _stream_seed(rng)
    trials = size["coherence_trials"]
    ops.append(_mc_op("coherence", f"{M}x{N}", coherence, check, trials, s, workers))
    ops.append(_determinism_op("coherence", coherence, size["coherence_det_trials"], s, workers))
    serial = [_mc_op("coherence", f"{M}x{N}", coherence, check, trials, s, 1, role="serial")]
    alloc = [("coherence", _mc_op("coherence", f"{M}x{N}", coherence, check,
                                  min(trials, size["alloc_trials"]), s, workers, role="alloc"))]

    wrng = _rng(seed, 9)
    warmup = _build_op(20, 200, _balanced_dataset(landscape, wrng, 20, 200), _stream_seed(wrng))

    data_seed = _stream_seed(wrng)
    argv = ["construct", "--d0", "20", "--n", "200", "--data-seed", str(data_seed),
            "--seed", str(data_seed), "--out", str(out_dir / "cli-construct.json")]

    def lib_call(lib):
        data = lib.train.gen_gaussian_dataset(20, 200, data_seed)
        lib.construct.build_global_minimum(data, rho=0.0, seed=data_seed)

    return Job("geometry", ops, warmup, serial, alloc, ("construct", argv, lib_call))


MAKERS = {"mc": make_mc, "train": make_train, "geometry": make_geometry}


def make(workload, lib, seed, size, workers, out_dir):
    """The workload's job; ``lib`` serves only to compute reference values."""
    return MAKERS[workload](lib, seed, SIZES[size], workers, out_dir)

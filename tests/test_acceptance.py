"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line; under
default capture the lines appear in the captured-output section of any
failing criterion.
"""

import itertools
import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    count_dichotomies_lp,
    count_dichotomies_sweep_2d,
    fd_gradient,
    margin_conditioned_columns,
    theta_star_oracle,
    three_sigma,
)
from landscape.bounds import beta_angle_bounds, dichotomy_count_bound, find_theta_star, psi
from landscape.cli import main as cli_main
from landscape.construct import build_global_minimum
from landscape.linalg import numerical_rank
from landscape.network import (
    Dataset,
    NetParams,
    activation_slopes,
    backward,
    evaluate,
    khatri_rao,
    mce,
    mse,
)
from landscape.stationarity import rank_condition_oracle
from landscape.train import TrainConfig, dlm_diagnostic, gen_gaussian_dataset, scan_overparam
from landscape.volume import (
    RegionSpec,
    estimate_angular_volume,
    estimate_coherence_tail,
    estimate_global_region_volume,
    estimate_margin_probability,
    estimate_orthant_probability,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    else:
        print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_constructive_zero_error():
    with criterion(1, "constructive zero error"):
        combos = list(itertools.product((5, 20), (50, 400), (0.0, 0.1)))
        start = time.time()
        for i in range(30):
            d0, N, rho = combos[i % len(combos)]
            data = gen_gaussian_dataset(d0, N, seed=1000 + i)
            built = build_global_minimum(data, rho=rho, seed=i)
            assert mse(built.params, data) <= 1e-18
            assert mce(built.params, data) == 0.0
            assert np.min(np.abs(built.params.W @ data.X)) > 0.0
            s_plus = int(np.sum(data.y))
            if s_plus <= N / 2:
                assert built.d1_star == 4 * math.ceil(s_plus / (d0 - 1))
                assert built.d1_star <= 4 * math.ceil(N / (2 * d0 - 2))
        assert time.time() - start < 10.0


def test_criterion_02_first_order_identity_and_gradient():
    with criterion(2, "first-order identity and analytic gradient"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            d0 = int(rng.integers(2, 6))
            d1 = int(rng.integers(2, 6))
            N = int(rng.integers(2, 9))
            rho = float(rng.choice([0.0, 0.1, 0.5]))
            data = Dataset(X=rng.standard_normal((d0, N)),
                           y=rng.integers(0, 2, N).astype(float))
            params = NetParams(W=rng.standard_normal((d1, d0)),
                               z=rng.standard_normal(d1), rho=rho)
            assert np.min(np.abs(params.W @ data.X)) > 1e-9  # off-boundary draw
            _, slopes, H, yhat = evaluate(params.W, params.z, rho, data.X)
            e = data.y - yhat
            dW, dz = backward(params.z, data.X, slopes, H, e)
            A = activation_slopes(params.W @ data.X, rho)
            G = khatri_rao(A, data.X)
            grad_wtilde = (dW / params.z[:, None]).ravel()
            identity = np.linalg.norm(G @ e + (N / 2.0) * grad_wtilde)
            assert identity <= 1e-8 * (1.0 + np.linalg.norm(e))
            gW, gz = fd_gradient(params, data)
            num = np.sqrt(np.sum((gW - dW) ** 2) + np.sum((gz - dz) ** 2))
            den = np.sqrt(np.sum(dW ** 2) + np.sum(dz ** 2))
            assert num <= 1e-5 * den


def test_criterion_03_rank_oracle_equivalence():
    with criterion(3, "subset rank condition equivalent to full column rank"):
        start = time.time()
        rng = np.random.default_rng(4242)
        mismatches = 0
        for N in (2, 3, 4):
            patterns = list(itertools.product((0.5, 1.0), repeat=2 * N))
            for _ in range(20):
                X = rng.standard_normal((2, N))
                for flat in patterns:
                    A = np.array(flat).reshape(2, N)
                    holds, _ = rank_condition_oracle(A, X)
                    full = numerical_rank(khatri_rao(A, X), 1e-8) == N
                    mismatches += holds != full
        assert mismatches == 0
        assert time.time() - start < 60.0


def test_criterion_04_theta_star_constants():
    with criterion(4, "theta-star constants"):
        start = time.time()
        star = find_theta_star()
        elapsed = time.time() - start
        assert elapsed < 1.0
        oracle_theta, oracle_psi, oracle_objective = theta_star_oracle()
        # The paper's pair (23.25, 0.1062) lies on the same flat objective
        # just off its peak, so it is checked at the paper's theta.
        paper_theta = 23.25
        paper_psi = psi(paper_theta)
        paper_objective = paper_psi ** 3 * paper_theta ** 2
        report = (f"theta={star.theta:.6f} psi={star.psi_at_theta:.6f} "
                  f"objective={star.objective:.6f} | oracle theta={oracle_theta:.6f} "
                  f"psi={oracle_psi:.6f} objective={oracle_objective:.6f} | "
                  f"at theta={paper_theta}: psi={paper_psi:.6f} "
                  f"objective={paper_objective:.6f}")
        assert abs(star.objective - 0.6478) <= 0.002, report
        assert abs(star.theta - oracle_theta) <= 1e-4, report
        assert star.psi_at_theta == psi(star.theta), report
        assert abs(paper_psi - 0.1062) <= 0.001, report
        assert abs(paper_objective - 0.6478) <= 0.002, report
        assert paper_objective <= star.objective, report


@pytest.mark.slow
def test_criterion_05_overparameterization_scan():
    with criterion(5, "over-parameterization scan"):
        start = time.time()
        config = TrainConfig(epochs=4000, lr=0.01, seed=2026, rho=0.0,
                             stop_on_zero_mce=True)
        rows = scan_overparam([10, 20, 30], [0.5, 4.0], seeds=5, config=config)
        for row in rows:
            med = statistics.median(row["mce_values"])
            if row["params_over_N"] >= 2.0:       # N = floor(d^2 / 2)
                assert med == 0.0, row
            else:                                  # N = 4 d^2
                assert med > 0.05, row
        assert time.time() - start < 15 * 60


@pytest.mark.slow
def test_criterion_06_differentiability_diagnostic():
    with criterion(6, "differentiability diagnostic"):
        start = time.time()
        config = TrainConfig(epochs=2000, lr=0.01, lr_decay_epochs=1000, seed=606,
                             rho=0.0, stop_on_zero_mce=False)
        rows = dlm_diagnostic(20, seeds=10, config=config)
        assert time.time() - start < 10 * 60
        assert 20 * 20 // 5 == 80
        mses = [row["final_mse"] for row in rows]
        mins = [row["min_neural_input"] for row in rows]
        report = ("min_inputs=" + " ".join(f"{v:.2e}" for v in mins)
                  + " mses=" + " ".join(f"{v:.2e}" for v in mses))
        assert all(v <= 1e-7 for v in mses), report
        ratios = [mi / ms for mi, ms in zip(mins, mses)]
        assert sum(r >= 1e3 for r in ratios) >= 9, report
        assert all(v >= 1e-3 for v in mins), report


def test_criterion_07_nonasymptotic_probability_inequalities():
    with criterion(7, "non-asymptotic probability inequalities"):
        start = time.time()
        trials = 100_000
        # (a) halfspace angular volume is one half
        x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        region = RegionSpec.custom(lambda W: bool((W[0] @ x) > 0), d1=1, d0=2)
        est = estimate_angular_volume(region, trials, seed=701)
        assert abs(est.estimate - 0.5) <= three_sigma(0.5, trials)
        # (b) single-row sign match under a 60-degree margin, one-sided bound
        alpha = math.radians(60.0)
        w_unit = np.array([1.0, 0.0, 0.0])
        X = margin_conditioned_columns(3, 5, math.sin(alpha), w_unit, seed=702)
        est = estimate_global_region_volume(X, w_unit[None, :], 1, trials, seed=703)
        bound = math.sin(alpha) ** 2 / (2.0 * 2.0)   # sin^2(a) / (2 B(1/2, 1))
        assert bound == pytest.approx(beta_angle_bounds(3, alpha, "lower") / 2.0)
        assert est.estimate >= bound - three_sigma(max(est.estimate, bound), trials)
        # (c) beta upper bound at d0 = 3: P(|cos| < 0.1) <= 0.1 + 3 sigma
        wstar = np.array([[1.0, 0.0, 0.0]])
        est = estimate_margin_probability(wstar, 1, 0.1, trials, seed=704)
        assert 1.0 - est.estimate <= 0.1 + three_sigma(0.1, trials)
        # (d) coherence tail at M = 2000, N = 5, eps = 0.3
        est = estimate_coherence_tail(2000, 5, 0.3, 10_000, seed=705)
        assert est.estimate <= 0.0277 + three_sigma(0.0277, 10_000)
        assert time.time() - start < 5 * 60


def test_criterion_08_orthant_exact_cases():
    with criterion(8, "orthant probability exact cases"):
        trials = 100_000
        est = estimate_orthant_probability(1, 1, 1, trials, seed=801)
        assert abs(est.estimate - 0.5) <= three_sigma(0.5, trials)
        est = estimate_orthant_probability(2, 1, 1, trials, seed=802)
        assert abs(est.estimate - 0.25) <= three_sigma(0.25, trials)


def test_criterion_09_schlafli_dichotomy_bound():
    with criterion(9, "Schlafli dichotomy bound"):
        rng = np.random.default_rng(909)
        for d0 in (2, 3):
            for N in (4, 6, 8):
                schlafli, _ = dichotomy_count_bound(N, d0)
                equalities = 0
                for _ in range(10):
                    X = rng.standard_normal((d0, N))
                    count = (count_dichotomies_sweep_2d(X) if d0 == 2
                             else count_dichotomies_lp(X))
                    assert count <= schlafli
                    equalities += count == schlafli
                assert equalities >= 9, (d0, N, equalities)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "seeded determinism"):
        # CLI commands rerun bit-for-bit in single-threaded mode
        def outputs(path):
            with open(path) as handle:
                return json.dumps(json.load(handle)["outputs"], sort_keys=True)

        reruns = [
            ("construct", "--d0", "6", "--n", "40", "--data-seed", "5", "--seed", "5"),
            ("volume", "orthant", "--n", "1", "--m", "1", "--l", "1",
             "--trials", "5000", "--seed", "10", "--workers", "1"),
            ("volume", "coherence", "--m", "30", "--n", "4", "--eps", "0.5",
             "--trials", "500", "--seed", "11", "--workers", "1"),
            ("rank-oracle", "--d0", "2", "--d1", "2", "--n", "3", "--seed", "12"),
            ("bounds", "theta-star"),
        ]
        for k, args in enumerate(reruns):
            a = tmp_path / f"a{k}.json"
            b = tmp_path / f"b{k}.json"
            assert cli_main([*args, "--out", str(a)]) == 0
            assert cli_main([*args, "--out", str(b)]) == 0
            assert outputs(a) == outputs(b), args

        # a recorded config snapshot drives an identical rerun
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps({
            "d_values": [5], "n_factors": [1.0], "seeds": 2, "epochs": 3,
            "lr": 0.01, "seed": 16,
        }))
        first = tmp_path / "scan-first"
        assert cli_main(["scan", "--config", str(config_path),
                         "--out", str(first)]) == 0
        with open(f"{first}.json") as handle:
            record = json.load(handle)
        replay_config = tmp_path / "replay.json"
        replay_config.write_text(json.dumps(record["config"]))
        replay = tmp_path / "scan-replay"
        assert cli_main(["scan", "--config", str(replay_config),
                         "--out", str(replay)]) == 0
        assert outputs(f"{first}.json") == outputs(f"{replay}.json")
        assert open(f"{first}.csv").read() == open(f"{replay}.csv").read()

        # MC estimators agree bit-for-bit across 1, 2 and 8 workers
        x = np.array([0.2, -0.7, 1.1])
        region = RegionSpec.custom(lambda W: bool((W[0] @ x) > 0), d1=1, d0=3)
        angular = [estimate_angular_volume(region, 10_001, seed=13, workers=w)
                   for w in (1, 2, 8)]
        assert angular[0] == angular[1] == angular[2]
        orthant = [estimate_orthant_probability(2, 2, 2, 10_001, seed=14, workers=w)
                   for w in (1, 2, 8)]
        assert orthant[0] == orthant[1] == orthant[2]
        margin = [estimate_margin_probability(np.eye(3)[:1], 2, 0.2, 5_001,
                                              seed=15, workers=w)
                  for w in (1, 2, 8)]
        assert margin[0] == margin[1] == margin[2]

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from landscape.errors import (
    BadLeak,
    DomainError,
    InstanceTooLarge,
    NonFinite,
    ShapeMismatch,
    TargetTooSmall,
)
from landscape.network import Dataset, NetParams, backward, evaluate
from landscape.stationarity import dlm_condition
from landscape.train import (
    Adam,
    Seed,
    TrainConfig,
    _adam_train_stack,
    adam_train,
    derive_seed,
    dlm_diagnostic,
    gen_gaussian_dataset,
    he_init,
    scan_overparam,
)


class TestGenGaussianDataset:
    def test_moments(self):
        data = gen_gaussian_dataset(100, 100, seed=0)
        entries = data.X.ravel()
        assert abs(entries.mean()) <= 4.0 / math.sqrt(entries.size)
        assert abs(entries.var() - 1.0) <= 0.1

    def test_labels_binary(self):
        data = gen_gaussian_dataset(3, 500, seed=1)
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        assert 0.3 < data.y.mean() < 0.7

    def test_deterministic(self):
        a = gen_gaussian_dataset(4, 9, seed=5)
        b = gen_gaussian_dataset(4, 9, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


class TestHeInit:
    def test_uniform_bounds(self):
        params = he_init(100, 100, seed=2)
        a_w = math.sqrt(6.0 / 100)
        assert np.all(np.abs(params.W) <= a_w)
        assert np.all(np.abs(params.z) <= math.sqrt(6.0 / 100))

    def test_variance(self):
        params = he_init(100, 100, seed=3)
        assert abs(params.W.var() - 2.0 / 100) <= 0.1 * (2.0 / 100)
        assert abs(params.W.mean()) <= 4.0 * math.sqrt(2.0 / 100) / 100

    @pytest.mark.parametrize("d1, d0", [(0, 3), (3, 0), (0, 0)])
    def test_empty_layer_rejected(self, d1, d0):
        with pytest.raises(ValueError, match="at least 1"):
            he_init(d1, d0, seed=0)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        opt = Adam((2, 3))
        for _ in range(5):
            assert np.all(opt.step(np.zeros((2, 3)), 0.1) == 0.0)

    def test_first_step_from_zero_state_is_minus_lr(self):
        # bias-corrected moments equal the constant gradient, so the update
        # is -lr * g / (|g| + eps), essentially -lr regardless of |g|
        delta = Adam((1,)).step(np.array([0.5]), 0.01)
        assert delta[0] == pytest.approx(-0.01, rel=1e-7)

    def test_sign_only_dependence_on_first_step(self):
        big = Adam((1,)).step(np.array([100.0]), 0.01)[0]
        small = Adam((1,)).step(np.array([1e-3]), 0.01)[0]
        assert big == pytest.approx(small, rel=1e-4)


class TestAdamTrain:
    def _exact_fit(self):
        # yhat = (1, 0) exactly, residual zero, every gradient zero
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[1.0, -1.0]], y=[1.0, 0.0])
        return params, data

    def test_zero_gradient_start_leaves_params_unchanged(self):
        params, data = self._exact_fit()
        config = TrainConfig(epochs=20, seed=0, stop_on_zero_mce=False)
        trained, result = adam_train(params, data, config)
        np.testing.assert_array_equal(trained.W, params.W)
        np.testing.assert_array_equal(trained.z, params.z)
        assert result.final_mse == 0.0

    def test_early_stop_on_zero_mce(self):
        data = gen_gaussian_dataset(8, 20, seed=4)
        params = he_init(8, 8, seed=5)
        config = TrainConfig(epochs=4000, lr=0.01, seed=6)
        _, result = adam_train(params, data, config)
        assert result.final_mce == 0.0
        assert result.epochs_run < 4000
        assert len(result.history) == result.epochs_run

    def test_deterministic(self):
        data = gen_gaussian_dataset(6, 15, seed=7)
        params = he_init(6, 6, seed=8)
        config = TrainConfig(epochs=30, lr=0.01, seed=9, stop_on_zero_mce=False)
        t1, r1 = adam_train(params, data, config)
        t2, r2 = adam_train(params, data, config)
        np.testing.assert_array_equal(t1.W, t2.W)
        np.testing.assert_array_equal(t1.z, t2.z)
        assert r1.history == r2.history
        assert r1.min_neural_input == r2.min_neural_input

    def test_input_params_not_mutated(self):
        data = gen_gaussian_dataset(5, 12, seed=10)
        params = he_init(5, 5, seed=11)
        before = params.W.copy()
        adam_train(params, data, TrainConfig(epochs=5, seed=12, stop_on_zero_mce=False))
        np.testing.assert_array_equal(params.W, before)

    def test_non_finite_raises(self):
        data = gen_gaussian_dataset(3, 8, seed=13)
        params = he_init(3, 3, seed=14)
        config = TrainConfig(epochs=50, lr=1e200, seed=15, stop_on_zero_mce=False)
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
            adam_train(params, data, config)
        assert info.value.epoch == 0

    def test_min_neural_input_matches_trained_weights(self):
        data = gen_gaussian_dataset(4, 10, seed=16)
        params = he_init(4, 4, seed=17)
        trained, result = adam_train(
            params, data, TrainConfig(epochs=10, seed=18, stop_on_zero_mce=False)
        )
        assert result.min_neural_input == pytest.approx(
            float(np.min(np.abs(trained.W @ data.X)))
        )

    def test_mse_stable_through_decay_phase(self):
        # the decay phase should not let the loss climb back up: final MSE at
        # most the level where decay began, in >= 4 of 5 runs
        wins = 0
        for s in range(5):
            data = gen_gaussian_dataset(12, 28, seed=60 + s)
            params = he_init(12, 12, seed=70 + s)
            config = TrainConfig(epochs=600, lr=0.01, lr_decay_epochs=300, seed=80 + s,
                                 stop_on_zero_mce=False)
            _, result = adam_train(params, data, config)
            mse_series = [m for m, _ in result.history]
            wins += mse_series[-1] <= mse_series[299]
        assert wins >= 4


class TestStackedTraining:
    """Training a stack of seeds gives each seed's lone adam_train result bit for bit."""

    def _members(self, seeds, rho):
        datasets = [gen_gaussian_dataset(6, 20, seed=40 + s) for s in seeds]
        params = [he_init(6, 6, seed=50 + s, rho=rho) for s in seeds]
        return params, datasets, [60 + s for s in seeds]

    def _assert_same(self, stacked, alone):
        (trained, res), (trained_alone, res_alone) = stacked, alone
        np.testing.assert_array_equal(trained.W, trained_alone.W)
        np.testing.assert_array_equal(trained.z, trained_alone.z)
        assert res.history == res_alone.history
        assert res.min_neural_input == res_alone.min_neural_input
        assert res.epochs_run == res_alone.epochs_run

    def test_members_that_stop_early_leave_the_stack_unchanged(self):
        # these four members stop at epochs 300 (the budget), 74, 54 and 148
        config = TrainConfig(epochs=300, lr=0.01, rho=0.1)
        params, datasets, seeds = self._members(range(4), rho=0.1)
        stacked = _adam_train_stack(params, datasets, config, seeds)
        runs = [r.epochs_run for _, r in stacked]
        assert len(set(runs)) == 4 and max(runs) == 300
        for k in range(4):
            alone = adam_train(params[k], datasets[k], replace(config, seed=seeds[k]))
            self._assert_same(stacked[k], alone)

    def test_decay_phase_without_early_stop(self):
        config = TrainConfig(epochs=60, lr=0.02, lr_decay_epochs=30, rho=0.0,
                             stop_on_zero_mce=False)
        params, datasets, seeds = self._members(range(3), rho=0.0)
        stacked = _adam_train_stack(params, datasets, config, seeds)
        for k in range(3):
            alone = adam_train(params[k], datasets[k], replace(config, seed=seeds[k]))
            self._assert_same(stacked[k], alone)

    def test_non_finite_member_raises(self):
        config = TrainConfig(epochs=50, lr=1e200, stop_on_zero_mce=False)
        params, datasets, seeds = self._members(range(2), rho=0.0)
        with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
            _adam_train_stack(params, datasets, config, seeds)
        assert info.value.epoch == 0

    def test_member_leak_must_match_config(self):
        # the second member was initialised for rho = 0.5 but the config trains at 0.0
        params, datasets, seeds = self._members(range(2), rho=0.0)
        params[1] = he_init(6, 6, seed=51, rho=0.5)
        with pytest.raises(DomainError, match="rho"):
            _adam_train_stack(params, datasets, TrainConfig(epochs=1), seeds)
        with pytest.raises(DomainError, match="rho"):
            adam_train(params[1], datasets[1], TrainConfig(epochs=1))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """Exact outputs of fixed small instances, pinned to the last bit.

    Recorded before the forward and gradient math was folded into
    network.evaluate/backward (numpy 2.4, bundled OpenBLAS, x86-64); a
    change to the kernel's arithmetic or its order of operations shows
    here.  Another BLAS build may round the products differently.
    """

    def test_adam_train(self):
        data = gen_gaussian_dataset(6, 15, seed=31)
        params = he_init(6, 6, seed=32, rho=0.3)
        config = TrainConfig(epochs=40, lr_decay_epochs=20, seed=33, rho=0.3,
                             stop_on_zero_mce=False)
        trained, result = adam_train(params, data, config)
        assert result.final_mse.hex() == "0x1.0e3034f24f6d0p-3"
        assert result.min_neural_input.hex() == "0x1.616fdd5a54e18p-6"
        assert result.final_mce == 2 / 15
        assert result.epochs_run == 40
        assert _digest(trained.W, trained.z) == (
            "299f6667b4bf8d0a2c103cc3031c2a383bdb181002eea1e490b665d2347ecbdc")
        assert _digest(np.array(result.history)) == (
            "05f57876a2d9cb7f2b6a94eb8ce975f27e63c8a72eaec1a7d9e9457e1fc4e937")

    def _instance(self):
        rng = np.random.default_rng(34)
        params = NetParams(W=rng.standard_normal((5, 4)), z=rng.standard_normal(5), rho=0.1)
        data = Dataset(X=rng.standard_normal((4, 9)), y=rng.integers(0, 2, 9).astype(float))
        return params, data

    def test_gradient(self):
        params, data = self._instance()
        _, A, H, yhat = evaluate(params.W, params.z, params.rho, data.X)
        dW, dz = backward(params.z, data.X, A, H, data.y - yhat)
        assert _digest(dW, dz) == (
            "44c6e05b0f0a87571a2bfd818e66987193359c66bc9cca513dda1b0b29dc14fa")

    def test_dlm_condition(self):
        report = dlm_condition(*self._instance())
        assert report.residual_norm.hex() == "0x1.b085ab05f40dap+4"
        assert report.gradient_norm.hex() == "0x1.017b16c04c057p+3"
        assert report.min_neural_input.hex() == "0x1.001f68e1527a5p-3"
        assert report.boundary_hits == 0


class TestScanOverparam:
    def test_shape_and_columns(self):
        config = TrainConfig(epochs=3, lr=0.01, seed=1, stop_on_zero_mce=True)
        rows = scan_overparam([4, 6], [0.5, 2.0], seeds=2, config=config)
        assert len(rows) == 4
        for row in rows:
            assert set(row) >= {"d", "N", "params_over_N", "mce_mean", "mce_std"}
            assert row["params_over_N"] == pytest.approx(row["d"] ** 2 / row["N"])
            assert 0.0 <= row["mce_mean"] <= 1.0

    def test_deterministic(self):
        config = TrainConfig(epochs=2, lr=0.01, seed=3, stop_on_zero_mce=True)
        a = scan_overparam([4], [1.0], seeds=2, config=config)
        b = scan_overparam([4], [1.0], seeds=2, config=config)
        assert a == b

    def test_cells_draw_their_own_streams(self, monkeypatch):
        from landscape import train

        seen = []

        def spy(params, datasets, config, seeds):
            seen.append(([d.X for d in datasets], [p.W for p in params], seeds))
            return _adam_train_stack(params, datasets, config, seeds)

        monkeypatch.setattr(train, "_adam_train_stack", spy)
        config = TrainConfig(epochs=2, lr=0.01, seed=5)
        rows = scan_overparam([6], [1.0, 1.0], seeds=3, config=config)
        (X0, W0, s0), (X1, W1, s1) = seen
        for a, b in zip(X0 + W0, X1 + W1):
            assert not np.array_equal(a, b)
        assert not set(s0) & set(s1)
        assert rows[0]["mce_values"] != rows[1]["mce_values"]

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            scan_overparam([4], [1.0], seeds=0, config=TrainConfig(epochs=1))

    @pytest.mark.parametrize("d_values, factors", [
        pytest.param([12, -2], [1.0], id="negative-d"),
        pytest.param([4], [-3.0, 0.0], id="nonpositive-factors"),
        pytest.param([4], [1.0, 0.0], id="zero-factor-last"),
    ])
    def test_bad_sizes_raise_before_training(self, monkeypatch, d_values, factors):
        from landscape import train

        monkeypatch.setattr(train, "_adam_train_stack", None)   # training would raise TypeError
        with pytest.raises(DomainError, match="at least 1 and every N factor positive"):
            scan_overparam(d_values, factors, seeds=1, config=TrainConfig(epochs=1))


class TestDlmDiagnostic:
    def test_rows_and_sample_count_formula(self):
        config = TrainConfig(epochs=6, lr=0.01, lr_decay_epochs=3, seed=2,
                             stop_on_zero_mce=False)
        rows = dlm_diagnostic(5, seeds=2, config=config)
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"seed_index", "min_neural_input", "final_mse"}
            assert row["min_neural_input"] >= 0.0

    def test_d_floor(self):
        with pytest.raises(ValueError):
            dlm_diagnostic(3, seeds=1, config=TrainConfig(epochs=2))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: scan_overparam([], [1.0], 1, TrainConfig(epochs=1)), "nonempty",
                 id="scan-no-d"),
    pytest.param(lambda: scan_overparam([4], [], 1, TrainConfig(epochs=1)), "nonempty",
                 id="scan-no-factor"),
    pytest.param(lambda: scan_overparam([4], [1.0], 0, TrainConfig(epochs=1)), "seeds",
                 id="scan-zero-seeds"),
    pytest.param(lambda: dlm_diagnostic(3, 1, TrainConfig(epochs=2)), "d must be at least 4",
                 id="diagnostic-d3"),
    pytest.param(lambda: dlm_diagnostic(4, 0, TrainConfig(epochs=2)), "seeds",
                 id="diagnostic-zero-seeds"),
    pytest.param(lambda: he_init(0, 3, seed=0), "at least 1", id="he-init-d1-0"),
])
def test_argument_domain_checks_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Dataset(X=np.zeros((2, 0)), y=np.zeros(0)), "at least one sample",
                 id="dataset-empty"),
    pytest.param(lambda: Dataset(X=np.zeros((2, 2)), y=[0.0, 2.0]), "0 or 1", id="dataset-label"),
    pytest.param(lambda: Dataset(X=[[0.0, math.nan]], y=[0.0, 1.0]), "non-finite",
                 id="dataset-nan"),
    pytest.param(lambda: NetParams(W=[[math.inf]], z=[1.0], rho=0.0), "non-finite",
                 id="params-inf-w"),
    pytest.param(lambda: NetParams(W=[[1.0]], z=[math.nan], rho=0.0), "non-finite",
                 id="params-nan-z"),
    pytest.param(lambda: Seed(-1), "seed", id="seed-negative"),
    pytest.param(lambda: TrainConfig(seed=-1), "seed", id="config-seed-negative"),
    pytest.param(lambda: TrainConfig(seed="3"), "seed", id="config-seed-string"),
    pytest.param(lambda: TrainConfig(epochs=1.5), "epochs", id="config-epochs-float"),
    pytest.param(lambda: TrainConfig(epochs=0), "epochs", id="config-epochs-0"),
    pytest.param(lambda: TrainConfig(lr=0.0), "lr", id="config-lr-0"),
    pytest.param(lambda: TrainConfig(lr=math.nan), "lr", id="config-lr-nan"),
    pytest.param(lambda: TrainConfig(rho=math.inf), "rho", id="config-rho-inf"),
    pytest.param(lambda: TrainConfig(rho=True), "rho", id="config-rho-bool"),
    pytest.param(lambda: TrainConfig(lr_decay_epochs=True), "lr_decay_epochs",
                 id="config-decay-bool"),
    pytest.param(lambda: TrainConfig(epochs=10, lr_decay_epochs=11), "lr_decay_epochs",
                 id="config-decay-past-epochs"),
    pytest.param(lambda: TrainConfig(stop_on_zero_mce="yes"), "stop_on_zero_mce",
                 id="config-stop-string"),
])
def test_caller_fault_rules_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("error", [BadLeak, ShapeMismatch, InstanceTooLarge, TargetTooSmall])
def test_caller_fault_errors_are_domain_errors(error):
    assert issubclass(error, DomainError)


def test_config_takes_numpy_scalars():
    config = TrainConfig(epochs=np.int64(3), lr=np.float32(0.5), seed=np.uint8(2), rho=np.int32(0))
    assert (config.epochs, config.seed) == (3, 2)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "scan", 1, 0) == derive_seed(7, "scan", 1, 0)
        assert derive_seed(7, "scan", 1, 0) != derive_seed(7, "scan", 1, 1)
        assert derive_seed(7, "scan", 1, 0) != derive_seed(8, "scan", 1, 0)
        assert derive_seed(7, "scan", 0, 1, 0) != derive_seed(7, "scan", 1, 1, 0)

    @pytest.mark.parametrize("label", ["scan-0", "diag"])
    def test_unknown_label_raises(self, label):
        with pytest.raises(DomainError, match=repr(label)):
            derive_seed(7, label, 1, 0)

    def test_diagnostic_and_init_streams_pinned(self):
        assert derive_seed(606, "diagnostic", 0, 0) == 18056850325611101768
        assert derive_seed(606, "diagnostic", 9, 2) == 1069313142201077685
        assert derive_seed(7, "init", 0) == 9515785155347926126


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field", ["beta1", "beta2", "adam_eps"])
    def test_adam_constants_are_not_fields(self, field):
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: 0.5})

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, lr_decay_epochs=11)

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -0.01])
    def test_lr_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("field, value, error", [
        ("seed", "3", DomainError),
        ("epochs", 1.5, DomainError),
        ("batch", 2.5, TypeError),
        ("lr_decay_epochs", True, DomainError),
        ("beta1", "0.9", TypeError),
        ("stop_on_zero_mce", "yes", DomainError),
        ("rho", math.inf, ValueError),
    ])
    def test_field_types(self, field, value, error):
        with pytest.raises(error, match=field):
            TrainConfig(**{field: value})

import itertools

import numpy as np
import pytest

from landscape.construct import build_global_minimum
from landscape.errors import DomainError, InstanceTooLarge
from landscape.linalg import numerical_rank
from landscape.network import (
    Dataset,
    NetParams,
    activation_slopes,
    khatri_rao,
)
from landscape.stationarity import dlm_condition, rank_condition_oracle
from landscape.train import TrainConfig, adam_train, gen_gaussian_dataset, he_init
from landscape.volume import RegionSpec


class TestDlmCondition:
    def test_zero_error_construction_is_stationary(self):
        data = gen_gaussian_dataset(4, 30, seed=1)
        built = build_global_minimum(data, rho=0.1, seed=1)
        report = dlm_condition(built.params, data)
        assert report.residual_norm <= 1e-10
        assert report.min_neural_input > 0
        assert report.boundary_hits == 0

    def test_zero_output_weights_residual_matches_direct_product(self):
        rng = np.random.default_rng(2)
        data = Dataset(X=rng.standard_normal((3, 12)), y=rng.integers(0, 2, 12).astype(float))
        params = NetParams(W=rng.standard_normal((4, 3)), z=np.zeros(4), rho=0.5)
        report = dlm_condition(params, data)
        A = activation_slopes(params.W @ data.X, 0.5)
        direct = np.linalg.norm(khatri_rao(A, data.X) @ data.y)
        assert abs(report.residual_norm - direct) <= 1e-12 * (1 + direct)

    def test_converged_training_run_is_nearly_stationary(self):
        from landscape.network import residual

        data = gen_gaussian_dataset(10, 30, seed=3)
        params = he_init(10, 10, seed=4, rho=0.0)
        config = TrainConfig(epochs=600, lr=0.01, lr_decay_epochs=300, seed=5,
                             rho=0.0, stop_on_zero_mce=False)
        trained, result = adam_train(params, data, config)
        assert result.final_mce == 0.0
        e0_norm = np.linalg.norm(residual(params, data))
        final = dlm_condition(trained, data)
        assert final.residual_norm <= 1e-4 * e0_norm

    def test_boundary_hit_counted(self):
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.5)
        data = Dataset(X=[[0.0, 1.0]], y=[0.0, 1.0])
        report = dlm_condition(params, data, tau=1e-9)
        assert report.boundary_hits == 1
        assert report.min_neural_input == 0.0


def _inside(W, X, A):
    return RegionSpec.from_activation_pattern(A, X).predicate(W)


class TestRegionMembership:
    def test_own_pattern_inside(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((3, 4))
        X = rng.standard_normal((4, 7))
        assert _inside(W, X, activation_slopes(W @ X, 0.5))

    def test_flipped_entry_outside(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((3, 4))
        X = rng.standard_normal((4, 7))
        A = activation_slopes(W @ X, 0.5)
        A[1, 2] = 0.5 if A[1, 2] == 1.0 else 1.0
        assert not _inside(W, X, A)

    def test_exact_zero_preactivation_excluded(self):
        W = np.array([[1.0, 0.0]])
        X = np.array([[0.0, 1.0], [1.0, 0.0]])  # first pre-activation exactly 0
        assert not _inside(W, X, activation_slopes(W @ X, 0.5))

    def test_invariant_under_positive_row_scaling(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            W = rng.standard_normal((3, 4))
            X = rng.standard_normal((4, 6))
            A = activation_slopes(W @ X, 0.5)
            scales = rng.uniform(0.5, 4.0, size=(3, 1))
            assert _inside(scales * W, X, A)


class TestRankConditionOracle:
    def test_wide_all_ones_pattern_fails(self):
        # rank(A_S) = 1 for the all-ones pattern, so any subset larger than
        # d0 violates the condition; the minimal witness has d0 + 1 samples
        rng = np.random.default_rng(9)
        d0, N = 2, 5
        X = rng.standard_normal((d0, N))
        A = np.ones((3, N))
        holds, witness = rank_condition_oracle(A, X)
        assert not holds
        assert witness == (0, 1, 2)
        assert numerical_rank(khatri_rao(A, X), 1e-8) == d0 < N

    def test_narrow_all_ones_pattern_holds(self):
        rng = np.random.default_rng(10)
        d0, N = 4, 3
        X = rng.standard_normal((d0, N))
        A = np.ones((2, N))
        holds, witness = rank_condition_oracle(A, X)
        assert holds and witness is None
        assert numerical_rank(khatri_rao(A, X), 1e-8) == N

    def test_single_sample(self):
        holds, witness = rank_condition_oracle(np.array([[1.0]]), np.array([[2.0]]))
        assert holds and witness is None

    @pytest.mark.parametrize("d1, d0, N", [(0, 2, 3), (2, 0, 3), (2, 2, 0)])
    def test_empty_shape_rejected(self, d1, d0, N):
        with pytest.raises(DomainError, match="at least 1"):
            rank_condition_oracle(np.ones((d1, N)), np.ones((d0, N)))

    def test_cap(self):
        with pytest.raises(InstanceTooLarge):
            rank_condition_oracle(np.ones((1, 23)), np.ones((1, 23)))

    def test_matches_khatri_rao_rank_small(self):
        # spot check of the full equivalence (exhaustive version in acceptance)
        rng = np.random.default_rng(11)
        for N in (2, 3):
            patterns = list(itertools.product((0.5, 1.0), repeat=2 * N))
            for _ in range(5):
                X = rng.standard_normal((2, N))
                for flat in patterns:
                    A = np.array(flat).reshape(2, N)
                    holds, _ = rank_condition_oracle(A, X)
                    assert holds == (numerical_rank(khatri_rao(A, X), 1e-8) == N)

import numpy as np
import pytest

from landscape.construct import (
    MarginCertificate,
    angular_margin,
    build_global_minimum,
    partition_positive,
    trapezoid,
)
from landscape.errors import BadLeak, TargetTooSmall, ZeroVector
from landscape.network import Dataset, forward, lrelu, mce, mse
from landscape.train import gen_gaussian_dataset


class TestPartitionPositive:
    def test_greedy_fill(self):
        parts = partition_positive(np.ones(5), d0=3)
        assert [len(p) for p in parts] == [2, 2, 1]
        assert parts == [[0, 1], [2, 3], [4]]

    def test_all_negative(self):
        assert partition_positive(np.zeros(4), d0=3) == []

    def test_single_subset(self):
        assert partition_positive(np.array([1.0, 0.0, 1.0]), d0=4) == [[0, 2]]


class TestTrapezoid:
    def test_plateau_value(self):
        assert trapezoid(0.0, 1.0, 0.5, 0.1) == pytest.approx(1.0)

    def test_outside_support(self):
        assert trapezoid(2.0, 1.0, 0.5, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_ramp_midpoint(self):
        eps1, eps2 = 1.0, 0.5
        assert trapezoid((eps1 + eps2) / 2, eps1, eps2, 0.3) == pytest.approx(0.5)

    def test_matches_piecewise_form(self):
        rng = np.random.default_rng(0)
        eps1, eps2, rho = 0.8, 0.3, 0.25
        for x in rng.uniform(-2, 2, 200):
            expected = (
                0.0 if abs(x) > eps1
                else 1.0 if abs(x) <= eps2
                else (eps1 - abs(x)) / (eps1 - eps2)
            )
            assert trapezoid(x, eps1, eps2, rho) == pytest.approx(expected, abs=1e-12)

    def test_is_the_four_unit_combination(self):
        eps1, eps2, rho = 0.7, 0.2, 0.4
        scale = 1.0 / ((eps1 - eps2) * (1.0 - rho))
        for x in np.linspace(-1.5, 1.5, 41):
            direct = scale * (lrelu(x + eps1, rho) - lrelu(x + eps2, rho)
                              - lrelu(x - eps2, rho) + lrelu(x - eps1, rho))
            assert trapezoid(x, eps1, eps2, rho) == pytest.approx(direct, abs=1e-14)


class TestBuildGlobalMinimum:
    def test_width_formula_at_half_positive(self):
        # |S+| = 5 with d0 = 3 gives K = 3 blocks, matching 4*ceil(10/4) = 12
        X = np.random.default_rng(1).standard_normal((3, 10))
        y = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=float)
        built = build_global_minimum(Dataset(X=X, y=y), rho=0.0)
        assert built.d1_star == 12
        assert built.params.W.shape == (12, 3)

    def test_all_negative_labels(self):
        data = Dataset(X=np.random.default_rng(2).standard_normal((3, 6)), y=np.zeros(6))
        built = build_global_minimum(data, rho=0.0, target_d1=5, seed=3)
        assert built.d1_star == 0
        assert built.params.W.shape == (5, 3)
        assert np.all(built.params.z == 0.0)
        np.testing.assert_array_equal(forward(built.params, data.X), np.zeros(6))

    def test_block_responses_are_indicators(self):
        data = gen_gaussian_dataset(4, 25, seed=4)
        built = build_global_minimum(data, rho=0.2, seed=4)
        for k, block in enumerate(built.blocks):
            rows = built.params.W[4 * k: 4 * k + 4]
            z_block = built.params.z[4 * k: 4 * k + 4]
            response = lrelu(rows @ data.X, 0.2).T @ z_block
            expected = np.zeros(data.n_samples)
            expected[list(block.indices)] = 1.0
            np.testing.assert_allclose(response, expected, atol=1e-9)

    def test_zero_error_sweep(self):
        rng = np.random.default_rng(77)
        for k in range(200):
            d0 = int(rng.integers(3, 31))
            N = int(rng.integers(d0, 20 * d0 + 1))
            rho = float(rng.choice([0.0, 0.1, 0.5]))
            data = gen_gaussian_dataset(d0, N, seed=int(rng.integers(1 << 31)))
            built = build_global_minimum(data, rho=rho, seed=k)
            assert mse(built.params, data) <= 1e-18
            assert mce(built.params, data) == 0.0

    def test_interior_preactivations_hit_eps_levels(self):
        data = gen_gaussian_dataset(5, 40, seed=5)
        built = build_global_minimum(data, rho=0.0, seed=5)
        for k, block in enumerate(built.blocks):
            rows = built.params.W[4 * k: 4 * k + 4]
            P = np.abs(rows @ data.X[:, list(block.indices)])
            levels = np.array([block.eps1, block.eps2, block.eps2, block.eps1])
            np.testing.assert_allclose(P, levels[:, None] * np.ones_like(P), rtol=1e-9)

    def test_nondegenerate_preactivations(self):
        data = gen_gaussian_dataset(6, 50, seed=6)
        built = build_global_minimum(data, rho=0.1, seed=6)
        assert np.min(np.abs(built.params.W @ data.X)) > 0.0

    def test_sign_stability_outside_block(self):
        data = gen_gaussian_dataset(4, 30, seed=7)
        built = build_global_minimum(data, rho=0.0, seed=7)
        for k, block in enumerate(built.blocks):
            outside = np.setdiff1d(np.arange(data.n_samples), block.indices)
            rows = built.params.W[4 * k: 4 * k + 4]
            signs = np.sign(rows @ data.X[:, outside])
            ref = np.sign(block.w_tilde @ data.X[:, outside])
            np.testing.assert_array_equal(signs, np.tile(ref, (4, 1)))

    def test_width_bound_when_positive_minority(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            d0 = int(rng.integers(3, 12))
            N = int(rng.integers(d0, 8 * d0))
            data = gen_gaussian_dataset(d0, N, seed=int(rng.integers(1 << 31)))
            built = build_global_minimum(data, rho=0.0, seed=1)
            s_plus = int(np.sum(data.y))
            if s_plus <= N / 2:
                assert built.d1_star <= 4 * int(np.ceil((N / 2) / (d0 - 1)))

    def test_norm_equality_per_block(self):
        data = gen_gaussian_dataset(5, 35, seed=9)
        built = build_global_minimum(data, rho=0.0, seed=9)
        for block in built.blocks:
            nt, nh = np.linalg.norm(block.w_tilde), np.linalg.norm(block.w_hat)
            assert abs(nt - nh) <= 1e-9 * nh
            assert block.eps1 > block.eps2 > 0

    def test_output_weight_structure(self):
        data = gen_gaussian_dataset(4, 20, seed=10)
        built = build_global_minimum(data, rho=0.5, seed=10)
        for k, block in enumerate(built.blocks):
            c = 1.0 / ((block.eps1 - block.eps2) * (1.0 - 0.5))
            np.testing.assert_allclose(
                built.params.z[4 * k: 4 * k + 4], [c, -c, -c, c], rtol=1e-12
            )

    def test_padding(self):
        data = gen_gaussian_dataset(4, 12, seed=11)
        built = build_global_minimum(data, rho=0.0, target_d1=40, seed=11)
        assert built.params.W.shape == (40, 4)
        assert np.all(built.params.z[built.d1_star:] == 0.0)
        assert mse(built.params, data) <= 1e-18

    def test_target_too_small(self):
        data = gen_gaussian_dataset(4, 20, seed=12)
        built = build_global_minimum(data, rho=0.0, seed=12)
        with pytest.raises(TargetTooSmall):
            build_global_minimum(data, rho=0.0, target_d1=built.d1_star - 1, seed=12)

    def test_bad_leak(self):
        data = gen_gaussian_dataset(3, 6, seed=13)
        with pytest.raises(BadLeak):
            build_global_minimum(data, rho=1.0)
        with pytest.raises(BadLeak):
            build_global_minimum(data, rho=np.inf)

    def test_degenerate_data_detected(self):
        from landscape.errors import DegenerateData

        # the second sample is a multiple of the first, so the hyperplane
        # through sample 0 contains sample 1 as well
        data = Dataset(X=np.array([[1.0, 2.0], [1.0, 2.0]]), y=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateData):
            build_global_minimum(data, rho=0.0)

    def test_deterministic_for_fixed_seed(self):
        data = gen_gaussian_dataset(5, 30, seed=14)
        a = build_global_minimum(data, rho=0.1, target_d1=40, seed=14)
        b = build_global_minimum(data, rho=0.1, target_d1=40, seed=14)
        np.testing.assert_array_equal(a.params.W, b.params.W)
        np.testing.assert_array_equal(a.params.z, b.params.z)


class TestAngularMargin:
    def test_forty_five_degrees(self):
        cert = angular_margin(np.array([[1.0], [1.0]]) / np.sqrt(2), np.array([[1.0, 0.0]]))
        assert cert.sin_alpha == pytest.approx(np.sqrt(0.5))
        assert cert.argmin_pair == (0, 0)

    def test_orthogonal_column_reports_zero(self):
        cert = angular_margin(np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
        assert cert.sin_alpha == 0.0

    def test_min_over_columns(self):
        # parallel column contributes 1, the 60-degree column wins with 0.5
        X = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
        cert = angular_margin(X, np.array([[1.0, 0.0]]))
        assert cert.sin_alpha == pytest.approx(0.5)
        assert cert.argmin_pair == (0, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            angular_margin(np.array([[0.0], [0.0]]), np.array([[1.0, 0.0]]))

    def test_certificate_type(self):
        cert = angular_margin(np.eye(2), np.eye(2))
        assert isinstance(cert, MarginCertificate)

import numpy as np
import pytest

from _oracles import fd_gradient
from landscape.errors import DomainError
from landscape.linalg import numerical_rank
from landscape.network import (
    Dataset,
    ForwardBuffers,
    GradientBuffers,
    NetParams,
    activation_slopes,
    backward,
    check_leak,
    evaluate,
    khatri_rao,
    mce,
    mse,
)
from landscape.volume import RegionSpec


def _random_instance(rng, rho=None):
    d0 = int(rng.integers(2, 6))
    d1 = int(rng.integers(2, 6))
    N = int(rng.integers(2, 9))
    if rho is None:
        rho = float(rng.choice([0.0, 0.1, 0.5]))
    data = Dataset(X=rng.standard_normal((d0, N)), y=rng.integers(0, 2, N).astype(float))
    params = NetParams(W=rng.standard_normal((d1, d0)), z=rng.standard_normal(d1), rho=rho)
    return params, data


class TestActivationPattern:
    def test_signs(self):
        A = activation_slopes(np.array([[1.0]]) @ np.array([[3.0, -3.0]]), 0.5)
        np.testing.assert_array_equal(A, [[1.0, 0.5]])

    def test_boundary_flagged_and_assigned_one(self):
        W, X = np.array([[1.0]]), np.array([[0.0]])
        A = activation_slopes(W @ X, 0.5)
        np.testing.assert_array_equal(A, [[1.0]])
        assert not RegionSpec.from_activation_pattern(A, X).predicate(W)

    def test_sign_pattern_identity_input(self):
        A = activation_slopes(np.eye(2) @ np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.0)
        np.testing.assert_array_equal(A, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("rho", [0.0, -0.0, 0.1, 0.5, -2.0])
    @pytest.mark.parametrize("P", [
        pytest.param(np.float64(1.5), id="0-d-positive"),
        pytest.param(np.array(-1.5), id="0-d-negative"),
        pytest.param(np.array(np.nan), id="0-d-nan"),
        pytest.param(np.array(-0.0), id="0-d-negative-zero"),
        pytest.param(np.zeros(0), id="empty"),
        pytest.param(np.zeros((3, 0)), id="empty-matrix"),
        pytest.param([[1.0, -1.0, 0.0], [-0.0, np.nan, -np.inf]], id="matrix"),
        pytest.param(np.random.default_rng(40).standard_normal((2, 3, 5)), id="stack"),
    ])
    def test_gather_equals_where(self, P, rho):
        # the gather must give np.where's slopes in value, sign bit, shape and dtype
        got = activation_slopes(P, rho)
        want = np.where(np.asarray(P) >= 0.0, 1.0, rho)
        assert np.shape(got) == want.shape
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("P, rho, expected", [
        pytest.param([[2.0]], 0.1, [[2.0]], id="positive"),
        pytest.param([[-2.0]], 0.1, [[-0.2]], id="leak"),
        pytest.param([[0.0]], 0.7, [[0.0]], id="zero"),
        pytest.param([[1.0, -1.0], [0.0, -3.0]], 0.5, [[1.0, -0.5], [0.0, -1.5]], id="matrix"),
    ])
    def test_hidden_outputs_are_the_rectifier(self, P, rho, expected):
        # W = P against identity inputs makes evaluate's pre-activations exactly P
        P = np.array(P)
        H = evaluate(P, np.ones(P.shape[0]), rho, np.eye(P.shape[1]))[2]
        np.testing.assert_allclose(H, expected)


class TestForward:
    def test_single_unit(self):
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        yhat = evaluate(params.W, params.z, params.rho, np.array([[2.0, -2.0]]))[3]
        np.testing.assert_allclose(yhat, [2.0, 0.0])

    def test_zero_output_weights(self):
        params = NetParams(W=np.ones((3, 2)), z=np.zeros(3), rho=0.5)
        yhat = evaluate(params.W, params.z, params.rho, np.ones((2, 4)))[3]
        np.testing.assert_array_equal(yhat, np.zeros(4))

    def test_two_units_hand_value(self):
        params = NetParams(W=[[1.0], [-1.0]], z=[1.0, 1.0], rho=0.0)
        yhat = evaluate(params.W, params.z, params.rho, np.array([[3.0]]))[3]
        np.testing.assert_allclose(yhat, [3.0])


class TestLosses:
    def test_mse_zero_at_fit(self):
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[1.0, -1.0]], y=[1.0, 0.0])  # yhat = (1, 0) exactly
        assert mse(params, data) == 0.0
        assert mce(params, data) == 0.0

    def test_mse_half(self):
        params = NetParams(W=[[1.0]], z=[0.0], rho=0.0)  # yhat = 0
        data = Dataset(X=[[1.0, 2.0]], y=[1.0, 0.0])
        assert mse(params, data) == pytest.approx(0.5)

    def test_mse_hand_value(self):
        # yhat = (0.5, 1.5) against y = (1, 1): (0.25 + 0.25) / 2
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[0.5, 1.5]], y=[1.0, 1.0])
        assert mse(params, data) == pytest.approx(0.25)

    def test_mce_one_third(self):
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[0.6, 0.4, 0.2]], y=[1.0, 0.0, 1.0])
        assert mce(params, data) == pytest.approx(1.0 / 3.0)

    def test_mce_tie_predicts_one(self):
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[0.5]], y=[0.0])
        assert mce(params, data) == 1.0

    def test_mce_bounded_by_nonzero_residuals(self):
        # with z = 0 the residual equals y, so errors sit exactly on y = 1
        rng = np.random.default_rng(8)
        for _ in range(50):
            d0, N = int(rng.integers(1, 5)), int(rng.integers(1, 20))
            data = Dataset(X=rng.standard_normal((d0, N)), y=rng.integers(0, 2, N).astype(float))
            params = NetParams(W=rng.standard_normal((3, d0)), z=np.zeros(3), rho=0.1)
            e = data.y - evaluate(params.W, params.z, params.rho, data.X)[3]
            assert mce(params, data) <= np.count_nonzero(e) / N + 1e-15


class TestKhatriRao:
    def test_single_column(self):
        out = khatri_rao(np.array([[1.0], [0.5]]), np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(out[:, 0], [1.0, 2.0, 0.5, 1.0])

    def test_ones_row_recovers_x(self):
        X = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(khatri_rao(np.ones((1, 3)), X), X)

    def test_scalar_blocks(self):
        np.testing.assert_allclose(khatri_rao([[1.0, 2.0]], [[3.0, 4.0]]), [[3.0, 8.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match="A and X must be matrices with equal column counts"):
            khatri_rao(np.ones((2, 3)), np.ones((2, 4)))

    def test_rank_bounded_by_pattern_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d0, d1, N = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 8))
            A = rng.choice([0.5, 1.0], size=(d1, N))
            X = rng.standard_normal((d0, N))
            assert numerical_rank(khatri_rao(A, X), 1e-10) <= numerical_rank(A, 1e-10) * d0


class TestGradient:
    def test_zero_at_exact_fit(self):
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[1.0, -1.0]], y=[1.0, 0.0])
        _, A, H, yhat = evaluate(params.W, params.z, params.rho, data.X)
        dW, dz = backward(params.z, data.X, A, H, data.y - yhat)
        assert np.all(dW == 0.0) and np.all(dz == 0.0)

    def test_hand_value(self):
        # d(y - z*w*x)^2/dW at W=z=x=1, y=0 is 2; same for z
        params = NetParams(W=[[1.0]], z=[1.0], rho=0.0)
        data = Dataset(X=[[1.0]], y=[0.0])
        _, A, H, yhat = evaluate(params.W, params.z, params.rho, data.X)
        dW, dz = backward(params.z, data.X, A, H, data.y - yhat)
        assert dW[0, 0] == pytest.approx(2.0)
        assert dz[0] == pytest.approx(2.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            params, data = _random_instance(rng)
            assert np.min(np.abs(params.W @ data.X)) > 1e-5  # off-boundary draw
            _, A, H, yhat = evaluate(params.W, params.z, params.rho, data.X)
            dW, dz = backward(params.z, data.X, A, H, data.y - yhat)
            gW, gz = fd_gradient(params, data)
            num = np.sqrt(np.sum((gW - dW) ** 2) + np.sum((gz - dz) ** 2))
            den = np.sqrt(np.sum(dW ** 2) + np.sum(dz ** 2))
            assert num <= 1e-5 * den


class TestStacks:
    def test_evaluate_and_backward_match_each_slice(self):
        # a stack of networks along a leading axis gives each network's
        # own outputs and gradient bit for bit
        rng = np.random.default_rng(12)
        for S, d1, d0, N in [(1, 4, 3, 5), (3, 7, 5, 2), (5, 30, 30, 15), (2, 1, 6, 1)]:
            W = rng.standard_normal((S, d1, d0))
            z = rng.standard_normal((S, d1))
            X = rng.standard_normal((S, N, d0)).swapaxes(1, 2)
            e = rng.standard_normal((S, N))
            P, A, H, yhat = evaluate(W, z, 0.2, X)
            dW, dz = backward(z, X, A, H, e)
            for s in range(S):
                P_s, A_s, H_s, yhat_s = evaluate(W[s], z[s], 0.2, X[s])
                dW_s, dz_s = backward(z[s], X[s], A_s, H_s, e[s])
                for stacked, alone in [(P[s], P_s), (A[s], A_s), (H[s], H_s), (yhat[s], yhat_s),
                                       (dW[s], dW_s), (dz[s], dz_s)]:
                    np.testing.assert_array_equal(stacked, alone)

    def test_buffers_give_the_bits_of_fresh_arrays(self):
        # evaluate and backward writing into buffers, dW and dz being views
        # of one flat gradient, return what they return without buffers;
        # the second round overwrites the first, and a residual other than
        # out.e is copied in first
        rng = np.random.default_rng(13)
        S, d1, d0, N = 3, 7, 5, 4
        flat = np.empty((S, d1 * d0 + d1))
        fwd = ForwardBuffers((S,), d1, N)
        bwd = GradientBuffers((S,), d1, d0, N, dW=flat[:, :d1 * d0].reshape(S, d1, d0),
                              dz=flat[:, d1 * d0:])
        for rho in 0.0, 0.3:
            W = rng.standard_normal((S, d1, d0))
            z = rng.standard_normal((S, d1))
            X = rng.standard_normal((S, N, d0)).swapaxes(1, 2)
            e = rng.standard_normal((S, N))
            fresh = evaluate(W, z, rho, X)
            fresh += backward(z, X, fresh[1], fresh[2], e)
            got = evaluate(W, z, rho, X, fwd)
            got += backward(z, X, got[1], got[2], e, bwd)
            assert got[0] is fwd.P and got[3] is fwd.yhat and got[4] is bwd.dW
            for a, b in zip(got, fresh):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(flat[:, d1 * d0:], fresh[5])


class TestStructuralIdentities:
    def test_residual_condition_identity(self):
        # (A o X) e = -(N/2) grad_wtilde with grad_wtilde block i = dW_i / z_i
        rng = np.random.default_rng(11)
        for _ in range(100):
            params, data = _random_instance(rng)
            N = data.n_samples
            _, slopes, H, yhat = evaluate(params.W, params.z, params.rho, data.X)
            e = data.y - yhat
            dW, _ = backward(params.z, data.X, slopes, H, e)
            A = activation_slopes(params.W @ data.X, params.rho)
            G = khatri_rao(A, data.X)
            grad_wtilde = (dW / params.z[:, None]).ravel()
            lhs = np.linalg.norm(G @ e + (N / 2.0) * grad_wtilde)
            assert lhs <= 1e-8 * (1.0 + np.linalg.norm(e))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            params, data = _random_instance(rng)
            c = float(rng.uniform(0.2, 5.0))
            i = int(rng.integers(0, params.d1))
            W2, z2 = params.W.copy(), params.z.copy()
            W2[i] *= c
            z2[i] /= c
            scaled = NetParams(W=W2, z=z2, rho=params.rho)
            np.testing.assert_allclose(
                evaluate(scaled.W, scaled.z, scaled.rho, data.X)[3],
                evaluate(params.W, params.z, params.rho, data.X)[3], atol=1e-12, rtol=0
            )


class TestValidation:
    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            NetParams(W=[[1.0]], z=[1.0], rho=1.0)

    @pytest.mark.parametrize("rho", [1.0, np.nan, np.inf, -np.inf])
    def test_leak_rule(self, rho):
        with pytest.raises(DomainError, match="rho must be finite and differ from 1"):
            NetParams(W=[[1.0]], z=[1.0], rho=rho)
        with pytest.raises(DomainError, match="rho must be finite and differ from 1"):
            check_leak(rho)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=[[1.0]], y=[2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X=[[1.0, bad]], y=[1.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError, match=r"W must be \(d1, d0\) and z \(d1,\)"):
            NetParams(W=np.ones((2, 3)), z=np.ones(3), rho=0.0)

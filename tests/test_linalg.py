import warnings

import numpy as np
import pytest

from _oracles import same_bits, solve_linear
from landscape.errors import DegenerateData, DomainError
from landscape.linalg import (
    canonical_sign,
    check_bordered,
    check_rank,
    nullspace_solve,
    numerical_rank,
)

SQ2 = np.sqrt(2.0)


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)

    def test_minimum_norm_underdetermined(self):
        # minimize ||x|| subject to x1 + x2 = 2 has solution (1, 1)
        x = solve_linear(np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(DegenerateData):
            solve_linear(A, np.array([1.0, 1.0]))

    def test_random_square_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            A = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            x = solve_linear(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_random_underdetermined_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            m = int(rng.integers(1, n))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            x = solve_linear(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))


def _solve_ones(M):
    """nullspace_solve(M, 1): the null-space basis, the minimum-norm x with M x = 1, and s."""
    M = np.asarray(M, dtype=float)
    return nullspace_solve(M, np.ones(M.shape[:-1]))


class TestNullspaceBasis:
    """nullspace_solve on a full-row-rank M: an orthonormal null-space basis, the
    minimum-norm solution of M x = 1 and M's singular values."""

    def test_spans_null_space(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((2, 6))
        B, x, s = _solve_ones(M)
        assert B.shape == (6, 4)
        assert np.linalg.norm(M @ B) <= 1e-10
        np.testing.assert_allclose(B.T @ B, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(M @ x, np.ones(2), atol=1e-12)
        assert np.linalg.norm(B.T @ x) <= 1e-12     # minimum norm: x is off the null space
        np.testing.assert_allclose(s, np.linalg.svd(M, compute_uv=False), rtol=1e-14)

    @pytest.mark.parametrize("M, last", [
        pytest.param([[1.0, 0.0]], [0.0, 1.0], id="complement-of-e1"),
        pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 1.0], id="two-rows"),
        # unit solutions of v1 + v2 = 0 are +-(1, -1)/sqrt(2); the sign rule
        # picks the one whose first nonzero coordinate is positive
        pytest.param([[1.0, 1.0]], [1 / SQ2, -1 / SQ2], id="canonical-sign"),
    ])
    def test_last_column_under_canonical_sign(self, M, last):
        np.testing.assert_allclose(canonical_sign(_solve_ones(M)[0][:, -1]), last, atol=1e-14)

    def test_random_generic_orthonormal_and_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, d))
            M = rng.standard_normal((k, d))
            B, x, s = _solve_ones(M)
            assert B.shape == (d, d - k) and x.shape == (d,) and s.shape == (k,)
            np.testing.assert_allclose(B.T @ B, np.eye(d - k), atol=1e-12)
            assert np.linalg.norm(M @ B) <= 1e-10
            assert np.linalg.norm(M @ x - 1.0) <= 1e-10 * (1.0 + np.linalg.norm(x))
            check_rank(s)

    def test_determinism(self):
        M = np.random.default_rng(3).standard_normal((3, 5))
        for a, b in zip(_solve_ones(M), _solve_ones(M)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("M", [np.eye(2), np.ones((3, 2))], ids=["square", "tall"])
    def test_trivial_null_space_raises(self, M):
        with pytest.raises(DegenerateData, match="null space is trivial"):
            _solve_ones(M)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-8) == 3

    def test_proportional_rows(self):
        assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-8) == 1

    def test_tiny_singular_value_dropped(self):
        # singular values 1 and 1e-12 straddle the 1e-8 relative cutoff
        assert numerical_rank(np.diag([1.0, 1e-12]), 1e-8) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4)), 1e-8) == 0

    def test_permutation_and_scaling_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            M = rng.standard_normal((4, 6)) @ np.diag([1, 1, 1, 0, 0, 0]) @ rng.standard_normal((6, 6))
            r = numerical_rank(M, 1e-10)
            perm_rows = rng.permutation(M.shape[0])
            perm_cols = rng.permutation(M.shape[1])
            assert numerical_rank(M[perm_rows][:, perm_cols], 1e-10) == r
            scale = float(rng.uniform(0.1, 10.0))
            assert numerical_rank(scale * M, 1e-10) == r


def test_canonical_sign_flips_negative_lead():
    np.testing.assert_array_equal(canonical_sign(np.array([-0.5, 1.0])), [0.5, -1.0])
    np.testing.assert_array_equal(canonical_sign(np.array([0.0, -2.0])), [0.0, 2.0])


class TestStacks:
    """A leading stack axis gives each slice the single-matrix call's result, bit for bit."""

    @pytest.mark.parametrize("lead", [(1,), (7,), (2, 3)])
    def test_solve_linear(self, lead):
        rng = np.random.default_rng(30)
        for m, n in [(1, 1), (3, 3), (4, 9), (19, 20), (49, 50)]:
            A = rng.standard_normal((*lead, m, n))
            b = rng.standard_normal((*lead, m))
            x = solve_linear(A, b)
            for idx in np.ndindex(*lead):
                assert same_bits(x[idx], solve_linear(A[idx], b[idx]))

    @pytest.mark.parametrize("lead", [(1,), (7,), (2, 3)])
    def test_nullspace_basis(self, lead):
        rng = np.random.default_rng(31)
        for k, d in [(1, 2), (4, 5), (2, 9), (19, 20), (49, 50)]:
            M = rng.standard_normal((*lead, k, d))
            stacked = _solve_ones(M)
            for idx in np.ndindex(*lead):
                for got, alone in zip(stacked, _solve_ones(M[idx])):
                    assert same_bits(got[idx], alone)

    def test_refused_slices_leave_the_others_bit_for_bit(self):
        # slices: generic, rank 0, a repeated row, full rank but scaled by 1e-14 (an
        # ill-conditioned bordered system), generic
        rng = np.random.default_rng(33)
        M = rng.standard_normal((5, 3, 6))
        M[1] = 0.0
        M[2, 2] = M[2, 0]
        M[3] *= 1e-14
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = _solve_ones(M)
        s = stacked[2]
        refused = {}
        for j in range(len(M)):
            alone = _solve_ones(M[j])
            assert same_bits(s[j], alone[2])
            try:
                check_rank(s[j])
            except DegenerateData as exc:
                refused[j] = str(exc)
                continue
            assert all(same_bits(got[j], a) for got, a in zip(stacked, alone))
            try:
                check_bordered(s[j])
            except DegenerateData as exc:
                refused[j] = str(exc)
        assert refused == {
            1: "rank(M) < 3 at relative tolerance 1e-10",
            2: "rank(M) < 3 at relative tolerance 1e-10",
            3: f"smallest singular value {s[3, -1]:.3e} below 1e-12 * 1.000e+00",
        }
        assert 1e-16 < s[3, -1] < 1e-13

    def test_numerical_rank_with_deficient_slices(self):
        rng = np.random.default_rng(32)
        M = rng.standard_normal((6, 4, 5))
        M[1, 3] = M[1, 0] + M[1, 1]
        M[4] = 0.0
        ranks = numerical_rank(M)
        assert ranks.tolist() == [4, 3, 4, 4, 0, 4]
        assert all(ranks[j] == numerical_rank(M[j]) for j in range(6))
        assert numerical_rank(M.reshape(2, 3, 4, 5), 1e-8).shape == (2, 3)

    def test_ill_conditioned_slice_reports_the_first(self):
        A = np.tile(np.eye(2), (4, 1, 1))
        A[2, 1, 1] = 1e-14
        A[3, 0, 0] = 1e-15
        b = np.ones((4, 2))
        with pytest.raises(DegenerateData) as single:
            solve_linear(A[2], b[2])
        with pytest.raises(DegenerateData) as stacked:
            solve_linear(A, b)
        assert str(stacked.value) == str(single.value)
        assert "1.000e-14" in str(stacked.value)


class TestNonFinite:
    """Non-finite input raises DomainError before any SVD, alone or in a stack."""

    @pytest.fixture(autouse=True)
    def no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("SVD reached with non-finite input")
        monkeypatch.setattr(np.linalg, "svd", svd)

    @pytest.mark.parametrize("A, b", [
        pytest.param([[np.inf, 1.0]], [1.0], id="inf-in-A"),
        pytest.param(np.eye(2), [np.nan, 1.0], id="nan-in-b"),
        pytest.param(np.stack([np.eye(2), [[1.0, np.nan], [0.0, 1.0]]]), np.ones((2, 2)),
                     id="stack"),
    ])
    def test_solve_linear(self, A, b):
        with pytest.raises(DomainError, match="non-finite"):
            solve_linear(A, b)

    @pytest.mark.parametrize("M", [
        pytest.param([[np.nan, 1.0]], id="single"),
        pytest.param([[[1.0, 0.0]], [[-np.inf, 1.0]]], id="stack"),
    ])
    @pytest.mark.parametrize("fn", [pytest.param(_solve_ones, id="nullspace_solve"),
                                    numerical_rank])
    def test_nullspace_basis_and_numerical_rank(self, fn, M):
        with pytest.raises(DomainError, match="non-finite"):
            fn(M)

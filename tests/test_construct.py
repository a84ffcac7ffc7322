import hashlib

import numpy as np
import pytest

from _oracles import (
    build_global_minimum_bordered,
    build_global_minimum_per_block,
    nullspace_basis,
    same_bits,
)
from _sweep import sweep
from landscape.construct import (
    MarginCertificate,
    angular_margin,
    build_global_minimum,
    partition_positive,
)
from landscape.errors import (
    BadLeak,
    DegenerateData,
    DomainError,
    LandscapeError,
    TargetTooSmall,
    ZeroVector,
)
from landscape.linalg import canonical_sign
from landscape.network import Dataset, evaluate, mce, mse
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

    def test_d0_below_two_is_a_domain_error(self):
        with pytest.raises(DomainError, match="d0 >= 2"):
            partition_positive(np.ones(3), d0=1)

    @pytest.mark.parametrize("y", [np.ones(4), np.zeros(4)], ids=["positives", "all-negative"])
    def test_build_rejects_d0_below_two(self, y):
        data = Dataset(X=np.arange(1.0, 5.0)[None, :], y=y)
        with pytest.raises(DomainError, match="d0 = 1"):
            build_global_minimum(data, rho=0.0, seed=0)


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
        yhat = evaluate(built.params.W, built.params.z, built.params.rho, data.X)[3]
        np.testing.assert_array_equal(yhat, np.zeros(6))

    def test_block_responses_are_indicators(self):
        data = gen_gaussian_dataset(4, 25, seed=4)
        built = build_global_minimum(data, rho=0.2, seed=4)
        for k, block in enumerate(built.blocks):
            rows = built.params.W[4 * k: 4 * k + 4]
            z_block = built.params.z[4 * k: 4 * k + 4]
            response = evaluate(rows, z_block, 0.2, data.X)[3]
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
        # the second sample is a multiple of the first, so the hyperplane
        # through sample 0 contains sample 1 as well
        data = Dataset(X=np.array([[1.0, 2.0], [1.0, 2.0]]), y=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateData):
            build_global_minimum(data, rho=0.0)

    def test_repeated_positive_sample_is_degenerate_data(self):
        # samples 0 and 1 share a group and coincide, so the group's
        # hyperplane system loses rank
        X = np.array([[1.0, 1.0, 0.3], [2.0, 2.0, -1.0], [0.5, 0.5, 0.7]])
        data = Dataset(X=X, y=np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DegenerateData, match="rank"):
            build_global_minimum(data, rho=0.0)

    def test_deterministic_for_fixed_seed(self):
        data = gen_gaussian_dataset(5, 30, seed=14)
        a = build_global_minimum(data, rho=0.1, target_d1=40, seed=14)
        b = build_global_minimum(data, rho=0.1, target_d1=40, seed=14)
        np.testing.assert_array_equal(a.params.W, b.params.W)
        np.testing.assert_array_equal(a.params.z, b.params.z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e250])
    def test_huge_outside_sample_builds(self, scale):
        # the sum of squares of sample 0 overflows, but its degenerate-hit
        # floor stays finite.  At rho = 0 sample 0 sits on the negative side
        # of every built row, so its hidden outputs are exact zeros
        X = np.random.default_rng(1).standard_normal((3, 6))
        X[:, 0] *= scale
        y = np.zeros(6)
        y[1] = 1.0
        data = Dataset(X=X, y=y)
        built = build_global_minimum(data, rho=0.0, seed=0)
        assert mce(built.params, data) == 0.0
        assert built.min_neural_input > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("rho, seeds", [(0.0, [0, 2, 3, 6, 7]), (0.1, range(8))],
                             ids=["rho0", "rho0.1"])
    def test_huge_residual_is_over_budget_without_a_warning(self, scale, rho, seeds):
        # sample 0's hidden outputs cancel only up to rounding, so its
        # residual squared overflows; an infinite MSE is over budget
        for seed in seeds:
            X = np.random.default_rng(seed).standard_normal((3, 6))
            X[:, 0] *= scale
            y = np.zeros(6)
            y[1] = 1.0
            with pytest.raises(DegenerateData, match="squared-error budget"):
                build_global_minimum(Dataset(X=X, y=y), rho=rho, seed=0)


def _two_positives_and(outside):
    """Samples 0 and 1 positive in R^4, column 5 replaced by outside(X, null-space basis)."""
    X = np.random.default_rng(20).standard_normal((4, 12))
    X[:, 5] = outside(X, nullspace_basis(X[:, :2].T))
    y = np.zeros(12)
    y[:2] = 1.0
    return Dataset(X=X, y=y)


def _on_first_candidate(X, basis):
    # in the plane of the group's first candidate normal basis[:, -1], off the group's span
    return 0.7 * X[:, 0] - 0.4 * X[:, 1] + basis[:, 0]


def _in_group_span(X, basis):
    return X[:, 0] + X[:, 1]


class TestRedrawPath:
    def test_outside_sample_on_first_candidate_still_builds(self):
        data = _two_positives_and(_on_first_candidate)
        first = canonical_sign(nullspace_basis(data.X[:, :2].T)[:, -1])
        assert abs(first @ data.X[:, 5]) <= 1e-13 * np.linalg.norm(data.X[:, 5])
        built = build_global_minimum(data, rho=0.1, seed=3)
        w = built.blocks[0].w_tilde / np.linalg.norm(built.blocks[0].w_tilde)
        assert abs(w @ first) < 1.0 - 1e-6          # the normal was redrawn
        assert mse(built.params, data) <= 1e-18
        assert mce(built.params, data) == 0.0

    def test_outside_sample_in_group_span_is_refused(self):
        data = _two_positives_and(_in_group_span)
        with pytest.raises(DegenerateData, match="passes through an outside sample"):
            build_global_minimum(data, rho=0.1, seed=3)

    def test_pinned_build_digest(self):
        # W and z of built cases, type and message of refused ones, to the last bit
        # (numpy 2.4, bundled OpenBLAS, x86-64): a change to the construction's
        # arithmetic, to its random draws or to which inputs it refuses shows here.
        repeated = Dataset(X=np.array([[1.0, 1.0, 0.3], [2.0, 2.0, -1.0], [0.5, 0.5, 0.7]]),
                           y=np.array([1.0, 1.0, 0.0]))
        flat = Dataset(X=np.random.default_rng(21).standard_normal((3, 8)),
                       y=np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))
        flat.X[:, 4] = 0.3 * flat.X[:, 0] - 1.2 * flat.X[:, 1]
        cases = [
            (gen_gaussian_dataset(3, 10, seed=40), 0.0, None),
            (gen_gaussian_dataset(5, 40, seed=41), 0.1, 30),
            (gen_gaussian_dataset(8, 60, seed=42), 0.5, None),
            (_two_positives_and(_on_first_candidate), 0.1, None),
            (_two_positives_and(_on_first_candidate), 0.0, 12),
            (_two_positives_and(_in_group_span), 0.1, None),
            (flat, 0.0, None),
            (repeated, 0.0, None),
        ]
        h = hashlib.sha256()
        for k, (data, rho, target_d1) in enumerate(cases):
            try:
                built = build_global_minimum(data, rho=rho, target_d1=target_d1, seed=k)
            except DegenerateData as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
            else:
                h.update(built.params.W.tobytes())
                h.update(built.params.z.tobytes())
        assert h.hexdigest() == (
            "ef24ac5381f7e8385dfde2ec02a85a87bc17365d08c5a4d43284e04f3fcbe499")

    @pytest.mark.slow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pinned_refusal_sweep(self):
        # 3000 datasets with planted defects (tests/_sweep.py): every build and
        # refusal to the last bit, and how many inputs each refusal rule takes,
        # so a contract change shows which rule moved
        digest, outcomes = sweep(seed=1, count=3000)
        assert dict(outcomes) == {"built": 808, "rank": 733, "conditioning": 255,
                                  "outside-sample": 971, "budget": 233}
        assert digest == "88f8b6863fa74a19e9ed23e88e15b70447d51cdec404b1f9b8322faa4dd97752"


def _compare_with_per_block(data, rho, target_d1, seed):
    """Build both ways and assert equal bits or the same refusal; returns the reference."""
    try:
        ref = build_global_minimum_per_block(data, rho, target_d1, seed)
    except LandscapeError as exc:
        with pytest.raises(LandscapeError) as got:
            build_global_minimum(data, rho, target_d1, seed)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return exc
    got = build_global_minimum(data, rho, target_d1, seed)
    for a, b in [(got.params.W, ref.params.W), (got.params.z, ref.params.z),
                 (got.yhat, ref.yhat)]:
        assert same_bits(a, b)
    assert repr(got.min_neural_input) == repr(ref.min_neural_input)
    assert got.d1_star == ref.d1_star
    assert len(got.blocks) == len(ref.blocks)
    for g, r in zip(got.blocks, ref.blocks):
        assert g.indices == r.indices
        assert same_bits(g.w_tilde, r.w_tilde) and same_bits(g.w_hat, r.w_hat)
        assert (type(g.eps1), g.eps1.hex()) == (type(r.eps1), r.eps1.hex())
        assert (type(g.eps2), g.eps2.hex()) == (type(r.eps2), r.eps2.hex())
    return ref


def _corrupt(rng, X, groups, negatives):
    """Make random groups redraw or fail; returns the groups given a failing defect."""
    failing = set()
    for _ in range(int(rng.integers(1, 5))):
        j = int(rng.integers(len(groups)))
        g, n = groups[j], int(rng.choice(negatives))
        kind = int(rng.integers(4))
        if kind == 0:       # an outside sample in the group's span: no normal avoids it
            X[:, n] = X[:, g] @ rng.standard_normal(len(g))
            failing.add(j)
        elif kind == 1:     # an outside sample on the first candidate's hyperplane
            g = groups[-1]  # whose null space, if the group is short, leaves room to redraw
            X[:, n] = X[:, g[0]] + nullspace_basis(X[:, g].T)[:, 0]
        elif kind == 2 and len(g) > 1:      # a repeated positive sample: rank loss
            X[:, g[1]] = X[:, g[0]]
            failing.add(j)
        else:               # a vanishing positive sample: an ill-conditioned bordered solve
            X[:, g[0]] *= 1e-14
            failing.add(j)
    return failing


class TestStackedMatchesPerBlock:
    """The stacked build is the per-block builder's, bit for bit, refusals included."""

    def test_generic_builds(self):
        rng = np.random.default_rng(50)
        seen = {"short last group": 0, "padded": 0, "several stacked groups": 0}
        for k in range(360):
            d0 = int(rng.integers(2, 13))
            N = int(rng.integers(1, 15 * d0 + 2))
            rho = [0.0, -0.0, 0.1, 0.5][k % 4]
            data = gen_gaussian_dataset(d0, N, seed=int(rng.integers(1 << 31)))
            if k % 5 == 1:      # an F-ordered X
                data = Dataset(X=np.asfortranarray(data.X), y=data.y)
            groups = partition_positive(data.y, d0)
            target_d1 = 4 * len(groups) + int(rng.integers(0, 9)) if k % 3 == 0 else None
            built = _compare_with_per_block(data, rho, target_d1, k)
            if not isinstance(built, Exception):
                seen["short last group"] += bool(groups) and len(groups[-1]) < d0 - 1
                seen["padded"] += target_d1 is not None and target_d1 > built.d1_star
                seen["several stacked groups"] += sum(len(g) == d0 - 1 for g in groups) > 1
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("d0, N, count", [(20, 200, 4), (5, 400, 4), (50, 1000, 2)])
    def test_benchmark_shapes(self, d0, N, count):
        rng = np.random.default_rng(d0)
        for k in range(count):
            y = rng.permutation(np.arange(N) < N // 2).astype(float)
            _compare_with_per_block(Dataset(X=rng.standard_normal((d0, N)), y=y), 0.0, None, k)

    def test_redraws_and_refusals(self):
        rng = np.random.default_rng(51)
        seen = {"redrawn": 0, "refused with several failing groups": 0}
        messages = set()
        for k in range(240):
            d0 = int(rng.integers(3, 9))
            N = int(rng.integers(2 * d0, 12 * d0))
            X = rng.standard_normal((d0, N))
            y = (rng.random(N) < 0.5).astype(float)
            negatives = np.flatnonzero(y == 0.0)
            groups = partition_positive(y, d0)
            if not groups or not negatives.size:
                continue
            failing = _corrupt(rng, X, groups, negatives)
            data = Dataset(X=X, y=y)
            rho = [0.0, -0.0, 0.1, 0.5][k % 4]
            target_d1 = 4 * len(groups) + 3 if k % 2 else None
            built = _compare_with_per_block(data, rho, target_d1, k)
            if isinstance(built, Exception):
                messages.add(str(built).split(" ")[0])
                seen["refused with several failing groups"] += len(failing) > 1
            else:
                for block in built.blocks:
                    first = canonical_sign(nullspace_basis(X[:, list(block.indices)].T)[:, -1])
                    w = block.w_tilde / np.linalg.norm(block.w_tilde)
                    seen["redrawn"] += bool(abs(w @ first) < 1.0 - 1e-9)
        assert min(seen.values()) >= 10, seen
        # the group hyperplane, rank and bordered-solve refusals all occur
        assert {"a", "rank(M)", "smallest"} <= messages, messages


def _compare_with_bordered(data, rho, target_d1, seed):
    """Whether both builds accept; if so, equal widths and groups, W and z to 1e-10 of their max."""
    try:
        ref = build_global_minimum_bordered(data, rho, target_d1, seed)
        got = build_global_minimum(data, rho, target_d1, seed)
    except DegenerateData:
        return False
    assert got.d1_star == ref.d1_star
    assert [b.indices for b in got.blocks] == [b.indices for b in ref.blocks]
    for a, b in [(got.params.W, ref.params.W), (got.params.z, ref.params.z)]:
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-10 * np.max(np.abs(b), initial=0.0)
    return True


class TestMatchesBordered:
    """The minimum-norm w_hat is the bordered solve's up to rounding, and the
    conditioning refusal keeps the bordered solve's message."""

    def test_generic_builds(self):
        rng = np.random.default_rng(60)
        compared = 0
        for k in range(220):
            d0 = int(rng.integers(2, 31))
            N = int(rng.integers(1, 15 * d0 + 2))
            data = gen_gaussian_dataset(d0, N, seed=int(rng.integers(1 << 31)))
            target_d1 = 4 * N if k % 3 == 0 else None
            compared += _compare_with_bordered(data, [0.0, 0.1, 0.5][k % 3], target_d1, k)
        assert compared >= 200, compared

    @pytest.mark.parametrize("d0, N, count", [(20, 200, 6), (5, 400, 6), (50, 1000, 4)])
    def test_benchmark_shapes(self, d0, N, count):
        rng = np.random.default_rng(100 + d0)
        compared = 0
        for k in range(count):
            y = rng.permutation(np.arange(N) < N // 2).astype(float)
            data = Dataset(X=rng.standard_normal((d0, N)), y=y)
            compared += _compare_with_bordered(data, 0.0, None, k)
        assert compared >= count - 1, compared

    @pytest.mark.parametrize("scale", [1e-14, 1e13], ids=["small-sample", "large-sample"])
    def test_conditioning_refusal(self, scale):
        # a group of one sample: the bordered system's singular values are
        # |x| and 1, below 1e-12 of each other on either side
        X = np.random.default_rng(61).standard_normal((3, 6))
        X[:, 0] *= scale
        data = Dataset(X=X, y=np.array([1.0, 0, 0, 0, 0, 0]))
        with pytest.raises(DegenerateData) as ref:
            build_global_minimum_bordered(data, 0.0, seed=0)
        with pytest.raises(DegenerateData) as got:
            build_global_minimum(data, 0.0, seed=0)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith("smallest singular value")


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_column_keeps_its_angle(self):
        # the angle of a column does not depend on its length, even past the
        # length whose sum of squares overflows
        X = np.random.default_rng(5).standard_normal((3, 4))
        W = np.random.default_rng(6).standard_normal((2, 3))
        huge = X.copy()
        huge[:, 2] *= 1e200
        np.testing.assert_allclose(angular_margin(huge, W).sin_alpha,
                                   angular_margin(X, W).sin_alpha, rtol=1e-14)

    def test_certificate_type(self):
        cert = angular_margin(np.eye(2), np.eye(2))
        assert isinstance(cert, MarginCertificate)

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from _oracles import (
    coherence_hits_direct,
    margin_conditioned_columns,
    sign_pattern_three_step,
    three_sigma,
)
from landscape.bounds import beta_angle_bounds
from landscape import volume
from landscape.errors import DegenerateData, DomainError
from landscape.network import activation_slopes
from landscape.volume import (
    MCEstimate,
    RegionSpec,
    coherence,
    estimate_angular_volume,
    estimate_coherence_tail,
    estimate_global_region_volume,
    estimate_margin_probability,
    estimate_orthant_probability,
    block_rng,
    wilson_interval,
)

TRIALS = 40_000


class TestWilsonInterval:
    def test_contains_estimate(self):
        lo, hi = wilson_interval(37, 100)
        assert lo <= 0.37 <= hi

    def test_degenerate_counts_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert 0.0 <= lo <= 1e-12 and 0.0 < hi < 0.2
        lo, hi = wilson_interval(50, 50)
        assert 0.8 < lo < 1.0 and 1.0 - 1e-12 <= hi <= 1.0

    def test_coverage_on_halfspace_experiments(self):
        # 100 repeated halfspace estimates at 1e4 trials each; the interval
        # should cover the true value 0.5 at least 93 times
        x = np.array([1.0, 0.0])
        region = RegionSpec.custom(lambda W: bool((W[0] @ x) > 0), d1=1, d0=2)
        covered = 0
        for rep in range(100):
            est = estimate_angular_volume(region, 10_000, seed=10_000 + rep, workers=1)
            covered += est.ci_low <= 0.5 <= est.ci_high
        assert covered >= 93


class TestAngularVolume:
    def test_halfspace_probability(self):
        x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        region = RegionSpec.custom(lambda W: bool((W[0] @ x) > 0), d1=1, d0=2)
        est = estimate_angular_volume(region, TRIALS, seed=7)
        assert abs(est.estimate - 0.5) <= three_sigma(0.5, TRIALS)

    def test_full_space(self):
        region = RegionSpec.custom(lambda W: True, d1=2, d0=3)
        est = estimate_angular_volume(region, 500, seed=1)
        assert est.estimate == 1.0 and est.hits == 500

    def test_pattern_region_matches_exact_planar_wedge(self):
        # d1 = 1, d0 = 2, N = 2: the region is a planar cone whose exact
        # probability is its opening angle divided by 2 pi
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2, 2))
        W0 = rng.standard_normal((1, 2))
        A = activation_slopes(W0 @ X, 0.5)
        signs = np.where(A[0] == 1.0, 1.0, -1.0)
        u1, u2 = signs[0] * X[:, 0], signs[1] * X[:, 1]
        angle = math.pi - math.acos(
            float(u1 @ u2) / (np.linalg.norm(u1) * np.linalg.norm(u2))
        )
        exact = angle / (2.0 * math.pi)
        region = RegionSpec.from_activation_pattern(A, X)
        est = estimate_angular_volume(region, TRIALS, seed=9)
        assert abs(est.estimate - exact) <= three_sigma(exact, TRIALS)

    def test_deterministic_across_worker_counts(self):
        x = np.array([0.3, -1.2, 0.7])
        region = RegionSpec.custom(lambda W: bool((W[0] @ x) > 0), d1=1, d0=3)
        estimates = [
            estimate_angular_volume(region, 9_999, seed=42, workers=w) for w in (1, 2, 8)
        ]
        assert estimates[0] == estimates[1] == estimates[2]

    def test_estimate_fields(self):
        region = RegionSpec.custom(lambda W: bool(W[0, 0] > 0), d1=1, d0=1)
        est = estimate_angular_volume(region, 1_000, seed=3)
        assert isinstance(est, MCEstimate)
        assert est.trials == 1_000 and est.seed == 3
        assert est.ci_low <= est.estimate <= est.ci_high
        assert est.estimate == est.hits / est.trials


class TestGlobalRegionVolume:
    def test_single_sign_constraint(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((3, 1))
        Wstar = rng.standard_normal((1, 3))
        est = estimate_global_region_volume(X, Wstar, 1, TRIALS, seed=13)
        assert abs(est.estimate - 0.5) <= three_sigma(0.5, TRIALS)

    def test_two_rows_one_column(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((3, 1))
        Wstar = rng.standard_normal((2, 3))
        est = estimate_global_region_volume(X, Wstar, 2, TRIALS, seed=14)
        assert abs(est.estimate - 0.25) <= three_sigma(0.25, TRIALS)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((3, 4))
        Wstar = rng.standard_normal((2, 3))
        est = estimate_global_region_volume(X, Wstar, 2, 5_000, seed=15)
        X2 = X * rng.uniform(0.5, 3.0, size=4)[None, :]
        W2 = Wstar * rng.uniform(0.5, 3.0, size=2)[:, None]
        est2 = estimate_global_region_volume(X2, W2, 2, 5_000, seed=15)
        assert est == est2

    def test_margin_conditioned_lower_bound_chain(self):
        # single-row sign-match probability against the halved two-sided
        # beta lower bound, for datasets inside the margin set
        for d0, alpha_deg, seed in ((3, 60.0, 21), (4, 70.0, 22)):
            alpha = math.radians(alpha_deg)
            w_unit = np.zeros(d0)
            w_unit[0] = 1.0
            X = margin_conditioned_columns(d0, 5, math.sin(alpha), w_unit, seed=seed)
            est = estimate_global_region_volume(X, w_unit[None, :], 1, TRIALS, seed=seed + 1)
            one_sided = beta_angle_bounds(d0, alpha, "lower") / 2.0
            assert est.estimate >= one_sided - three_sigma(max(est.estimate, 1e-3), TRIALS)


class TestOrthantProbability:
    def test_scalar_case(self):
        est = estimate_orthant_probability(1, 1, 1, TRIALS, seed=23)
        assert abs(est.estimate - 0.5) <= three_sigma(0.5, TRIALS)

    def test_two_by_one(self):
        est = estimate_orthant_probability(2, 1, 1, TRIALS, seed=29)
        assert abs(est.estimate - 0.25) <= three_sigma(0.25, TRIALS)

    def test_probability_capped(self):
        est = estimate_orthant_probability(4, 2, 2, 2_000, seed=31)
        assert 0.0 <= est.estimate <= 1.0

    @pytest.mark.parametrize("N, M, L", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_empty_factor_rejected(self, N, M, L):
        with pytest.raises(ValueError, match="at least 1"):
            estimate_orthant_probability(N, M, L, 10, seed=1)


class TestCoherence:
    def test_orthogonal_columns(self):
        assert coherence(np.eye(2)) == 0.0

    def test_duplicate_column(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert coherence(A) == pytest.approx(1.0)

    def test_forty_five_degrees(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert coherence(A) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(DegenerateData, match="coherence undefined with a zero column"):
            coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("A", [np.ones((3, 1)), np.ones(3)], ids=["one-column", "vector"])
    def test_fewer_than_two_columns_is_a_domain_error(self, A):
        with pytest.raises(DomainError, match="two columns"):
            coherence(A)


class TestCoherenceTail:
    def test_eps_one_never_exceeded(self):
        est = estimate_coherence_tail(5, 3, 1.0, 2_000, seed=37)
        assert est.estimate == 0.0

    def test_eps_zero_always_exceeded(self):
        est = estimate_coherence_tail(5, 3, 0.0, 2_000, seed=41)
        assert est.estimate == 1.0

    def test_tail_below_closed_form_bound(self):
        est = estimate_coherence_tail(2000, 5, 0.3, 2_000, seed=43)
        assert est.estimate <= 0.0277 + three_sigma(0.0277, 2_000)

    def test_one_row_is_always_coherent(self):
        # any two nonzero scalars are parallel
        assert estimate_coherence_tail(1, 4, 0.999, 2_000, seed=44).estimate == 1.0

    @pytest.mark.parametrize("M, eps", [(2, 0.5), (3, 0.5), (10, 0.3), (50, 0.2), (2000, 0.03)])
    def test_two_columns_match_the_exact_tail(self, M, eps):
        # cos^2 of two Gaussian columns is Beta(1/2, (M - 1)/2), so
        # P(|cos| > eps) = I_{1 - eps^2}((M - 1)/2, 1/2); within 5 binomial sigma
        trials = 200_000
        p = betainc((M - 1) / 2, 0.5, 1.0 - eps * eps)
        hits = estimate_coherence_tail(M, 2, eps, trials, seed=M).hits
        assert abs(hits - trials * p) <= 5 * math.sqrt(trials * p * (1.0 - p))

    @pytest.mark.parametrize("M, N, eps", [(5, 3, 0.8), (10, 4, 0.6), (200, 6, 0.2),
                                           (2, 5, 0.95), (3, 6, 0.9)])
    def test_matches_whole_gaussian_draws(self, M, N, eps):
        # two-sample z within 5 against matrices drawn whole, M < N included
        trials = 40_000
        hits = estimate_coherence_tail(M, N, eps, trials, seed=45).hits
        direct = coherence_hits_direct(M, N, eps, trials, seed=46)
        p = (hits + direct) / (2 * trials)
        assert abs(hits - direct) <= 5 * math.sqrt(2 * trials * p * (1.0 - p))

    def test_cost_does_not_grow_with_m(self):
        # a trial draws its 5 x 5 factor; the Gaussian 2^62 x 5 matrix would not fit in memory
        estimate_coherence_tail(2**62, 5, 1e-3, 1, seed=47, workers=1)   # first-call set-up
        tracemalloc.start()
        try:
            estimate_coherence_tail(2**62, 5, 1e-3, 20_000, seed=47, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMarginProbability:
    def test_zero_threshold_always_met(self):
        Wstar = np.array([[1.0, 0.0, 0.0]])
        est = estimate_margin_probability(Wstar, 4, 0.0, 2_000, seed=47)
        assert est.estimate == 1.0

    def test_unit_threshold_never_met(self):
        Wstar = np.array([[1.0, 0.0, 0.0]])
        est = estimate_margin_probability(Wstar, 4, 1.0, 2_000, seed=53)
        assert est.estimate == 0.0

    def test_single_column_complement_of_beta_upper(self):
        Wstar = np.array([[1.0, 0.0, 0.0]])
        est = estimate_margin_probability(Wstar, 1, 0.1, TRIALS, seed=59)
        lower = 1.0 - beta_angle_bounds(3, 0.1, "upper")
        assert est.estimate >= lower - three_sigma(0.9, TRIALS)

    def test_zero_weight_row_rejected(self):
        with pytest.raises(DegenerateData, match="margin undefined with a zero weight row"):
            estimate_margin_probability(np.array([[1.0, 0.0], [0.0, 0.0]]), 3, 0.1, 10, seed=1)


@st.composite
def _instances(draw):
    """Gaussian (W, X) with d1 rows, d0 inputs and N samples; no pre-activation is zero."""
    d1, d0, N = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((d1, d0)), rng.standard_normal((d0, N)), rng


class TestSignRegionRule:
    """One boundary rule for every pattern region: open, so P == 0 is outside."""

    @settings(deadline=None)
    @given(_instances(), st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4))
    def test_positive_row_scaling_stays_inside(self, instance, factors):
        W, X, _ = instance
        region = RegionSpec.from_activation_pattern(activation_slopes(W @ X, 0.5), X)
        scales = np.array(factors[:W.shape[0]])[:, None]
        assert region.predicate(W)
        assert region.predicate(scales * W)

    @settings(deadline=None)
    @given(_instances(), st.integers(0, 10**6))
    def test_one_flipped_sign_is_outside(self, instance, pick):
        W, X, _ = instance
        A = activation_slopes(W @ X, 0.5)
        i, n = np.unravel_index(pick % A.size, A.shape)
        A[i, n] = 0.5 if A[i, n] == 1.0 else 1.0
        assert not RegionSpec.from_activation_pattern(A, X).predicate(W)

    @settings(deadline=None)
    @given(_instances(), st.integers(0, 10**6))
    def test_exact_zero_preactivation_is_outside(self, instance, pick):
        W, X, _ = instance
        W[pick % W.shape[0]] = 0.0
        A = activation_slopes(W @ X, 0.5)  # slope 1 at the zeros
        assert not RegionSpec.from_activation_pattern(A, X).predicate(W)
        assert not RegionSpec.from_sign_match(X, W).predicate(W)

    def test_sign_match_width_below_rows_is_a_domain_error(self):
        X, Wstar = np.eye(3), np.ones((2, 3))
        with pytest.raises(DomainError, match="d1 must cover every row"):
            RegionSpec.from_sign_match(X, Wstar, d1=1)

    @settings(deadline=None)
    @given(_instances())
    def test_pattern_and_sign_match_constructors_agree(self, instance):
        W0, X, rng = instance
        by_pattern = RegionSpec.from_activation_pattern(activation_slopes(W0 @ X, 0.5), X)
        by_sign = RegionSpec.from_sign_match(X, W0)
        zero_row = W0.copy()
        zero_row[0] = 0.0
        for W in (W0, W0 + 0.3 * rng.standard_normal(W0.shape),
                  rng.standard_normal(W0.shape), zero_row):
            assert by_pattern.predicate(W) == by_sign.predicate(W)

    def test_one_product_comparison_matches_the_three_step_rule(self):
        # X = [[1]] makes each W its own pre-activation, so the grid reaches
        # the predicate as it is: signed zeros, subnormals, infinities, NaN
        grid = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1.0, -2.5]
        P = np.array(list(itertools.product(grid, repeat=2)))[:, :, None]
        for signs in itertools.product([-1.0, 0.0, 1.0, math.nan], repeat=2):
            signs = np.array(signs)[:, None]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)   # inf * 0 is NaN
                inside = volume._sign_region(np.ones((1, 1)), signs, 2)(P)
            np.testing.assert_array_equal(inside, sign_pattern_three_step(P, signs))


class TestBlockStreams:
    def test_block_rng_is_reproducible_and_distinct(self):
        a = block_rng(5, 0).standard_normal(4)
        b = block_rng(5, 0).standard_normal(4)
        c = block_rng(5, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_hits_follow_block_draws(self):
        # the per-trial loop over each block's one array draw is the reference
        trials, size = 20_000, volume._BLOCK_VALUES // 2
        hits = 0
        for b in range(-(-trials // size)):
            n = min(size, trials - b * size)
            for C, B in block_rng(61, b).standard_normal((n, 2)):
                hits += C * B > 0.0
        assert estimate_orthant_probability(1, 1, 1, trials, seed=61).hits == hits

    def test_coherence_block_stays_under_draw_cap(self):
        # one M = 2000, N = 5 trial draws its 5 x 5 factor, not the 10^4
        # values of the Gaussian matrix, which would peak above 5 MB at 64
        # trials a block
        M, N = 2000, 5
        estimate_coherence_tail(M, N, 0.3, 1, seed=67, workers=1)   # first-call set-up
        tracemalloc.start()
        try:
            estimate_coherence_tail(M, N, 0.3, 64, seed=67, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * M * N


def _stack(draw, rows, cols):
    """A (B, rows, cols) Gaussian stack, some matrices with an exact-zero row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.standard_normal((draw(st.integers(1, 6)), rows, cols))
    for k in draw(st.lists(st.integers(0, stack.shape[0] - 1), max_size=3)):
        stack[k, draw(st.integers(0, rows - 1))] = 0.0
    return stack, rng


@st.composite
def _region_stacks(draw):
    d1, d0, N = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    stack, rng = _stack(draw, d1, d0)
    X = rng.standard_normal((d0, N))
    W0 = rng.standard_normal((d1, d0))
    x = rng.standard_normal(d0)
    regions = [
        RegionSpec.from_activation_pattern(activation_slopes(W0 @ X, 0.5), X),
        RegionSpec.from_sign_match(X, W0[:max(1, d1 - 1)], d1=d1),
        RegionSpec.custom(lambda W: bool(W[0] @ x > 0.0), d1=d1, d0=d0),
    ]
    return stack, regions


@st.composite
def _matrix_stacks(draw, min_cols=1):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(min_cols, 5))
    return _stack(draw, rows, cols)


class TestBatchedEvents:
    """Each event gives the same answer on a stack as on each of its matrices."""

    @settings(deadline=None)
    @given(_region_stacks())
    def test_region_predicates(self, instance):
        stack, regions = instance
        for region in regions:
            batched = region.predicate(stack)
            assert batched.shape == (len(stack),)
            assert list(batched) == [bool(region.predicate(W)) for W in stack]

    @settings(deadline=None)
    @given(_matrix_stacks(min_cols=2))
    def test_coherence(self, instance):
        stack, _ = instance
        nonzero = stack[np.all(np.any(stack != 0.0, axis=-2), axis=-1)]
        if len(nonzero):
            assert list(coherence(nonzero)) == [coherence(A) for A in nonzero]

    @settings(deadline=None)
    @given(_matrix_stacks(), st.integers(1, 4))
    def test_orthant(self, instance, L):
        C, rng = instance
        B = rng.standard_normal((len(C), C.shape[2], L))
        B[0] = 0.0
        batched = volume._orthant(C, B)
        assert list(batched) == [volume._orthant(c, b) for c, b in zip(C, B)]

    @settings(deadline=None)
    @given(_matrix_stacks(), st.integers(1, 3))
    def test_margin(self, instance, rows):
        X, rng = instance
        X = X[np.all(np.any(X != 0.0, axis=-2), axis=-1)]
        U = rng.standard_normal((rows, X.shape[1]))
        U[0] = 0.0
        if len(X):
            assert list(volume._margin(U, X)) == [volume._margin(U, x) for x in X]


def _six_kinds():
    x = np.array([0.2, -0.7, 1.1])
    rng = np.random.default_rng(71)
    X, Wstar = rng.standard_normal((3, 4)), rng.standard_normal((2, 3))
    region = RegionSpec.from_activation_pattern(activation_slopes(Wstar @ X, 0.5), X)
    custom = RegionSpec.custom(lambda W: bool((W[0] @ x) > 0), d1=1, d0=3)
    return {
        "angular": lambda t, w: estimate_angular_volume(region, t, 13, w),
        "sign_match": lambda t, w: estimate_global_region_volume(X, Wstar, 3, t, 14, w),
        "orthant": lambda t, w: estimate_orthant_probability(2, 2, 2, t, 15, w),
        "custom": lambda t, w: estimate_angular_volume(custom, t, 16, w),
        "coherence": lambda t, w: estimate_coherence_tail(30, 4, 0.5, t, 17, w),
        "margin": lambda t, w: estimate_margin_probability(np.eye(3)[:1], 2, 0.2, t, 18, w),
    }


@pytest.mark.parametrize("kind", sorted(_six_kinds()))
@pytest.mark.parametrize("block_values", [volume._BLOCK_VALUES, 4], ids=["default", "pooled"])
def test_bit_identical_at_any_worker_count(monkeypatch, kind, block_values):
    # a cap below one trial's draw makes every block one trial, run by the pool
    monkeypatch.setattr(volume, "_BLOCK_VALUES", block_values)
    estimate = _six_kinds()[kind]
    runs = [estimate(1_001, w) for w in (1, 2, 8)]
    assert runs[0] == runs[1] == runs[2]


def test_pool_runs_only_for_large_draws(monkeypatch):
    pools = []

    class Recording(volume.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(volume, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(volume.os, "cpu_count", lambda: 8)
    half = volume._BLOCK_VALUES // 2
    estimate_orthant_probability(2, 2, 2, 50_000, seed=1, workers=4)
    estimate_margin_probability(np.ones((1, half)), 2, 0.5, 3, seed=1, workers=4)
    assert pools == []
    estimate_margin_probability(np.ones((1, volume._BLOCK_VALUES + 1)), 1, 0.5, 3, seed=1,
                                workers=4)
    assert pools == [3]


def test_pool_size_clamps_to_cpus_and_blocks(monkeypatch):
    pools = []

    class Recording:          # records the pool size and runs no block
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *spans):
            return [0]

    monkeypatch.setattr(volume, "ThreadPoolExecutor", Recording)
    no_hit = lambda W: np.zeros(len(W), dtype=bool)
    shape = (volume._BLOCK_VALUES + 1,)      # one trial per block
    for workers, blocks, cpus, threads in [(100_000, 400_000, 2, 2), (100_000, 3, 64, 3),
                                           (4, 16, 64, 4), (8, 32, None, 1)]:
        monkeypatch.setattr(volume.os, "cpu_count", lambda: cpus)
        pools.clear()
        assert volume._estimate(no_hit, shape, blocks, 1, workers).hits == 0
        assert pools == ([threads] if threads > 1 else [])


class TestEmptyShapes:
    """A zero-size axis or a non-finite threshold is refused with DomainError before any draw."""

    @pytest.mark.parametrize("call", [
        lambda: estimate_coherence_tail(0, 3, 0.5, 10, seed=1),
        lambda: estimate_coherence_tail(5, 1, 0.5, 10, seed=1),
        lambda: estimate_margin_probability(np.eye(3)[:1], 0, 0.2, 10, seed=1),
        lambda: estimate_margin_probability(np.zeros((0, 3)), 2, 0.2, 10, seed=1),
        lambda: estimate_margin_probability(np.zeros((1, 0)), 2, 0.2, 10, seed=1),
        lambda: estimate_global_region_volume(np.ones((3, 0)), np.ones((1, 3)), 1, 10, seed=1),
        lambda: estimate_global_region_volume(np.ones((3, 2)), np.ones((0, 3)), 2, 10, seed=1),
        lambda: RegionSpec.from_activation_pattern(np.ones((2, 0)), np.ones((3, 0))),
        lambda: RegionSpec.from_activation_pattern(np.ones((2, 4)), np.ones((0, 4))),
        lambda: RegionSpec.custom(lambda W: True, d1=0, d0=3),
        lambda: estimate_angular_volume(RegionSpec.custom(lambda W: True, 1, 1), 0, seed=1),
        lambda: estimate_coherence_tail(5, 3, math.nan, 10, seed=1),
        lambda: estimate_coherence_tail(5, 3, -math.inf, 10, seed=1),
        lambda: estimate_margin_probability(np.eye(3)[:1], 4, math.nan, 10, seed=1),
        lambda: estimate_margin_probability(np.eye(3)[:1], 4, math.inf, 10, seed=1),
    ], ids=["coherence-m0", "coherence-n1", "margin-n0", "margin-no-rows", "margin-d0-0",
            "global-n0", "global-no-rows", "pattern-n0", "pattern-d0-0", "custom-d1-0",
            "trials-0", "coherence-eps-nan", "coherence-eps-minus-inf", "margin-sin-alpha-nan",
            "margin-sin-alpha-inf"])
    def test_rejected(self, monkeypatch, call):
        monkeypatch.setattr(volume, "block_rng", None)   # any draw would fail differently
        with pytest.raises(DomainError):
            call()


def test_trials_past_two_to_the_64_blocks_refused_before_any_draw(monkeypatch):
    # a block's index is one 64-bit word of its stream's key
    monkeypatch.setattr(volume, "block_rng", None)   # any draw would fail differently
    size = volume._BLOCK_VALUES // 14       # orthant (4, 2, 3) draws 14 values a trial
    limit = re.escape(f"trials must be at most {size << 64} (2^64 blocks of {size}), got ")
    for trials in (size << 64) + 1, 10**400:
        with pytest.raises(DomainError, match=f"^{limit}{trials}$"):
            estimate_orthant_probability(4, 2, 3, trials, seed=2)
    no_hit = lambda W: np.zeros(len(W), dtype=bool)
    heavy = (volume._BLOCK_VALUES + 1,)     # one trial a block
    limit = re.escape(f"trials must be at most {1 << 64} (2^64 blocks of 1), got ")
    with pytest.raises(DomainError, match=f"^{limit}{(1 << 64) + 1}$"):
        volume._estimate(no_hit, heavy, (1 << 64) + 1, 1, 1)


@pytest.mark.parametrize("blocks", [(1 << 53) + 1, 1 << 64], ids=["2^53+1", "2^64"])
def test_pool_hands_each_block_to_exactly_one_worker(monkeypatch, blocks):
    spans = []

    class Recording:          # records each worker's blocks and runs none
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, count, worker_spans):
            spans.extend(worker_spans)
            return [0]

    monkeypatch.setattr(volume, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(volume, "block_rng", None)   # any draw would fail differently
    monkeypatch.setattr(volume.os, "cpu_count", lambda: 2)
    no_hit = lambda W: np.zeros(len(W), dtype=bool)
    heavy = (volume._BLOCK_VALUES + 1,)     # one trial a block
    assert volume._estimate(no_hit, heavy, blocks, 1, 2).hits == 0
    assert len(spans) == 2
    # len() of a range stops at 2^63 - 1
    assert sum((r[-1] - r[0]) // r.step + 1 for r in spans if r) == blocks
    assert all(0 <= r[0] and r[-1] < blocks for r in spans if r)
    for b in 0, 1, (1 << 53) - 1, 1 << 53, blocks - 2, blocks - 1:
        assert sum(b in r for r in spans) == 1


@pytest.mark.parametrize("seed", [1 << 64, (1 << 64) + 5, -1, 2.0, True])
def test_seed_outside_one_key_word_refused_before_any_draw(monkeypatch, seed):
    monkeypatch.setattr(volume, "block_rng", None)   # any draw would fail differently
    with pytest.raises(DomainError, match=r"^seed must be an integer in \[0, 2\^64\), got "):
        estimate_orthant_probability(1, 1, 1, 1000, seed=seed)


def test_largest_seed_is_drawn():
    top = estimate_orthant_probability(1, 1, 1, 1000, seed=(1 << 64) - 1)
    assert top.seed == (1 << 64) - 1 and 0 < top.hits < 1000


def test_resolve_workers(monkeypatch):
    from landscape.volume import resolve_workers

    monkeypatch.setattr(volume.os, "cpu_count", lambda: 8)
    assert resolve_workers(5) == 5
    assert resolve_workers(0) == 1
    assert resolve_workers() == 8
    assert resolve_workers(10**9) == 8

import math

import numpy as np
import pytest

from _oracles import margin_conditioned_columns, three_sigma
from landscape.bounds import beta_angle_bounds
from landscape.errors import ZeroColumn
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
    trial_rng,
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
        with pytest.raises(ZeroColumn):
            coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))


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


class TestTrialStreams:
    def test_trial_rng_is_reproducible_and_distinct(self):
        a = trial_rng(5, 0).standard_normal(4)
        b = trial_rng(5, 0).standard_normal(4)
        c = trial_rng(5, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def test_pool_size_clamps_to_cpus_and_trials():
    from landscape.volume import _pool_size

    assert _pool_size(100_000, 400_000, 2) == 2
    assert _pool_size(100_000, 3, 64) == 3
    assert _pool_size(4, 16, 64) == 4
    assert _pool_size(8, 32, None) == 1


def test_worker_env_override(monkeypatch):
    from landscape.volume import resolve_workers

    monkeypatch.setenv("LANDSCAPE_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.delenv("LANDSCAPE_THREADS")
    assert resolve_workers(5) == 5
    assert resolve_workers() >= 1

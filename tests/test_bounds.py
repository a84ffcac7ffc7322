import math

import numpy as np
import pytest

from _oracles import count_dichotomies_lp, count_dichotomies_sweep_2d
from landscape.bounds import (
    BoundInputs,
    beta_angle_bounds,
    coherence_tail_bound,
    delta_probability,
    dichotomy_count_bound,
    find_theta_star,
    g,
    g_inverse,
    gamma_epsilon,
    global_volume_log_lower_bound,
    global_volume_lower_bound,
    orthant_probability_log_bound,
    psi,
    ratio_bound,
    std_normal,
    suboptimal_volume_bound,
    suboptimal_volume_log_bound,
)
from landscape.errors import DomainError

# reference values computed independently with 25-digit arithmetic
PHI0 = 0.39894228040143268
CDF1 = 0.84134474606854295
G1 = 3.4770518117036945
PSI_2325 = 0.10621793256695322
OBJ_2325 = 0.64779776685113155
THETA_STAR = 21.568877476870362
PSI_STAR = 0.11169386415664168
OBJ_STAR = 0.6482507605041875


class TestStdNormal:
    def test_at_zero(self):
        pdf, cdf = std_normal(0.0)
        assert pdf == pytest.approx(PHI0, abs=1e-16)
        assert cdf == 0.5

    def test_at_one(self):
        _, cdf = std_normal(1.0)
        assert cdf == pytest.approx(CDF1, abs=1e-14)

    def test_tail(self):
        _, cdf = std_normal(8.0)
        assert abs(cdf - 1.0) <= 1e-14


class TestGFunction:
    def test_zero(self):
        assert g(0.0) == 0.0
        assert g_inverse(0.0) == 0.0

    def test_at_one(self):
        assert g(1.0) == pytest.approx(G1, rel=1e-12)

    def test_inverse_consistency(self):
        assert g_inverse(G1) == pytest.approx(1.0, abs=1e-8)

    def test_strictly_increasing_on_grid(self):
        # compared in log domain: the value itself leaves double range near x = 38
        from landscape.bounds import log_g

        xs = np.linspace(0.0, 50.0, 1000)
        vals = [log_g(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        finite = [g(float(x)) for x in xs if x < 37.0]
        assert all(b > a for a, b in zip(finite, finite[1:]))

    def test_inverse_of_g_is_identity(self):
        for x in np.linspace(0.01, 20.0, 60):
            assert g_inverse(g(x)) == pytest.approx(x, abs=1e-8)

    def test_overflow_is_infinite_and_inverse_stays_finite(self):
        # g leaves double range near x = 38, where exp(log_g) overflows
        assert g(40.0) == math.inf
        assert math.isfinite(g_inverse(1e300))

    def test_domain(self):
        with pytest.raises(DomainError):
            g(-0.1)
        with pytest.raises(DomainError):
            g_inverse(-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_inverse_rejects_non_finite(self, t):
        with pytest.raises(DomainError):
            g_inverse(t)


class TestPsi:
    def test_value_at_23_25(self):
        assert psi(23.25) == pytest.approx(0.1062, abs=1e-3)
        assert psi(23.25) == pytest.approx(PSI_2325, rel=1e-10)

    def test_small_theta_limit_is_log_two(self):
        assert psi(1e-8) == pytest.approx(math.log(2.0), abs=1e-5)

    def test_objective_at_23_25(self):
        assert psi(23.25) ** 3 * 23.25 ** 2 == pytest.approx(0.6478, abs=2e-3)
        assert psi(23.25) ** 3 * 23.25 ** 2 == pytest.approx(OBJ_2325, rel=1e-10)

    def test_positive_on_grid(self):
        for theta in np.geomspace(1e-6, 1e3, 200):
            assert psi(float(theta)) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            psi(0.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            psi(math.nan)


class TestThetaStar:
    def test_finds_true_maximizer(self):
        star = find_theta_star()
        assert star.theta == pytest.approx(THETA_STAR, abs=1e-4)
        assert star.psi_at_theta == pytest.approx(PSI_STAR, abs=1e-8)
        assert star.objective == pytest.approx(OBJ_STAR, abs=1e-10)

    def test_objective_beats_nearby_points(self):
        star = find_theta_star()
        for theta in (20.0, 21.0, 22.0, 23.25, 25.0):
            assert star.objective >= psi(theta) ** 3 * theta ** 2 - 1e-12

    def test_unimodal_on_bracket(self):
        thetas = np.linspace(1.0, 200.0, 400)
        vals = np.array([psi(float(t)) ** 3 * t * t for t in thetas])
        signs = np.sign(np.diff(vals))
        changes = np.count_nonzero(np.diff(signs[signs != 0]) != 0)
        assert changes == 1


class TestGammaEpsilon:
    def test_relu_boundary_probe(self):
        inputs = BoundInputs(N=2, d0=2, d1=2, epsilon=1.0 - 1e-12, rho=0.0)
        assert gamma_epsilon(inputs) == pytest.approx(0.23, rel=1e-9)

    def test_relu_value(self):
        inputs = BoundInputs(N=2, d0=2, d1=2, epsilon=0.1, rho=0.0)
        assert gamma_epsilon(inputs) == pytest.approx(0.040900426430895224, rel=1e-12)

    def test_leaky_uses_lim_ratio(self):
        inputs = BoundInputs(N=2, d0=2, d1=2, epsilon=0.1, rho=0.1, lim_ratio=0.5)
        assert gamma_epsilon(inputs) == pytest.approx(0.13675881822531292, rel=1e-12)

    def test_relu_ignores_lim_ratio(self):
        inputs = BoundInputs(N=2, d0=2, d1=2, epsilon=0.1, rho=0.0, lim_ratio=0.5)
        assert gamma_epsilon(inputs) == pytest.approx(0.040900426430895224, rel=1e-12)

    def test_bad_leak(self):
        with pytest.raises(DomainError, match="rho must be finite and differ from 1"):
            gamma_epsilon(BoundInputs(N=2, d0=2, d1=2, epsilon=0.1, rho=1.0))

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_leak_rejected(self, rho):
        with pytest.raises(DomainError, match="rho must be finite and differ from 1"):
            BoundInputs(N=2, d0=2, d1=2, epsilon=0.1, rho=rho)


class TestSuboptimalVolumeBound:
    def test_formula_value(self):
        inputs = BoundInputs(N=16, d0=4, d1=4, epsilon=1.0 - 1e-12, rho=0.0)
        assert suboptimal_volume_log_bound(inputs) == pytest.approx(-0.23 * 8 * 2, rel=1e-9)
        assert suboptimal_volume_bound(inputs) == pytest.approx(math.exp(-3.68), rel=1e-9)

    def test_monotone_in_width(self):
        lo = BoundInputs(N=100, d0=10, d1=10, epsilon=0.2, rho=0.0)
        hi = BoundInputs(N=100, d0=10, d1=20, epsilon=0.2, rho=0.0)
        assert suboptimal_volume_bound(hi) < suboptimal_volume_bound(lo)

    def test_log_domain_finite_at_huge_sizes(self):
        inputs = BoundInputs(N=10 ** 9, d0=10 ** 6, d1=10 ** 6, epsilon=0.3, rho=0.0)
        log_value = suboptimal_volume_log_bound(inputs)
        assert math.isfinite(log_value)
        assert suboptimal_volume_bound(inputs) == 0.0  # underflows cleanly

    def test_log_form_shares_gamma_code_path(self):
        inputs = BoundInputs(N=77, d0=9, d1=13, epsilon=0.4, rho=0.2, lim_ratio=0.1)
        expected = -gamma_epsilon(inputs) * 77 ** 0.75 * (13 * 9) ** 0.25
        assert suboptimal_volume_log_bound(inputs) == expected


class TestGlobalVolumeLowerBound:
    def test_two_over_pi(self):
        exact, _ = global_volume_lower_bound(2, 1, 1.0)
        assert exact == pytest.approx(0.63661977236758134, rel=1e-12)

    def test_d0_three_hand_value(self):
        exact, _ = global_volume_lower_bound(3, 1, math.sin(math.radians(60.0)))
        assert exact == pytest.approx(0.375, rel=1e-12)

    def test_monotone_in_margin(self):
        lo, _ = global_volume_lower_bound(4, 2, 0.3)
        hi, _ = global_volume_lower_bound(4, 2, 0.6)
        assert lo < hi

    def test_asymptotic_log(self):
        _, asym = global_volume_lower_bound(5, 3, 0.5)
        assert asym == pytest.approx(5 * 3 * math.log(0.5), rel=1e-12)

    def test_log_form_finite_when_exact_underflows(self):
        log_value = global_volume_log_lower_bound(1000, 1000, 1e-6)
        assert math.isfinite(log_value)

    @pytest.mark.parametrize("d1_star", [0, -1])
    def test_d1_star_below_one_is_a_domain_error(self, d1_star):
        # at d1_star = -1 the product bound would read pi, above any volume
        with pytest.raises(DomainError, match="d1_star"):
            global_volume_lower_bound(2, d1_star, 0.5)


class TestDeltaProbability:
    def test_hand_value(self):
        assert delta_probability(100, 10 ** 4) == pytest.approx(0.16386884421315177, rel=1e-12)

    def test_first_term_decreasing_in_d0(self):
        big_n = 10 ** 9  # second term negligible
        assert delta_probability(400, big_n) < delta_probability(100, big_n)

    def test_small_domain(self):
        value = delta_probability(2, 2)
        assert math.isfinite(value) and value > 0


class TestRatioBound:
    def test_shares_exponent_with_suboptimal(self):
        inputs = BoundInputs(N=50, d0=5, d1=8, epsilon=0.3, rho=0.0)
        log_ratio, companion = ratio_bound(inputs)
        assert log_ratio == suboptimal_volume_log_bound(inputs)
        assert companion == pytest.approx(-gamma_epsilon(inputs) * 50 * math.log(50), rel=1e-12)

    def test_consistency_when_width_matches_samples(self):
        # d0 * d1 = N^2 makes the exponent -gamma * N^(3/4) * sqrt(N)
        inputs = BoundInputs(N=16, d0=16, d1=16, epsilon=0.5, rho=0.0)
        log_ratio, _ = ratio_bound(inputs)
        assert log_ratio == pytest.approx(-gamma_epsilon(inputs) * 16 ** 1.25, rel=1e-12)


class TestDichotomyCountBound:
    def test_three_points_plane(self):
        schlafli, loose = dichotomy_count_bound(3, 2)
        assert schlafli == 6
        assert loose == 18.0

    def test_single_point(self):
        schlafli, _ = dichotomy_count_bound(1, 5)
        assert schlafli == 2

    def test_loose_overflows_to_infinity(self):
        schlafli, loose = dichotomy_count_bound(100_000, 400)
        assert loose == math.inf
        assert schlafli > 0

    def test_dimension_at_least_samples_gives_all(self):
        for N in (1, 2, 5, 9):
            schlafli, _ = dichotomy_count_bound(N, N)
            assert schlafli == 2 ** N

    def test_schlafli_below_loose_on_grid(self):
        for N in (1, 2, 5, 10, 50, 200, 1000):
            for d0 in (1, 2, 3, 7, 20):
                schlafli, loose = dichotomy_count_bound(N, d0)
                assert schlafli <= loose

    def test_matches_binomial_sum_on_grid(self):
        for N in range(1, 41):
            for d0 in range(1, 45):
                schlafli, _ = dichotomy_count_bound(N, d0)
                assert schlafli == 2 * sum(math.comb(N - 1, k) for k in range(min(d0, N)))

    def test_large_count_is_exact(self):
        # C(N-1, k) summed over k < N - 1 misses only C(N-1, N-1) = 1 of 2^(N-1)
        assert dichotomy_count_bound(16000, 16000)[0] == 2 ** 16000
        assert dichotomy_count_bound(16000, 15999)[0] == 2 ** 16000 - 2

    def test_matches_enumeration_oracles(self):
        rng = np.random.default_rng(15)
        for d0, N in ((2, 5), (2, 7), (3, 5)):
            schlafli, _ = dichotomy_count_bound(N, d0)
            for _ in range(3):
                X = rng.standard_normal((d0, N))
                count = count_dichotomies_sweep_2d(X) if d0 == 2 else count_dichotomies_lp(X)
                assert count == schlafli


class TestCoherenceTailBound:
    def test_hand_value(self):
        assert coherence_tail_bound(2000, 5, 0.3) == pytest.approx(
            0.027654218507391679, rel=1e-12
        )

    def test_clamped_at_one(self):
        assert coherence_tail_bound(1, 5, 1.0) == 1.0

    def test_doubling_m_squares_the_exponential(self):
        base = coherence_tail_bound(2000, 5, 0.3) / 50.0
        doubled = coherence_tail_bound(4000, 5, 0.3) / 50.0
        assert doubled == pytest.approx(base ** 2, rel=1e-9)

    def test_probability_range(self):
        for M in (1, 10, 1000):
            for eps in (0.01, 0.5, 1.0):
                assert 0.0 <= coherence_tail_bound(M, 7, eps) <= 1.0

    @pytest.mark.parametrize("M, N, message", [
        pytest.param(0, 5, "M must be at least 1, got 0", id="0-5"),
        pytest.param(10, 0, "N must be at least 2, got 0", id="10-0"),
        pytest.param(10, 1, "N must be at least 2, got 1", id="10-1"),
    ])
    def test_empty_shape_rejected(self, M, N, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            coherence_tail_bound(M, N, 0.5)


class TestOrthantProbabilityBound:
    def test_hand_value(self):
        assert orthant_probability_log_bound(40, 20, 8) == pytest.approx(
            -22.627416997969521, rel=1e-12
        )

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            orthant_probability_log_bound(10, 2, 5)  # alpha = 1

    @pytest.mark.parametrize("N, M, L", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 1, 1)])
    def test_counts_below_one_rejected(self, N, M, L):
        with pytest.raises(DomainError, match="at least 1"):
            orthant_probability_log_bound(N, M, L)

    def test_near_regime_boundary(self):
        value = orthant_probability_log_bound(100, 10, 11)
        assert value == pytest.approx(-0.4 * 100 * 1.1 ** 0.25, rel=1e-12)

    def test_linear_in_n_at_fixed_alpha(self):
        a = orthant_probability_log_bound(40, 20, 8)
        b = orthant_probability_log_bound(80, 40, 8)  # alpha stays 4
        assert b == pytest.approx(2 * a, rel=1e-12)


class TestBetaAngleBounds:
    def test_lower_at_right_angle_d0_two(self):
        assert beta_angle_bounds(2, math.pi / 2, "lower") == pytest.approx(
            0.63661977236758134, rel=1e-12
        )

    def test_upper_vanishes_with_u(self):
        assert beta_angle_bounds(3, 1e-12, "upper") <= 1e-11

    def test_upper_d0_three(self):
        assert beta_angle_bounds(3, 0.1, "upper") == pytest.approx(0.1, rel=1e-12)

    def test_clamped_to_unit_interval(self):
        assert beta_angle_bounds(2, 1.0, "upper") <= 1.0
        assert 0.0 <= beta_angle_bounds(20, 0.01, "lower") <= 1.0

    def test_domains(self):
        with pytest.raises(DomainError):
            beta_angle_bounds(3, 2.0, "upper")
        with pytest.raises(DomainError):
            beta_angle_bounds(3, 0.5, "sideways")

    def test_lower_matches_monte_carlo(self):
        # P(|cos| > cos(eps)) for Gaussian x against a fixed direction
        rng = np.random.default_rng(16)
        d0, eps = 3, 1.0
        draws = rng.standard_normal((200_000, d0))
        cosines = np.abs(draws[:, 0]) / np.linalg.norm(draws, axis=1)
        empirical = float(np.mean(cosines > math.cos(eps)))
        bound = beta_angle_bounds(d0, eps, "lower")
        assert empirical >= bound - 3.0 * math.sqrt(empirical * (1 - empirical) / 200_000)


class TestBoundInputsValidation:
    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            BoundInputs(N=1, d0=1, d1=1, epsilon=1.0)

    def test_counts(self):
        with pytest.raises(DomainError):
            BoundInputs(N=0, d0=1, d1=1, epsilon=0.5)

    @pytest.mark.parametrize("lim_ratio", [math.nan, math.inf, -0.5])
    def test_lim_ratio_finite_and_nonnegative(self, lim_ratio):
        with pytest.raises(DomainError):
            BoundInputs(N=1, d0=1, d1=1, epsilon=0.5, lim_ratio=lim_ratio)

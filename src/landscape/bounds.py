"""Closed-form evaluators for every tail bound and constant used by the analysis.

All probability-like outputs are computed in log domain first (the
interesting regimes underflow doubles) and clamped to [0, 1] where they
represent probabilities.  Special functions use the C library erfc and
lgamma, which are accurate to a few ulps.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, require_at_least
from .network import check_leak

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Golden-section bracket and tolerance for the theta search.
_THETA_BRACKET = (1.0, 200.0)
_THETA_TOL = 1e-6

_BISECTION_ITERS = 200


@dataclass
class ThetaStar:
    theta: float
    psi_at_theta: float
    objective: float        # psi(theta)^3 * theta^2 at the maximizer


@dataclass
class BoundInputs:
    """Shared inputs of the volume bounds.

    lim_ratio stands in for the limiting ratio d0/N, which has no
    finite-sample value; it defaults to 0 and only matters when rho is
    not 0.  rho must be finite and differ from 1 (DomainError otherwise).
    """

    N: int
    d0: int
    d1: int
    epsilon: float = 0.1
    rho: float = 0.0
    lim_ratio: float = 0.0

    def __post_init__(self):
        require_at_least(1, N=self.N, d0=self.d0, d1=self.d1)
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        if not 0.0 <= self.lim_ratio < math.inf:
            raise DomainError("lim_ratio must be finite and nonnegative")
        check_leak(self.rho)


def std_normal(x):
    """Standard normal density and distribution function at x."""
    pdf = math.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    cdf = 0.5 * math.erfc(-x / _SQRT2)
    return pdf, cdf


def log_g(x):
    """log of x Phi(x) / phi(x); finite for every x > 0 even where g overflows."""
    if x < 0:
        raise DomainError("g is defined for x >= 0")
    if x == 0.0:
        return -math.inf
    _, cdf = std_normal(x)
    return math.log(x) + math.log(cdf) + 0.5 * x * x + _LOG_SQRT_2PI


def g(x):
    """x Phi(x) / phi(x), increasing from 0 to infinity on x >= 0."""
    if x == 0.0:
        return 0.0
    try:
        return math.exp(log_g(x))
    except OverflowError:
        return math.inf


def g_inverse(t):
    """Inverse of g on [0, inf) by bracketed bisection with geometric expansion."""
    if not 0 <= t < math.inf:
        raise DomainError("g_inverse is defined for finite t >= 0")
    if t == 0.0:
        return 0.0
    hi = 1.0
    while g(hi) < t:
        hi *= 2.0
    lo = 0.0
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if g(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def psi(theta):
    """Laplace-method exponent rate: (g^-1(t))^2 / (2t) - log Phi(g^-1(t)).

    Positive for every finite theta > 0 and decreasing, with limit log 2
    at theta -> 0+.
    """
    if not 0 < theta < math.inf:
        raise DomainError("psi requires finite theta > 0")
    xi = g_inverse(theta)
    _, cdf = std_normal(xi)
    return xi * xi / (2.0 * theta) - math.log(cdf)


def _objective(theta):
    return psi(theta) ** 3 * theta * theta


def find_theta_star():
    """Maximize psi(theta)^3 theta^2 by golden-section search on [1, 200].

    The maximizer is theta ~ 21.5689 (objective 0.648251).  The paper's
    theta* ~ 23.25, psi ~ 0.1062 is an off-peak point of the same flat
    objective (0.647798 there).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = _THETA_BRACKET
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _objective(c), _objective(d)
    while b - a > _THETA_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _objective(d)
    theta = 0.5 * (a + b)
    return ThetaStar(theta=theta, psi_at_theta=psi(theta), objective=_objective(theta))


def gamma_epsilon(inputs):
    """Rate constant of the sub-optimal volume bound.

    0.23 * max(lim_ratio, epsilon)^(3/4) in general; the lim_ratio term
    drops when rho = 0.
    """
    base = inputs.epsilon if inputs.rho == 0.0 else max(inputs.lim_ratio, inputs.epsilon)
    return 0.23 * base ** 0.75


def suboptimal_volume_log_bound(inputs):
    """Log of the expected angular-volume bound for high-error regions."""
    return -gamma_epsilon(inputs) * inputs.N ** 0.75 * (inputs.d1 * inputs.d0) ** 0.25


def suboptimal_volume_bound(inputs):
    """exp of suboptimal_volume_log_bound; underflows to 0.0 at large N."""
    return math.exp(suboptimal_volume_log_bound(inputs))


def global_volume_log_lower_bound(d0, d1_star, sin_alpha):
    """Log of [2 sin(alpha)^(d0-1) / ((d0-1) B(1/2, (d0-1)/2))]^d1_star."""
    require_at_least(2, d0=d0)
    require_at_least(1, d1_star=d1_star)
    if not 0.0 < sin_alpha <= 1.0:
        raise DomainError("sin_alpha must lie in (0, 1]")
    return d1_star * _log_cap(d0, sin_alpha)


def global_volume_lower_bound(d0, d1_star, sin_alpha):
    """(exact, asymptotic_log): the exact product bound and d0 d1* log(sin alpha)."""
    exact = math.exp(global_volume_log_lower_bound(d0, d1_star, sin_alpha))
    asymptotic_log = d0 * d1_star * math.log(sin_alpha)
    return exact, asymptotic_log


def delta_probability(d0, N):
    """Failure probability sqrt(8/pi) d0^(-1/2) + 2 d0^(1/2) sqrt(log d0) / N."""
    require_at_least(2, d0=d0)
    require_at_least(1, N=N)
    return math.sqrt(8.0 / math.pi) / math.sqrt(d0) + 2.0 * math.sqrt(d0) * math.sqrt(math.log(d0)) / N


def ratio_bound(inputs):
    """(log_bound, companion): the volume-ratio exponent and -gamma_eps N log N."""
    log_bound = suboptimal_volume_log_bound(inputs)
    companion = -gamma_epsilon(inputs) * inputs.N * math.log(inputs.N) if inputs.N > 1 else 0.0
    return log_bound, companion


def dichotomy_count_bound(N, d0):
    """(schlafli, loose): 2 sum_{k<d0} C(N-1, k) exactly, and 2 N^d0 as a float or inf."""
    require_at_least(1, N=N, d0=d0)
    if d0 >= N:
        schlafli = 2 ** N       # every sign vector
    else:
        # C(N-1, k+1) = C(N-1, k) (N-1-k) / (k+1), exact in integers
        term = total = 1
        for k in range(d0 - 1):
            term = term * (N - 1 - k) // (k + 1)
            total += term
        schlafli = 2 * total
    try:
        return schlafli, 2.0 * float(N) ** d0
    except OverflowError:
        return schlafli, math.inf


def coherence_tail_bound(M, N, eps):
    """min(1, 2 N^2 exp(-M eps^2 / 24)) bounding the coherence tail probability.

    Coherence compares distinct columns, so it needs M >= 1 rows and
    N >= 2 columns.
    """
    require_at_least(1, M=M)
    require_at_least(2, N=N)
    if not 0.0 < eps <= 1.0:
        raise DomainError("eps must lie in (0, 1]")
    log_value = math.log(2.0) + 2.0 * math.log(N) - M * eps * eps / 24.0
    return min(1.0, math.exp(min(log_value, 0.0)))


def orthant_probability_log_bound(N, M, L):
    """Log bound -0.4 N (M L / N)^(1/4) on the all-positive product event.

    Raises
    ------
    DomainError
        If N, M or L is below 1, or alpha = M L / N is not above 1
        (outside the bound's regime).
    """
    require_at_least(1, N=N, M=M, L=L)
    alpha = M * L / N
    if alpha <= 1.0:
        raise DomainError(f"alpha = M*L/N = {alpha:g} must exceed 1")
    return -0.4 * N * alpha ** 0.25


def beta_angle_bounds(d0, value, which):
    """Tail bounds for the |cosine| between a Gaussian vector and a fixed one.

    which = "lower": 2 sin(value)^(d0-1) / ((d0-1) B(1/2, (d0-1)/2)) lower
    bounds P(|cos| > cos(value)) for an angle value in (0, pi/2].
    which = "upper": 2 value / B(1/2, (d0-1)/2) upper bounds
    P(|cos| < value) for value in (0, 1].  Both are clamped to [0, 1].
    """
    require_at_least(2, d0=d0)
    if which == "lower":
        if not 0.0 < value <= math.pi / 2.0:
            raise DomainError("angle must lie in (0, pi/2]")
        log_value = _log_cap(d0, math.sin(value))
    elif which == "upper":
        if not 0.0 < value <= 1.0:
            raise DomainError("u must lie in (0, 1]")
        log_value = math.log(2.0) + math.log(value) - _log_beta(0.5, (d0 - 1) / 2.0)
    else:
        raise DomainError("which must be 'lower' or 'upper'")
    return min(1.0, math.exp(min(log_value, 0.0)))


def _log_cap(d0, sin_value):
    """log of 2 s^(d0-1) / ((d0-1) B(1/2, (d0-1)/2)) at s = sin_value, the margin-cap bound."""
    return (
        math.log(2.0)
        + (d0 - 1) * math.log(sin_value)
        - math.log(d0 - 1)
        - _log_beta(0.5, (d0 - 1) / 2.0)
    )


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

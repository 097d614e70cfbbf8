"""Analytic ordering bounds for Poisson counts with power-law means.

The ensemble is an infinite family of independent counts
``X_i ~ Poisson(N (i+k)^(-alpha))`` for ranks i = 1, 2, ...  Everything here
is a closed-form probability bound or threshold on how many of the
top-ranked entities keep their true order in a sample:

* a Chernoff bound for the difference of two Poisson variables (the
  Skellam distribution), which drives all pairwise comparisons;
* exponential Poisson tail bounds valid for real-valued thresholds;
* the Bonferroni prefix bound summing the pairwise terms, with its looser
  closed form, and the largest prefix length holding that bound below a
  target;
* the ``(A N / ln N)^(1/(alpha+2))`` ordering threshold with
  ``A = alpha^2 (alpha+2) / 4``;
* tail-jumper and interloper bounds controlling entities from deep ranks
  overtaking the head, and a computable lower bound on adjacent swaps.

All functions are pure and need only ``math``; "log" is the natural log
throughout.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError

__all__ = [
    "EnsembleParams",
    "BoundReport",
    "ThresholdReport",
    "skellam_order_bound",
    "poisson_upper_tail_bound",
    "poisson_lower_tail_bound",
    "prefix_error_bound",
    "prefix_error_closed_form",
    "pick_n",
    "threshold_A",
    "threshold_n_prime",
    "jumper_bound",
    "interloper_bound",
    "swap_lower_bound",
    "teicher_floor",
]


@dataclass(frozen=True)
class EnsembleParams:
    """Scale N, decay exponent alpha and shift k of the mean law N (i+k)^-alpha."""

    N: float
    alpha: float
    k: float = 0.0

    def __post_init__(self):
        if not (self.N > 0.0) or math.isinf(self.N):
            raise DomainError(f"N must be finite and > 0, got {self.N}")
        if not (self.alpha > 1.0) or math.isinf(self.alpha):
            raise DomainError(f"alpha must be finite and > 1, got {self.alpha}")
        if not (self.k >= 0.0) or math.isinf(self.k):
            raise DomainError(f"k must be finite and >= 0, got {self.k}")

    def mean_of(self, i: int) -> float:
        """Expected count of the rank-i entity, lambda_i = N (i+k)^-alpha."""
        if i < 1:
            raise DomainError(f"rank must be >= 1, got {i}")
        return self.N * (i + self.k) ** -self.alpha


@dataclass(frozen=True)
class BoundReport:
    """Per-pair misordering terms for one prefix and their Bonferroni total."""

    n: int
    per_pair_terms: tuple[float, ...]
    bonferroni_sum: float
    clamped_probability: float


@dataclass(frozen=True)
class ThresholdReport:
    """The ordering threshold (A N / ln N)^(1/(alpha+2)) and its ingredients."""

    A_const: float
    n_prime: float
    n_prime_floor: int
    log_N: float


def _require_k_zero(params: EnsembleParams, op: str) -> None:
    if params.k != 0.0:
        raise DomainError(f"{op} is only defined for k = 0, got k = {params.k}")


def skellam_order_bound(lam: float, nu: float) -> float:
    """Chernoff bound on Pr(X <= Y) for independent X~Poi(lam), Y~Poi(nu).

    Requires lam >= nu > 0 and returns exp(-(sqrt(lam) - sqrt(nu))^2),
    obtained by minimising the Laplace transform of the difference X - Y.
    """
    if not (nu > 0.0) or math.isinf(nu):
        raise DomainError(f"nu must be finite and > 0, got {nu}")
    if not (lam >= nu) or math.isinf(lam):
        raise DomainError(f"need lam >= nu > 0, got lam={lam}, nu={nu}")
    return math.exp(-((math.sqrt(lam) - math.sqrt(nu)) ** 2))


def _tail_bound(lam: float, t: float, denominator: float) -> float:
    # e^-lam lam^t / t! over the geometric-series denominator, for real t,
    # with log t! read as log Gamma(t+1); that passes the float range near
    # t = 2.5e305, where math.lgamma raises OverflowError.
    # At large lam the exponent cancels and the denominator can round to 0;
    # there the computed ratio says nothing, so the trivial bound 1 stands.
    try:
        log_mass = -lam + t * math.log(lam) - math.lgamma(t + 1.0)
    except OverflowError:
        raise DomainError(f"log({float(t)}!) exceeds the float range") from None
    if denominator <= 0.0 or log_mass >= 0.0:
        return 1.0
    return min(1.0, math.exp(log_mass) / denominator)


def poisson_upper_tail_bound(lam: float, t: float) -> float:
    """Exponential bound on Pr(Poi(lam) >= t), valid for real t >= lam > 0.

    The bound is a probability: where it would exceed 1, or where float
    cancellation at large lam leaves it undefined, it is 1.
    """
    if not (lam > 0.0) or math.isinf(lam):
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    if not (t >= lam) or math.isinf(t):
        raise DomainError(f"upper tail bound needs t >= lam, got t={t}, lam={lam}")
    return _tail_bound(lam, t, 1.0 - lam / (t + 1.0))


def poisson_lower_tail_bound(lam: float, t: float) -> float:
    """Exponential bound on Pr(Poi(lam) <= t), valid for real 0 <= t < lam.

    Clamped to 1 like ``poisson_upper_tail_bound``.
    """
    if not (lam > 0.0) or math.isinf(lam):
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    if not (0.0 <= t < lam):
        raise DomainError(f"lower tail bound needs 0 <= t < lam, got t={t}, lam={lam}")
    return _tail_bound(lam, t, 1.0 - t / lam)


# exp(-x) is 0.0 from x of about 745.13 on.  The pair exponents fall as i
# grows, and computed they can break that order only by their rounding error
# (about 1e-8 relative, measured), so each rank before the first whose
# exponent is below 800 has a term of exactly 0.0.
_UNDERFLOW_EXPONENT = 800.0


def _check_ranks(params: EnsembleParams, last: int) -> None:
    # from 2^53 on floats are 2 or more apart: i + k and i + 1 + k can round
    # to one float, and the pair term to exp(0) = 1.0
    if last >= 2.0**53 - params.k:
        raise DomainError(f"rank {last} plus k = {params.k} reaches 2^53, past float resolution")


def _pair_exponent(params: EnsembleParams, i: int) -> float:
    # the x of skellam_order_bound(lambda_i, lambda_{i+1}) = exp(-x), written
    # directly in (i+k)
    half = params.alpha / 2.0
    diff = (i + params.k) ** -half - (i + 1 + params.k) ** -half
    return params.N * diff * diff


def _pair_term(params: EnsembleParams, i: int) -> float:
    return math.exp(-_pair_exponent(params, i))


def _pair_terms(params: EnsembleParams, n: int) -> Iterator[float]:
    """The terms of :func:`prefix_error_bound`, for i = 1..n-1, made as they are read."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    _check_ranks(params, n)
    return (_pair_term(params, i) for i in range(1, n))


def prefix_error_bound(n: int, params: EnsembleParams) -> BoundReport:
    """Bonferroni bound on any misordering among the first n ranks.

    Term i (for i = 1..n-1) is the Skellam Chernoff bound on
    Pr(X_{i+1} >= X_i); their sum bounds the probability that the sampled
    counts fail to satisfy X_1 > X_2 > ... > X_n.  n = 1 gives an empty sum.
    n + k must stay below 2^53, where consecutive ranks are distinct floats.
    """
    terms = tuple(_pair_terms(params, n))
    total = math.fsum(terms)
    return BoundReport(n, terms, total, min(total, 1.0))


def prefix_error_closed_form(n: int, params: EnsembleParams) -> float:
    """Looser closed form n exp(-(N alpha^2 / 4) n^(-alpha-2)), k = 0 only.

    Dominates the sharper Bonferroni sum because every pairwise exponent is
    replaced by the smallest one over the prefix.
    """
    _require_k_zero(params, "prefix_error_closed_form")
    if n < 2:
        raise DomainError(f"closed form needs n >= 2, got {n}")
    expo = (params.N * params.alpha**2 / 4.0) * n ** (-params.alpha - 2.0)
    return n * math.exp(-expo)


def pick_n(params: EnsembleParams, epsilon: float, n_max: int) -> int:
    """Largest n <= n_max whose prefix error bound stays at or below epsilon.

    The Bonferroni sum is nondecreasing in n (its terms are nonnegative), so
    the scan stops at the first n whose sum exceeds epsilon.  The empty bound
    for n = 1 is 0, hence the result is always >= 1.  A result equal to
    n_max means the cap stopped the scan, and a larger prefix might still
    qualify; callers report that as a field.  n_max + k must stay below
    2^53, as in :func:`prefix_error_bound`.
    """
    return _pick_n_and_sum(params, epsilon, n_max)[0]


def _pick_n_and_sum(params: EnsembleParams, epsilon: float, n_max: int) -> tuple[int, float]:
    """:func:`pick_n`'s n and its prefix's ``prefix_error_bound`` sum, bit for bit."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _check_ranks(params, n_max)
    # The terms grow with i, and the leading ones that underflow are 0.0:
    # bisection finds the first rank whose exponent is below
    # _UNDERFLOW_EXPONENT, and the scan and every sum start there, which
    # leaves n and the sum bit for bit as a scan from rank 1 has them.
    first = 1 + bisect.bisect_left(
        range(1, n_max), True, key=lambda i: _pair_exponent(params, i) < _UNDERFLOW_EXPONENT
    )

    def prefix_sum(n: int) -> float:  # math.fsum of the prefix's terms
        return math.fsum(_pair_term(params, i) for i in range(first, n))

    # The float running sum finds the boundary and math.fsum settles it: the
    # scan stops only where fsum also exceeds epsilon, then steps back while
    # the shorter prefix still does.  fsum's partial sums are nondecreasing,
    # so this is the scan with fsum at every n, in O(n) time and O(1) memory:
    # each fsum makes the prefix's terms again.
    n, running = first, 0.0
    while n < n_max:
        running += _pair_term(params, n)
        n += 1
        if running > epsilon and prefix_sum(n) > epsilon:
            break
    total = prefix_sum(n)
    while total > epsilon:  # the empty sum, 0, ends this
        n -= 1
        total = prefix_sum(n)
    return n, total


def threshold_A(alpha: float) -> float:
    """The threshold constant A(alpha) = alpha^2 (alpha + 2) / 4 (> 3/4 for alpha > 1)."""
    if not (alpha > 1.0) or math.isinf(alpha):
        raise DomainError(f"alpha must be finite and > 1, got {alpha}")
    a_const = alpha * alpha * (alpha + 2.0) / 4.0
    if math.isinf(a_const):
        raise DomainError(f"A(alpha) exceeds the float range at alpha={alpha}")
    return a_const


def threshold_n_prime(N: float, alpha: float) -> ThresholdReport:
    """Ordering threshold n' = (A(alpha) N / ln N)^(1/(alpha+2))."""
    a_const = threshold_A(alpha)
    if not (N > 1.0) or math.isinf(N):
        raise DomainError(f"threshold needs finite N > 1, got {N}")
    log_n = math.log(N)
    n_prime = (a_const * N / log_n) ** (1.0 / (alpha + 2.0))
    if math.isinf(n_prime):
        raise DomainError(f"A N / ln N exceeds the float range at N={N}, alpha={alpha}")
    return ThresholdReport(
        A_const=a_const,
        n_prime=n_prime,
        n_prime_floor=math.floor(n_prime),
        log_N=log_n,
    )


def jumper_bound(n: int, tau: float, params: EnsembleParams) -> float:
    """Bound on Pr(max over ranks i > n of X_i exceeds the level tau), k = 0 only.

    Sums per-rank upper tails, majorises the sum by a gamma integral and
    bounds the resulting ratio of gamma values with Gautschi's inequality:
    (N^(1/alpha)/alpha) ((tau+1)/(tau+1-lambda_n)) (tau^(-1/alpha)/(tau-1/alpha)).
    """
    _require_k_zero(params, "jumper_bound")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if math.isinf(tau) or math.isnan(tau):
        raise DomainError(f"tau must be finite, got {tau}")
    lam_n = params.mean_of(n)
    inv_alpha = 1.0 / params.alpha
    if tau < lam_n:
        raise DomainError(f"jumper level must satisfy tau >= lambda_n={lam_n}, got {tau}")
    if tau <= inv_alpha:
        raise DomainError(f"jumper level must exceed 1/alpha={inv_alpha}, got {tau}")
    return (
        (params.N**inv_alpha / params.alpha)
        * ((tau + 1.0) / (tau + 1.0 - lam_n))
        * (tau**-inv_alpha / (tau - inv_alpha))
    )


def interloper_bound(m: int, n: int, params: EnsembleParams) -> float:
    """Bound on Pr(max over ranks i > n of X_i >= X_m) for 1 <= m < n, k = 0 only.

    Splits at the level tau = sqrt(lambda_m lambda_n), between the two means:
    either some tail entity jumps above tau (jumper bound) or X_m falls to
    tau or below (Chebyshev term lambda_m / (tau - lambda_m)^2).
    """
    _require_k_zero(params, "interloper_bound")
    if m < 1 or n < 1:
        raise DomainError(f"ranks must be >= 1, got m={m}, n={n}")
    if m >= n:
        raise DomainError(f"need m < n so the level separates the means, got m={m}, n={n}")
    lam_m = params.mean_of(m)
    lam_n = params.mean_of(n)
    tau = math.sqrt(lam_m * lam_n)
    chebyshev = lam_m / (tau - lam_m) ** 2
    return jumper_bound(n, tau, params) + chebyshev


def swap_lower_bound(i: int, params: EnsembleParams) -> float:
    """Computable lower bound on Pr(X_{i+1} >= X_i), k = 0 only.

    Pr(X_{i+1} >= X_i) >= Pr(X_{i+1} > lambda_i) Pr(X_i <= lambda_i); the
    first factor is bounded below through the normal approximation with a
    Berry-Esseen correction of 0.8/sqrt(lambda), the second by the uniform
    floor exp(-1).  The result clamps at 0 when the correction dominates.
    """
    _require_k_zero(params, "swap_lower_bound")
    if i < 1:
        raise DomainError(f"i must be >= 1, got {i}")
    lam_i = params.mean_of(i)
    lam_next = params.mean_of(i + 1)
    sd = math.sqrt(lam_next)
    z = (lam_next - lam_i) / sd
    phi = 0.5 * math.erfc(-z / math.sqrt(2.0))  # Phi(z), through erfc for tail accuracy
    return teicher_floor() * max(0.0, phi - 0.8 / sd)


def teicher_floor() -> float:
    """Uniform lower bound exp(-1) on Pr(Poi(lambda) <= lambda)."""
    return math.exp(-1.0)

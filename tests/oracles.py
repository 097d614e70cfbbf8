"""Independent brute-force oracles shared by the test modules.

Everything here recomputes probabilities from first principles (pmf
recurrences, double sums, literal definitions) so the analytic code under
test is checked against a genuinely different computation path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from zipforder import ConfigurationError, DomainError, poisson_upper_tail_bound
from zipforder.bounds import _pair_term, _pair_terms


def poisson_pmf_array(lam: float, kmax: int) -> np.ndarray:
    """pmf of Poisson(lam) on 0..kmax via the multiplicative recurrence.

    The recurrence starts at exp(-lam), so it is only used at test scale
    (lam below ~700, where that seed does not underflow).
    """
    assert lam < 700.0, "recurrence oracle only valid below the exp underflow"
    out = np.empty(kmax + 1)
    out[0] = math.exp(-lam)
    for k in range(1, kmax + 1):
        out[k] = out[k - 1] * lam / k
    return out


def poisson_cdf(lam: float, t: float) -> float:
    """Exact Pr(Poi(lam) <= t) by pmf summation (t may be real)."""
    if t < 0:
        return 0.0
    return float(poisson_pmf_array(lam, math.floor(t)).sum())


def poisson_sf(lam: float, t: float) -> float:
    """Exact Pr(Poi(lam) >= t) for real t via the complement."""
    return 1.0 - poisson_cdf(lam, math.ceil(t) - 1)


def poisson_sf_extreme(lam: float, t: float) -> float:
    """Pr(Poi(lam) >= t) through the incomplete gamma, valid for any scale."""
    return float(stats.poisson.sf(math.ceil(t) - 1, lam))


def skellam_leq_prob(lam: float, nu: float, tail: float = 1e-13) -> float:
    """Pr(X <= Y) for independent X~Poi(lam), Y~Poi(nu) by truncated double sum.

    The cut keeps Pr(Y > ymax) below ``tail``, and dropping those terms can
    only underestimate, so a dominance assertion needs no slack.
    """
    ymax = int(nu + 20.0 * math.sqrt(nu) + 60.0)
    pmf_y = poisson_pmf_array(nu, ymax)
    cdf_x = np.cumsum(poisson_pmf_array(lam, ymax))
    assert 1.0 - pmf_y.sum() < tail
    return float(np.dot(pmf_y, cdf_x))


def jumper_tail_sum(params, n: int, tau: float, imax: int = 300_000) -> float:
    """Truncated exact tail sum over ranks i > n of Pr(X_i > tau)."""
    total = 0.0
    for i in range(n + 1, imax):
        lam = params.mean_of(i)
        term = poisson_sf_extreme(lam, math.floor(tau) + 1)
        total += term
        if term < 1e-16 and lam < tau / 4.0:
            break
    return total


def horizon_tail_sum(params, m: int, t: int, k_max: int = 2**21) -> float:
    """Upper bound on the sum over ranks i > m of Pr(X_i >= t), integer t >= 1.

    Ranks m < i <= K contribute their exact terms, ``poisson_sf_extreme``
    evaluated on a block of ranks at a time.  The rest is bounded by
    Pr(X >= t) <= lam^t / t!, and the sum over i > K of (i+k)^(-alpha t) by
    its integral from K, giving N^t (K+k)^(1 - alpha t) / (t! (alpha t - 1)).
    K doubles from 2m until that remainder is at most 1% of the exact part,
    or reaches ``k_max``.
    """
    a_t = params.alpha * t
    log_scale = t * math.log(params.N) - math.lgamma(t + 1.0) - math.log(a_t - 1.0)
    exact, lo, cut = 0.0, m, 2 * m
    while True:
        ranks = np.arange(lo + 1, cut + 1, dtype=np.float64)
        lam = params.N * (ranks + params.k) ** -params.alpha
        exact += math.fsum(stats.poisson.sf(t - 1, lam))
        rest = math.exp(log_scale + (1.0 - a_t) * math.log(cut + params.k))
        if rest <= 0.01 * exact or cut >= k_max:
            return exact + rest
        lo, cut = cut, 2 * cut


def log_space_horizon(params, n_focus: int, safety: float, max_horizon: int = 2**20) -> int:
    """``truncation_index`` with its deep-rank term summed in log space.

    The same grid, level t = ceil(lambda_{2 n_focus}) and s = t - 1/alpha;
    the ranks beyond M+1 are bounded by (N^(1/alpha) / alpha) lam^s e^-lam /
    (t! (s - lam) (1 - lam_{M+2}/(t+1))) with lam = lam_{M+1}, added to the
    rank-(M+1) tail bound.  Raises the same error types.
    """
    if n_focus < 1:
        raise DomainError(f"n_focus must be >= 1, got {n_focus}")
    if not (0.0 < safety < 1.0):
        raise DomainError(f"safety must lie in (0, 1), got {safety}")
    t = math.ceil(params.mean_of(2 * n_focus))
    s = t - 1.0 / params.alpha
    try:
        log_factorial = math.lgamma(t + 1.0)
    except OverflowError:
        raise DomainError(f"log({float(t)}!) exceeds the float range") from None
    log_scale = math.log(params.N) / params.alpha - math.log(params.alpha) - log_factorial
    m = 4 * n_focus
    while True:
        lam = params.mean_of(m + 1)
        if 0.0 < lam < s:
            log_rest = (
                log_scale
                + s * math.log(lam)
                - lam
                - math.log(s - lam)
                - math.log1p(-params.mean_of(m + 2) / (t + 1.0))
            )
            if poisson_upper_tail_bound(lam, t) + math.exp(log_rest) <= safety:
                return m
        m += max(1, m // 8)
        if m > max_horizon:
            raise ConfigurationError(f"no horizon up to {max_horizon} certifies {safety}")


def pick_n_and_sum_kept_terms(params, epsilon: float, n_max: int) -> tuple[int, float]:
    """pick_n's n and math.fsum of its prefix's terms, with every term kept in
    a list: a float running sum finds the boundary, fsum over the list checks
    it there, and the list is popped while its fsum still exceeds epsilon."""
    terms: list[float] = []
    running = 0.0
    while len(terms) + 1 < n_max:
        terms.append(_pair_term(params, len(terms) + 1))
        running += terms[-1]
        if running > epsilon and math.fsum(terms) > epsilon:
            break
    total = math.fsum(terms)
    while total > epsilon:
        terms.pop()
        total = math.fsum(terms)
    return len(terms) + 1, total


def pick_n_and_sum_full_scan(params, epsilon: float, n_max: int) -> tuple[int, float]:
    """pick_n's n and math.fsum of its prefix's terms, scanned from rank 1:
    a float running sum finds the boundary, fsum over the prefix's terms,
    made again, checks it there, and n steps back while that fsum exceeds
    epsilon.  Every term is made, the leading ones that underflow too."""
    n, running = 1, 0.0
    while n < n_max:
        running += _pair_term(params, n)
        n += 1
        if running > epsilon and math.fsum(_pair_terms(params, n)) > epsilon:
            break
    total = math.fsum(_pair_terms(params, n))
    while total > epsilon:
        n -= 1
        total = math.fsum(_pair_terms(params, n))
    return n, total


def brute_force_outcome(x) -> tuple[int, str, int | None, int | None]:
    """Literal all-prefixes evaluation of the correct-prefix/first-error rule.

    Checks every n directly against the definition (descending chain plus
    dominance over everything later) instead of the incremental scan used by
    the implementation.
    """
    x = list(x)
    m = len(x)
    best = 0
    for n in range(1, m + 1):
        chain = all(x[i - 1] > x[i] for i in range(1, n))
        dominance = all(x[n - 1] > x[j] for j in range(n, m))
        if chain and dominance:
            best = max(best, n)
    if best == m:
        return best, "none", None, None
    rest = x[best:]
    blocker = best + 1 + rest.index(max(rest))
    failed = best + 1
    if blocker == failed:
        return best, "tie", None, blocker
    if blocker == failed + 1:
        return best, "transposition", None, blocker
    return best, "jump", blocker - failed, blocker


def wilson_upper(successes: int, trials: int, z: float = 2.576) -> float:
    """Upper end of the Wilson score interval (z = 2.576 gives 99%)."""
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (centre + spread) / denom


def write_zipf_csv_per_row(plot, out) -> None:
    """The plot CSV one row at a time: rank i, then the reprs of ln i and ln X_i."""
    out.write("i,ln_rank,ln_count\n")
    for i, ln_count in enumerate(plot.ln_counts, start=1):
        out.write(f"{i},{math.log(i)!r},{ln_count!r}\n")


def write_se_csv_per_row(se, out) -> None:
    """The SE CSV one row at a time: the index from 1, then the value's repr."""
    out.write("i,se\n")
    for i, value in enumerate(se, start=1):
        out.write(f"{i},{value!r}\n")


def write_bound_csv_per_row(terms, out) -> None:
    """The bound CSV one row at a time: the pair index from 1, then the term's repr."""
    out.write("i,term\n")
    for i, term in enumerate(terms, start=1):
        out.write(f"{i},{term!r}\n")


def ranked_floats_per_row(ranked_ints) -> tuple[float, ...]:
    """The counts column one float per row, as the parser built it before runs shared one."""
    return tuple(map(float, ranked_ints))


def ln_counts_per_row(counts) -> tuple[float, ...]:
    """ln X_i one call per row, for counts that are all positive."""
    return tuple(map(math.log, counts))


def adjacent_se_per_row(counts) -> tuple[float, ...]:
    """(a - b) / sqrt(a + b) per adjacent pair, with 0.0 for a pair summing to zero."""
    c = counts
    return tuple(
        (a - b) / math.sqrt(a + b) if a + b > 0 else 0.0 for a, b in zip(c, c[1:])
    )

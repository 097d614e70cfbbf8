"""Analytic bound values, hand-computed anchors, and dominance over exact oracles."""

import math
import statistics
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    jumper_tail_sum,
    pick_n_and_sum_full_scan,
    pick_n_and_sum_kept_terms,
    poisson_cdf,
    poisson_sf,
    skellam_leq_prob,
    wilson_upper,
)
from zipforder import (
    DomainError,
    EnsembleParams,
    interloper_bound,
    jumper_bound,
    pick_n,
    poisson_lower_tail_bound,
    poisson_upper_tail_bound,
    prefix_error_bound,
    prefix_error_closed_form,
    skellam_order_bound,
    swap_lower_bound,
    teicher_floor,
    threshold_A,
    threshold_n_hat,
    threshold_n_prime,
)
from zipforder.bounds import _pair_term, _pick_n_and_sum

BNC_PARAMS = EnsembleParams(1e7, 1.106, 0.0)


class TestEnsembleParams:
    def test_mean_law(self):
        p = EnsembleParams(100.0, 2.0)
        assert p.mean_of(5) == pytest.approx(4.0)
        shifted = EnsembleParams(100.0, 2.0, 3.0)
        assert shifted.mean_of(1) == pytest.approx(100.0 / 16.0)

    @pytest.mark.parametrize(
        "N,alpha,k", [(0.0, 2.0, 0.0), (-1.0, 2.0, 0.0), (1.0, 1.0, 0.0), (1.0, 2.0, -0.1)]
    )
    def test_invariants(self, N, alpha, k):
        with pytest.raises(DomainError):
            EnsembleParams(N, alpha, k)

    def test_rank_domain(self):
        with pytest.raises(DomainError, match="rank"):
            EnsembleParams(100.0, 2.0).mean_of(0)


class TestSkellamOrderBound:
    def test_equal_means_give_one(self):
        for lam in [0.3, 1.0, 7.5, 4000.0]:
            assert skellam_order_bound(lam, lam) == 1.0

    def test_hand_value(self):
        assert skellam_order_bound(4.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_dominates_exact(self):
        assert skellam_order_bound(4.0, 1.0) >= skellam_leq_prob(4.0, 1.0)

    def test_dominates_exact_random(self):
        """Bound >= exact double-sum probability on 200 random pairs."""
        rng = np.random.default_rng(314159)
        for _ in range(200):
            nu = float(rng.uniform(0.05, 50.0))
            lam = float(rng.uniform(nu, 50.0))
            assert skellam_order_bound(lam, nu) >= skellam_leq_prob(lam, nu)

    def test_strictly_below_one_when_separated(self):
        assert skellam_order_bound(5.0, 4.0) < 1.0

    def test_argument_order_enforced(self):
        with pytest.raises(DomainError):
            skellam_order_bound(1.0, 4.0)
        with pytest.raises(DomainError):
            skellam_order_bound(4.0, 0.0)


class TestPoissonTailBounds:
    def test_upper_hand_value(self):
        assert poisson_upper_tail_bound(1.0, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-14
        )

    def test_lower_hand_value(self):
        assert poisson_lower_tail_bound(2.0, 0.0) == pytest.approx(
            math.exp(-2.0), rel=1e-14
        )

    def test_lower_at_zero_is_exactly_exp(self):
        """At t = 0 the general formula reduces to Pr(Poi(lam) = 0) = exp(-lam), bit for bit."""
        for lam in np.geomspace(math.exp(-20.0), math.exp(20.0), 2001):
            assert poisson_lower_tail_bound(float(lam), 0.0) == math.exp(-float(lam))

    def test_upper_dominates_exact(self):
        assert poisson_upper_tail_bound(5.0, 9.0) >= poisson_sf(5.0, 9.0)
        assert poisson_upper_tail_bound(10.0, 30.0) >= 1.0 - poisson_cdf(10.0, 29.0)

    def test_lower_dominates_exact(self):
        assert poisson_lower_tail_bound(20.0, 10.0) >= poisson_cdf(20.0, 10.0)
        assert poisson_lower_tail_bound(100.0, 80.0) >= poisson_cdf(100.0, 80.0)

    def test_dominance_random(self):
        """Both tails beat exact probabilities on 200 random (lam, t), real t."""
        rng = np.random.default_rng(271828)
        for _ in range(200):
            lam = float(rng.uniform(0.2, 60.0))
            t_up = lam + float(rng.uniform(0.0, 4.0 * math.sqrt(lam) + 5.0))
            assert poisson_upper_tail_bound(lam, t_up) >= poisson_sf(lam, t_up)
            t_lo = float(rng.uniform(0.0, lam * 0.999))
            assert poisson_lower_tail_bound(lam, t_lo) >= poisson_cdf(lam, t_lo)

    def test_domains(self):
        with pytest.raises(DomainError):
            poisson_upper_tail_bound(5.0, 4.0)
        with pytest.raises(DomainError):
            poisson_lower_tail_bound(5.0, 5.0)
        with pytest.raises(DomainError):
            poisson_lower_tail_bound(5.0, -1.0)

    def test_factorial_beyond_float_range(self):
        """log t! passes the float range near t = 2.5e305: a DomainError, not OverflowError."""
        with pytest.raises(DomainError, match="float range"):
            poisson_upper_tail_bound(1e306, 1e307)
        with pytest.raises(DomainError, match="float range"):
            poisson_lower_tail_bound(1e308, 5e307)

    @pytest.mark.parametrize(
        "bound, lam, t",
        [
            # 1 - lam/(t+1) rounds to 0: was ZeroDivisionError
            (poisson_upper_tail_bound, 1e17, 1e17),
            # the log point mass cancels to a large positive value: was OverflowError
            (poisson_upper_tail_bound, 1e20, 1e20 * (1 + 1e-9)),
            # same cancellation, small enough to exponentiate: was 2.3e231
            (poisson_upper_tail_bound, 1e17, 1e17 * (1 + 1e-9)),
            (poisson_lower_tail_bound, 1e100, 1e100 * (1 - 1e-9)),
        ],
    )
    def test_large_lam_is_trivial_bound(self, bound, lam, t):
        assert bound(lam, t) == 1.0

    def test_clamped_to_one(self):
        """Near t = lam the geometric factor pushes the raw ratio past 1."""
        assert poisson_upper_tail_bound(100.0, 100.0) == 1.0
        assert poisson_lower_tail_bound(100.0, 99.9) == 1.0


class TestPrefixErrorBound:
    def test_single_rank_is_empty_sum(self):
        report = prefix_error_bound(1, BNC_PARAMS)
        assert report.per_pair_terms == ()
        assert report.bonferroni_sum == 0.0
        assert report.clamped_probability == 0.0

    def test_prefix_domain(self):
        with pytest.raises(DomainError, match="n must be >= 1"):
            prefix_error_bound(0, BNC_PARAMS)

    def test_two_ranks_hand_value(self):
        report = prefix_error_bound(2, EnsembleParams(100.0, 2.0))
        assert report.bonferroni_sum == pytest.approx(math.exp(-25.0), rel=1e-12)

    def test_reference_value_at_72(self):
        report = prefix_error_bound(72, BNC_PARAMS)
        assert report.bonferroni_sum == pytest.approx(0.0199, abs=2e-4)
        assert len(report.per_pair_terms) == 71

    def test_report_invariants(self):
        report = prefix_error_bound(300, BNC_PARAMS)
        assert report.bonferroni_sum == pytest.approx(
            math.fsum(report.per_pair_terms), rel=1e-12
        )
        assert all(0.0 <= t <= 1.0 for t in report.per_pair_terms)
        assert 0.0 <= report.clamped_probability <= 1.0

    def test_nondecreasing_in_n(self):
        sums = [prefix_error_bound(n, BNC_PARAMS).bonferroni_sum for n in range(1, 120)]
        assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))

    def test_nonincreasing_in_N(self):
        values = [
            prefix_error_bound(72, EnsembleParams(N, 1.106)).bonferroni_sum
            for N in [1e6, 3e6, 1e7, 3e7, 1e8]
        ]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))

    def test_mandelbrot_shift(self):
        shifted = prefix_error_bound(5, EnsembleParams(1e5, 1.2, 2.0))
        expect = math.fsum(
            math.exp(-1e5 * ((i + 2.0) ** -0.6 - (i + 3.0) ** -0.6) ** 2)
            for i in range(1, 5)
        )
        assert shifted.bonferroni_sum == pytest.approx(expect, rel=1e-12)


class TestPrefixErrorClosedForm:
    def test_hand_value(self):
        value = prefix_error_closed_form(2, EnsembleParams(100.0, 2.0))
        assert value == pytest.approx(2.0 * math.exp(-6.25), rel=1e-12)

    def test_dominates_bonferroni_sum(self):
        """The closed form stays above the sharper sum for n = 2..200."""
        for n in range(2, 201):
            closed = prefix_error_closed_form(n, BNC_PARAMS)
            sharp = prefix_error_bound(n, BNC_PARAMS).bonferroni_sum
            assert closed >= sharp

    def test_value_at_72_between_sum_and_one(self):
        value = prefix_error_closed_form(72, BNC_PARAMS)
        assert 0.0199 < value < 1.0

    def test_requires_zero_shift(self):
        with pytest.raises(DomainError):
            prefix_error_closed_form(5, EnsembleParams(100.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            prefix_error_closed_form(1, BNC_PARAMS)


class TestPickN:
    def test_reference_point(self):
        # The reference figures for this configuration are usually given as
        # 70 and 76, but they do not survive recomputation: the exact
        # Bonferroni sums are p(69)=0.00816, p(70)=0.01116 > 0.01 and
        # p(75)=0.04283, p(76)=0.05401 > 0.05, so the largest prefixes whose
        # bound clears the budget are 69 and 75.  See the acceptance suite.
        assert pick_n(BNC_PARAMS, 0.01, 1000) == 69
        assert pick_n(BNC_PARAMS, 0.05, 1000) == 75

    def test_boundary_property(self):
        for eps in [0.001, 0.01, 0.05, 0.3]:
            n = pick_n(BNC_PARAMS, eps, 1000)
            assert prefix_error_bound(n, BNC_PARAMS).bonferroni_sum <= eps
            assert prefix_error_bound(n + 1, BNC_PARAMS).bonferroni_sum > eps

    @pytest.mark.parametrize("alpha", [1.01, 1.106, 2.0, 3.0])
    @pytest.mark.parametrize("k", [0.0, 2.5])
    def test_matches_scan_over_every_n(self, alpha, k):
        """pick_n equals the scan from the definition: at every n the
        Bonferroni sum, added exactly and rounded once (the value math.fsum
        returns), is compared with epsilon, up to the first n that exceeds it."""
        for N in [10.0**e for e in range(3, 13)]:
            params = EnsembleParams(N, alpha, k)
            for eps in [1e-6, 0.01, 0.05, 0.5]:
                got = pick_n(params, eps, 100_000)
                want, exact = 1, Fraction(0)
                for n, term in enumerate(prefix_error_bound(got + 2, params).per_pair_terms, 2):
                    exact += Fraction(term)
                    if float(exact) > eps:
                        break
                    want = n
                assert got == want, (N, alpha, k, eps)

    def test_matches_kept_terms_form_on_seeded_points(self):
        """The n and sum, bit for bit, of the scan that keeps every term, on
        2,000 points: N 1 to 1e16, alpha 1.001 to 4, k 0 or up to 5, epsilon
        1e-12 to 0.999 and n_max 1 to 10^4, each log-uniform but alpha and k."""
        rng = np.random.default_rng(2025)
        stops = set()
        for _ in range(2000):
            k = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 5.0)
            params = EnsembleParams(10.0 ** rng.uniform(0.0, 16.0), rng.uniform(1.001, 4.0), k)
            eps = 10.0 ** rng.uniform(-12.0, math.log10(0.999))
            n_max = int(10.0 ** rng.uniform(0.0, 4.0))
            n, total = _pick_n_and_sum(params, eps, n_max)
            want_n, want_total = pick_n_and_sum_kept_terms(params, eps, n_max)
            assert (n, total.hex()) == (want_n, want_total.hex()), (params, eps, n_max)
            stops.add("cap" if n == n_max else "budget")
        assert stops == {"cap", "budget"}

    def test_matches_full_scan_past_underflow_on_seeded_points(self):
        """The n and sum, bit for bit, of the scan that makes every term from
        rank 1, on 2,000 points: N 1 to 1e300, alpha 1.001 to 4, k 0 or up to
        5, epsilon 1e-12 to 0.999 and n_max 1 to 10^4.  On two points in three
        N puts the rank where the terms stop underflowing to 0 near a rank b
        below n_max, from N (alpha/2)^2 (b+k)^-(alpha+2) = 745 / 10^U(0, 0.5)."""
        rng = np.random.default_rng(2026)
        inside, stops = 0, set()
        for j in range(2000):
            alpha = rng.uniform(1.001, 4.0)
            k = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 5.0)
            if j % 3:
                n_max = int(10.0 ** rng.uniform(0.5, 4.0))
                b = 10.0 ** rng.uniform(math.log10(2.0), math.log10(n_max))
                N = 2980.0 / alpha**2 * (b + k) ** (alpha + 2.0) * 10.0 ** rng.uniform(-0.5, 0.0)
            else:
                n_max = int(10.0 ** rng.uniform(0.0, 4.0))
                N = 10.0 ** rng.uniform(0.0, 300.0)
            params = EnsembleParams(N, alpha, k)
            eps = 10.0 ** rng.uniform(-12.0, math.log10(0.999))
            n, total = _pick_n_and_sum(params, eps, n_max)
            want_n, want_total = pick_n_and_sum_full_scan(params, eps, n_max)
            assert (n, total.hex()) == (want_n, want_total.hex()), (params, eps, n_max)
            if n_max > 2 and _pair_term(params, 1) == 0.0 < _pair_term(params, n_max - 1):
                inside += 1
            stops.add("cap" if n == n_max else "budget")
        assert inside >= 1000 and stops == {"cap", "budget"}

    @pytest.mark.parametrize("eps", [1e-12, 0.5])
    @pytest.mark.parametrize("n_max", [1, 2, 10_000])
    def test_ranks_past_float_resolution_are_refused(self, eps, n_max):
        """At k = 1e20, i + k and i + 1 + k are one float, so every term would
        be 1.0: pick_n and prefix_error_bound refuse the ranks."""
        params = EnsembleParams(1e300, 1.1, 1e20)
        assert _pair_term(params, 1) == _pair_term(params, n_max) == 1.0
        with pytest.raises(DomainError, match=r"reaches 2\^53"):
            _pick_n_and_sum(params, eps, n_max)
        with pytest.raises(DomainError, match=r"reaches 2\^53"):
            prefix_error_bound(n_max, params)

    @pytest.mark.parametrize("k, last", [(0.0, 2**53 - 1), (1.0, 2**53 - 2), (2**52, 2**52 - 1)])
    def test_rank_limit_is_2_to_the_53(self, k, last):
        """The last rank plus k below 2^53 is allowed, and one rank more is refused."""
        params = EnsembleParams(1e7, 1.106, k)
        assert pick_n(params, 0.01, last) == pick_n(params, 0.01, 1000)
        with pytest.raises(DomainError, match=r"reaches 2\^53"):
            pick_n(params, 0.01, last + 1)

    def test_epsilon_equal_to_a_prefix_sum(self):
        """A budget met with equality admits the prefix."""
        terms = prefix_error_bound(120, BNC_PARAMS).per_pair_terms
        for n in range(2, 100):
            eps = math.fsum(terms[: n - 1])
            if 0.0 < eps < 1.0:
                assert pick_n(BNC_PARAMS, eps, 1000) == n

    def test_cap_returns_one(self):
        assert pick_n(BNC_PARAMS, 0.01, 1) == 1

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            pick_n(BNC_PARAMS, 0.0, 10)
        with pytest.raises(DomainError):
            pick_n(BNC_PARAMS, 1.0, 10)

    def test_cap_domain(self):
        with pytest.raises(DomainError, match="n_max"):
            pick_n(BNC_PARAMS, 0.01, 0)


class TestThresholds:
    def test_A_near_one(self):
        assert threshold_A(1.0 + 1e-9) == pytest.approx(0.75, abs=1e-6)

    def test_A_paper_alpha(self):
        assert threshold_A(1.106) == pytest.approx(0.94984, abs=1e-4)

    def test_A_at_two(self):
        assert threshold_A(2.0) == pytest.approx(4.0, rel=1e-14)

    def test_A_floor_on_grid(self):
        for alpha in np.linspace(1.0 + 1e-9, 10.0, 250):
            assert threshold_A(float(alpha)) >= 0.75

    def test_n_prime_reference_values(self):
        assert threshold_n_prime(1e7, 1.106).n_prime == pytest.approx(72.08, abs=0.05)
        assert threshold_n_prime(1.25e7, 1.106).n_prime == pytest.approx(77.10, abs=0.05)

    def test_n_prime_report_fields(self):
        report = threshold_n_prime(1e7, 1.106)
        assert report.n_prime_floor == 72
        assert report.A_const == pytest.approx(threshold_A(1.106))
        assert report.log_N == pytest.approx(math.log(1e7))

    def test_n_prime_monotone_in_N(self):
        assert (
            threshold_n_prime(2e7, 1.106).n_prime
            > threshold_n_prime(1e7, 1.106).n_prime
        )

    def test_n_prime_domain(self):
        with pytest.raises(DomainError):
            threshold_n_prime(1.0, 1.106)
        with pytest.raises(DomainError):
            threshold_n_prime(0.5, 1.106)

    def test_beyond_float_range(self):
        """A N overflowing, or A(alpha) itself, is a DomainError, never inf or OverflowError."""
        with pytest.raises(DomainError, match="float range"):
            threshold_A(1e308)
        with pytest.raises(DomainError, match="float range"):
            threshold_n_prime(1e7, 1e308)
        with pytest.raises(DomainError, match="float range"):
            threshold_n_prime(1.7e308, 1.5)
        assert threshold_A(5e102) < math.inf
        assert threshold_n_prime(1e307, 1.5).n_prime < math.inf

    def test_n_hat_consistency_identity(self):
        from zipforder import riemann_zeta

        T = 1e8
        expect = threshold_n_prime(T / riemann_zeta(1.106), 1.106).n_prime
        assert threshold_n_hat(T, 1.106) == expect  # same code path
        assert threshold_n_hat(T, 1.106) == pytest.approx(72.08, abs=0.1)

    def test_n_hat_monotone_in_T(self):
        values = [threshold_n_hat(T, 1.106) for T in [1e6, 1e8, 1e10]]
        assert values[0] < values[1] < values[2]

    def test_n_hat_domain(self):
        with pytest.raises(DomainError):
            threshold_n_hat(5.0, 1.106)  # T/zeta barely above zero


class TestJumperBound:
    def test_hand_value(self):
        params = EnsembleParams(100.0, 2.0)
        expect = (
            (100.0**0.5 / 2.0)
            * (21.0 / (21.0 - 4.0))
            * (20.0**-0.5 / (20.0 - 0.5))
        )
        assert jumper_bound(5, 20.0, params) == pytest.approx(expect, rel=1e-14)
        assert expect == pytest.approx(0.07083, abs=2e-5)

    def test_decreasing_in_tau(self):
        params = EnsembleParams(100.0, 2.0)
        lam5 = params.mean_of(5)
        grid = np.linspace(lam5, 100.0 * lam5, 60)
        values = [jumper_bound(5, float(t), params) for t in grid]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_dominates_tail_sum_random(self):
        """Bound >= truncated exact tail sum on 50 random configurations."""
        rng = np.random.default_rng(9001)
        checked = 0
        while checked < 50:
            alpha = float(rng.uniform(1.1, 3.0))
            N = float(rng.uniform(10.0, 1e6))
            n = int(rng.integers(2, 30))
            params = EnsembleParams(N, alpha)
            lam_n = params.mean_of(n)
            tau = max(lam_n, 1.0 / alpha + 0.2) * float(rng.uniform(1.0, 6.0)) + 0.5
            bound = jumper_bound(n, tau, params)
            assert bound >= jumper_tail_sum(params, n, tau)
            checked += 1

    def test_domains(self):
        params = EnsembleParams(100.0, 2.0)
        with pytest.raises(DomainError):
            jumper_bound(5, 3.0, params)  # below lambda_5 = 4
        with pytest.raises(DomainError):
            jumper_bound(50, 0.3, EnsembleParams(2.0, 2.0))  # below 1/alpha
        with pytest.raises(DomainError):
            jumper_bound(5, 20.0, EnsembleParams(100.0, 2.0, 1.0))  # k != 0
        with pytest.raises(DomainError, match="n must be >= 1"):
            jumper_bound(0, 20.0, params)
        for tau in (math.inf, math.nan):
            with pytest.raises(DomainError, match="tau must be finite"):
                jumper_bound(5, tau, params)


class TestInterloperBound:
    def test_threshold_and_assembly(self):
        params = EnsembleParams(100.0, 2.0)
        tau = 100.0 * (2 * 8) ** -1.0  # sqrt(lambda_2 lambda_8) = N (mn)^(-alpha/2)
        assert tau == pytest.approx(6.25)
        lam2 = params.mean_of(2)
        expect = jumper_bound(8, tau, params) + lam2 / (tau - lam2) ** 2
        assert interloper_bound(2, 8, params) == pytest.approx(expect, rel=1e-14)

    def test_decreasing_in_N(self):
        values = [
            interloper_bound(36, 72, EnsembleParams(N, 1.106)) for N in [1e6, 1e7, 1e8]
        ]
        assert values[0] > values[1] > values[2]

    def test_dominates_monte_carlo(self):
        """Bound >= the 99% Wilson upper bound of a simulated interloper rate."""
        from zipforder import replicate_stream, truncation_index

        params = BNC_PARAMS
        m_rank, n_rank = 36, 72
        horizon = truncation_index(params, n_rank, 1e-6)
        ranks = np.arange(n_rank + 1, horizon + 1, dtype=float)
        tail_means = params.N * ranks**-params.alpha
        lam_m = params.mean_of(m_rank)
        reps = 10_000
        stream = replicate_stream(20260809, 0)
        hits = 0
        for _ in range(reps):
            x_m = stream.poisson(lam_m)
            if stream.poisson(tail_means).max() >= x_m:
                hits += 1
        assert interloper_bound(m_rank, n_rank, params) >= wilson_upper(hits, reps)

    def test_domains(self):
        with pytest.raises(DomainError):
            interloper_bound(8, 8, EnsembleParams(100.0, 2.0))
        with pytest.raises(DomainError):
            interloper_bound(0, 8, EnsembleParams(100.0, 2.0))
        with pytest.raises(DomainError):
            interloper_bound(2, 8, EnsembleParams(100.0, 2.0, 0.5))


class TestSwapLowerBound:
    def test_clamps_to_zero_for_small_means(self):
        assert swap_lower_bound(1, EnsembleParams(2.0, 2.0)) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError, match="i must be >= 1"):
            swap_lower_bound(0, BNC_PARAMS)
        with pytest.raises(DomainError):
            swap_lower_bound(3, EnsembleParams(1e7, 1.106, 1.0))  # k != 0

    def test_matches_mpmath_formula(self):
        """exp(-1) max(0, Phi(z) - 0.8/sd) with sd = sqrt(lam_{i+1}) and
        z = (lam_{i+1} - lam_i)/sd, evaluated at 40 digits from the same float
        means, for z from -0.03 down to -5 and one clamped case (z = -34)."""
        for i, N, alpha in [(1, 1e3, 1.5), (500, 1e7, 1.106), (2000, 1e7, 1.106),
                            (2_000_000, 1e20, 1.1), (1_800_000_000, 1e30, 1.1)]:
            params = EnsembleParams(N, alpha)
            with mp.workdps(40):
                lam_i = mp.mpf(params.mean_of(i))
                lam_next = mp.mpf(params.mean_of(i + 1))
                sd = mp.sqrt(lam_next)
                phi = mp.ncdf((lam_next - lam_i) / sd)
                ref = float(mp.exp(-1) * max(mp.mpf(0), phi - mp.mpf(0.8) / sd))
            assert swap_lower_bound(i, params) == pytest.approx(ref, rel=1e-14, abs=0.0), i

    def test_asymptotic_constant(self):
        """Phi(-alpha (2C)^(-alpha/2)) / 3 at alpha=1.106, C=1."""
        value = statistics.NormalDist().cdf(-1.106 * 2.0 ** (-1.106 / 2.0)) / 3.0
        assert value == pytest.approx(0.0751, abs=5e-4)
        # frozen 30-digit reference of the same expression
        assert value == pytest.approx(0.075156445179519, abs=1e-12)

    def test_monte_carlo_dominated(self):
        """Empirical swap rate stays above the lower bound at ranks 100 and 500."""
        from zipforder import replicate_stream

        reps = 100_000
        stream = replicate_stream(424242, 0)
        for rank in (100, 500):
            lam_i = BNC_PARAMS.mean_of(rank)
            lam_next = BNC_PARAMS.mean_of(rank + 1)
            draws_i = stream.poisson(lam_i, size=reps)
            draws_next = stream.poisson(lam_next, size=reps)
            empirical = float(np.mean(draws_next >= draws_i))
            assert empirical >= swap_lower_bound(rank, BNC_PARAMS)

    def test_nontrivial_somewhere(self):
        assert swap_lower_bound(500, BNC_PARAMS) > 0.05


class TestTeicherFloor:
    def test_constant(self):
        assert teicher_floor() == pytest.approx(0.36787944, abs=1e-8)

    def test_exact_cdf_dominates_floor(self):
        for lam in [0.5, 1.0, 3.7, 10.0, 100.0]:
            assert poisson_cdf(lam, lam) >= teicher_floor()

    def test_unit_mean_hand_value(self):
        assert poisson_cdf(1.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

"""Scale estimation from totals and from per-rank counts."""

import math

import numpy as np
import pytest

from conftest import make_zipf_table
from zipforder import (
    DomainError,
    RankedCounts,
    SensitivityReport,
    SensitivityRow,
    estimate_N_total,
    hurwitz_zeta,
    local_scale_estimates,
    riemann_zeta,
    sensitivity_sweep,
    threshold_n_prime,
)


class TestRankedCounts:
    def test_basic_table(self):
        t = RankedCounts(counts=(9.0, 5.0, 3.0), labels=("a", "b", "c"))
        assert len(t) == 3
        assert t.counts[0] == 9.0
        assert t.total == 17.0
        assert list(t.rows()) == [(1, "a", 9.0), (2, "b", 5.0), (3, "c", 3.0)]

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError, match="nonincreasing"):
            RankedCounts(counts=(3.0, 9.0, 5.0))

    def test_total_override(self):
        t = RankedCounts(counts=(5.0, 3.0), total=100.0)
        assert t.total == 100.0

    def test_total_below_sum_rejected(self):
        with pytest.raises(DomainError, match="smaller than"):
            RankedCounts(counts=(5.0, 3.0), total=7.0)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            RankedCounts(counts=(5.0, -1.0))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((5.0, math.nan, -1.0), "got nan"),
            ((5.0, -1.0, math.inf), "got -1.0"),
            ((math.inf, 1.0), "got inf"),
            ((9.0, 4.0, 7.0, 8.0), "rank 2 has 4.0 < 7.0"),
        ],
    )
    def test_first_bad_value_named(self, counts, message):
        with pytest.raises(DomainError, match=message):
            RankedCounts(counts=counts)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            RankedCounts(counts=())

    def test_label_length_checked(self):
        with pytest.raises(DomainError, match="equal length"):
            RankedCounts(counts=(5.0, 3.0), labels=("a",))

    @pytest.mark.parametrize("total", [math.inf, math.nan])
    def test_nonfinite_total_rejected(self, total):
        with pytest.raises(DomainError, match="total must be finite"):
            RankedCounts(counts=(5.0, 3.0), total=total)

    def test_sum_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="table sum exceeds the float range"):
            RankedCounts(counts=(1e308, 1e308))


class TestEstimateNTotal:
    def test_bnc_total_anchor(self):
        value = estimate_N_total(1e8, 1.106, 0.0)
        assert value == pytest.approx(1e7, rel=5e-3)

    def test_unit_scale(self):
        assert estimate_N_total(riemann_zeta(2.0), 2.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        for T, alpha, k in [(123.0, 1.5, 0.0), (9.9e6, 1.2, 2.5), (4e4, 3.0, 0.7)]:
            n_est = estimate_N_total(T, alpha, k)
            assert n_est * hurwitz_zeta(alpha, k + 1.0) == pytest.approx(T, rel=1e-10)

    def test_linear_in_T(self):
        base = estimate_N_total(1e6, 1.3, 1.0)
        assert estimate_N_total(3.5e6, 1.3, 1.0) == pytest.approx(3.5 * base, rel=1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            estimate_N_total(0.0, 1.5, 0.0)
        with pytest.raises(DomainError):
            estimate_N_total(10.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            estimate_N_total(10.0, 1.5, -1.0)


class TestLocalScaleEstimates:
    def test_single_entry(self):
        t = RankedCounts(counts=(7.0,))
        assert local_scale_estimates(t, 1.7, 1, 1) == 7.0

    def test_rounded_zipf_recovers_scale(self):
        """Counts round(N i^-alpha) give N_i within 1% of N for i <= 20."""
        t = make_zipf_table(1e6, 1.2, 50)
        for i in range(1, 21):
            assert local_scale_estimates(t, 1.2, i, i) == pytest.approx(1e6, rel=1e-2)

    def test_exact_real_valued_means_are_fixed_point(self):
        ranks = np.arange(1, 101, dtype=float)
        t = RankedCounts(counts=tuple(2.5e5 * ranks**-1.4))
        for i in range(1, 101):
            assert local_scale_estimates(t, 1.4, i, i) == pytest.approx(2.5e5, rel=1e-9)
        assert local_scale_estimates(t, 1.4, 1, 100) == pytest.approx(2.5e5, rel=1e-9)

    def test_zero_count_in_window_rejected(self):
        t = RankedCounts(counts=(5.0, 1.0, 0.0))
        with pytest.raises(DomainError, match="count 0"):
            local_scale_estimates(t, 1.5, 1, 3)

    def test_beyond_float_range(self):
        """6^400 and 1e300 * 2^30 overflow: a DomainError naming the rank, not
        OverflowError or inf."""
        t = RankedCounts(counts=(5.0, 3.0, 2.0) + (1.0,) * 7)
        assert local_scale_estimates(t, 300.0, 2, 2) == 3.0 * 2.0**300
        assert local_scale_estimates(t, 300.0, 1, 2) == 5.0
        with pytest.raises(DomainError, match="rank 6,"):
            local_scale_estimates(t, 400.0, 1, 10)
        with pytest.raises(DomainError, match="rank 2"):
            local_scale_estimates(RankedCounts(counts=(1e300, 1e300)), 30.0, 1, 2)

    def test_window_validation(self):
        t = RankedCounts(counts=(5.0, 3.0))
        with pytest.raises(DomainError):
            local_scale_estimates(t, 1.5, 0, 2)
        with pytest.raises(DomainError):
            local_scale_estimates(t, 1.5, 1, 3)
        with pytest.raises(DomainError):
            local_scale_estimates(t, 1.5, 2, 1)

    def test_window_minimum_matches_brute_force(self):
        """The estimate is min over the window of X_i * i**alpha, bit for bit,
        wherever in the window the minimum falls."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            length = int(rng.integers(1, 40))
            counts = np.sort(rng.integers(1, 10**6, size=length))[::-1].astype(float)
            t = RankedCounts(counts=tuple(counts))
            alpha = float(rng.uniform(1.01, 3.0))
            lo = int(rng.integers(1, length + 1))
            hi = int(rng.integers(lo, length + 1))
            expect = min(t.counts[i - 1] * i**alpha for i in range(lo, hi + 1))
            assert local_scale_estimates(t, alpha, lo, hi) == expect
        t = RankedCounts(counts=(10.0, 10.0, 10.0))
        assert local_scale_estimates(t, 2.0, 1, 3) == 10.0
        assert local_scale_estimates(t, 2.0, 2, 3) == 40.0

    def test_corpus_rank10_scale(self):
        """The rank-10 count from the real corpus table gives N_10 = X_10 * 10^alpha."""
        est = local_scale_estimates(
            RankedCounts(counts=(1039323.0,)), 1.106, 1, 1
        )
        assert est == pytest.approx(1039323.0)
        n_10 = 1039323.0 * 10.0**1.106
        assert n_10 == pytest.approx(1.3266e7, rel=1e-4)


class TestSensitivitySweep:
    def test_rows_echo_grid(self, synthetic_bnc_like):
        grid = (1.05, 1.075, 1.106, 1.125, 1.15)
        report = sensitivity_sweep(synthetic_bnc_like, grid, 10, 100)
        assert tuple(r.alpha for r in report.rows) == grid

    def test_single_alpha_matches_composition(self, synthetic_bnc_like):
        report = sensitivity_sweep(synthetic_bnc_like, [1.106], 10, 100)
        est = local_scale_estimates(synthetic_bnc_like, 1.106, 10, 100)
        row = report.rows[0]
        assert row.N_est == est
        assert row.n_prime == threshold_n_prime(est, 1.106).n_prime

    def test_exact_zipf_direction_recorded(self):
        """Observed direction on exact Zipf input: n' peaks at the true alpha.

        Below the true exponent the window minimum N_est rises quickly with
        alpha and n' increases; above it the growth stalls and n' drifts
        down.  Recorded as computed on this frozen constructed input.
        """
        t = make_zipf_table(1e7, 1.106, 200)
        grid = [1.05, 1.075, 1.106, 1.125, 1.15]
        report = sensitivity_sweep(t, grid, 10, 100)
        n_primes = [r.n_prime for r in report.rows]
        diffs = np.diff(n_primes)
        assert np.all(diffs[:2] > 0)
        assert np.all(diffs[2:] < 0)

    def test_strictly_increasing_grid_enforced(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            SensitivityReport(
                rows=(
                    SensitivityRow(1.2, 1.0, 1.0),
                    SensitivityRow(1.1, 1.0, 1.0),
                )
            )

    def test_nonempty_enforced(self):
        with pytest.raises(DomainError):
            SensitivityReport(rows=())

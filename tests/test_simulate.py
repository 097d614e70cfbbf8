"""Simulator correctness: sampling distribution, truncation, classifier, determinism."""

import json
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import brute_force_outcome, horizon_tail_sum, log_space_horizon, poisson_sf_extreme
from zipforder import (
    ConfigurationError,
    DomainError,
    EnsembleParams,
    OrderingOutcome,
    ordering_outcome,
    prefix_error_bound,
    replicate_stream,
    run_experiment,
    threshold_n_prime,
    truncation_index,
)
from zipforder.simulate import _ERROR_KINDS, _MAX_MEAN, _classify, _means, _simulate_chunk

BNC_PARAMS = EnsembleParams(1e7, 1.106, 0.0)

# ExperimentSummary.to_dict() of fixed runs, recorded from the simulator
# that drew with a fresh Philox generator per replicate and classified one
# row at a time.  Cases cover a shifted law, seeds that need reduction
# mod 2**64 and worker chunks that start mid-run.
GOLDEN = json.loads((Path(__file__).parent / "data" / "simulate_golden.json").read_text())


@pytest.fixture(scope="module")
def bnc_run():
    return run_experiment(BNC_PARAMS, reps=1000, seed=1)


class TestSamplePoisson:
    def test_zero_mean_is_degenerate(self):
        assert not replicate_stream(1, 0).poisson(0.0, size=100).any()

    def test_mean_at_four(self):
        """Empirical mean over 1e6 draws within a 5-sigma band of 4."""
        draws = replicate_stream(2, 0).poisson(4.0, size=1_000_000)
        assert abs(draws.mean() - 4.0) <= 5.0 * 2.0 / 1000.0

    def test_large_mean_variance_and_fit(self):
        """Variance within 1% at lam = 6.2e6 and chi-square GOF at the 0.001 level.

        Expected bin masses come from the exact Poisson CDF, not a normal
        approximation, so the test is sensitive to real sampler defects.
        """
        lam = 6.2e6
        n = 1_000_000
        draws = replicate_stream(3, 0).poisson(lam, size=n)
        assert abs(draws.var() - lam) <= 0.01 * lam

        n_bins = 20
        z_edges = stats.norm.ppf(np.linspace(0.0, 1.0, n_bins + 1))
        cuts = np.floor(lam + z_edges[1:-1] * math.sqrt(lam))
        expected_cdf = np.concatenate(
            [[0.0], stats.poisson.cdf(cuts, lam), [1.0]]
        )
        expected = np.diff(expected_cdf) * n
        observed = np.histogram(draws, bins=np.concatenate([[-np.inf], cuts + 0.5, [np.inf]]))[0]
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.isf(0.001, n_bins - 1)


class TestTruncationIndex:
    def test_reference_configuration(self):
        m = truncation_index(BNC_PARAMS, 72, 1e-6)
        assert m >= 288  # floor 4 * n_focus

    def test_residual_oracle(self):
        """Beyond the horizon, reaching the reference level has mass <= safety."""
        m = truncation_index(BNC_PARAMS, 72, 1e-6)
        tau = BNC_PARAMS.mean_of(144)
        residual = sum(
            poisson_sf_extreme(BNC_PARAMS.mean_of(i), tau)
            for i in range(m + 1, m + 5001)
        )
        assert residual <= 1e-6

    def test_monotone_in_safety(self):
        params = EnsembleParams(2000.0, 1.4)
        m_loose = truncation_index(params, 5, 1e-2)
        m_tight = truncation_index(params, 5, 1e-9)
        assert m_loose <= m_tight

    def test_floor_applies(self):
        assert truncation_index(BNC_PARAMS, 10, 1e-6) >= 40

    def test_unreachable_configuration(self):
        # the tail at level 1 decays like M^-0.5: a finite certificate exists
        # but lies far beyond the 2**20 limit
        with pytest.raises(ConfigurationError):
            truncation_index(EnsembleParams(2.0, 1.5), 50, 1e-6)

    @pytest.mark.parametrize(
        "N, alpha, k, n_focus, expected",
        [
            (1e7, 1.106, 0.0, 72, 288),
            (1e7, 1.106, 0.0, 73, 292),  # BNC golden cases and benchmark point
            (1e7, 1.106, 0.0, 10, 40),
            (1e7, 1.106, 0.0, 5, 20),
            (5e4, 1.3, 2.5, 8, 32),
            (5e4, 1.3, 0.0, 10, 40),
            (1e11, 1.106, 0.0, 1210, 4840),  # deep benchmark point
            (100.0, 2.0, 0.0, 2, 15),  # tau = 6.25, certified at the level 7
            (3.0, 1.2, 0.0, 1, 45_124),  # sparse point: tau = 1.31, level 2
        ],
    )
    def test_pinned_horizons(self, N, alpha, k, n_focus, expected):
        assert truncation_index(EnsembleParams(N, alpha, k), n_focus, 1e-6) == expected

    @pytest.mark.parametrize(
        "N, alpha",
        [
            (2.05, 1.01),  # the tail at level 2 decays like M^-1.02: above 1e-6 at 2**20
            (1e7, 500.0),  # every mean past the floor M = 4 underflows to 0.0
        ],
    )
    def test_limit_named_in_error(self, N, alpha):
        with pytest.raises(ConfigurationError, match="1048576"):
            truncation_index(EnsembleParams(N, alpha), 1, 1e-6)

    @pytest.mark.parametrize(
        "N, alpha, k, n_focus",
        [
            (1e18, 3.0, 0.0, 2**53),  # the floor alone would hold 2**55 counts
            (1e24, 1.01, 1e5, None),  # ceil(n') = 22,718,841
            (9e18, 1.001, 0.0, None),  # ceil(n') = 534,838
            (1e18, 3.0, 0.0, 10**400),  # an int past the float range
        ],
    )
    def test_floor_past_limit(self, monkeypatch, N, alpha, k, n_focus):
        """A floor 4 n_focus above 2**20 raises before any candidate is tried."""
        def tail_bound(*args):
            raise AssertionError("a candidate was tried")

        monkeypatch.setattr("zipforder.simulate.poisson_upper_tail_bound", tail_bound)
        if n_focus is None:
            n_focus = math.ceil(threshold_n_prime(N, alpha).n_prime)
        assert 4 * n_focus > 2**20
        with pytest.raises(ConfigurationError, match="1048576"):
            truncation_index(EnsembleParams(N, alpha, k), n_focus, 1e-6)

    @pytest.mark.parametrize(
        "N, alpha, k, n_focus, safety",
        [
            (N, alpha, k, n_focus, safety)
            for N, alpha, k, n_focus in [
                (5.0, 2.0, 0.0, 1),
                (10.0, 1.5, 2.5, 1),
                (20.0, 3.0, 0.0, 1),
                (50.0, 1.1, 2.5, 1),
                (100.0, 2.0, 0.0, 2),
                (1e3, 1.5, 2.5, 5),
                (1e5, 1.05, 100.0, 1),
                (1e7, 1.106, 0.0, 72),
                (1e9, 1.2, 100.0, 50),
            ]
            for safety in (1e-2, 1e-6, 1e-9)
        ]
        + [
            (3.0, 1.2, 0.0, 1, 1e-2),
            (3.0, 1.2, 0.0, 1, 1e-6),
            (1e4, 2.5, 100.0, 3, 1e-2),
            (1e11, 1.106, 0.0, 1210, 1e-6),
        ],
    )
    def test_certificate_oracle(self, N, alpha, k, n_focus, safety):
        """An independent bound on the mass beyond M at the integer level stays <= safety."""
        params = EnsembleParams(N, alpha, k)
        m = truncation_index(params, n_focus, safety)
        level = math.ceil(params.mean_of(2 * n_focus))
        assert horizon_tail_sum(params, m, level) <= safety

    def test_matches_log_space_certificate(self):
        """The tail bound times (1 + r) certifies the horizon the log-space sum does."""
        rng = np.random.default_rng(20)
        for _ in range(2000):
            params = EnsembleParams(
                10.0 ** rng.uniform(-1.0, math.log10(3e18)),
                rng.uniform(1.01, 5.0),
                rng.choice([0.0, rng.uniform(0.0, 5.0)]),
            )
            n_focus = int(10.0 ** rng.uniform(0.0, 3.0))
            safety = 10.0 ** rng.uniform(-12.0, -1.0)
            try:
                expected = log_space_horizon(params, n_focus, safety)
            except (ConfigurationError, DomainError) as exc:
                with pytest.raises(type(exc)):
                    truncation_index(params, n_focus, safety)
            else:
                assert truncation_index(params, n_focus, safety) == expected, params

    def test_domains(self):
        with pytest.raises(DomainError):
            truncation_index(BNC_PARAMS, 0, 1e-6)
        with pytest.raises(DomainError):
            truncation_index(BNC_PARAMS, 10, 0.0)

    def test_level_beyond_float_factorial(self):
        """ceil(tau)! passes the float range near tau = 2.5e305: DomainError, not OverflowError."""
        with pytest.raises(DomainError, match="float range"):
            truncation_index(EnsembleParams(1.7e308, 1.5), 1, 1e-6)


class TestSampleEnsemble:
    def test_rank_one_mean(self):
        """Average first count over 1e4 replicates within 3 sigma of N."""
        params = EnsembleParams(1e4, 2.0)
        total = 0.0
        for r in range(10_000):
            total += replicate_stream(6, r).poisson(1e4)
        mean = total / 10_000
        assert abs(mean - 1e4) <= 3.0 * 100.0 / 100.0

    def test_independence_smoke(self):
        """Correlation of ranks 1 and 2 across replicates is 0 within 5 sigma."""
        params = EnsembleParams(1e4, 2.0)
        lam = np.array([params.mean_of(1), params.mean_of(2)], float)
        draws = np.array([replicate_stream(7, r).poisson(lam) for r in range(10_000)])
        corr = float(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1])
        assert abs(corr) <= 5.0 / math.sqrt(10_000)


class TestOrderingOutcome:
    def test_descending_draw_hits_horizon(self):
        assert ordering_outcome([5, 3, 1]) == OrderingOutcome(3, "none")

    def test_adjacent_overtake_is_transposition(self):
        out = ordering_outcome([5, 3, 4, 1])
        assert out.correct_prefix_len == 1
        assert out.blocker_index == 3
        assert out.first_error == "transposition"

    def test_equal_best_of_rest_is_tie(self):
        out = ordering_outcome([5, 4, 4, 1])
        assert out.correct_prefix_len == 1
        assert out.blocker_index == 2
        assert out.first_error == "tie"

    def test_deep_overtake_is_jump(self):
        out = ordering_outcome([5, 4, 3, 6])
        assert out.correct_prefix_len == 0
        assert out.first_error == "jump"
        assert out.jump_offset == 3
        assert out.blocker_index == 4

    def test_leading_tie(self):
        out = ordering_outcome([2, 2])
        assert out.correct_prefix_len == 0
        assert out.first_error == "tie"
        assert out.blocker_index == 1

    def test_singleton(self):
        assert ordering_outcome([7]) == OrderingOutcome(1, "none")

    def test_brute_force_equivalence(self):
        """Incremental scan agrees with the literal all-prefixes definition
        on 1e5 random vectors (length <= 12, values <= 8)."""
        rng = np.random.default_rng(987654321)
        for _ in range(100_000):
            length = int(rng.integers(1, 13))
            x = rng.integers(0, 9, size=length)
            got = ordering_outcome(x)
            expect = brute_force_outcome(x)
            assert (
                got.correct_prefix_len,
                got.first_error,
                got.jump_offset,
                got.blocker_index,
            ) == expect

    def test_domain(self):
        with pytest.raises(DomainError):
            ordering_outcome([])

    @pytest.mark.parametrize("counts", [
        [1.0, math.nan], [math.nan, 1.0], [3.0, math.inf], [-math.inf, 1.0],
        np.array([2.0, np.nan]), [10**30, math.nan], ["a", "b"], [2, None], [1 + 2j, 1],
    ], ids=["nan-last", "nan-first", "inf", "minus-inf", "array-nan", "big-int-nan",
            "strings", "none", "complex"])
    def test_rejects_counts_that_are_not_finite_numbers(self, counts):
        """A NaN would never break the chain (every comparison with it is
        false), and a string would reach numpy's comparison: both raise."""
        with pytest.raises(DomainError, match="finite numbers"):
            ordering_outcome(counts)

    def test_ints_past_int64(self):
        assert ordering_outcome([10**30, 1]) == OrderingOutcome(2, "none")
        assert ordering_outcome([10**400, 10**30, 2.5]) == OrderingOutcome(3, "none")
        assert ordering_outcome([10**30, 10**30]) == OrderingOutcome(0, "tie", blocker_index=1)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 40])
    def test_block_rows_match_single_rows(self, m):
        """The block classifier agrees row by row with one-row calls and with
        the brute-force oracle, on tie-heavy integer and float blocks."""
        rng = np.random.default_rng(m)
        block = rng.integers(0, 4, size=(500, m))
        for x in (block, block.astype(np.float64)):
            prefix, kind, blocker = _classify(x)
            for row, l, k, b in zip(x, prefix, kind, blocker):
                single = ordering_outcome(tuple(row.tolist()))
                assert single == ordering_outcome(row)
                assert (single.correct_prefix_len, single.first_error) == (l, _ERROR_KINDS[k])
                if single.blocker_index is not None:
                    assert single.blocker_index == b
                assert (
                    single.correct_prefix_len,
                    single.first_error,
                    single.jump_offset,
                    single.blocker_index,
                ) == brute_force_outcome(row.tolist())


class TestRunExperiment:
    def test_defaults_to_threshold_focus(self, bnc_run):
        assert bnc_run.n_focus == 73  # ceil(72.078)
        assert bnc_run.truncation_m >= 4 * 73

    def test_histogram_accounting(self, bnc_run):
        assert sum(bnc_run.histogram.values()) == 1000
        assert sum(bnc_run.error_kind_counts.values()) == 1000
        assert all(0 <= l <= bnc_run.truncation_m for l in bnc_run.histogram)

    def test_case_study_bands(self, bnc_run):
        lengths = sorted(bnc_run.histogram)
        below = sum(f for l, f in bnc_run.histogram.items() if l < 72)
        transpositions = bnc_run.error_kind_counts["transposition"]
        assert 65 <= lengths[0] <= 75
        assert 130 <= lengths[-1] <= 175
        assert below / 1000 <= 0.01
        assert 0.95 <= transpositions / 1000 <= 0.995

    def test_empirical_within_analytic_bound(self, bnc_run):
        """Misordering frequency <= Bonferroni bound + 3 binomial SEs."""
        reps = bnc_run.reps
        for n in (10, 30, 50, 70):
            failed = sum(f for l, f in bnc_run.histogram.items() if l < n)
            q = failed / reps
            se = math.sqrt(q * (1.0 - q) / reps)
            bound = prefix_error_bound(n, BNC_PARAMS).clamped_probability
            assert q <= bound + 3.0 * se

    def test_deterministic_same_seed(self, bnc_run):
        again = run_experiment(BNC_PARAMS, reps=1000, seed=1)
        assert again == bnc_run

    def test_parallel_equivalence_small(self):
        params = EnsembleParams(5e4, 1.3)
        lone = run_experiment(params, reps=60, seed=99, n_focus=10, workers=1)
        quad = run_experiment(params, reps=60, seed=99, n_focus=10, workers=4)
        assert lone == quad

    def test_pool_sized_to_work(self, monkeypatch):
        """A pool gets at most min(workers, reps, cores) processes, and a
        single chunk runs in process; none is started here."""
        pools = []
        contexts = []

        class InlinePool:
            def __init__(self, max_workers, mp_context=None):
                pools.append(max_workers)
                contexts.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("zipforder.simulate.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        params = EnsembleParams(5e4, 1.3)
        for reps, want in ((1, []), (3, [3]), (60, [4])):
            pools.clear()
            many = run_experiment(params, reps=reps, seed=99, n_focus=10, workers=64)
            assert pools == want
            assert many == run_experiment(params, reps=reps, seed=99, n_focus=10)
        # the pool forks wherever the platform can, whatever the default
        fork = "fork" in multiprocessing.get_all_start_methods()
        want_method = "fork" if fork else multiprocessing.get_start_method()
        assert [c.get_start_method() for c in contexts] == [want_method] * 2

    def test_seed_changes_outcome(self):
        params = EnsembleParams(5e4, 1.3)
        a = run_experiment(params, reps=40, seed=0, n_focus=10)
        b = run_experiment(params, reps=40, seed=1, n_focus=10)
        assert a.histogram != b.histogram

    def test_shifted_law_supported(self):
        params = EnsembleParams(5e4, 1.3, k=2.0)
        summary = run_experiment(params, reps=40, seed=5, n_focus=8)
        assert sum(summary.histogram.values()) == 40
        assert sum(summary.error_kind_counts.values()) == 40

    def test_summary_to_dict_shape(self, bnc_run):
        payload = bnc_run.to_dict()
        assert set(payload) == {
            "reps", "seed", "n_focus", "truncation_m", "histogram", "error_kind_counts",
        }
        assert payload["histogram"] == sorted(payload["histogram"])
        assert set(payload["error_kind_counts"]) == {"none", "transposition", "tie", "jump"}

    @pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
    def test_golden_summary_bytes(self, case):
        params = EnsembleParams(case["N"], case["alpha"], case["k"])
        expected = json.dumps(case["expected"])
        for workers in case["workers"]:
            summary = run_experiment(
                params, reps=case["reps"], seed=case["seed"],
                n_focus=case["n_focus"], workers=workers,
            )
            assert json.dumps(summary.to_dict()) == expected

    def test_chunk_matches_fresh_streams(self):
        """A chunk starting mid-run, over a count of replicates that is not a
        multiple of its block, counts what fresh per-replicate streams give."""
        params = EnsembleParams(5e4, 1.3, 1.5)
        m, start, stop = 40, 37, 37 + 1000
        lengths, kinds = _simulate_chunk(params, -9, start, stop, m)
        lam = _means(params, m)
        want_lengths = np.zeros(m + 1, dtype=np.int64)
        want_kinds = dict.fromkeys(_ERROR_KINDS, 0)
        for r in range(start, stop):
            outcome = ordering_outcome(replicate_stream(-9, r).poisson(lam))
            want_lengths[outcome.correct_prefix_len] += 1
            want_kinds[outcome.first_error] += 1
        assert lengths.tolist() == want_lengths.tolist()
        assert dict(zip(_ERROR_KINDS, kinds.tolist())) == want_kinds

    def test_largest_mean_numpy_draws(self):
        """_MAX_MEAN is numpy's own limit: it draws there and refuses the next float."""
        stream = replicate_stream(1, 0)
        assert stream.poisson(_MAX_MEAN) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            stream.poisson(math.nextafter(_MAX_MEAN, math.inf))

    def test_mean_beyond_numpy_limit(self):
        """lambda_1 above about 9.22e18 is a DomainError before any horizon search;
        N = 1e18 still runs."""
        for N in (1e19, 1.7e308):
            with pytest.raises(DomainError, match="largest Poisson mean"):
                run_experiment(EnsembleParams(N, 1.5), reps=2, seed=1, n_focus=1)
        summary = run_experiment(EnsembleParams(1e18, 1.5), reps=2, seed=1)
        assert sum(summary.histogram.values()) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            run_experiment(BNC_PARAMS, reps=0, seed=1)
        with pytest.raises(DomainError):
            run_experiment(BNC_PARAMS, reps=1, seed=1, workers=0)

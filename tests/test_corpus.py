"""Table ingestion, diagnostics, and the composed analysis report."""

import io
import json
import math

import numpy as np
import pytest

from conftest import BNC_TOTAL, make_zipf_table
from zipforder import (
    DomainError,
    ParseError,
    RankedCounts,
    adjacent_se,
    analyze,
    load_rank_counts,
    threshold_n_prime,
    write_se_csv,
    write_zipf_csv,
    zipf_plot_data,
)


class TestLoadRankCounts:
    def test_tsv_two_rows(self):
        text = "the\t6187267\nbe\t4239632\n"
        table = load_rank_counts(io.StringIO(text), fmt="tsv")
        assert table.counts == (6187267.0, 4239632.0)
        assert table.labels == ("the", "be")
        assert load_rank_counts(io.StringIO(text), fmt="auto") == table

    def test_csv_single_row(self):
        table = load_rank_counts(io.StringIO("x,5\n"), fmt="csv")
        assert len(table) == 1
        assert table.total == 5.0
        assert load_rank_counts(io.StringIO("x,5\n"), fmt="auto") == table

    def test_unsorted_input_sorted(self):
        table = load_rank_counts(io.StringIO("a,3\nb,9\nc,5\n"), fmt="csv")
        assert table.counts == (9.0, 5.0, 3.0)
        assert table.labels == ("b", "c", "a")

    def test_ties_keep_input_order(self):
        table = load_rank_counts(io.StringIO("a,5\nb,7\nc,5\n"), fmt="csv")
        assert table.labels == ("b", "a", "c")

    def test_three_column_form(self):
        table = load_rank_counts(io.StringIO("1\tfoo\t10\n2\tbar\t4\n"), fmt="tsv")
        assert table.labels == ("foo", "bar")

    def test_header_and_comments_skipped(self):
        text = "#\tword frequency list\nword,count\na,9\nb,3\n"
        table = load_rank_counts(io.StringIO(text), fmt="csv")
        assert table.counts == (9.0, 3.0)
        # auto looks past the comment, whose tab says nothing of the delimiter
        assert load_rank_counts(io.StringIO(text), fmt="auto") == table

    @pytest.mark.parametrize(
        "text",
        [
            "word\tfreq\nthe\t100\nof\t50\n",
            "rank\tword\tcount\n1\tthe\t100\n2\tof\t50\n",
            "word\t\nthe\t100\nof\t50\n",
        ],
    )
    def test_header_forms_skipped(self, text):
        table = load_rank_counts(io.StringIO(text), fmt="auto")
        assert table.counts == (100.0, 50.0)
        assert table.labels == ("the", "of")

    @pytest.mark.parametrize("count", ["100.0", "1e6", "6,187,267", "1_000.5", "nan", "inf"])
    def test_numeric_first_count_is_not_a_header(self, count):
        """A first record whose count is a number, but no integer, keeps rank 1 by failing."""
        lines = [f"the\t{count}", "of\t50", "and\t10"]
        with pytest.raises(ParseError, match="^line 1: count field"):
            load_rank_counts(lines, fmt="tsv")
        with pytest.raises(ParseError, match="^line 2: count field"):
            load_rank_counts(["# list", *lines], fmt="tsv")

    def test_second_header_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            load_rank_counts(["word\tcount", "word\tcount", "the\t9"], fmt="tsv")

    def test_malformed_count_has_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            load_rank_counts(io.StringIO("a,9\nb,3\nc,x\n"), fmt="csv")

    def test_column_count_checked(self):
        with pytest.raises(ParseError, match="line 2: expected 2 or 3 columns, got 4"):
            load_rank_counts(io.StringIO("a,9\n1,b,3,x\n"), fmt="csv")

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="line 2: count must be >= 0"):
            load_rank_counts(io.StringIO("a\t9\nb\t-3\n"))

    def test_count_beyond_float_range_rejected(self):
        text = "a\t1\nb\t1" + "0" * 400 + "\nc\t3\n"
        with pytest.raises(ParseError, match="line 2: count exceeds the float range"):
            load_rank_counts(io.StringIO(text))

    def test_float_range_edge(self):
        """The largest count float() rounds to a finite value parses; the next is refused."""
        edge = 2**1024 - 2**970 - 1
        assert load_rank_counts(io.StringIO(f"a\t{edge}\n")).counts == (1.7976931348623157e308,)
        assert load_rank_counts(io.StringIO(f"a\t3\nb\t{10**308}\n")).counts == (1e308, 3.0)
        with pytest.raises(ParseError, match="line 1: count exceeds the float range"):
            load_rank_counts(io.StringIO(f"a\t{edge + 1}\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no data"):
            load_rank_counts(io.StringIO("# nothing here\n"), fmt="csv")

    def test_total_override(self):
        table = load_rank_counts(io.StringIO("a,9\n"), fmt="csv", total=100.0)
        assert table.total == 100.0

    def test_non_utf8_path_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"a\t9\n\xff\t3\n")
        with pytest.raises(ParseError, match="UTF-8"):
            load_rank_counts(bad)

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_text_stream_is_parse_error(self, errors):
        stream = io.TextIOWrapper(
            io.BytesIO(b"a\t9\n\xff\t3\n"), encoding="utf-8", errors=errors
        )
        with pytest.raises(ParseError, match="UTF-8"):
            load_rank_counts(stream)

    def test_bad_format_rejected(self):
        with pytest.raises(DomainError):
            load_rank_counts(io.StringIO("a,9\n"), fmt="xlsx")

    def test_fixture_loads(self, bnc_top10):
        assert len(bnc_top10) == 10
        assert bnc_top10.counts[0] == 6187267.0
        assert bnc_top10.total == BNC_TOTAL


class TestAdjacentSe:
    def test_bnc_ranks_9_10(self, bnc_top10):
        se = adjacent_se(bnc_top10)
        assert se[8] == pytest.approx(34.9, abs=0.1)

    def test_near_tie_pair(self):
        pair = RankedCounts(counts=(20660.0, 20633.0))
        assert adjacent_se(pair)[0] == pytest.approx(0.133, abs=1e-3)

    def test_equal_counts_give_zero(self):
        assert adjacent_se(RankedCounts(counts=(5.0, 5.0)))[0] == 0.0

    def test_zero_sum_sentinel(self):
        table = RankedCounts(counts=(3.0, 0.0, 0.0))
        assert adjacent_se(table) == (pytest.approx(3.0 / math.sqrt(3.0)), 0.0)

    def test_sign_matches_direct_comparison(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            x = np.sort(rng.integers(0, 30, size=10))[::-1]
            table = RankedCounts(counts=tuple(float(v) for v in x))
            for (a, b), se in zip(zip(x, x[1:]), adjacent_se(table)):
                if a > b:
                    assert se > 0
                else:
                    assert se == 0.0


class TestZipfPlotData:
    def test_hand_logs(self):
        table = RankedCounts(counts=(math.e, 1.0))
        plot = zipf_plot_data(table)
        assert plot.points[0] == (1, 0.0, pytest.approx(1.0))
        assert plot.points[1] == (2, pytest.approx(math.log(2.0)), pytest.approx(0.0))

    def test_slopes_echoed_and_anchored(self):
        table = RankedCounts(counts=(100.0, 10.0))
        plot = zipf_plot_data(table, slopes=(-0.9, -1.3))
        assert plot.lines[0].slope == -0.9
        assert plot.lines[1].slope == -1.3
        assert plot.lines[0].intercept == pytest.approx(math.log(100.0) + 0.5)
        assert plot.lines[1].intercept == pytest.approx(math.log(100.0) - 0.5)

    def test_zero_counts_skipped_and_reported(self):
        table = RankedCounts(counts=(10.0, 0.0, 0.0))
        plot = zipf_plot_data(table)
        assert len(plot.points) == 1
        assert plot.skipped_ranks == (2, 3)

    def test_matches_per_row_rule(self):
        """Points are the positive counts and the skipped ranks are the zeros, as
        a per-row pass over tables of every zero-tail length gives them."""
        rng = np.random.default_rng(3)
        for length in range(1, 30):
            for zeros in range(length):
                c = np.sort(rng.integers(1, 1000, size=length))[::-1].astype(float)
                c[length - zeros:] = 0.0
                plot = zipf_plot_data(RankedCounts(counts=tuple(c)))
                ranks = range(1, length + 1)
                assert plot.points == tuple(
                    (i, math.log(i), math.log(x)) for i, x in zip(ranks, c) if x > 0.0
                )
                assert plot.skipped_ranks == tuple(i for i, x in zip(ranks, c) if x == 0.0)
                assert plot.lines[0].intercept == math.log(c[0]) + 0.5

    @pytest.mark.parametrize("slopes", [(math.nan, -1.1), (-1.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_slope_rejected(self, slopes):
        with pytest.raises(DomainError, match="slopes must be finite"):
            zipf_plot_data(RankedCounts(counts=(10.0, 5.0)), slopes=slopes)

    def test_zero_top_count_rejected(self):
        with pytest.raises(DomainError, match="rank 1 has count 0"):
            zipf_plot_data(RankedCounts(counts=(0.0, 0.0)))

    def test_loglog_slope_near_power_law(self, synthetic_bnc_like):
        """Least-squares slope over ranks 10..100 sits in [-1.2, -1.0]."""
        plot = zipf_plot_data(synthetic_bnc_like)
        pts = [(lr, lc) for i, lr, lc in plot.points if 10 <= i <= 100]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope = float(np.polyfit(x, y, 1)[0])
        assert -1.2 <= slope <= -1.0


class TestAnalyze:
    def test_corpus_anchors(self, bnc_top10):
        """Total-driven threshold and prefix pick on the real top-10 table."""
        report = analyze(bnc_top10, alpha=1.106, window=(10, 100), epsilon=0.01)
        assert report.n_hat == pytest.approx(72.08, abs=0.2)
        assert report.params_used.N == pytest.approx(1e7, rel=5e-3)
        # see the decisions ledger: the exact Bonferroni sums cross 1% at 69
        assert report.pick_n_result == 69
        assert report.window == (10, 10)  # clamped to the table length

    def test_synthetic_exact_composition(self):
        """On exact Zipf counts with known scale the report is pure composition."""
        table = make_zipf_table(1e6, 1.2, 500)
        report = analyze(table, alpha=1.2, window=(10, 100))
        n_est = report.window_scale_min
        assert report.n_prime == threshold_n_prime(n_est, 1.2).n_prime
        assert n_est == pytest.approx(1e6, rel=1e-2)

    @pytest.mark.parametrize("alphas", [None, (1.05, 1.106, 1.15), (1.3, 1.4)])
    @pytest.mark.parametrize("window", [(10, 100), (1, 5), (50, 10_000)])
    def test_window_threshold_is_brute_force_minimum(self, synthetic_bnc_like, alphas, window):
        """n_prime and window_scale_min come from min_i X_i i^alpha over the
        clamped window, whether or not alpha is on the sensitivity grid."""
        alpha = 1.106
        report = analyze(synthetic_bnc_like, alpha=alpha, window=window, alphas=alphas)
        lo, hi = report.window
        assert hi == min(window[1], len(synthetic_bnc_like))
        scale = min(synthetic_bnc_like.count(i) * i**alpha for i in range(lo, hi + 1))
        assert report.window_scale_min == scale
        assert report.n_prime == threshold_n_prime(scale, alpha).n_prime
        on_grid = [r for r in report.sensitivity.rows if r.alpha == alpha]
        assert len(on_grid) == (alphas is None or alpha in alphas)

    def test_echoes_inputs(self, synthetic_bnc_like):
        report = analyze(
            synthetic_bnc_like,
            alpha=1.106,
            window=(10, 100),
            epsilon=0.02,
            alphas=(1.05, 1.106, 1.15),
            slopes=(-1.0, -1.1),
        )
        assert report.epsilon == 0.02
        assert report.window == (10, 100)
        assert report.reference_slopes == (-1.0, -1.1)
        assert tuple(r.alpha for r in report.sensitivity.rows) == (1.05, 1.106, 1.15)
        assert len(report.adjacent_se) == len(synthetic_bnc_like) - 1
        assert report.counts_summary.length == len(synthetic_bnc_like)
        assert report.counts_summary.top == tuple(list(synthetic_bnc_like.rows())[:10])
        short = analyze(RankedCounts(counts=(9.0, 5.0, 2.0)), alpha=1.5, window=(1, 3))
        assert short.counts_summary.top == ((1, None, 9.0), (2, None, 5.0), (3, None, 2.0))

    def test_deterministic(self, synthetic_bnc_like):
        a = analyze(synthetic_bnc_like, alpha=1.106)
        b = analyze(synthetic_bnc_like, alpha=1.106)
        assert a == b

    def test_report_round_trips_through_json(self, bnc_top10):
        report = analyze(bnc_top10, alpha=1.106)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_hat"] == report.n_hat
        assert payload["pick_n_result"] == report.pick_n_result
        assert len(payload["zipf_points"]["points"]) == 10

    def test_window_outside_table_rejected(self):
        table = RankedCounts(counts=(9.0, 5.0))
        with pytest.raises(DomainError, match="window"):
            analyze(table, alpha=1.5, window=(10, 100))


class TestCsvWriters:
    def test_zipf_csv(self):
        plot = zipf_plot_data(RankedCounts(counts=(math.e, 1.0)))
        buf = io.StringIO()
        write_zipf_csv(plot, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,ln_rank,ln_count"
        assert lines[1].startswith("1,0.0,")
        assert len(lines) == 3

    def test_se_csv(self):
        buf = io.StringIO()
        write_se_csv((1.5, -0.25), buf)
        assert buf.getvalue() == "i,se\n1,1.5\n2,-0.25\n"

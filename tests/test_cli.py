"""CLI behaviour: exit codes, schemas, determinism, file and stdin round trips."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import write_bound_csv_per_row
from zipforder import (
    EnsembleParams,
    RankedCounts,
    ReferenceLine,
    ZipfOrderError,
    ZipfPlotData,
    analyze,
    cli,
    load_rank_counts,
    pick_n,
    prefix_error_bound,
    write_se_csv,
    write_zipf_csv,
)
from zipforder.cli import main
from zipforder import _text
from zipforder._text import _CHUNK, _column_text, _point_text

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from inputs import make_table  # noqa: E402

BNC_TOP10 = str(Path(__file__).parent / "data" / "bnc_top10.tsv")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(text: str) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin``: text over bytes, with the ``.buffer`` the CLI reads."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")))


class TestThreshold:
    def test_reference_value(self, capsys):
        code, out, err = run_cli(
            capsys, "threshold", "--N", "1e7", "--alpha", "1.106"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_prime"] == pytest.approx(72.08, abs=0.05)
        assert payload["n_prime_floor"] == 72
        assert set(payload) == {"N", "alpha", "A_const", "log_N", "n_prime", "n_prime_floor"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--N", "1e7", "--alpha", "1.106", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "N"
        assert len(row.split(",")) == len(header.split(","))

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "threshold", "--N", "1e7", "--alpha", "0.9")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--N", "1e7"])  # missing --alpha
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--N", "1e7", "--alpha", "1.106", "--bogus", "1"])
        assert exc.value.code == 2


class TestLawDomain:
    @pytest.mark.parametrize("argv", [
        ["threshold", "--N", "1e7", "--alpha", "1"],
        ["analyze", "--input", BNC_TOP10, "--alpha", "1", "--total", "1e8"],
    ], ids=["threshold", "analyze"])
    def test_alpha_one_names_the_law(self, capsys, argv):
        """alpha = 1 is refused with the law's rule, whichever function meets it first."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "zipforder: error: alpha must be finite and > 1, got 1.0\n"


class TestBound:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--N", "1e7", "--alpha", "1.106", "--n", "72"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "n", "N", "alpha", "k",
            "per_pair_terms", "bonferroni_sum", "clamped_probability",
        }
        assert payload["bonferroni_sum"] == pytest.approx(0.0199, abs=2e-4)
        assert len(payload["per_pair_terms"]) == 71

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--N", "100", "--alpha", "2", "--n", "3",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "i,term"
        assert len(lines) == 3
        code, out, _ = run_cli(
            capsys, "bound", "--N", "100", "--alpha", "2", "--n", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out == "i,term\n"

    def test_json_empty_terms(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--N", "100", "--alpha", "2", "--n", "1")
        assert code == 0
        assert out == json.dumps(
            {"n": 1, "N": 100.0, "alpha": 2.0, "k": 0.0, "per_pair_terms": [],
             "bonferroni_sum": 0.0, "clamped_probability": 0.0},
            indent=2,
        ) + "\n"

    @pytest.mark.parametrize(
        "n, N, k, lo, hi",
        [
            (1, 1e7, 0.0, 0.0, 1.0),
            (2, 1e7, 0.0, 0.0, 1.0),
            (_CHUNK, 1e7, 0.0, 0.0, 1.0),
            (_CHUNK + 1, 1e7, 0.0, 0.0, 1.0),
            (2 * _CHUNK + 5, 1e7, 0.0, 0.0, 1.0),
            (2 * _CHUNK + 5, 1e7, 2.5, 0.0, 1.0),
            (2 * _CHUNK + 5, 1e300, 0.0, 0.0, 0.0),  # every term underflows
            (2 * _CHUNK + 5, 1e-3, 0.0, 0.99, 1.0),  # every term is near 1
        ],
        ids=["n1", "n2", "chunk", "chunk+1", "2chunk+5", "k", "N1e300", "N1e-3"],
    )
    def test_bytes_match_per_term_references(self, capsys, n, N, k, lo, hi):
        """The JSON is json.dumps(indent=2) of the report and the CSV its per-row loop."""
        report = prefix_error_bound(n, EnsembleParams(N, 1.106, k))
        terms = report.per_pair_terms
        assert len(terms) == n - 1 and all(lo <= t <= hi for t in terms)
        argv = ("bound", "--N", repr(N), "--alpha", "1.106", "--k", repr(k), "--n", str(n))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(
            {"n": n, "N": N, "alpha": 1.106, "k": k, "per_pair_terms": list(terms),
             "bonferroni_sum": report.bonferroni_sum,
             "clamped_probability": report.clamped_probability},
            indent=2,
        ) + "\n"
        want = io.StringIO()
        write_bound_csv_per_row(terms, want)
        assert run_cli(capsys, *argv, "--format", "csv") == (0, want.getvalue(), "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_emit_holds_no_whole_column(self, tmp_path, fmt):
        """bound --n 100000 is written a slice of its terms at a time."""
        argv = ["bound", "--N", "1e7", "--alpha", "1.106", "--n", "100000", "--format", fmt]
        args = cli._build_parser().parse_args(argv)
        terms = prefix_error_bound(args.n, EnsembleParams(args.N, args.alpha)).per_pair_terms
        text = sum(map(len, _column_text(terms)))
        [(_, pieces)] = args.handler(args)
        target = tmp_path / f"bound.{fmt}"
        tracemalloc.start()
        try:
            cli._emit(pieces, str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text > 1_500_000
        assert target.stat().st_size > text
        assert peak < text // 4


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_million_terms_hold_no_list(self, tmp_path, fmt):
        """bound --n 1000000 makes its terms as it writes them and sums them in
        a second pass: cli.main peaks far below the 8 MB a list of them takes."""
        target = tmp_path / f"bound.{fmt}"
        argv = ["bound", "--N", "1e7", "--alpha", "1.106", "--n", "1000000",
                "--format", fmt, "--out", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert target.stat().st_size > 20_000_000
        assert peak < 1_000_000


class TestPickN:
    def test_default_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "pick-n", "--N", "1e7", "--alpha", "1.106")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 69  # largest n with the exact sum <= 0.01
        assert payload["epsilon"] == 0.01
        assert payload["cap_reached"] is False
        assert payload["bonferroni_sum"] <= 0.01

    def test_cap_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "pick-n", "--N", "1e7", "--alpha", "1.106", "--n-max", "10"
        )
        payload = json.loads(out)
        assert payload["n"] == 10
        assert payload["cap_reached"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "pick-n", "--N", "1e7", "--alpha", "1.106", "--format", "csv"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,epsilon,n_max,cap_reached,bonferroni_sum"
        assert row.split(",")[:4] == ["69", "0.01", "100000", "False"]

    @pytest.mark.parametrize(
        "N, n_max, n",
        [(10.0, 100_000, 1), (1e7, 10, 10), (1e12, 100_000, 2461)],
        ids=["n1", "cap", "N1e12"],
    )
    def test_sum_is_prefix_error_bound(self, capsys, N, n_max, n):
        """The reported sum is the one prefix_error_bound gives for the picked n, bit for bit."""
        code, out, _ = run_cli(
            capsys, "pick-n", "--N", repr(N), "--alpha", "1.106", "--n-max", str(n_max)
        )
        payload = json.loads(out)
        assert (code, payload["n"]) == (0, n)
        expected = prefix_error_bound(n, EnsembleParams(N, 1.106)).bonferroni_sum
        assert payload["bonferroni_sum"] == expected


    def test_deep_scan_holds_no_terms(self, tmp_path):
        """Every term underflows to 0, so the scan runs to --n-max 10^6 and
        holds none of them: cli.main peaks far below the 8 MB of their list."""
        target = tmp_path / "pick.json"
        argv = ["pick-n", "--N", "1e300", "--alpha", "1.01", "--n-max", "1000000",
                "--out", str(target)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert (payload["n"], payload["cap_reached"], payload["bonferroni_sum"]) == (
            1_000_000, True, 0.0)
        assert peak < 1_000_000

    def test_underflowed_terms_are_skipped(self, capsys):
        """Every term to --n-max 10^9 underflows to 0, and pick-n starts past
        them: a scan over each would take about 20 minutes."""
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "pick-n", "--N", "1e300", "--alpha", "1.01", "--n-max", "1000000000"
        )
        elapsed = time.perf_counter() - start
        payload = json.loads(out)
        assert (code, payload["n"], payload["cap_reached"], payload["bonferroni_sum"]) == (
            0, 1_000_000_000, True, 0.0)
        assert elapsed < 5.0


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        argv = (
            "simulate", "--N", "5e4", "--alpha", "1.3",
            "--reps", "50", "--seed", "42", "--n-focus", "10",
        )
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_do_not_change_bytes(self, capsys):
        base = (
            "simulate", "--N", "5e4", "--alpha", "1.3",
            "--reps", "48", "--seed", "7", "--n-focus", "10",
        )
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out4, _ = run_cli(capsys, *base, "--workers", "4")
        assert out1 == out4

    def test_summary_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--N", "5e4", "--alpha", "1.3",
            "--reps", "20", "--seed", "3", "--n-focus", "8",
        )
        payload = json.loads(out)
        assert set(payload) == {
            "reps", "seed", "n_focus", "truncation_m", "histogram", "error_kind_counts",
        }
        assert sum(f for _, f in payload["histogram"]) == 20

    def test_csv_histogram(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--N", "5e4", "--alpha", "1.3",
            "--reps", "20", "--seed", "3", "--n-focus", "8", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "L,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 20

    def test_sparse_point_certifies(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--N", "3", "--alpha", "1.2", "--n-focus", "1",
            "--reps", "20", "--seed", "1",
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["truncation_m"] == 45124

    def test_horizon_beyond_limit_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--N", "2.05", "--alpha", "1.01", "--n-focus", "1",
            "--reps", "20", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("zipforder: error:")
        assert len(err.splitlines()) == 1

    def test_floor_past_limit_exit_code(self, capsys):
        """The floor 4 n_focus is capped like every horizon: 2**55 counts are never asked for."""
        code, out, err = run_cli(
            capsys, "simulate", "--N", "1e18", "--alpha", "3", "--reps", "3",
            "--seed", "3", "--n-focus", str(2**53),
        )
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error: no horizon up to 1048576 ")
        assert len(err.splitlines()) == 1

    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--N", "5e4", "--alpha", "1.3", "--reps", "5"])
        assert exc.value.code == 2


class TestAnalyze:
    def test_file_input(self, capsys, bnc_top10_path):
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(bnc_top10_path),
            "--alpha", "1.106", "--total", "1e8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_hat"] == pytest.approx(72.08, abs=0.2)
        assert payload["counts_summary"]["length"] == 10
        assert set(payload) == {
            "counts_summary", "params_used", "n_prime", "n_hat",
            "pick_n_result", "pick_n_cap_reached", "adjacent_se", "zipf_points",
            "reference_slopes", "sensitivity", "window", "epsilon",
            "window_scale_min",
        }

    def test_stdin_csv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin("a,90\nb,40\nc,10\n"))
        code, out, _ = run_cli(
            capsys, "analyze", "--input", "-", "--alpha", "1.5",
            "--window", "1", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts_summary"]["length"] == 3

    def test_plot_csv_side_outputs(self, capsys, tmp_path, bnc_top10_path):
        zipf_path = tmp_path / "zipf.csv"
        se_path = tmp_path / "se.csv"
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(bnc_top10_path),
            "--alpha", "1.106", "--total", "1e8",
            "--zipf-csv", str(zipf_path), "--se-csv", str(se_path),
        )
        assert code == 0
        assert zipf_path.read_text().splitlines()[0] == "i,ln_rank,ln_count"
        se_lines = se_path.read_text().splitlines()
        assert se_lines[0] == "i,se"
        assert len(se_lines) == 10  # header + 9 pairs

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,9\nb,oops\n")
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(bad), "--alpha", "1.5",
            "--window", "1", "1",
        )
        assert code == 1
        assert "line 2" in err

    def test_non_utf8_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"a\t9\n\xff\t3\n")
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(bad), "--alpha", "1.1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error:") and "UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin_exit_code(self, capsys, monkeypatch, errors):
        stdin = io.TextIOWrapper(
            io.BytesIO(b"a,9\n\xff,3\n"), encoding="utf-8", errors=errors
        )
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "analyze", "--input", "-", "--alpha", "1.1")
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error:") and "UTF-8" in err
        assert "Traceback" not in err

    def test_byte_order_mark_changes_no_report_byte(self, capsys, monkeypatch, tmp_path):
        text = "the,6187267\nof,3093444\nand,2687863\n"
        argv = ("analyze", "--alpha", "1.106", "--total", "1e8", "--window", "1", "3")
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        code, expected, _ = run_cli(capsys, *argv, "--input", str(plain))
        assert code == 0
        assert json.loads(expected)["counts_summary"]["top"][0] == [1, "the", 6187267.0]
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert run_cli(capsys, *argv, "--input", str(marked)) == (0, expected, "")
        monkeypatch.setattr("sys.stdin", _stdin("\ufeff" + text))
        assert run_cli(capsys, *argv, "--input", "-") == (0, expected, "")

    def test_count_beyond_float_range_exit_code(self, capsys, tmp_path):
        table = tmp_path / "huge.tsv"
        table.write_text("a\t1" + "0" * 400 + "\nb\t3\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(table), "--alpha", "1.1")
        assert (code, out) == (1, "")
        assert err == "zipforder: error: line 1: count exceeds the float range (about 1.8e308)\n"

    def test_count_past_int_digit_limit_exit_code(self, capsys, tmp_path):
        table = tmp_path / "digits.tsv"
        table.write_text("a\t" + "1" * 5000 + "\nb\t5\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(table), "--alpha", "1.1")
        assert (code, out) == (1, "")
        assert err == "zipforder: error: line 1: count exceeds the float range (about 1.8e308)\n"

    @pytest.mark.parametrize(
        "sign, message",
        [("-", "count must be >= 0, got -inf"),
         ("+", "count exceeds the float range (about 1.8e308)")],
    )
    def test_signed_count_past_int_digit_limit_exit_code(self, capsys, tmp_path, sign, message):
        table = tmp_path / "digits.tsv"
        table.write_text("a\t9\nb\t" + sign + "1" * 5000 + "\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(table), "--alpha", "1.1")
        assert (code, out) == (1, "")
        assert err == f"zipforder: error: line 2: {message}\n"

    def test_decimal_top_count_exit_code(self, capsys, tmp_path):
        table = tmp_path / "decimal.tsv"
        table.write_text("the\t100.0\nof\t50\nand\t10\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(table), "--alpha", "1.1")
        assert (code, out) == (1, "")
        assert err == "zipforder: error: line 1: count field '100.0' is not an integer\n"

    def test_non_finite_slopes_exit_code(self, capsys, tmp_path):
        outputs = [tmp_path / name for name in ("out.json", "zipf.csv", "se.csv")]
        code, out, err = run_cli(
            capsys, "analyze", "--input", BNC_TOP10, "--alpha", "1.106", "--total", "1e8",
            "--slopes", "nan", "inf", "--out", str(outputs[0]),
            "--zipf-csv", str(outputs[1]), "--se-csv", str(outputs[2]),
        )
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error:") and err.count("\n") == 1
        assert "slopes must be finite" in err
        assert not any(p.exists() for p in outputs)

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--input", "/no/such/file.tsv", "--alpha", "1.5"
        )
        assert code == 1
        assert "error" in err

    def test_default_format_reads_a_label_spanning_lines(self, capsys, tmp_path):
        """The auto sniff finds the tab after the first label's line break."""
        table = tmp_path / "table.tsv"
        table.write_text('"a\r\nb"\t9\nc\t3\n', encoding="utf-8", newline="")
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(table), "--alpha", "1.5", "--window", "1", "2"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["counts_summary"]["top"] == [[1, "a\r\nb", 9.0], [2, "c", 3.0]]

    def test_default_format_reads_a_quoted_tab_as_csv(self, capsys, tmp_path):
        """A tab inside the first record's quoted label is no delimiter."""
        table = tmp_path / "table.csv"
        table.write_text('"a\tb",9\nc,3\n', encoding="utf-8")
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(table), "--alpha", "1.5", "--window", "1", "2"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["counts_summary"]["top"] == [[1, "a\tb", 9.0], [2, "c", 3.0]]


@pytest.mark.filterwarnings("error")
class TestQuietSuccess:
    """Conditions a run meets are report fields, so success writes no stderr."""

    def test_analyze_zero_counts(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin("a,90\nb,40\nc,10\nd,0\ne,0\n"))
        code, out, err = run_cli(
            capsys, "analyze", "--input", "-", "--alpha", "1.5", "--window", "1", "3"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["zipf_points"]["skipped_ranks"] == [4, 5]

    def test_pick_n_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "pick-n", "--N", "1e7", "--alpha", "1.106", "--n-max", "10"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["cap_reached"] is True

    def test_simulate_two_workers(self, capfd):
        """The forked pool's processes write nothing to the stderr descriptor either."""
        code, out, err = run_cli(
            capfd, "simulate", "--N", "5e4", "--alpha", "1.3", "--reps", "40",
            "--seed", "7", "--n-focus", "10", "--workers", "2",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["reps"] == 40


class TestFloatEdge:
    """Values beyond the float range exit 1 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("threshold", "--N", "1.7e308", "--alpha", "1.5"),
            ("threshold", "--N", "1e7", "--alpha", "1e308"),
            ("analyze", "--input", BNC_TOP10, "--alpha", "400", "--total", "1e8"),
            ("simulate", "--N", "1e19", "--alpha", "1.5", "--reps", "2", "--seed", "1"),
            ("simulate", "--N", "1.7e308", "--alpha", "1.5", "--n-focus", "1",
             "--reps", "1", "--seed", "1"),
        ],
        ids=["threshold-N", "threshold-alpha", "analyze-alpha", "simulate-N", "simulate-max-N"],
    )
    def test_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("zipforder: error:")
        assert len(err.splitlines()) == 1


class TestRankResolution:
    """From 2^53 on, rank + k and rank + 1 + k can be one float, whose pair
    term reads 1.0; the commands that sum pair terms exit 1 there."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("pick-n", "--N", "1e300", "--alpha", "1.1", "--k", "1e20"),
            ("bound", "--N", "1e300", "--alpha", "1.1", "--k", "1e20", "--n", "3"),
            ("bound", "--N", "1e300", "--alpha", "1.1", "--k", "1e20", "--n", "3",
             "--format", "csv"),
            ("analyze", "--input", BNC_TOP10, "--alpha", "1.106", "--k", "1e20"),
            ("pick-n", "--N", "1e7", "--alpha", "1.106", "--n-max", str(2**53)),
        ],
        ids=["pick-n", "bound-json", "bound-csv", "analyze", "pick-n-cap"],
    )
    def test_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error: rank ") and err.count("\n") == 1
        assert "reaches 2^53" in err

    def test_last_rank_below_the_limit(self, capsys):
        code, out, err = run_cli(
            capsys, "pick-n", "--N", "1e7", "--alpha", "1.106", "--n-max", str(2**53 - 1))
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == pick_n(EnsembleParams(1e7, 1.106), 0.01, 1000)


class TestOutputFile:
    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "threshold", "--N", "1e7", "--alpha", "1.106",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n_prime_floor"] == 72

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "threshold", "--N", "1e7", "--alpha", "1.106",
            "--out", str(tmp_path / "missing" / "x.json"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("zipforder: error:")
        assert len(err.splitlines()) == 1


class TestStdoutRule:
    """``-`` is stdout for every output path, and at most one output may be ``-``."""

    ANALYZE = ["analyze", "--input", BNC_TOP10, "--alpha", "1.106", "--total", "1e8"]

    def test_zipf_csv_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *self.ANALYZE, "--zipf-csv", "zipf.csv")[0] == 0
        code, out, err = run_cli(
            capsys, *self.ANALYZE, "--zipf-csv", "-", "--se-csv", "se.csv", "--out", "out.json"
        )
        assert (code, err) == (0, "")
        assert out == (tmp_path / "zipf.csv").read_text(encoding="utf-8")
        assert (tmp_path / "se.csv").exists() and (tmp_path / "out.json").exists()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("outputs", [
        ["--zipf-csv", "-"],
        ["--se-csv", "-"],
        ["--zipf-csv", "-", "--se-csv", "-", "--out", "out.json"],
    ])
    def test_two_stdout_outputs_are_a_usage_error(self, capsys, tmp_path, monkeypatch, outputs):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*self.ANALYZE, *outputs])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "at most one of --out, --zipf-csv and --se-csv" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--zipf-csv", "--se-csv"])
    def test_empty_side_path_is_refused(self, capsys, tmp_path, monkeypatch, flag):
        """An empty side-output path fails as an empty ``--out`` does, rather
        than being dropped without a word."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *self.ANALYZE, flag, "")
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_file_write_leaves_stdout_empty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, *self.ANALYZE, "--zipf-csv", "-", "--out", str(tmp_path / "missing" / "x.json")
        )
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["threshold", "bound", "pick-n", "simulate", "analyze"]
    )
    def test_subcommand_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
        if command != "analyze":
            assert "--format" in out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ["threshold", "bound", "pick-n", "simulate", "analyze"]:
            assert command in out


def run_process(*argv, stdin: bytes | None = None, **env) -> subprocess.CompletedProcess:
    """``python -m zipforder.cli`` with ``argv``, run from the source tree,
    with ``stdin`` as its input and ``env`` over the environment.  Neither
    ``PYTHONUTF8`` nor ``PYTHONIOENCODING`` is passed on unless given, so
    stdin is set up as the locale says."""
    env = {**{k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")},
           "PYTHONPATH": SRC, **env}
    return subprocess.run([sys.executable, "-m", "zipforder.cli", *argv],
                          input=stdin, capture_output=True, env=env, timeout=120)


class TestProcess:
    """The CLI as a process: entrypoint, the __main__ block and the frozen import heap."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("threshold", "--N", "1e7", "--alpha", "1.106"),
            ("bound", "--N", "1e7", "--alpha", "1.106", "--n", "72"),
            ("pick-n", "--N", "1e7", "--alpha", "1.106"),
            ("simulate", "--N", "1e7", "--alpha", "1.106", "--reps", "50", "--seed", "12345"),
            ("analyze", "--input", BNC_TOP10, "--alpha", "1.106", "--total", "1e8"),
        ],
        ids=["threshold", "bound", "pick-n", "simulate", "analyze"],
    )
    def test_bytes_match_main(self, capsys, argv):
        proc = run_process(*argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert proc.stdout == out.encode("utf-8")

    def test_forked_workers_match_one(self, capsys):
        argv = ("simulate", "--N", "5e4", "--alpha", "1.3", "--reps", "48",
                "--seed", "7", "--n-focus", "10")
        proc = run_process(*argv, "--workers", "2")
        assert (proc.returncode, proc.stderr) == (0, b"")
        code, out, _ = run_cli(capsys, *argv, "--workers", "1")
        assert code == 0
        assert proc.stdout == out.encode("utf-8")

    def test_domain_error(self):
        proc = run_process("threshold", "--N", "1e7", "--alpha", "0.9")
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"zipforder: error: ")
        assert proc.stderr.count(b"\n") == 1

    def test_undecodable_stdin_is_an_error(self, tmp_path):
        """An undecodable count on stdin fails as the same bytes do by path,
        with the same message; patching sys.stdin in-process cannot show how
        the interpreter sets up its own stdin."""
        data = b"a\t\xff9\nb\t3\n"
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        argv = ("analyze", "--alpha", "1.5", "--window", "1", "1", "--input")
        by_stdin, by_path = run_process(*argv, "-", stdin=data), run_process(*argv, str(path))
        for proc in (by_stdin, by_path):
            assert (proc.returncode, proc.stdout) == (1, b"")
            assert proc.stderr.startswith(b"zipforder: error: line 1: input is not UTF-8: ")
            assert proc.stderr.count(b"\n") == 1
        assert by_stdin.stderr == by_path.stderr

    @pytest.mark.parametrize("data, env", [
        (b"the\t6187267\rof\t3093444\rand\t2687863\r", {}),
        ("the\t6187267\ncaf\xe9\t3093444\nna\xefve\t2687863\n".encode("utf-8"),
         {"PYTHONIOENCODING": "latin-1"}),
        (make_table(1).text.encode("utf-8"), {}),
    ], ids=["cr-line-ends", "utf8-under-latin-1", "perfbench-table"])
    def test_stdin_reads_as_a_file(self, tmp_path, data, env):
        """Stdin's bytes go through the loader's decoder, as a file's do: in
        any locale and whatever the line ends, the report is the same bytes."""
        path = tmp_path / "table.tsv"
        path.write_bytes(data)
        argv = ("analyze", "--alpha", "1.106", "--total", "1e8", "--window", "1", "3", "--input")
        by_stdin = run_process(*argv, "-", stdin=data, **env)
        by_path = run_process(*argv, str(path), **env)
        assert (by_path.returncode, by_path.stderr) == (0, b"")
        assert (by_stdin.returncode, by_stdin.stderr) == (0, b"")
        assert by_stdin.stdout == by_path.stdout

    def test_bad_byte_names_its_line(self, tmp_path):
        """A byte 0xff on line 5,001 is reported by its line and column, the
        same by path and by stdin."""
        data = "".join(f"w{j}\t{10**6 - j}\n" for j in range(5000)).encode() + b"ab\xff\t3\n"
        path = tmp_path / "table.tsv"
        path.write_bytes(data)
        argv = ("analyze", "--alpha", "1.5", "--input")
        message = b"zipforder: error: line 5001: input is not UTF-8: undecodable byte 0xff at column 3\n"
        for proc in (run_process(*argv, "-", stdin=data), run_process(*argv, str(path))):
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", message)

    @pytest.mark.parametrize("argv, redirect, message", [
        (("analyze", "--alpha", "1.5", "--input", "-"), "<&-", b"stdin is closed"),
        (("threshold", "--N", "1e7", "--alpha", "1.106"), ">&-", b"stdout is closed"),
        (("analyze", "--alpha", "1.106", "--input", BNC_TOP10), ">&-", b"stdout is closed"),
    ], ids=["stdin", "stdout-threshold", "stdout-analyze"])
    def test_closed_standard_stream_is_an_error(self, argv, redirect, message):
        """A process started with stdin or stdout closed, whose Python
        stream is None, exits 1 with one error line and no traceback."""
        script = f'exec "$0" -m zipforder.cli "$@" {redirect}'
        proc = subprocess.run(["sh", "-c", script, sys.executable, *argv], capture_output=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"zipforder: error: " + message + b"\n"

    def test_usage_error(self):
        proc = run_process("threshold", "--N", "1e7")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert b"--alpha" in proc.stderr


class TestEntrypoint:
    def test_freezes_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert calls == ["freeze", "main"]
        assert exc.value.code == 7

    def test_main_leaves_the_collector_alone(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        code, _, _ = run_cli(capsys, "simulate", "--N", "5e4", "--alpha", "1.3",
                             "--reps", "20", "--seed", "3", "--n-focus", "8")
        assert code == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


# Values past each flag's domain, at the float range's ends and at 2**53, where
# rank + k stops being exact.  Flags are written --flag=value, so that argparse
# hands a leading "-" to the command instead of reading it as a flag.
_REALS = st.sampled_from(["nan", "inf", "-inf", "-0", "0", "5e-324", "1e-3", "1.106", "3",
                          "1e7", "1e18", "1e20", "1e308", str(2**53)])
_RANKS = st.sampled_from(["-1", "0", "1", "72", str(2**53 - 1), str(2**53), str(10**30)])


@st.composite
def _ensemble_argvs(draw):
    """Argument lists of threshold, bound, pick-n and simulate with hostile values."""
    command = draw(st.sampled_from(["threshold", "bound", "pick-n", "simulate"]))
    flags = {"N": _REALS, "alpha": _REALS}
    if command != "threshold":
        flags["k"] = _REALS
    if command == "bound":
        flags["n"] = _RANKS.filter(lambda n: n != str(2**53 - 1))  # 2**53 terms to write
    elif command == "pick-n":
        flags["epsilon"] = _REALS | st.just("0.01")
        flags["n-max"] = _RANKS
    elif command == "simulate":
        flags["seed"] = st.sampled_from(["-1", "0", "3", str(2**64 + 3)])
        flags["reps"] = st.sampled_from(["-1", "0", "1", "3"])
        flags["n-focus"] = _RANKS
    required = {"N", "alpha", "n", "seed"}
    argv = [command]
    for flag, values in flags.items():
        if flag in required or draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
    if draw(st.booleans()):
        argv.append("--format=csv")
    return argv


# analyze's numbers: the ensemble values plus 40 and 1e300, where
# zeta(alpha, k+1) underflows to 0.0 once k is large
_ANALYZE_REALS = _REALS | st.sampled_from(["40", "1e300"])


@st.composite
def _analyze_argvs(draw):
    """Argument lists of analyze on bnc_top10.tsv with hostile numeric flags."""
    argv = ["analyze", "--input", BNC_TOP10, f"--alpha={draw(_ANALYZE_REALS | st.just('1.106'))}"]
    for flag, values in (("k", _ANALYZE_REALS), ("total", _ANALYZE_REALS),
                         ("epsilon", _ANALYZE_REALS | st.just("0.01"))):
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(values)}")
    if draw(st.booleans()):
        argv += ["--window", *draw(st.lists(_RANKS | _ANALYZE_REALS, min_size=2, max_size=2))]
    if draw(st.booleans()):
        argv += ["--alphas", *draw(st.lists(_ANALYZE_REALS, min_size=1, max_size=3))]
    if draw(st.booleans()):
        argv += ["--slopes", *draw(st.lists(_ANALYZE_REALS, min_size=2, max_size=2))]
    return argv


class TestEnsembleFlags:
    """Whatever the flags, a command exits 0, 1 or 2, and 1 with one error line."""

    @staticmethod
    def _check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert err.count("zipforder: error:") <= 1
        if code == 0:
            assert err == ""
        elif code == 1:
            assert out.getvalue() == ""
            assert err.startswith("zipforder: error: ") and err.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(_ensemble_argvs())
    @example(["simulate", "--N=1e18", "--alpha=3", "--reps=3", "--seed=3",
              f"--n-focus={2**53}"])  # a floor of 2**55 counts
    def test_exit_code_and_error_line(self, argv):
        self._check(argv)

    @settings(max_examples=150, deadline=None)
    @given(_analyze_argvs())
    # zeta(alpha, k+1) underflows to 0.0
    @example(["analyze", "--input", BNC_TOP10, "--alpha=40", "--k=1e20"])
    @example(["analyze", "--input", BNC_TOP10, "--alpha=3", "--k=1e300"])
    @example(["analyze", "--input", BNC_TOP10, "--alpha=1e18", "--k=1e7"])
    def test_analyze_exit_code_and_error_line(self, argv):
        self._check(argv)


# Payloads mix every JSON-encodable kind a report could hold.  Their strings,
# keys included, hold the separators the column renderers write and the text
# _text._json finds a column's key by, so that only the key itself may match.
_COLUMN_KEYS = ("adjacent_se", "points", "skipped_ranks", "per_pair_terms")
_TRAPS = [", ", "], [", "a\nb", '"q"', "\u00e9\u6f22", "[1, 2]", '"adjacent_se": []',
          ' "points": []', '\n  "', '\n  "skipped_ranks": []', '"per_pair_terms',
          '{"adjacent_se": [], "points": []}', '\\"points\\": []']
_SCALARS = (
    st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(_TRAPS)
)
_KEYS = (
    st.text().filter(lambda key: key not in _COLUMN_KEYS and not key.startswith("column"))
    | st.sampled_from(_TRAPS) | st.integers(-5, 5) | st.floats() | st.booleans() | st.none()
)
_NUMBERS = st.integers(-(10**30), 10**30) | st.floats()
_FINITE = st.integers(-(10**30), 10**30) | st.floats(allow_nan=False, allow_infinity=False)
_LINES = (ReferenceLine(-1.0, 0.5), ReferenceLine(-1.1, -0.5))


class _Column:
    """A long column in a payload: the list json.dumps sees, and its renderer."""

    def __init__(self, values, depth, render):
        self.values, self.depth, self.render = values, depth, render

    @classmethod
    def of_numbers(cls, values):
        return cls(values, 1, partial(_column_text, values))

    @classmethod
    def of_points(cls, ln_counts):
        plot = ZipfPlotData(tuple(ln_counts), range(0), _LINES)
        rows = [[i, math.log(i), y] for i, y in enumerate(plot.ln_counts, start=1)]
        return cls(rows, 2, partial(_point_text, plot))


_COLUMNS = (
    st.lists(_FINITE).map(_Column.of_numbers)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6).map(
        _Column.of_points)
)
_TREES = st.recursive(
    _SCALARS
    | st.lists(_NUMBERS)
    | st.lists(st.lists(_NUMBERS, max_size=4), max_size=6)
    | st.lists(st.lists(_NUMBERS, min_size=1, max_size=3).map(tuple), max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_KEYS, inner | _COLUMNS, max_size=5),
    max_leaves=40,
)
_PAYLOADS = st.dictionaries(_KEYS, _TREES | _COLUMNS, max_size=6) | _TREES


def _split(payload):
    """The payload as json.dumps sees it, the payload _text._json takes, and
    its columns: each _Column, a dict value, gets a key of its own, named
    in document order, and holds its list or an empty one."""
    columns = []

    def walk(value):
        if isinstance(value, dict):
            plain, empty = {}, {}
            for key, item in value.items():
                if isinstance(item, _Column):
                    j = len(columns)
                    key = _COLUMN_KEYS[j] if j < len(_COLUMN_KEYS) else f"column{j}"
                    columns.append((key, item))
                    plain[key], empty[key] = list(item.values), []
                else:
                    plain[key], empty[key] = walk(item)
            return plain, empty
        if isinstance(value, (list, tuple)):
            pairs = [walk(item) for item in value]
            return [p for p, _ in pairs], [e for _, e in pairs]
        return value, value

    return (*walk(payload), columns)


def _pieces(empty, columns) -> list[str]:
    """The pieces _text._json writes for a payload whose columns are rendered as it writes."""
    return list(_text._json(empty, [(key, c.render(), c.depth) for key, c in columns]))


class TestStreamedJson:
    """Reports are written in pieces whose text is json.dumps(indent=2), byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    @example({'"adjacent_se': [], "x": {'"adjacent_se": []': _Column.of_numbers([1.5])}})
    @example({"": _Column.of_points([0.0, -0.0])})  # equal values, different reprs
    def test_matches_json_dumps(self, payload):
        plain, empty, columns = _split(payload)
        expected = json.dumps(plain, indent=2) + "\n"
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (1, 2, _text._CHUNK):  # small slices split short columns too
                mp.setattr(_text, "_CHUNK", chunk)
                assert "".join(_pieces(empty, columns)) == expected

    def test_lists_longer_than_two_slices(self):
        n = 2 * _text._CHUNK + 7
        plain, empty, columns = _split({
            "flat": _Column.of_numbers([i * 0.5 if i % 3 else -i for i in range(n)] + [-0.0]),
            "nested": {"rows": _Column.of_points([0.25 * i - 9.0 for i in range(n)])},
            "ints": _Column.of_numbers(range(10**29, 10**29 + n)),
            "plain": [math.nan, -math.inf, 1, [2.5, -0.0]],
        })
        pieces = _pieces(empty, columns)
        assert "".join(pieces) == json.dumps(plain, indent=2) + "\n"
        assert max(map(len, pieces)) < 200 * _text._CHUNK


def _golden_table() -> str:
    """3,001 rows in a fixed hashed order: counts 2e6 // i, then zeros.

    Counts share values in the tail, and "tie" shares rank 3's count, so
    the top ten depend on the stable order of ties.
    """
    rows = [(f"w{i:05d}", 2_000_000 // i if i <= 2600 else 0) for i in range(1, 3001)]
    rows.append(("tie", 2_000_000 // 3))
    rows.sort(key=lambda r: hashlib.sha256(r[0].encode()).hexdigest())
    body = "".join(f"{label}\t{count}\n" for label, count in rows)
    return "# counts 2e6 // i, zero past rank 2600\nword\tcount\n" + body


class TestAnalyzeBytes:
    # SHA-256 of the bytes that json.dumps(indent=2) and the per-row CSV writers produced
    STDOUT = "0a1dfb421e12da818f083d0e3cff6a3d2c82b610992714939094b0f1add3fb08"
    ZIPF_CSV = "3a49df9a74e7f44c5b882994bde589cd0393c64f148e6d4cf470903366b1da3a"
    SE_CSV = "50a128ae8f047c7eb2f762d2395b8cea23023f66b79a13cd5ea3d88c437dc736"

    def test_golden_bytes(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text(_golden_table(), encoding="utf-8")
        argv = ("analyze", "--input", str(table), "--alpha", "1.106", "--total", "1e8")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT
        paths = {name: tmp_path / name for name in ("out.json", "zipf.csv", "se.csv")}
        code, out, err = run_cli(
            capsys, *argv, "--out", str(paths["out.json"]),
            "--zipf-csv", str(paths["zipf.csv"]), "--se-csv", str(paths["se.csv"]),
        )
        assert (code, out, err) == (0, "", "")
        digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
        assert digests == {
            "out.json": self.STDOUT, "zipf.csv": self.ZIPF_CSV, "se.csv": self.SE_CSV,
        }

    def test_report_memory_is_bounded(self, tmp_path):
        """10^5 floats and 10^5 point rows stream in well under the 9.5 MB of their text."""
        n = 100_000
        se = tuple(i / 7.0 for i in range(n))
        plot = ZipfPlotData(tuple(0.25 * i for i in range(1, n + 1)), range(0), _LINES)
        payload = {"adjacent_se": [], "zipf_points": {"points": []}}
        # rendered while written; analyze instead holds each column's slices,
        # which its JSON and CSVs share (5.3 MB on a 10^5-row table, under
        # the parse's transient 13.3 MB peak, so the parse sets its memory)
        columns = [("adjacent_se", _column_text(se), 1), ("points", _point_text(plot), 2)]
        target = tmp_path / "report.json"
        tracemalloc.start()
        try:
            cli._emit(_text._json(payload, columns), str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.stat().st_size > 9_000_000
        assert peak < 4_000_000

    def test_failure_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "analyze", "--input", BNC_TOP10, "--alpha", "400", "--total", "1e8",
            "--out", str(target),
        )
        assert (code, out) == (1, "")
        assert err.startswith("zipforder: error:")
        assert not target.exists()


_LONG = 2 * _text._CHUNK + 5


@st.composite
def _tables(draw):
    """A rank-count table as TSV text, and the alpha and window top to analyze it with.

    Rows have 2 or 3 columns, with comments and maybe a header; counts hold
    ties, zeros and values up to 10^308.  A long table runs past two slices
    of the streamed encoder, with tied counts and a tail of zeros.
    """
    if draw(st.integers(0, 4)) == 0:
        scale = draw(st.integers(1, 10**9))
        length = draw(st.integers(_LONG, _LONG + 60))
        counts = [scale // i if i < _LONG - 50 else 0 for i in range(1, length)]
    else:
        counts = draw(st.lists(st.integers(0, 3) | st.integers(0, 10**6), min_size=1, max_size=25))
        counts[0] = max(counts[0], 1)  # a zero top count has no plot anchor
        if draw(st.booleans()):
            huge = st.integers(10**6, 10**308) | st.just(10**308)
            counts[draw(st.integers(0, len(counts) - 1))] = draw(huge)
    order = draw(st.permutations(range(len(counts)))) if len(counts) < 50 else range(len(counts))
    three = draw(st.booleans())
    lines = ["# a comment\twith a tab"]
    if draw(st.booleans()):
        lines.append("rank\tword\tcount" if three else "word\tcount")
    for n, i in enumerate(order, start=1):
        label = "to" if i % 7 == 3 else f"w{i}"  # labels may repeat
        lines.append(f"{n}\t{label}\t{counts[i]}" if three else f"{label}\t{counts[i]}")
        if n == 2:
            lines.append("# another comment")
    alpha = draw(st.sampled_from(["1.106", "1.5", "2.5"]))
    hi = draw(st.sampled_from(["1", "2", "10"]))
    return "\n".join(lines) + "\n", alpha, hi


class TestAnalyzeOutputsMatchReport:
    """The CLI's JSON and CSVs are json.dumps(indent=2) and the CSV writers on its report."""

    @settings(max_examples=60, deadline=None)
    @given(_tables())
    @example(("only\t42\n", "1.5", "1"))  # no adjacent pairs
    @example(("a\t3\nb\t%d\nc\t0\n" % 10**308, "1.106", "1"))
    @example(("a\t%d\nb\t%d\n" % (10**308, 10**308), "1.106", "1"))  # sum overflows
    def test_bytes_match(self, case):
        text, alpha, hi = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: Path(tmp, name) for name in ("table.tsv", "zipf.csv", "se.csv")}
            paths["table.tsv"].write_text(text, encoding="utf-8")
            try:
                counts = load_rank_counts(paths["table.tsv"])
                report = analyze(counts, alpha=float(alpha), window=(1, int(hi)))
            except ZipfOrderError:
                report = None
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([
                    "analyze", "--input", str(paths["table.tsv"]), "--alpha", alpha,
                    "--window", "1", hi,
                    "--zipf-csv", str(paths["zipf.csv"]), "--se-csv", str(paths["se.csv"]),
                ])
            if report is None:
                assert (code, out.getvalue()) == (1, "")
                assert err.getvalue().startswith("zipforder: error:")
                assert not paths["zipf.csv"].exists() and not paths["se.csv"].exists()
                return
            zipf, se = io.StringIO(), io.StringIO()
            write_zipf_csv(report.zipf_points, zipf)
            write_se_csv(report.adjacent_se, se)
            assert (code, err.getvalue()) == (0, "")
            assert out.getvalue() == json.dumps(report.to_dict(), indent=2) + "\n"
            assert paths["zipf.csv"].read_text(encoding="utf-8") == zipf.getvalue()
            assert paths["se.csv"].read_text(encoding="utf-8") == se.getvalue()


_CSV_LIMIT = csv.field_size_limit()


@st.composite
def _hostile_tables(draw):
    """Table text, and its --input-format: well-formed rows with a few hostile
    ones among them, holding stray quotes, NULs, the other delimiter, signed
    counts, fields past csv's size limit or counts past int()'s 4,300 digits."""
    sep = draw(st.sampled_from(["\t", ","]))
    good = st.tuples(st.sampled_from(["the", "of", "a b"]), st.integers(0, 10**6))
    rows = [f"{lab}{sep}{cnt}" for lab, cnt in draw(st.lists(good, min_size=1, max_size=12))]
    count = st.one_of(
        st.integers(-10**6, 10**6).map(lambda v: f"{v:+d}"),
        st.tuples(st.sampled_from(["", "+", "-"]), st.integers(4_301, 5_000)).map(
            lambda t: t[0] + "1" * t[1]),
        st.integers(41, 4_000).map(lambda n: "-" + "1" * n),
        st.text(alphabet='0123456789"\x00 .+-e,_\t', max_size=12),
    )
    label = st.text(alphabet='ab"\x00 \t,#', max_size=8) | st.just("x" * (_CSV_LIMIT + 1))
    hostile = st.tuples(label, st.sampled_from(["\t", ","]), count).map("".join)
    for row in draw(st.lists(hostile, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    rows += ["w" + sep + "5"] * draw(st.sampled_from([0, 0, 50]))  # for a stray quote to swallow
    return "\n".join(rows) + "\n", draw(st.sampled_from(["auto", "tsv", "csv"]))


class TestAnalyzeHostileTables:
    """Whatever the table, analyze exits 0 or 1, and 1 with one short error line."""

    @settings(max_examples=150, deadline=None)
    @given(_hostile_tables())
    @example(("a\t9\n" + "x" * 140_000 + "\t5\nc\t3\n", "auto"))  # field past csv's limit
    @example(("".join(  # a stray quote joins the rest of the table into one count field
        "w%d\t%s%d\n" % (i, '"' if i == 3 else "", 1000 - i) for i in range(1, 901)), "auto"))
    def test_one_error_line_and_no_traceback(self, case):
        text, fmt = case
        with tempfile.TemporaryDirectory() as tmp:
            table = Path(tmp, "table.txt")
            table.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", "--input", str(table), "--input-format", fmt,
                             "--alpha", "1.5", "--window", "1", "2"])
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 0:
            assert err == "" and json.loads(out.getvalue())
        else:
            assert code == 1 and out.getvalue() == ""
            assert err.startswith("zipforder: error: ") and err.count("\n") == 1
            assert len(err) < 200, err[:300]


def test_analyze_payload_copies_no_rows(monkeypatch):
    """The analyze handler holds each long column's text once, and no copy of its rows."""
    n = 100_000
    counts = RankedCounts(counts=tuple(float(2 * n - i) for i in range(n)))
    report = analyze(counts, alpha=1.106, window=(1, 10))
    monkeypatch.setattr(cli, "load_rank_counts", lambda *a, **k: counts)
    monkeypatch.setattr(cli, "analyze", lambda *a, **k: report)
    args = cli._build_parser().parse_args(["analyze", "--input", "-", "--alpha", "1.106"])
    text = sum(map(len, _column_text(report.adjacent_se))) + sum(
        map(len, _point_text(report.zipf_points)))
    tracemalloc.start()
    try:
        [(_, pieces)] = args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text > 5_000_000
    assert peak < text + 500_000  # a list copy of the point rows alone is ~10 MB
    assert "".join(pieces) == json.dumps(report.to_dict(), indent=2) + "\n"

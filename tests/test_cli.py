"""CLI behaviour: exit codes, schemas, determinism, file and stdin round trips."""

import contextlib
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zipforder import (
    RankedCounts,
    ZipfOrderError,
    analyze,
    cli,
    load_rank_counts,
    write_se_csv,
    write_zipf_csv,
)
from zipforder.cli import main

BNC_TOP10 = str(Path(__file__).parent / "data" / "bnc_top10.tsv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        monkeypatch.setattr("sys.stdin", io.StringIO("a,90\nb,40\nc,10\n"))
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

    def test_count_beyond_float_range_exit_code(self, capsys, tmp_path):
        table = tmp_path / "huge.tsv"
        table.write_text("a\t1" + "0" * 400 + "\nb\t3\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(table), "--alpha", "1.1")
        assert (code, out) == (1, "")
        assert err == "zipforder: error: line 1: count exceeds the float range (about 1.8e308)\n"

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


@pytest.mark.filterwarnings("error")
class TestQuietSuccess:
    """Conditions a run meets are report fields, so success writes no stderr."""

    def test_analyze_zero_counts(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a,90\nb,40\nc,10\nd,0\ne,0\n"))
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


# Payloads mix every JSON-encodable kind a report could hold, including the
# separators the streamed encoder rewrites, inside strings.
_SCALARS = (
    st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from([", ", "], [", "a\nb", '"q"', "\u00e9\u6f22", "[1, 2]"])
)
_KEYS = st.text() | st.integers(-5, 5) | st.floats() | st.booleans() | st.none()
_NUMBERS = st.integers(-(10**30), 10**30) | st.floats()
_PAYLOADS = st.recursive(
    _SCALARS
    | st.lists(_NUMBERS)
    | st.lists(st.lists(_NUMBERS, max_size=4), max_size=6)
    | st.lists(st.lists(_NUMBERS, min_size=1, max_size=3).map(tuple), max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=40,
)


class TestStreamedJson:
    """Reports are written in pieces whose text is json.dumps(indent=2), byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        expected = json.dumps(payload, indent=2) + "\n"
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (1, 2, cli._CHUNK):  # small slices split short lists too
                mp.setattr(cli, "_CHUNK", chunk)
                assert "".join(cli._json(payload)) == expected

    def test_lists_longer_than_two_slices(self):
        n = 2 * cli._CHUNK + 7
        payload = {
            "flat": [i * 0.5 if i % 3 else -i for i in range(n)] + [math.nan, -0.0],
            "rows": [(i, math.log(i), -math.inf) for i in range(1, n)],
            "ints": list(range(10**29, 10**29 + n)),
        }
        pieces = list(cli._json(payload))
        assert "".join(pieces) == json.dumps(payload, indent=2) + "\n"
        assert max(map(len, pieces)) < 200 * cli._CHUNK


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
        payload = {
            "adjacent_se": [i / 7.0 for i in range(n)],
            "zipf_points": {"points": [[i, math.log(i), 0.25 * i] for i in range(1, n + 1)]},
        }
        target = tmp_path / "report.json"
        tracemalloc.start()
        try:
            cli._emit(cli._json(payload), str(target))
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


_LONG = 2 * cli._CHUNK + 5


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


def test_analyze_payload_copies_no_rows(monkeypatch):
    """The analyze handler holds each long column's text once, and no copy of its rows."""
    n = 100_000
    counts = RankedCounts(counts=tuple(float(2 * n - i) for i in range(n)))
    report = analyze(counts, alpha=1.106, window=(1, 10))
    monkeypatch.setattr(cli, "load_rank_counts", lambda *a, **k: counts)
    monkeypatch.setattr(cli, "analyze", lambda *a, **k: report)
    args = cli._build_parser().parse_args(["analyze", "--input", "-", "--alpha", "1.106"])
    text = sum(map(len, cli._render(report.adjacent_se, 1))) + sum(
        map(len, cli._render(report.zipf_points.points, 2)))
    tracemalloc.start()
    try:
        pieces = args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text > 5_000_000
    assert peak < text + 500_000  # a list copy of the point rows alone is ~10 MB
    assert "".join(pieces) == json.dumps(report.to_dict(), indent=2) + "\n"

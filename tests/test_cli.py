"""CLI behaviour: exit codes, schemas, determinism, file and stdin round trips."""

import io
import json

import pytest

from zipforder.cli import main


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

"""Tests of the benchmark itself: its checks reject corrupted outputs, its inputs repeat.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import random

import pytest

import checks
import inputs as inp
from ops import ROUNDS, UNTIMED, parse_importtime
from run import round_seconds, tail_percentile
from zipforder import EnsembleParams, analyze, load_rank_counts, run_experiment

BNC = EnsembleParams(inp.BNC_N, inp.ALPHA)


def test_pick_n_off_by_one_is_rejected():
    out = {"n": 69, "cap_reached": False, "n_max": 100_000}  # p(69) = 0.0082 <= 0.01 < p(70)
    checks.check_pick_n(out, inp.BNC_N, inp.ALPHA, 0.01)
    for wrong in (68, 70):
        with pytest.raises(checks.CheckError):
            checks.check_pick_n(dict(out, n=wrong), inp.BNC_N, inp.ALPHA, 0.01)
    with pytest.raises(checks.CheckError):
        checks.check_pick_n(dict(out, cap_reached=True), inp.BNC_N, inp.ALPHA, 0.01)


def test_bound_with_a_wrong_term_is_rejected():
    n = inp.BOUND_N
    sums = checks.bonferroni_partial_sums(inp.BNC_N, inp.ALPHA, n)
    out = {"n": n, "per_pair_terms": [float(sums[i] - sums[i - 1]) for i in range(1, n)],
           "bonferroni_sum": float(sums[-1])}
    checks.check_bound(out, inp.BNC_N, inp.ALPHA, n)
    out["per_pair_terms"][-1] *= 1.001  # the largest term, far from underflow
    with pytest.raises(checks.CheckError):
        checks.check_bound(out, inp.BNC_N, inp.ALPHA, n)


def test_histogram_missing_one_replicate_is_rejected():
    out = run_experiment(BNC, reps=50, seed=3).to_dict()
    checks.check_summary_totals(out, 50)
    short = copy.deepcopy(out)
    short["histogram"][0][1] -= 1
    with pytest.raises(checks.CheckError):
        checks.check_summary_totals(short, 50)


def test_redrawn_replicates_must_reproduce_the_histogram():
    summary = run_experiment(BNC, reps=30, seed=5)
    draws = checks.redraw(5, BNC.N, BNC.alpha, summary.truncation_m, 30)
    out = summary.to_dict()
    checks.check_redraw(out, draws)
    moved = copy.deepcopy(out)
    moved["histogram"][0][0] += 1  # one prefix length reported one rank too long
    with pytest.raises(checks.CheckError):
        checks.check_redraw(moved, draws)


def test_workers_2_summary_must_equal_workers_1():
    one = json.dumps(run_experiment(BNC, reps=40, seed=9, workers=1).to_dict(), indent=2)
    two = json.dumps(run_experiment(BNC, reps=40, seed=9, workers=2).to_dict(), indent=2)
    checks.check_same_bytes("summary", two, one)
    with pytest.raises(checks.CheckError):
        checks.check_same_bytes("summary", two.replace('"tie": 0', '"tie": 1'), one)


def test_dominance_rejects_a_rate_above_the_bound():
    out = {"n_focus": 73, "reps": 1000, "histogram": [[10, 100], [73, 900]]}
    checks.check_dominance(out, 0.2)
    with pytest.raises(checks.CheckError):
        checks.check_dominance(out, 0.05)


@pytest.fixture(scope="module")
def small_analysis():
    table = inp.make_table(4, rows=500)
    counts = load_rank_counts(table.text.splitlines(), total=inp.TABLE_TOTAL)
    report = analyze(counts, inp.ALPHA).to_dict()
    want = checks.CorpusExpectation(table.ranked_counts(), table.ranked_labels(), inp.ALPHA,
                                    inp.TABLE_TOTAL, inp.WINDOW, inp.PICK_N_EPSILON)
    return report, want


def test_swapped_adjacent_ses_are_rejected(small_analysis):
    report, want = small_analysis
    checks.check_analysis(report, want)
    bad = copy.deepcopy(report)
    se = bad["adjacent_se"]
    i = next(i for i in range(len(se) - 1) if se[i] != se[i + 1])
    se[i], se[i + 1] = se[i + 1], se[i]
    with pytest.raises(checks.CheckError):
        checks.check_analysis(bad, want)


def test_csv_that_disagrees_with_the_report_is_rejected(small_analysis):
    report, _ = small_analysis
    zipf = "i,ln_rank,ln_count\n" + "".join(
        f"{i},{a!r},{b!r}\n" for i, a, b in report["zipf_points"]["points"])
    se = "i,se\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(report["adjacent_se"], 1))
    checks.check_csvs(report, zipf, se)
    with pytest.raises(checks.CheckError):
        checks.check_csvs(report, zipf, se.replace("\n2,", "\n3,", 1))


def test_table_generator_is_deterministic_for_a_seed():
    a, b, c = inp.make_table(7, rows=1000), inp.make_table(7, rows=1000), inp.make_table(8, rows=1000)
    assert a.text == b.text
    assert a.text != c.text
    assert sorted(a.labels) == [f"w{i:06d}" for i in range(1, 1001)]


def test_classifier_matches_the_literal_definition():
    rng = random.Random(0)
    for _ in range(3000):
        x = [rng.randrange(5) for _ in range(rng.randrange(1, 9))]
        m = len(x)
        valid = [n for n in range(m + 1)
                 if all(x[i] > x[i + 1] for i in range(n - 1))
                 and all(x[n - 1] > x[j] for j in range(n, m) if n > 0)]
        assert checks.classify(x)[0] == max(valid)


def test_only_the_sparse_call_may_fail_and_it_runs_in_whole_rounds():
    assert ROUNDS["monte-carlo"].count("sparse") == 1
    assert all("sparse" not in ROUNDS[w] for w in ("cli-queries", "corpus-analyze"))
    # the workers=2 call repeats the deep call just before it
    mc = ROUNDS["monte-carlo"]
    assert all(mc[i - 1] == "mc-deep" for i, name in enumerate(mc) if name == "mc-deep-2w")


def test_round_time_counts_each_place_in_the_round_and_not_the_known_fault():
    assert UNTIMED == {"sparse"}
    walls = {"mc-bnc": [1.0, 3.0, 2.0], "mc-deep": [4.0], "mc-deep-2w": [5.0, 5.0]}
    assert round_seconds(ROUNDS["monte-carlo"], walls) == 3 * (2.0 + 4.0 + 5.0)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(list(range(39))) is None
    p, value = tail_percentile(list(range(1, 41)))
    assert (p, value) == (75, 30)
    p, value = tail_percentile(list(range(1, 101)))
    assert (p, value) == (90, 90)


def test_importtime_nesting():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |     150000 |           numpy",
        "import time:       600 |     170000 |         scipy",
        "import time:      1100 |     790000 |       scipy.optimize",
        "import time:       700 |     850000 | zipforder",
    ])
    assert parse_importtime(stderr) == [
        ("import.numpy", 0.15, 1), ("import.scipy", 0.79, 2), ("import.zipforder", 0.85, None)]

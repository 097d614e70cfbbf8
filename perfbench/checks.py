"""Output checks made apart from the program.

Each check either recomputes the value another way (mpmath sums, numpy
over the generator's own counts, a classifier written here from the
definition in ``zipforder.simulate``) or tests a property the method must
have (totals, worker-count invariance, the bound dominating the observed
rate).  A check raises ``CheckError``; it never returns a verdict.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

WILSON_Z99 = 2.576
_DPS = 40  # digits for every mpmath reference value


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def _close(name: str, got: float, want: float, rel: float) -> None:
    if not (abs(got - want) <= rel * abs(want)):
        raise CheckError(f"{name}: got {got!r}, want {want!r} (rel tol {rel:g})")


def threshold_mp(N: float, alpha: float) -> mpmath.mpf:
    """n' = (A N / ln N)^(1/(alpha+2)) with A = alpha^2 (alpha+2) / 4."""
    with mpmath.workdps(_DPS):
        a, n = mpmath.mpf(alpha), mpmath.mpf(N)
        return (a * a * (a + 2) / 4 * n / mpmath.log(n)) ** (1 / (a + 2))


def bonferroni_partial_sums(N: float, alpha: float, n: int) -> list[mpmath.mpf]:
    """p(1), ..., p(n): p(j) = sum over i < j of exp(-N (i^(-alpha/2) - (i+1)^(-alpha/2))^2)."""
    with mpmath.workdps(_DPS):
        big, half = mpmath.mpf(N), mpmath.mpf(alpha) / 2
        sums = [mpmath.mpf(0)]
        prev = mpmath.mpf(1)  # 1^(-alpha/2)
        for i in range(1, n):
            nxt = mpmath.mpf(i + 1) ** -half
            sums.append(sums[-1] + mpmath.exp(-big * (prev - nxt) ** 2))
            prev = nxt
    return sums


def check_threshold(out: dict, N: float, alpha: float) -> None:
    want = threshold_mp(N, alpha)
    _close("n_prime", out["n_prime"], float(want), 1e-12)
    if out["n_prime_floor"] != int(mpmath.floor(want)):
        raise CheckError(f"n_prime_floor {out['n_prime_floor']} != floor({want})")


def check_bound(out: dict, N: float, alpha: float, n: int) -> None:
    sums = bonferroni_partial_sums(N, alpha, n)
    terms = out["per_pair_terms"]
    if out["n"] != n or len(terms) != n - 1:
        raise CheckError(f"bound for n={n} reported n={out['n']} with {len(terms)} terms")
    for i, term in enumerate(terms, start=1):
        _close(f"term {i}", term, float(sums[i] - sums[i - 1]), 1e-9)
    _close("bonferroni_sum", out["bonferroni_sum"], float(sums[n - 1]), 1e-9)


def check_pick_rule(n: int, N: float, alpha: float, epsilon: float) -> None:
    """n is the largest prefix with p(n) <= epsilon: p(n) <= epsilon < p(n+1)."""
    if n < 1:
        raise CheckError(f"prefix length {n} < 1")
    sums = bonferroni_partial_sums(N, alpha, n + 1)
    if not (sums[n - 1] <= epsilon < sums[n]):
        raise CheckError(
            f"pick-n {n}: p(n)={float(sums[n - 1]):.6g}, p(n+1)={float(sums[n]):.6g}, "
            f"epsilon={epsilon}"
        )


def check_pick_n(out: dict, N: float, alpha: float, epsilon: float) -> None:
    if out["cap_reached"]:
        raise CheckError(f"pick-n reached its cap n_max={out['n_max']}")
    check_pick_rule(out["n"], N, alpha, epsilon)


def check_summary_totals(summary: dict, reps: int) -> None:
    """Histogram and error kinds each account for every replicate; L <= M."""
    hist = summary["histogram"]
    if summary["reps"] != reps:
        raise CheckError(f"summary reports {summary['reps']} replicates, ran {reps}")
    if sum(c for _, c in hist) != reps:
        raise CheckError(f"histogram sums to {sum(c for _, c in hist)}, not {reps}")
    kinds = summary["error_kind_counts"]
    if sum(kinds.values()) != reps:
        raise CheckError(f"error kinds sum to {sum(kinds.values())}, not {reps}")
    m = summary["truncation_m"]
    if any(not 0 <= length <= m for length, _ in hist):
        raise CheckError(f"a prefix length lies outside [0, M={m}]")


def check_same_bytes(name: str, got: str, want: str) -> None:
    if got != want:
        raise CheckError(f"{name}: outputs differ")


def classify(x: list[int]) -> tuple[int, str]:
    """Correct-prefix length L and first-error kind, from their definitions.

    L is the largest n >= 0 with x_1 > ... > x_n and x_n > x_i for all
    i in (n, M].  With L < M, c = L + 1 and b is the first index attaining
    the maximum over (L, M]; the error is a tie if b = c, a transposition
    if b = c + 1 and a jump otherwise.  L = M reports "none".
    """
    m = len(x)
    later_max = [0] * (m + 1)  # later_max[j] = max(x[j:]), 0-based, counts >= 0
    later_max[m] = -1
    for j in range(m - 1, -1, -1):
        later_max[j] = max(x[j], later_max[j + 1])
    best = 0
    for n in range(1, m + 1):
        if n > 1 and not x[n - 2] > x[n - 1]:
            break  # the descending chain ends; no longer prefix qualifies
        if x[n - 1] > later_max[n]:
            best = n
    if best == m:
        return best, "none"
    rest = x[best:]
    b = best + 1 + rest.index(max(rest))
    c = best + 1
    return best, ("tie" if b == c else "transposition" if b == c + 1 else "jump")


def redrawn_summary(draws: list[list[int]]) -> tuple[dict[int, int], dict[str, int]]:
    """Histogram and error kinds of draws classified by ``classify``."""
    hist: dict[int, int] = {}
    kinds = dict.fromkeys(("none", "transposition", "tie", "jump"), 0)
    for x in draws:
        length, kind = classify(x)
        hist[length] = hist.get(length, 0) + 1
        kinds[kind] += 1
    return hist, kinds


def redraw(seed: int, N: float, alpha: float, m: int, reps: int) -> list[list[int]]:
    """Replicates 0..reps-1 drawn again from their own streams, means N i^-alpha."""
    from zipforder import replicate_stream

    lam = N * np.arange(1, m + 1, dtype=np.float64) ** -alpha
    return [replicate_stream(seed, r).poisson(lam).tolist() for r in range(reps)]


def check_redraw(summary: dict, draws: list[list[int]]) -> None:
    """The program's summary of the first replicates equals our classification of them."""
    hist, kinds = redrawn_summary(draws)
    got_hist = {length: c for length, c in summary["histogram"]}
    if got_hist != hist:
        raise CheckError(f"histogram of redrawn replicates differs: {got_hist} != {hist}")
    if summary["error_kind_counts"] != kinds:
        raise CheckError(f"error kinds differ: {summary['error_kind_counts']} != {kinds}")


def wilson_lower(successes: int, trials: int, z: float = WILSON_Z99) -> float:
    """Lower end of the Wilson score interval (z = 2.576 gives 99%)."""
    phat = successes / trials
    centre = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (centre - spread) / (1.0 + z * z / trials)


def check_dominance(summary: dict, bound: float) -> None:
    """The observed rate of order breaks in the top n_focus does not beat the bound."""
    n_focus = summary["n_focus"]
    breaks = sum(c for length, c in summary["histogram"] if length < n_focus)
    low = wilson_lower(breaks, summary["reps"])
    if low > bound:
        raise CheckError(
            f"rate of breaks in the top {n_focus}: 99% lower limit {low:.4g} "
            f"exceeds the bound {bound:.4g}"
        )


class CorpusExpectation:
    """What ``analyze`` must report for a table, computed from the generator's counts."""

    def __init__(self, ranked: np.ndarray, labels: list[str], alpha: float,
                 total: float, window: tuple[int, int], epsilon: float):
        self.ranked = ranked
        self.top = [[i + 1, labels[i], float(ranked[i])] for i in range(min(10, len(ranked)))]
        self.total = total
        self.alpha = alpha
        self.epsilon = epsilon
        pair = ranked[:-1] + ranked[1:]
        self.se = np.where(pair > 0, (ranked[:-1] - ranked[1:]) / np.sqrt(pair), 0.0)
        lo, hi = window[0], min(window[1], len(ranked))
        ranks = np.arange(lo, hi + 1, dtype=np.float64)
        self.window_min = float(np.min(ranked[lo - 1:hi] * ranks**alpha))
        with mpmath.workdps(_DPS):
            self.N = mpmath.mpf(total) / mpmath.zeta(alpha)
        self.n_hat = float(threshold_mp(float(self.N), alpha))
        self.n_prime = float(threshold_mp(self.window_min, alpha))


def check_analysis(report: dict, want: CorpusExpectation) -> None:
    summary = report["counts_summary"]
    if summary["length"] != len(want.ranked):
        raise CheckError(f"length {summary['length']} != {len(want.ranked)}")
    _close("total", summary["total"], want.total, 0.0)
    if summary["top"] != want.top:
        raise CheckError(f"top rows differ: {summary['top'][:2]}... != {want.top[:2]}...")
    se = np.asarray(report["adjacent_se"], dtype=np.float64)
    if se.shape != want.se.shape or not np.allclose(se, want.se, rtol=1e-12, atol=0.0):
        raise CheckError("adjacent_se differs from (X_i - X_i+1) / sqrt(X_i + X_i+1)")
    _close("window_scale_min", report["window_scale_min"], want.window_min, 1e-12)
    _close("params_used.N", report["params_used"]["N"], float(want.N), 1e-10)
    _close("n_hat", report["n_hat"], want.n_hat, 1e-10)
    _close("n_prime", report["n_prime"], want.n_prime, 1e-10)
    if report["pick_n_cap_reached"]:
        raise CheckError("analyze's pick-n reached its cap")
    check_pick_rule(report["pick_n_result"], float(want.N), want.alpha, want.epsilon)


def check_csvs(report: dict, zipf_csv: str, se_csv: str) -> None:
    """Both CSVs parse back to the values in the JSON report."""
    zipf_lines = zipf_csv.splitlines()
    if zipf_lines[0] != "i,ln_rank,ln_count":
        raise CheckError(f"zipf CSV header {zipf_lines[0]!r}")
    points = []
    for line in zipf_lines[1:]:
        i, ln_rank, ln_count = line.split(",")
        points.append([int(i), float(ln_rank), float(ln_count)])
    if points != report["zipf_points"]["points"]:
        raise CheckError("zipf CSV rows differ from the report's points")
    se_lines = se_csv.splitlines()
    if se_lines[0] != "i,se":
        raise CheckError(f"SE CSV header {se_lines[0]!r}")
    ranks = [int(line.split(",")[0]) for line in se_lines[1:]]
    values = [float(line.split(",")[1]) for line in se_lines[1:]]
    if ranks != list(range(1, len(values) + 1)) or values != report["adjacent_se"]:
        raise CheckError("SE CSV rows differ from the report's adjacent_se")

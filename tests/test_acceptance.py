"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) before
asserting, so a red criterion still reports every clause it checked.

Criterion 2's prefix picks at the 1% and 5% budgets are asserted at the
reference targets 70 and 76.  Those targets do not survive recomputation:
the exact Bonferroni sums are p(69)=0.00816, p(70)=0.01116, p(75)=0.04283,
p(76)=0.05401, so the largest prefixes meeting the budgets are 69 and 75.
The targets are reproduced only by replacing each pairwise term with the
approximation exp(-N (alpha^2/4) i^(-alpha-2)) (derivative taken at the
left endpoint), which is smaller than the true Chernoff term and therefore
not a valid bound.  pick_n implements the valid rule; the two clauses stay
red by design.
"""

import json
import math

import numpy as np

from oracles import (
    brute_force_outcome,
    jumper_tail_sum,
    poisson_cdf,
    poisson_sf,
    skellam_leq_prob,
)
from zipforder import (
    EnsembleParams,
    adjacent_se,
    analyze,
    jumper_bound,
    ordering_outcome,
    pick_n,
    poisson_lower_tail_bound,
    poisson_upper_tail_bound,
    prefix_error_bound,
    riemann_zeta,
    run_experiment,
    sensitivity_sweep,
    skellam_order_bound,
    solve_zeta_equals,
    teicher_floor,
    threshold_n_prime,
)

BNC_PARAMS = EnsembleParams(1e7, 1.106, 0.0)
ACCEPTANCE_SEED = 1


def _report(criterion: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in clauses)
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict}")
    for desc, passed in clauses:
        print(f"    [{'ok' if passed else 'FAIL'}] {desc}")
    assert ok, f"criterion {criterion}: " + "; ".join(
        desc for desc, passed in clauses if not passed
    )


def test_criterion_1_threshold_reproduction():
    n1 = threshold_n_prime(1e7, 1.106).n_prime
    n2 = threshold_n_prime(1.25e7, 1.106).n_prime
    _report(
        "1 (threshold reproduction)",
        [
            (f"n'(1e7, 1.106) = {n1:.4f} within 72.08 +/- 0.05", abs(n1 - 72.08) <= 0.05),
            (f"n'(1.25e7, 1.106) = {n2:.4f} within 77.10 +/- 0.05", abs(n2 - 77.10) <= 0.05),
        ],
    )


def test_criterion_2_bonferroni_reproduction():
    total = prefix_error_bound(72, BNC_PARAMS).bonferroni_sum
    pick_1pct = pick_n(BNC_PARAMS, 0.01, 1000)
    pick_5pct = pick_n(BNC_PARAMS, 0.05, 1000)
    _report(
        "2 (Bonferroni reproduction)",
        [
            (f"sum at n=72 is {total:.5f} within 0.0199 +/- 0.0002", abs(total - 0.0199) <= 2e-4),
            (f"pick_n(0.01) = {pick_1pct}, target 70", pick_1pct == 70),
            (f"pick_n(0.05) = {pick_5pct}, target 76", pick_5pct == 76),
        ],
    )


def test_criterion_3_zeta_anchor():
    alpha_star = solve_zeta_equals(10.0)
    basel = riemann_zeta(2.0)
    _report(
        "3 (zeta anchor)",
        [
            (f"zeta inverse of 10 is {alpha_star:.6f} in [1.105, 1.107]",
             1.105 <= alpha_star <= 1.107),
            (f"zeta(2) - pi^2/6 = {basel - math.pi ** 2 / 6.0:.2e}, within 1e-10",
             abs(basel - math.pi**2 / 6.0) <= 1e-10),
        ],
    )


def test_criterion_4_sensitivity_and_se(bnc_top10, synthetic_bnc_like):
    # The full public frequency list is not bundled, so per this criterion's
    # fallback the sweep runs on a synthetic Zipf table with Poisson noise
    # and only pipeline invariants are asserted; the 34.9 figure comes from
    # the real top-10 counts, which are available.
    grid = (1.05, 1.075, 1.106, 1.125, 1.15)
    report = sensitivity_sweep(synthetic_bnc_like, grid, 10, 100)
    echoes = tuple(r.alpha for r in report.rows) == grid
    positive = all(r.N_est > 0 for r in report.rows)
    composed = all(
        r.n_prime == threshold_n_prime(r.N_est, r.alpha).n_prime for r in report.rows
    )
    near_truth = all(abs(r.N_est / 1.25e7 - 1.0) < 0.6 for r in report.rows)
    se_9_10 = adjacent_se(bnc_top10)[8]
    analysis = analyze(bnc_top10, alpha=1.106, window=(10, 100))
    _report(
        "4 (sensitivity pipeline + standard errors)",
        [
            ("sweep echoes the requested alpha grid", echoes),
            ("all scale estimates positive", positive),
            ("each row composes threshold_n_prime(N_est, alpha)", composed),
            ("scale estimates near the generating scale on synthetic data", near_truth),
            (f"adjacent SE at ranks (9,10) = {se_9_10:.3f} within 34.9 +/- 0.1",
             abs(se_9_10 - 34.9) <= 0.1),
            (f"corpus n_hat = {analysis.n_hat:.3f} within 72.08 +/- 0.2",
             abs(analysis.n_hat - 72.08) <= 0.2),
        ],
    )


def test_criterion_5_simulation_reproduction():
    summary = run_experiment(BNC_PARAMS, reps=1000, seed=ACCEPTANCE_SEED)
    lengths = sorted(summary.histogram)
    below_72 = sum(f for l, f in summary.histogram.items() if l < 72) / 1000.0
    transpositions = summary.error_kind_counts["transposition"] / 1000.0
    _report(
        "5 (simulation reproduction)",
        [
            (f"fraction with L < 72 is {below_72:.3f} <= 0.01", below_72 <= 0.01),
            (f"histogram min {lengths[0]} in [65, 75]", 65 <= lengths[0] <= 75),
            (f"histogram max {lengths[-1]} in [130, 175]", 130 <= lengths[-1] <= 175),
            (f"transposition fraction {transpositions:.3f} in [0.95, 0.995]",
             0.95 <= transpositions <= 0.995),
        ],
    )


def test_criterion_6_bound_dominance():
    rng = np.random.default_rng(60609)
    skellam_viol = 0
    for _ in range(200):
        nu = float(rng.uniform(0.05, 50.0))
        lam = float(rng.uniform(nu, 50.0))
        if skellam_order_bound(lam, nu) < skellam_leq_prob(lam, nu):
            skellam_viol += 1

    tail_viol = 0
    for _ in range(200):
        lam = float(rng.uniform(0.2, 60.0))
        t_up = lam + float(rng.uniform(0.0, 4.0 * math.sqrt(lam) + 5.0))
        if poisson_upper_tail_bound(lam, t_up) < poisson_sf(lam, t_up):
            tail_viol += 1
        t_lo = float(rng.uniform(0.0, lam * 0.999))
        if poisson_lower_tail_bound(lam, t_lo) < poisson_cdf(lam, t_lo):
            tail_viol += 1

    jumper_viol = 0
    for _ in range(50):
        alpha = float(rng.uniform(1.1, 3.0))
        n_scale = float(rng.uniform(10.0, 1e6))
        n = int(rng.integers(2, 30))
        params = EnsembleParams(n_scale, alpha)
        tau = max(params.mean_of(n), 1.0 / alpha + 0.2) * float(rng.uniform(1.0, 6.0)) + 0.5
        if jumper_bound(n, tau, params) < jumper_tail_sum(params, n, tau):
            jumper_viol += 1

    teicher_viol = sum(
        1 for lam in (0.5, 1.0, 3.7, 10.0, 100.0) if poisson_cdf(lam, lam) < teicher_floor()
    )
    _report(
        "6 (bound dominance, zero violations allowed)",
        [
            (f"Skellam bound vs exact double sum: {skellam_viol} violations / 200",
             skellam_viol == 0),
            (f"Poisson tail bounds vs exact tails: {tail_viol} violations / 400",
             tail_viol == 0),
            (f"jumper bound vs truncated tail sums: {jumper_viol} violations / 50",
             jumper_viol == 0),
            (f"Teicher floor on five means: {teicher_viol} violations", teicher_viol == 0),
        ],
    )


def test_criterion_7_gautschi():
    rng = np.random.default_rng(70707)
    violations = 0
    for _ in range(1000):
        x = float(rng.uniform(1e-9, 100.0))
        s = float(rng.uniform(1e-9, 1.0 - 1e-12))
        ratio = math.exp(math.lgamma(x + 1.0) - math.lgamma(x + s))
        if not (x ** (1.0 - s) < ratio < (x + 1.0) ** (1.0 - s)):
            violations += 1
    _report(
        "7 (Gautschi bracket, strict)",
        [(f"{violations} violations / 1000 random (x, s)", violations == 0)],
    )


def test_criterion_8_classifier_oracle_equivalence():
    rng = np.random.default_rng(80808)
    disagreements = 0
    for _ in range(100_000):
        length = int(rng.integers(1, 13))
        x = rng.integers(0, 9, size=length)
        got = ordering_outcome(x)
        if (
            got.correct_prefix_len,
            got.first_error,
            got.jump_offset,
            got.blocker_index,
        ) != brute_force_outcome(x):
            disagreements += 1
    _report(
        "8 (classifier vs brute force)",
        [(f"{disagreements} disagreements / 100000 vectors", disagreements == 0)],
    )


def test_criterion_9_determinism():
    runs = {
        workers: run_experiment(
            BNC_PARAMS, reps=1000, seed=ACCEPTANCE_SEED, workers=workers
        )
        for workers in (1, 4)
    }
    repeat = run_experiment(BNC_PARAMS, reps=1000, seed=ACCEPTANCE_SEED, workers=1)
    blobs = {w: json.dumps(r.to_dict(), sort_keys=True) for w, r in runs.items()}
    _report(
        "9 (determinism)",
        [
            ("same seed twice is byte-identical",
             blobs[1] == json.dumps(repeat.to_dict(), sort_keys=True)),
            ("workers 1 and 4 are byte-identical", blobs[1] == blobs[4]),
        ],
    )

"""Runs the benchmark's in-process calls into zipforder, in a process of their own.

The client that checks outputs holds inputs and parsed reports; running
the program's in-process calls here keeps that memory out of their heap,
their garbage collections and the resident-set figure.  Protocol: one
JSON request per line on stdin, one JSON reply per line on stdout.  The
first line written is ``{"ready": true}``, after the package is imported.
Spans come back as ``[name, start, end, parent, count]`` with ``parent`` an
index into the same list; ``perf_counter`` is the system's monotonic clock,
so the client can place them among its own.  The host exits when stdin
closes.
"""

import gc
import hashlib
import json
import math
import os
import sys
import traceback
from time import perf_counter

import numpy as np

from zipforder import (
    ConfigurationError,
    EnsembleParams,
    RankedCounts,
    adjacent_se,
    analyze,
    hurwitz_zeta,
    load_rank_counts,
    local_scale_estimates,
    ordering_outcome,
    pick_n,
    prefix_error_bound,
    replicate_stream,
    run_experiment,
    sensitivity_sweep,
    solve_zeta_equals,
    threshold_n_prime,
    truncation_index,
    write_se_csv,
    write_zipf_csv,
    zipf_plot_data,
)


class Spans:
    def __init__(self):
        self.rows = []

    def add(self, name, start, end, parent=None, count=1):
        self.rows.append([name, start, end, parent, count])
        return len(self.rows) - 1

    def timed(self, name, fn, parent=None):
        start = perf_counter()
        value = fn()
        self.add(name, start, perf_counter(), parent)
        return value

    def batch(self, name, fn, calls):
        start = perf_counter()
        for _ in range(calls):
            fn()
        self.add(name, start, perf_counter(), count=calls)


def experiment(req):
    params = EnsembleParams(req["N"], req["alpha"])
    gc.collect()
    start = perf_counter()
    try:
        summary = run_experiment(params, reps=req["reps"], seed=req["seed"],
                                 n_focus=req.get("n_focus"), workers=req.get("workers", 1))
    except ConfigurationError as exc:
        return {"start": start, "end": perf_counter(), "error": type(exc).__name__,
                "message": str(exc)}
    return {"start": start, "end": perf_counter(), "summary": summary.to_dict()}


def analyze_table(req):
    gc.collect()
    t0 = perf_counter()
    counts = load_rank_counts(req["path"], total=req["total"])
    t1 = perf_counter()
    report = analyze(counts, req["alpha"])
    t2 = perf_counter()
    compact = json.dumps(report.to_dict()).encode()
    return {"load": [t0, t1], "analyze": [t1, t2], "rows": len(counts),
            "sha256": hashlib.sha256(compact).hexdigest()}


def probe_corpus(spans, req):
    """Parse and analyze the table, then each step of analyze timed by calling it again.

    The steps are called on the same inputs right after analyze, and their
    spans name the analyze span as parent, so its self time is what is
    left of analyze without them.  Returns the bytes the CLI would write.
    """
    t0 = perf_counter()
    counts = load_rank_counts(req["path"], total=req["total"])
    t1 = perf_counter()
    report = analyze(counts, req["alpha"])
    t2 = perf_counter()
    load = spans.add("corpus.load_rank_counts", t0, t1)
    whole = spans.add("corpus.analyze", t1, t2)
    spans.timed("estimate.ranked_counts", lambda: RankedCounts(
        counts=counts.counts, labels=counts.labels, total=counts.total), load)
    lo, hi = report.window
    alphas = [row.alpha for row in report.sensitivity.rows]
    spans.timed("estimate.local_scale_estimates",
                lambda: local_scale_estimates(counts, req["alpha"], lo, hi), whole)
    spans.timed("estimate.sensitivity_sweep",
                lambda: sensitivity_sweep(counts, alphas, lo, hi), whole)
    spans.timed("bounds.pick_n_corpus",
                lambda: pick_n(report.params_used, report.epsilon, 100_000), whole)
    spans.timed("corpus.adjacent_se", lambda: adjacent_se(counts), whole)
    spans.timed("corpus.zipf_plot_data", lambda: zipf_plot_data(counts), whole)
    text = spans.timed("corpus.report_json",
                       lambda: json.dumps(report.to_dict(), indent=2) + "\n")

    def write_csvs():
        with open(req["zipf_csv"], "w", encoding="utf-8") as fh:
            write_zipf_csv(report.zipf_points, fh)
        with open(req["se_csv"], "w", encoding="utf-8") as fh:
            write_se_csv(report.adjacent_se, fh)

    spans.timed("corpus.write_csv", write_csvs)
    return len(text.encode("utf-8")) + os.path.getsize(req["zipf_csv"]) \
        + os.path.getsize(req["se_csv"])


def probe_point(spans, label, params, seed, reps):
    """Horizon certification, then stream set-up, draws and classifier per replicate."""
    n_focus = math.ceil(threshold_n_prime(params.N, params.alpha).n_prime)
    m = spans.timed(f"simulate.{label}.truncation_index",
                    lambda: truncation_index(params, n_focus, 1e-6))
    lam = params.N * np.arange(1, m + 1, dtype=np.float64) ** -params.alpha
    rows = []
    for r in range(reps):
        a = perf_counter()
        stream = replicate_stream(seed, r)
        b = perf_counter()
        x = stream.poisson(lam)
        c = perf_counter()
        ordering_outcome(x)
        rows.append((a, b, c, perf_counter()))
    parent = spans.add(f"simulate.{label}.stages", rows[0][0], rows[-1][3])
    for a, b, c, d in rows:
        spans.add(f"simulate.{label}.stream", a, b, parent)
        spans.add(f"simulate.{label}.draw", b, c, parent)
        spans.add(f"simulate.{label}.classify", c, d, parent)
    return m


def probe(req):
    """Every layer's public calls on the benchmark's fixed points and the run's table.

    Calls of a few microseconds are timed in batches.  Counts come back
    apart from the spans: results that a faster layer must not change, a
    smaller horizon, the pool's start-up and the bytes of the report.
    """
    spans = Spans()
    alpha = req["alpha"]
    bnc = EnsembleParams(req["bnc_N"], alpha)
    spans.batch("special.hurwitz_zeta", lambda: hurwitz_zeta(alpha, 1.0), 200)
    spans.batch("special.solve_zeta_equals", lambda: solve_zeta_equals(10.0), 20)
    spans.batch("bounds.threshold_n_prime", lambda: threshold_n_prime(bnc.N, alpha), 2000)
    spans.batch("bounds.prefix_error_bound", lambda: prefix_error_bound(req["n"], bnc), 500)
    counts = {"bounds.pick_n_result": spans.timed(
        "bounds.pick_n", lambda: pick_n(EnsembleParams(req["pick_n_N"], alpha),
                                        req["epsilon"], 100_000))}
    for label, reps in req["stage_reps"].items():
        params = EnsembleParams(req[f"{label}_N"], alpha)
        counts[f"simulate.{label}.truncation_m"] = probe_point(spans, label, params,
                                                               req["seed"], reps)
    times = []
    for workers in (1, 2):  # a tiny run, whose difference is the pool's start-up
        start = perf_counter()
        run_experiment(bnc, reps=2, seed=req["seed"], workers=workers)
        times.append(perf_counter() - start)
    counts["simulate.pool_start_s"] = times[1] - times[0]
    sparse = EnsembleParams(req["sparse_N"], req["sparse_alpha"])
    start = perf_counter()
    try:
        truncation_index(sparse, 1, 1e-6)
    except ConfigurationError:
        pass  # the known fault: the time until the error is what is measured
    spans.add("simulate.sparse.truncation_index", start, perf_counter())
    counts["corpus.output_bytes"] = probe_corpus(spans, req)
    return {"spans": spans.rows, "counts": counts}


CALLS = {"experiment": experiment, "analyze": analyze_table, "probe": probe}


def main():
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        try:
            reply = CALLS[req["call"]](req)
        except Exception as exc:  # reported to the client, which counts the operation failed
            reply = {"failure": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()

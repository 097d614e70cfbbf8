"""Benchmark of zipforder: cold CLI queries, Monte Carlo throughput and corpus analysis.

Run from the repository root:

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 36 --trace 0

``--workload all`` runs the three workloads one after another.  A run is
one client calling the program in a closed loop, in whole rounds of the
workload's operations: the first round always completes, and another
starts only while one more of the same length still fits in ``--seconds``.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Each workload reports the same metrics.  Reports and spans
are written to ``.perfbench/``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-queries", "monte-carlo", "corpus-analyze")

# Per-layer metric name = span name + "_" + unit, or the name of a count.
SELF_TIMES = {"corpus.analyze_ms"}  # the span's duration minus its children's
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, from 40 samples on."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    """Sample count, median and tail percentile of each metric that has samples."""
    return {name: {"unit": unit, "n": len(samples[name]),
                   "median": statistics.median(samples[name]),
                   "tail": tail_percentile(samples[name])}
            for name, unit in units.items() if samples.get(name)}


def layer_samples(tracer, units: dict[str, str]) -> dict[str, list[float]]:
    """Per-layer metric samples from the spans and counts of a traced run."""
    out = {}
    for metric, unit in units.items():
        if metric in tracer.counts:
            out[metric] = tracer.counts[metric]
            continue
        span = metric.rsplit("_", 1)[0]
        if metric in SELF_TIMES:
            child = tracer.child_time()
            values = [s.duration - child.get(s.id, 0.0) for s in tracer.spans if s.name == span]
        else:
            values = tracer.per_call(span)
        out[metric] = [v * SCALE[unit] for v in values]
    return out


def round_seconds(ops: tuple[str, ...], walls: dict[str, list[float]]) -> float:
    """One round of timed calls: each operation's median wall time, once per place in the round."""
    return sum(statistics.median(walls[name]) for name in ops if name in walls)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 spec: dict) -> dict:
    from ops import ROUNDS, UNTIMED, Bench, KnownFault
    from spans import Tracer

    tracer = Tracer(trace)
    ops = ROUNDS[workload]
    attempted = failed = rounds = 0
    failures = []
    walls: dict[str, list[float]] = {}  # wall seconds of each operation's timed call
    scratch = work / f"run-{os.getpid()}"  # inputs and outputs of this run only
    scratch.mkdir()
    try:
        with Bench(ROOT, scratch, seed, tracer, host=trace or workload != "cli-queries") as bench:
            if workload == "corpus-analyze":
                bench.prepare_corpus()
            # set-up is sampled before every round and after the last, so that its
            # samples span the run as the operations' do: on a shared host, speed
            # drifts over tens of seconds more than it scatters within them
            samples: dict[str, list[float]] = {"setup_s": []}
            start = perf_counter()
            while True:
                round_start = perf_counter()
                samples["setup_s"].append(bench.setup_s())
                for pos, name in enumerate(ops):
                    attempted += 1
                    tracer.begin_op()
                    try:
                        wall = bench.run(name, f"{rounds}.{pos}")
                        if wall is not None:
                            walls.setdefault(name, []).append(wall)
                    except KnownFault as exc:
                        failed += 1
                        failures.append({"op": name, "round": rounds, "known": True,
                                         "error": str(exc)})
                    except Exception as exc:  # counted and reported; the run goes on
                        failed += 1
                        failures.append({"op": name, "round": rounds, "known": False,
                                         "error": f"{type(exc).__name__}: {exc}",
                                         "traceback": traceback.format_exc()})
                rounds += 1
                now = perf_counter()
                if now - start + (now - round_start) > seconds:
                    break
            samples["setup_s"].append(bench.setup_s())
            elapsed = perf_counter() - start
            if trace:  # after the timed rounds, so that it moves none of their figures
                tracer.begin_op()
                try:
                    bench.probe()
                except Exception as exc:
                    failures.append({"op": "probe", "round": None, "known": False,
                                     "error": f"{type(exc).__name__}: {exc}",
                                     "traceback": traceback.format_exc()})
    finally:
        shutil.rmtree(scratch)
    samples["round_s"] = [round_seconds(ops, walls)]
    samples["peak_rss_mb"] = [bench.peak_rss_kb / 1024.0]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e = summarize(samples, units)
    # an unexpected failure, or an operation that lost every sample, means a wrong output
    timed = {name for name in ops if name not in UNTIMED}
    correct = all(f["known"] for f in failures) and timed <= walls.keys() and len(e2e) == len(units)
    result = {
        "workload": workload, "seed": seed, "trace": trace, "machine": machine_facts(),
        "rounds": rounds, "ops_per_round": len(ops), "elapsed_s": elapsed,
        "attempted": attempted, "failed": failed, "correct": correct, "failures": failures,
        "end_to_end": e2e, "operations": summarize(walls, {name: "s" for name in walls}),
        "samples": samples, "walls": walls,
    }
    if trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result["per_layer"] = summarize(layer_samples(tracer, layer_units), layer_units)
        result["correct"] = correct and len(result["per_layer"]) == len(layer_units)
        result["layers"] = {name: {"spans": n, "self_s": t}
                            for name, (n, t) in sorted(tracer.self_times().items())}
        tracer.write(work / f"spans-{workload}-{seed}.jsonl")
    return result


def print_table(title: str, rows: dict[str, dict]) -> None:
    print(f"{title}:")
    print(f"  {'metric':<36} {'unit':<13} {'n':>5} {'median':>14}  tail")
    for name, row in rows.items():
        tail = f"p{row['tail'][0]}={row['tail'][1]:.6g}" if row["tail"] else "-"
        print(f"  {name:<36} {row['unit']:<13} {row['n']:>5} {row['median']:>14.6g}  {tail}")


def print_report(result: dict, work: Path) -> None:
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    print(f"rounds: {result['rounds']} of {result['ops_per_round']} operations "
          f"in {result['elapsed_s']:.2f} s (closed loop, one client)")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    for f in result["failures"]:
        kind = "known fault, see perfbench/README.md" if f["known"] else "UNEXPECTED"
        print(f"  failed: {f['op']} (round {f['round']}): {f['error']} [{kind}]")
    print_table("operations (wall seconds of the timed call)", result["operations"])
    print_table("end-to-end" + (" (traced, not reported)" if result["trace"] else ""),
                result["end_to_end"])
    if not result["trace"]:
        return
    print_table("per-layer", result["per_layer"])
    print("layer self time:")
    for name, row in result["layers"].items():
        print(f"  {name:<10} {row['spans']:>7} spans {row['self_s']:>10.4f} s")
    try:
        ref = json.loads((work / f"report-{result['workload']}-{result['seed']}.json")
                         .read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print("trace overhead: no untraced run of this workload and seed to compare with")
        return
    print(f"trace overhead (traced vs untraced median, same seed): run "
          f"{result['elapsed_s']:.2f} s vs {ref['elapsed_s']:.2f} s")
    for name, row in (*result["operations"].items(), *result["end_to_end"].items()):
        base = ref.get("operations", {}).get(name) or ref["end_to_end"].get(name)
        if base:
            diff = (row["median"] - base["median"]) / base["median"]
            print(f"  {name:<36} {row['median']:>12.6g} vs {base['median']:>12.6g}  {diff:+.1%}")


def result_line(result: dict) -> dict:
    rows = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in rows.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zipforder" / "cli.py").is_file():
        print(f"perfbench: no zipforder source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), work, spec)
        print_report(result, work)
        suffix = "-trace" if args.trace else ""
        (work / f"report-{name}-{args.seed}{suffix}.json").write_text(
            json.dumps(result, indent=2), encoding="utf-8")
        lines[name] = result_line(result)
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in lines.values()),
                 "attempted": sum(r["attempted"] for r in lines.values()),
                 "failed": sum(r["failed"] for r in lines.values()),
                 "metrics": {f"{w}/{k}": v for w, r in lines.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's operations: each makes one call into the program, timed and checked.

Every process that runs zipforder code is started by the benchmark: cold
``python -m zipforder.cli`` processes, started through the small launcher
(``launcher.py``), and one host process (``host.py``) that makes the
in-process calls.  This client only drives them and checks their outputs.
An operation returns the wall time of its timed call and raises if the
program fails or a check rejects an output.  With tracing on, the cold
processes also report their imports (``-X importtime``), and one probe at
the end of the run times every layer's public calls in the host; the
operations themselves stay the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import inputs as inp
from spans import Tracer

COLD_TIMEOUT_S = 60.0
# Replicates whose stages (stream, draws, classifier) the probe times one by one.
STAGE_REPS = {"bnc": 2000, "deep": 300}
# Modules whose cumulative import time -X importtime reports, with their span names.
IMPORT_SPANS = {"zipforder": "import.zipforder", "scipy.optimize": "import.scipy",
                "numpy": "import.numpy"}

# One round of each workload; a run repeats whole rounds.  The Monte Carlo
# points run three times per sparse-regime call, which costs seconds and
# feeds no end-to-end metric (its operation returns no time).
ROUNDS = {
    "cli-queries": ("threshold", "bound", "pick-n", "simulate"),
    "monte-carlo": ("mc-bnc", "mc-deep", "mc-deep-2w") * 3 + ("sparse",),
    "corpus-analyze": ("analyze-cold", "analyze-inproc"),
}
UNTIMED = {"sparse"}  # operations that return no wall time


class KnownFault(Exception):
    """The program failed in the way the README documents as a known fault."""


class ProgramError(Exception):
    """A process running the program exited with an error or reported one."""


def parse_importtime(stderr: str) -> list[tuple[str, float, int | None]]:
    """(span name, cumulative seconds, index of the enclosing tracked import)."""
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        lines.append((name.strip(), len(name) - len(name.lstrip()), int(cumulative) / 1e6))
    tracked = []
    for i, (name, depth, seconds) in enumerate(lines):
        if name not in IMPORT_SPANS:
            continue
        parent, level = None, depth
        for j in range(i + 1, len(lines)):
            if lines[j][1] < level:
                level = lines[j][1]
                if lines[j][0] in IMPORT_SPANS:
                    parent = j
                    break
        tracked.append((i, IMPORT_SPANS[name], seconds, parent))
    index = {i: k for k, (i, *_rest) in enumerate(tracked)}
    return [(span, seconds, index.get(parent)) for _, span, seconds, parent in tracked]


class Bench:
    """One workload run: the processes it starts, its inputs and the tracer."""

    def __init__(self, root: Path, work: Path, seed: int, tracer: Tracer, host: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.needs_host = host
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.peak_rss_kb = 0
        self.table_path = work / "table.tsv"
        self.corpus_want: checks.CorpusExpectation | None = None
        self.last_deep: tuple[int, str] | None = None  # seed and JSON of a workers=1 call
        self.last_cold: str | None = None  # digest of the last checked cold analyze report
        # digest of the last cold analyze output files that passed every check, and of its report
        self.checked_cold: tuple[str, str] | None = None

    def __enter__(self) -> "Bench":
        here = Path(__file__).parent
        self.launcher = subprocess.Popen([sys.executable, str(here / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.host = None
        if self.needs_host:
            # started before the client holds any inputs: a child's peak resident
            # set starts from its parent's at the time it was started
            self.host = subprocess.Popen([sys.executable, str(here / "host.py")], cwd=self.root,
                                         env=self.env, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
            if json.loads(self.host.stdout.readline() or "{}").get("ready") is not True:
                raise RuntimeError("the host process did not start")
        return self

    def __exit__(self, *exc) -> None:
        for proc in (self.launcher, self.host):
            if proc is None:
                continue
            proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            if proc is self.host:  # the host's figure covers its pool workers too
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)

    def prepare_corpus(self, expect: bool = True) -> None:
        """Write the run's table and compute what analyze must report for it."""
        table = inp.make_table(self.seed)
        self.table_path.write_text(table.text, encoding="utf-8")
        if expect:
            self.corpus_want = checks.CorpusExpectation(
                table.ranked_counts(), table.ranked_labels(), inp.ALPHA, inp.TABLE_TOTAL,
                inp.WINDOW, inp.PICK_N_EPSILON)

    # -- processes --------------------------------------------------------

    def cold(self, name: str, args: list[str], trace_imports: bool) -> tuple[float, Path]:
        """Run ``python [-X importtime] args`` to completion; (wall seconds, stdout path)."""
        out_path, err_path = self.work / f"{name}.out", self.work / f"{name}.err"
        cmd = [sys.executable] + (["-X", "importtime"] if trace_imports else []) + args
        request = {"cmd": cmd, "cwd": str(self.root), "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": COLD_TIMEOUT_S}
        start = perf_counter()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        result = json.loads(reply)
        self.peak_rss_kb = max(self.peak_rss_kb, result["maxrss_kb"])
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if result["status"] != 0:
            raise ProgramError(f"{' '.join(args[:3])} exited {result['status']}: {stderr[-500:]}")
        if trace_imports:
            # import spans start with the process: the interpreter's own start-up
            # comes first, so their start is early by that much
            parent = self.tracer.record(f"cli.{name}", start, start + result["seconds"])
            tracked = parse_importtime(stderr)
            ids: dict[int, int | None] = {}
            for k in reversed(range(len(tracked))):  # enclosing imports come later
                span, seconds, enclosing = tracked[k]
                pid = parent if enclosing is None else ids[enclosing]
                ids[k] = self.tracer.record(span, start, start + seconds, parent=pid)
        return result["seconds"], out_path

    def call(self, name: str, **request) -> dict:
        """One request to the host process; its reply."""
        self.host.stdin.write(json.dumps({"call": name, **request}) + "\n")
        self.host.stdin.flush()
        reply = self.host.stdout.readline()
        if not reply:
            raise RuntimeError("the host process exited")
        result = json.loads(reply)
        if "failure" in result:
            raise ProgramError(result["failure"])
        return result

    def record_host_spans(self, rows: list) -> None:
        ids: list[int | None] = []
        for name, start, end, within, count in rows:
            parent = None if within is None else ids[within]
            ids.append(self.tracer.record(name, start, end, parent=parent, count=count))

    def setup_s(self) -> float:
        """Wall time of a fresh interpreter that imports the package and exits."""
        return self.cold("setup", ["-c", "import zipforder"],
                         trace_imports=self.tracer.enabled)[0]

    def probe(self) -> None:
        """Every per-layer call once, in the host, on the fixed points and the run's table."""
        if not self.table_path.exists():
            self.prepare_corpus(expect=False)
        layer = self.call("probe", alpha=inp.ALPHA, bnc_N=inp.BNC_N, deep_N=inp.DEEP_N,
                          pick_n_N=inp.PICK_N_N, n=inp.BOUND_N, epsilon=inp.PICK_N_EPSILON,
                          stage_reps=STAGE_REPS, seed=inp.derive_seed(self.seed, "probe"),
                          sparse_N=inp.SPARSE_N, sparse_alpha=inp.SPARSE_ALPHA,
                          path=str(self.table_path), total=inp.TABLE_TOTAL,
                          zipf_csv=str(self.work / "zipf-probe.csv"),
                          se_csv=str(self.work / "se-probe.csv"))
        self.record_host_spans(layer["spans"])
        for name, value in layer["counts"].items():
            self.tracer.add_count(name, value)

    # -- cli-queries ------------------------------------------------------

    def cli(self, name: str, extra: list[str] = ()) -> tuple[float, dict]:
        wall, out = self.cold(name, ["-m", "zipforder.cli", *inp.CLI_ARGS[name], *extra],
                              trace_imports=self.tracer.enabled)
        return wall, json.loads(out.read_text(encoding="utf-8"))

    def op_threshold(self, tag: str) -> float:
        wall, out = self.cli("threshold")
        checks.check_threshold(out, inp.BNC_N, inp.ALPHA)
        return wall

    def op_bound(self, tag: str) -> float:
        wall, out = self.cli("bound")
        checks.check_bound(out, inp.BNC_N, inp.ALPHA, inp.BOUND_N)
        return wall

    def op_pick_n(self, tag: str) -> float:
        wall, out = self.cli("pick-n")
        checks.check_pick_n(out, inp.PICK_N_N, inp.ALPHA, inp.PICK_N_EPSILON)
        return wall

    def op_simulate(self, tag: str) -> float:
        wall, out = self.cli("simulate", ["--seed", str(inp.derive_seed(self.seed, tag))])
        checks.check_summary_totals(out, inp.CLI_REPS)
        return wall

    # -- monte-carlo ------------------------------------------------------

    def experiment(self, label: str, N: float, reps: int, seed: int, workers: int) -> tuple:
        result = self.call("experiment", N=N, alpha=inp.ALPHA, reps=reps, seed=seed,
                           workers=workers)
        summary = result["summary"]
        self.tracer.record(f"simulate.{label}.run_experiment", result["start"], result["end"])
        return summary, result["end"] - result["start"]

    def check_point(self, N: float, summary: dict, reps: int, check_reps: int) -> None:
        """Totals, the program's own n_focus, dominance, and a redrawn sample."""
        checks.check_summary_totals(summary, reps)
        n_focus = math.ceil(checks.threshold_mp(N, inp.ALPHA))
        if summary["n_focus"] != n_focus:
            raise checks.CheckError(f"n_focus {summary['n_focus']} != ceil(n') = {n_focus}")
        bound = min(1.0, float(checks.bonferroni_partial_sums(N, inp.ALPHA, n_focus)[-1]))
        checks.check_dominance(summary, bound)
        sample = self.call("experiment", N=N, alpha=inp.ALPHA, reps=check_reps,
                           seed=summary["seed"], n_focus=n_focus)["summary"]
        if sample["truncation_m"] != summary["truncation_m"]:
            raise checks.CheckError("the horizon M depends on the replicate count")
        checks.check_redraw(sample, checks.redraw(summary["seed"], N, inp.ALPHA,
                                                  summary["truncation_m"], check_reps))

    def op_mc_bnc(self, tag: str) -> float:
        summary, wall = self.experiment("bnc", inp.BNC_N, inp.BNC_REPS,
                                        inp.derive_seed(self.seed, tag), 1)
        self.check_point(inp.BNC_N, summary, inp.BNC_REPS, inp.BNC_CHECK_REPS)
        return wall

    def op_mc_deep(self, tag: str) -> float:
        seed = inp.derive_seed(self.seed, tag)
        self.last_deep = None
        summary, wall = self.experiment("deep", inp.DEEP_N, inp.DEEP_REPS, seed, 1)
        self.check_point(inp.DEEP_N, summary, inp.DEEP_REPS, inp.DEEP_CHECK_REPS)
        self.last_deep = (seed, json.dumps(summary, indent=2))
        return wall

    def op_mc_deep_2w(self, tag: str) -> float:
        """The previous deep call again with two workers; the summary must not change."""
        if self.last_deep is None:
            raise checks.CheckError("no checked workers=1 summary to compare with")
        seed, one_worker = self.last_deep
        summary, wall = self.experiment("deep2w", inp.DEEP_N, inp.DEEP_REPS, seed, 2)
        checks.check_same_bytes("workers=2 vs workers=1 summary",
                                json.dumps(summary, indent=2), one_worker)
        return wall

    def op_sparse(self, tag: str) -> None:
        result = self.call("experiment", N=inp.SPARSE_N, alpha=inp.SPARSE_ALPHA,
                           reps=inp.SPARSE_REPS, seed=inp.derive_seed(self.seed, tag), n_focus=1)
        if "error" in result:
            raise KnownFault(f"{result['error']}: {result['message']}")
        checks.check_summary_totals(result["summary"], inp.SPARSE_REPS)

    # -- corpus-analyze ---------------------------------------------------

    def op_analyze_cold(self, tag: str) -> float:
        zipf_csv, se_csv = self.work / "zipf.csv", self.work / "se.csv"
        args = ["-m", "zipforder.cli", "analyze", "--input", str(self.table_path),
                "--alpha", repr(inp.ALPHA), "--total", repr(inp.TABLE_TOTAL),
                "--zipf-csv", str(zipf_csv), "--se-csv", str(se_csv)]
        self.last_cold = None
        wall, out = self.cold("analyze", args, trace_imports=self.tracer.enabled)
        files = [path.read_text(encoding="utf-8") for path in (out, zipf_csv, se_csv)]
        digest = hashlib.sha256("\0".join(files).encode()).hexdigest()
        # output byte for byte equal to output that passed every check passes them again
        if self.checked_cold is None or self.checked_cold[0] != digest:
            report = json.loads(files[0])
            checks.check_analysis(report, self.corpus_want)
            checks.check_csvs(report, files[1], files[2])
            self.checked_cold = (digest, hashlib.sha256(json.dumps(report).encode()).hexdigest())
        self.last_cold = self.checked_cold[1]
        return wall

    def op_analyze_inproc(self, tag: str) -> float:
        """load_rank_counts + analyze in the host; its report must equal the cold one."""
        result = self.call("analyze", path=str(self.table_path), total=inp.TABLE_TOTAL,
                           alpha=inp.ALPHA)
        if self.last_cold is None:
            raise checks.CheckError("no checked cold report to compare the in-process one with")
        checks.check_same_bytes("in-process vs cold CLI report", result["sha256"], self.last_cold)
        if result["rows"] != inp.TABLE_ROWS:
            raise checks.CheckError(f"{result['rows']} rows parsed, want {inp.TABLE_ROWS}")
        self.tracer.record("corpus.analyze_inproc", result["load"][0], result["analyze"][1])
        return result["analyze"][1] - result["load"][0]

    OPS = {
        "threshold": op_threshold,
        "bound": op_bound,
        "pick-n": op_pick_n,
        "simulate": op_simulate,
        "mc-bnc": op_mc_bnc,
        "mc-deep": op_mc_deep,
        "mc-deep-2w": op_mc_deep_2w,
        "sparse": op_sparse,
        "analyze-cold": op_analyze_cold,
        "analyze-inproc": op_analyze_inproc,
    }

    def run(self, name: str, tag: str) -> float | None:
        return self.OPS[name](self, tag)

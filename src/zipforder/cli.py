"""Command-line front end.

Subcommands: threshold, bound, pick-n, simulate, analyze.  Reports are JSON
by default, byte for byte ``json.dumps(indent=2)`` but written in bounded
pieces by ``_text``; the tabular subcommands also offer CSV.  ``-`` is
stdout for every output path.  Exit codes: 0 success, 1 domain/convergence/
configuration error (float range included) or unreadable input, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import replace
from typing import Iterable

from ._text import _column_text, _csv, _json, _numbered_csv, _point_text, _record, _zipf_csv
from .bounds import EnsembleParams, _pair_terms, _pick_n_and_sum, threshold_n_prime
from .corpus import DEFAULT_EPSILON, DEFAULT_FORMAT, DEFAULT_SLOPES, DEFAULT_WINDOW, PICK_N_CAP
from .corpus import analyze, load_rank_counts
from .errors import ZipfOrderError
from .simulate import run_experiment

_PROG = "zipforder"


def _add_ensemble_flags(parser: argparse.ArgumentParser, with_k: bool = True) -> None:
    parser.add_argument("--N", type=float, required=True,
                        help="ensemble scale N (scientific notation accepted, e.g. 1e7)")
    parser.add_argument("--alpha", type=float, required=True,
                        help="power-law decay exponent, must exceed 1")
    if with_k:
        parser.add_argument("--k", type=float, default=0.0,
                            help="rank shift of the power law (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Ordering reliability of top-ranked entities in Poisson count data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="ordering threshold n' = (A N / ln N)^(1/(alpha+2))")
    p.set_defaults(handler=_cmd_threshold)
    _add_ensemble_flags(p, with_k=False)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")

    p = sub.add_parser("bound", help="Bonferroni misordering bound for a prefix of n ranks")
    p.set_defaults(handler=_cmd_bound)
    _add_ensemble_flags(p)
    p.add_argument("--n", type=int, required=True, help="prefix length n >= 1")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json report, or csv rows i,term (default json)")

    p = sub.add_parser("pick-n", help="largest prefix whose error bound stays at or below epsilon")
    p.set_defaults(handler=_cmd_pick_n)
    _add_ensemble_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="error budget in (0,1) (default %(default)s)")
    p.add_argument("--n-max", type=int, default=PICK_N_CAP,
                   help="search cap (default %(default)s)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the count ensemble")
    p.set_defaults(handler=_cmd_simulate)
    _add_ensemble_flags(p)
    p.add_argument("--seed", type=int, required=True,
                   help="64-bit stream seed; required so runs are reproducible")
    p.add_argument("--reps", type=int, default=1000, help="replicates (default 1000)")
    p.add_argument("--n-focus", type=int, default=None,
                   help="prefix length under study (default: ceil of n')")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers; the result is identical for any value")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json summary, or csv histogram rows L,count (default json)")

    p = sub.add_parser("analyze", help="full analysis of a rank-count table")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--input", required=True,
                   help="UTF-8 TSV/CSV path, or '-' for stdin, read as a file in any locale")
    p.add_argument("--input-format", choices=("tsv", "csv", "auto"),
                   default=DEFAULT_FORMAT,
                   help="input delimiter; auto sniffs tabs (default %(default)s)")
    p.add_argument("--alpha", type=float, required=True,
                   help="power-law decay exponent, must exceed 1")
    p.add_argument("--k", type=float, default=0.0, help="rank shift (default 0)")
    p.add_argument("--total", type=float, default=None,
                   help="override the corpus total for truncated tables")
    p.add_argument("--window", type=int, nargs=2, default=DEFAULT_WINDOW,
                   metavar=("LO", "HI"),
                   help="rank window for local scale estimates (default 10 100)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="error budget for pick-n (default %(default)s)")
    p.add_argument("--alphas", type=float, nargs="+", default=None,
                   help="sensitivity grid (default: alpha +/- 0.05)")
    p.add_argument("--slopes", type=float, nargs=2, default=DEFAULT_SLOPES,
                   metavar=("S1", "S2"),
                   help="finite reference line slopes (default -1 -1.1)")
    p.add_argument("--zipf-csv", default=None,
                   help="also write log-log plot points to this CSV path")
    p.add_argument("--se-csv", default=None,
                   help="also write adjacent standard errors to this CSV path")

    for sp in sub.choices.values():
        sp.add_argument("--out", default="-",
                        help="output path, '-' for stdout (default stdout)")
    return parser


def _emit(pieces: Iterable[str], out_path: str) -> None:
    if out_path == "-":
        if sys.stdout is None:  # the process started with stdout closed
            raise OSError("stdout is closed")
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _cmd_threshold(args) -> list[tuple[str, Iterable[str]]]:
    report = threshold_n_prime(args.N, args.alpha)
    payload = {
        "N": args.N,
        "alpha": args.alpha,
        "A_const": report.A_const,
        "log_N": report.log_N,
        "n_prime": report.n_prime,
        "n_prime_floor": report.n_prime_floor,
    }
    return [(args.out, _record(payload, args.format))]


def _cmd_bound(args) -> list[tuple[str, Iterable[str]]]:
    params = EnsembleParams(args.N, args.alpha, args.k)
    # the terms and their slices are made lazily, while the report is
    # written, and the sum takes a pass of its own
    terms = _column_text(_pair_terms(params, args.n))
    if args.format == "csv":
        return [(args.out, _numbered_csv("i,term", terms))]
    total = math.fsum(_pair_terms(params, args.n))
    payload = {
        "n": args.n,
        "N": args.N,
        "alpha": args.alpha,
        "k": args.k,
        "per_pair_terms": [],
        "bonferroni_sum": total,
        "clamped_probability": min(total, 1.0),
    }
    return [(args.out, _json(payload, [("per_pair_terms", terms, 1)]))]


def _cmd_pick_n(args) -> list[tuple[str, Iterable[str]]]:
    params = EnsembleParams(args.N, args.alpha, args.k)
    n, bonferroni_sum = _pick_n_and_sum(params, args.epsilon, args.n_max)
    payload = {
        "n": n,
        "epsilon": args.epsilon,
        "n_max": args.n_max,
        "cap_reached": n == args.n_max,
        "bonferroni_sum": bonferroni_sum,
    }
    return [(args.out, _record(payload, args.format))]


def _cmd_simulate(args) -> list[tuple[str, Iterable[str]]]:
    summary = run_experiment(
        EnsembleParams(args.N, args.alpha, args.k),
        reps=args.reps,
        seed=args.seed,
        n_focus=args.n_focus,
        workers=args.workers,
    )
    if args.format == "csv":
        return [(args.out, _csv("L,count", sorted(summary.histogram.items())))]
    return [(args.out, _json(summary.to_dict()))]


def _cmd_analyze(args) -> list[tuple[str, Iterable[str]]]:
    try:  # stdin's bytes, read as a file's are; sys.stdin is None if it was closed at start
        source = sys.stdin.buffer if args.input == "-" else args.input
    except AttributeError:
        raise OSError("stdin is closed") from None
    counts = load_rank_counts(source, fmt=args.input_format, total=args.total)
    report = analyze(
        counts,
        alpha=args.alpha,
        k=args.k,
        window=tuple(args.window),
        epsilon=args.epsilon,
        alphas=args.alphas,
        slopes=tuple(args.slopes),
    )
    # each long column is rendered once; the JSON and both CSVs share the text
    se = tuple(_column_text(report.adjacent_se))
    points = tuple(_point_text(report.zipf_points))
    csvs = [(args.zipf_csv, _zipf_csv(points)), (args.se_csv, _numbered_csv("i,se", se))]
    # to_dict builds the long columns as lists; emptied first, it builds no
    # row, and _json writes each column in place of its empty list
    plot = report.zipf_points
    payload = replace(
        report, adjacent_se=(), zipf_points=replace(plot, ln_counts=(), skipped_ranks=range(0))
    ).to_dict()
    columns = [("adjacent_se", se, 1), ("points", points, 2),
               ("skipped_ranks", _column_text(plot.skipped_ranks), 1)]
    return [csv for csv in csvs if csv[0] is not None] + [(args.out, _json(payload, columns))]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [args.out, vars(args).get("zipf_csv"), vars(args).get("se_csv")].count("-") > 1:
        parser.error("at most one of --out, --zipf-csv and --se-csv may be '-' (stdout)")
    try:
        # files first, in the order given, and stdout last: a failure leaves stdout empty
        for path, pieces in sorted(args.handler(args), key=lambda output: output[0] == "-"):
            _emit(pieces, path)
    except (ZipfOrderError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    # the ~51k objects of the imports move to the permanent generation, so
    # no collection walks them again, the one at shutdown included; main()
    # leaves the collector alone, since an in-process caller owns it
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

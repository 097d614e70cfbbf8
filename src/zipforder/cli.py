"""Command-line front end.

Subcommands: threshold, bound, pick-n, simulate, analyze.  Reports are JSON
by default, byte for byte ``json.dumps(indent=2)`` but written in bounded
pieces; the tabular subcommands also offer CSV.  Exit codes: 0 success,
1 domain/convergence/configuration error (values beyond the float range
included) or unreadable input, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Iterable, Iterator

from .bounds import EnsembleParams, _pair_terms, _pick_n_and_sum, threshold_n_prime
from .corpus import DEFAULT_SLOPES, DEFAULT_WINDOW, analyze, load_rank_counts
from .corpus import _column_text, _indented, _numbered_csv, _point_text, _zipf_csv
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
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="error budget in (0,1) (default 0.01)")
    p.add_argument("--n-max", type=int, default=100_000,
                   help="search cap (default 100000)")
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
    p.add_argument("--input", required=True, help="TSV/CSV path, or '-' for stdin")
    p.add_argument("--input-format", choices=("tsv", "csv", "auto"), default="auto",
                   help="input delimiter; auto sniffs tabs (default auto)")
    p.add_argument("--alpha", type=float, required=True,
                   help="power-law decay exponent, must exceed 1")
    p.add_argument("--k", type=float, default=0.0, help="rank shift (default 0)")
    p.add_argument("--total", type=float, default=None,
                   help="override the corpus total for truncated tables")
    p.add_argument("--window", type=int, nargs=2, default=DEFAULT_WINDOW,
                   metavar=("LO", "HI"),
                   help="rank window for local scale estimates (default 10 100)")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="error budget for pick-n (default 0.01)")
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
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _json(payload, columns: Iterable[tuple[str, Iterable[str], int]] = ()) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2) + "\n"``, in bounded pieces.

    ``columns`` holds a (key, slices, depth) triple for each long column, in
    the order the text holds their keys: the key holds an empty list in
    ``payload``, and the slices and depth go to :func:`corpus._indented`.
    A key is found as a space, its JSON text and ``: []``; nothing but a key
    matches that, since json.dumps escapes every quote inside a string.
    """
    text = json.dumps(payload, indent=2) + "\n"
    for key, slices, depth in columns:
        key_text = f" {json.dumps(key)}: "
        head, text = text.split(key_text + "[]", 1)
        yield head + key_text
        yield from _indented(slices, depth, head[head.rindex("\n"):] + " ")
    yield text


def _csv(header: str, rows) -> Iterator[str]:
    """A CSV header line, then one line of comma-joined reprs per row."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(repr, row)) + "\n"


def _record(payload: dict, fmt: str) -> Iterator[str]:
    """A one-record report: JSON, or a CSV header and one row of reprs."""
    if fmt == "csv":
        return _csv(",".join(payload), [payload.values()])
    return _json(payload)


def _cmd_threshold(args) -> Iterable[str]:
    report = threshold_n_prime(args.N, args.alpha)
    payload = {
        "N": args.N,
        "alpha": args.alpha,
        "A_const": report.A_const,
        "log_N": report.log_N,
        "n_prime": report.n_prime,
        "n_prime_floor": report.n_prime_floor,
    }
    return _record(payload, args.format)


def _cmd_bound(args) -> Iterable[str]:
    params = EnsembleParams(args.N, args.alpha, args.k)
    # every term is exp(-x) with x >= 0 or x = inf, so finite, and its repr is
    # its JSON text; the terms and their slices are made lazily, while the
    # report is written, and the sum takes a pass of its own
    terms = _column_text(_pair_terms(params, args.n))
    if args.format == "csv":
        return _numbered_csv("i,term", terms)
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
    return _json(payload, [("per_pair_terms", terms, 1)])


def _cmd_pick_n(args) -> Iterable[str]:
    params = EnsembleParams(args.N, args.alpha, args.k)
    n, bonferroni_sum = _pick_n_and_sum(params, args.epsilon, args.n_max)
    payload = {
        "n": n,
        "epsilon": args.epsilon,
        "n_max": args.n_max,
        "cap_reached": n == args.n_max,
        "bonferroni_sum": bonferroni_sum,
    }
    return _record(payload, args.format)


def _cmd_simulate(args) -> Iterable[str]:
    summary = run_experiment(
        EnsembleParams(args.N, args.alpha, args.k),
        reps=args.reps,
        seed=args.seed,
        n_focus=args.n_focus,
        workers=args.workers,
    )
    if args.format == "csv":
        return _csv("L,count", sorted(summary.histogram.items()))
    return _json(summary.to_dict())


def _cmd_analyze(args) -> Iterable[str]:
    source = sys.stdin if args.input == "-" else args.input
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
    # Each long column is rendered once; the JSON and both CSVs share the text.
    # Every analyze value is finite (counts are finite and >= 0, so are their
    # logs, and (a - b) / sqrt(a + b) is 0 where a + b overflows), and the
    # JSON text of a finite number is its repr, which the renderers write.
    se = tuple(_column_text(report.adjacent_se))
    points = tuple(_point_text(report.zipf_points))
    if args.zipf_csv:
        with open(args.zipf_csv, "w", encoding="utf-8") as fh:
            fh.writelines(_zipf_csv(points))
    if args.se_csv:
        with open(args.se_csv, "w", encoding="utf-8") as fh:
            fh.writelines(_numbered_csv("i,se", se))
    # to_dict builds the long columns as lists; emptied first, it builds no
    # row, and _json writes each column in place of its empty list
    plot = report.zipf_points
    payload = replace(
        report, adjacent_se=(), zipf_points=replace(plot, ln_counts=(), skipped_ranks=range(0))
    ).to_dict()
    return _json(payload, [
        ("adjacent_se", se, 1),
        ("points", points, 2),
        ("skipped_ranks", _column_text(plot.skipped_ranks), 1),
    ])


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.handler(args), args.out)
    except (ZipfOrderError, OSError) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

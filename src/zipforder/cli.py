"""Command-line front end.

Subcommands: threshold, bound, pick-n, simulate, analyze.  Reports are JSON
by default; the tabular subcommands also offer CSV.  Exit codes: 0 success,
1 domain/convergence/configuration error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import (
    EnsembleParams,
    pick_n,
    prefix_error_bound,
    threshold_n_prime,
)
from .corpus import analyze, load_rank_counts, write_se_csv, write_zipf_csv
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
    _add_ensemble_flags(p, with_k=False)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")

    p = sub.add_parser("bound", help="Bonferroni misordering bound for a prefix of n ranks")
    _add_ensemble_flags(p)
    p.add_argument("--n", type=int, required=True, help="prefix length n >= 1")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json report, or csv rows i,term (default json)")

    p = sub.add_parser("pick-n", help="largest prefix whose error bound stays below epsilon")
    _add_ensemble_flags(p)
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="error budget in (0,1) (default 0.01)")
    p.add_argument("--n-max", type=int, default=100_000,
                   help="search cap (default 100000)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the count ensemble")
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
    p.add_argument("--input", required=True, help="TSV/CSV path, or '-' for stdin")
    p.add_argument("--input-format", choices=("tsv", "csv", "auto"), default="auto",
                   help="input delimiter; auto sniffs tabs (default auto)")
    p.add_argument("--alpha", type=float, required=True,
                   help="power-law decay exponent, must exceed 1")
    p.add_argument("--k", type=float, default=0.0, help="rank shift (default 0)")
    p.add_argument("--total", type=float, default=None,
                   help="override the corpus total for truncated tables")
    p.add_argument("--window", type=int, nargs=2, default=(10, 100), metavar=("LO", "HI"),
                   help="rank window for local scale estimates (default 10 100)")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="error budget for pick-n (default 0.01)")
    p.add_argument("--alphas", type=float, nargs="+", default=None,
                   help="sensitivity grid (default: alpha +/- 0.05)")
    p.add_argument("--slopes", type=float, nargs=2, default=(-1.0, -1.1),
                   metavar=("S1", "S2"), help="reference line slopes (default -1 -1.1)")
    p.add_argument("--zipf-csv", default=None,
                   help="also write log-log plot points to this CSV path")
    p.add_argument("--se-csv", default=None,
                   help="also write adjacent standard errors to this CSV path")

    for name, sp in sub.choices.items():
        sp.add_argument("--out", default="-",
                        help="output path, '-' for stdout (default stdout)")
    return parser


def _emit(text: str, out_path: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _record(payload: dict, fmt: str) -> str:
    """A one-record report: JSON, or a CSV header and one row of reprs."""
    if fmt == "csv":
        return ",".join(payload) + "\n" + ",".join(repr(v) for v in payload.values()) + "\n"
    return _json(payload)


def _cmd_threshold(args) -> str:
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


def _cmd_bound(args) -> str:
    report = prefix_error_bound(args.n, EnsembleParams(args.N, args.alpha, args.k))
    if args.format == "csv":
        lines = ["i,term"]
        lines += [f"{i},{t!r}" for i, t in enumerate(report.per_pair_terms, start=1)]
        return "\n".join(lines) + "\n"
    return _json(
        {
            "n": report.n,
            "N": args.N,
            "alpha": args.alpha,
            "k": args.k,
            "per_pair_terms": list(report.per_pair_terms),
            "bonferroni_sum": report.bonferroni_sum,
            "clamped_probability": report.clamped_probability,
        }
    )


def _cmd_pick_n(args) -> str:
    params = EnsembleParams(args.N, args.alpha, args.k)
    n = pick_n(params, args.epsilon, args.n_max)
    payload = {
        "n": n,
        "epsilon": args.epsilon,
        "n_max": args.n_max,
        "cap_reached": n == args.n_max,
        "bonferroni_sum": prefix_error_bound(n, params).bonferroni_sum,
    }
    return _record(payload, args.format)


def _cmd_simulate(args) -> str:
    summary = run_experiment(
        EnsembleParams(args.N, args.alpha, args.k),
        reps=args.reps,
        seed=args.seed,
        n_focus=args.n_focus,
        workers=args.workers,
    )
    if args.format == "csv":
        lines = ["L,count"]
        lines += [f"{length},{freq}" for length, freq in sorted(summary.histogram.items())]
        return "\n".join(lines) + "\n"
    return _json(summary.to_dict())


def _cmd_analyze(args) -> str:
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
    if args.zipf_csv:
        with open(args.zipf_csv, "w", encoding="utf-8") as fh:
            write_zipf_csv(report.zipf_points, fh)
    if args.se_csv:
        with open(args.se_csv, "w", encoding="utf-8") as fh:
            write_se_csv(report.adjacent_se, fh)
    return _json(report.to_dict())


_HANDLERS = {
    "threshold": _cmd_threshold,
    "bound": _cmd_bound,
    "pick-n": _cmd_pick_n,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = _HANDLERS[args.command](args)
    except ZipfOrderError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

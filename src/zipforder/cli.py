"""Command-line front end.

Subcommands: threshold, bound, pick-n, simulate, analyze.  Reports are JSON
by default, byte for byte ``json.dumps(indent=2)`` but written in bounded
pieces; the tabular subcommands also offer CSV.  Exit codes: 0 success,
1 domain/convergence/configuration error (values beyond the float range
included) or unreadable input, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .bounds import (
    EnsembleParams,
    pick_n,
    prefix_error_bound,
    threshold_n_prime,
)
from .corpus import (
    DEFAULT_SLOPES,
    DEFAULT_WINDOW,
    _SE_CSV_HEADER,
    _ZIPF_CSV_HEADER,
    analyze,
    load_rank_counts,
)
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


_NUMBERS = {int, float}
_CHUNK = 1024  # numbers per C-encoder call when a report streams a long list


@dataclass(frozen=True)
class _Rendered:
    """A list of numbers (depth 1) or of rows of numbers (depth 2) as the
    slices :func:`_render` gave, held so that several outputs share them."""

    slices: tuple[str, ...]
    depth: int


def _json(payload) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2) + "\n"``, in bounded pieces."""
    yield from _json_value(payload, "\n")
    yield "\n"


def _json_value(value, nl: str) -> Iterator[str]:
    # ``nl`` is a newline and the indent of the line ``value`` starts on.
    # Lists of numbers, and lists of rows of numbers, go through the C
    # encoder a slice at a time, unless they come rendered already.
    inner = nl + "  "
    if isinstance(value, _Rendered):
        yield from _indented(value.slices, value.depth, nl)
    elif isinstance(value, dict) and value and set(map(type, value)) == {str}:
        sep = "{" + inner
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_value(item, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(value, (list, tuple)) and value:
        kinds = set(map(type, value))
        if kinds <= _NUMBERS:
            yield from _indented(_render(value, 1), 1, nl)
        elif (kinds <= {list, tuple} and all(value)
              and set(map(type, itertools.chain.from_iterable(value))) <= _NUMBERS):
            yield from _indented(_render(value, 2), 2, nl)
        else:
            sep = "[" + inner
            for item in value:
                yield sep
                yield from _json_value(item, inner)
                sep = "," + inner
            yield nl + "]"
    else:
        yield json.dumps(value, indent=2).replace("\n", nl)


def _render(items, depth: int) -> Iterator[str]:
    """The compact C-encoder text of ``items``, one slice of them at a time.

    ``depth`` brackets are cut from each end of a slice's text, so a slice
    of numbers reads ``1, 2.5`` and a slice of rows ``1, 2.5], [2, 0.5``.
    Numbers and rows of them cannot hold themselves, so the encoder's
    cycle check, a dict insert and delete per row, is skipped.
    """
    for start in range(0, len(items), _CHUNK):
        yield json.dumps(items[start:start + _CHUNK], check_circular=False)[depth:-depth]


def _indented(slices: Iterable[str], depth: int, nl: str) -> Iterator[str]:
    """The ``indent=2`` text of the list whose slices :func:`_render` gave.

    The compact separators are replaced, the outermost first, since the
    text of a number never holds ", " or "], ["; the first replacement's
    new text also joins the slices.  No slices is the empty list.
    """
    inner = nl + "  "
    if depth == 1:
        head, tail = "[" + inner, nl + "]"
        replacements = ((", ", "," + inner),)
    else:
        row = inner + "  "
        head, tail = "[" + inner + "[" + row, inner + "]" + nl + "]"
        replacements = (("], [", inner + "]," + inner + "[" + row), (", ", "," + row))
    sep = head
    for text in slices:
        for old, new in replacements:
            text = text.replace(old, new)
        yield sep + text
        sep = replacements[0][1]
    yield "[]" if sep is head else tail


def _csv(header: str, rows) -> Iterator[str]:
    """A CSV header line, then one line of comma-joined reprs per row."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(repr, row)) + "\n"


# Every analyze value is finite: counts are finite and >= 0, so are their
# logs, and (a - b) / sqrt(a + b) is 0 where a + b overflows.  The JSON text
# of a finite int or float is its repr, so these are the bytes that
# write_zipf_csv and write_se_csv write.
def _zipf_csv(points: _Rendered) -> Iterator[str]:
    """The plot CSV, cut from the rendered point rows."""
    yield _ZIPF_CSV_HEADER
    for text in points.slices:
        yield text.replace("], [", "\n").replace(", ", ",") + "\n"


def _se_csv(se: _Rendered) -> Iterator[str]:
    """The SE CSV, cut from the rendered values and numbered from 1."""
    yield _SE_CSV_HEADER
    done = 0
    for text in se.slices:
        values = text.split(", ")
        yield "".join([f"{i},{v}\n" for i, v in enumerate(values, start=done + 1)])
        done += len(values)


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
    report = prefix_error_bound(args.n, EnsembleParams(args.N, args.alpha, args.k))
    if args.format == "csv":
        return _csv("i,term", enumerate(report.per_pair_terms, start=1))
    return _json(
        {
            "n": report.n,
            "N": args.N,
            "alpha": args.alpha,
            "k": args.k,
            "per_pair_terms": report.per_pair_terms,
            "bonferroni_sum": report.bonferroni_sum,
            "clamped_probability": report.clamped_probability,
        }
    )


def _cmd_pick_n(args) -> Iterable[str]:
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
    se = _Rendered(tuple(_render(report.adjacent_se, 1)), 1)
    points = _Rendered(tuple(_render(report.zipf_points.points, 2)), 2)
    if args.zipf_csv:
        with open(args.zipf_csv, "w", encoding="utf-8") as fh:
            fh.writelines(_zipf_csv(points))
    if args.se_csv:
        with open(args.se_csv, "w", encoding="utf-8") as fh:
            fh.writelines(_se_csv(se))
    # to_dict copies the long columns into lists; emptied first, it copies no row
    payload = replace(
        report, adjacent_se=(), zipf_points=replace(report.zipf_points, points=())
    ).to_dict()
    payload["adjacent_se"] = se
    payload["zipf_points"]["points"] = points
    return _json(payload)


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

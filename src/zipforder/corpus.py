"""Rank-count table ingestion and whole-corpus ordering analysis.

Input format: UTF-8 TSV or CSV with columns (label, count) or
(rank, label, count); '#' lines are comments, and the first record is a
header only when its count field is no number, even with ',' and '_'
removed.  The analysis composes the scale estimators,
ordering thresholds and diagnostics into one self-describing report; plot
rendering is left to external tools, only plot data is emitted.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .bounds import EnsembleParams, pick_n, threshold_n_hat
from .errors import DomainError, ParseError
from .estimate import (
    RankedCounts,
    SensitivityReport,
    estimate_N_total,
    sensitivity_sweep,
)

__all__ = [
    "CountsSummary",
    "ReferenceLine",
    "ZipfPlotData",
    "AnalysisReport",
    "load_rank_counts",
    "adjacent_se",
    "zipf_plot_data",
    "analyze",
    "write_zipf_csv",
    "write_se_csv",
]

DEFAULT_WINDOW = (10, 100)
DEFAULT_SLOPES = (-1.0, -1.1)
_ANCHOR_OFFSET = 0.5  # vertical gap of the reference lines, in log space
_PICK_N_CAP = 100_000  # search cap of pick_n; reaching it is reported, not raised
# the largest int that float() rounds to a finite value: 2^1024 - 2^970 and
# above round (to even) to 2^1024, which overflows
_MAX_COUNT = 2**1024 - 2**970 - 1
# header lines of the CSV writers, which the CLI's writers share
_ZIPF_CSV_HEADER = "i,ln_rank,ln_count\n"
_SE_CSV_HEADER = "i,se\n"


@dataclass(frozen=True)
class CountsSummary:
    length: int
    total: float
    top: tuple[tuple[int, str | None, float], ...]


@dataclass(frozen=True)
class ReferenceLine:
    slope: float
    intercept: float


@dataclass(frozen=True)
class ZipfPlotData:
    """Log-log rank/count points plus two reference lines bracketing them."""

    points: tuple[tuple[int, float, float], ...]  # (rank, ln rank, ln count)
    skipped_ranks: tuple[int, ...]  # zero counts have no log point
    lines: tuple[ReferenceLine, ReferenceLine]


@dataclass(frozen=True)
class AnalysisReport:
    """Full corpus analysis; echoes its inputs so the output is self-describing."""

    counts_summary: CountsSummary
    params_used: EnsembleParams
    n_prime: float
    n_hat: float
    pick_n_result: int
    pick_n_cap_reached: bool
    adjacent_se: tuple[float, ...]
    zipf_points: ZipfPlotData
    reference_slopes: tuple[float, float]
    sensitivity: SensitivityReport
    window: tuple[int, int]
    epsilon: float
    window_scale_min: float

    def to_dict(self) -> dict:
        return {
            "counts_summary": {
                "length": self.counts_summary.length,
                "total": self.counts_summary.total,
                "top": [list(row) for row in self.counts_summary.top],
            },
            "params_used": {
                "N": self.params_used.N,
                "alpha": self.params_used.alpha,
                "k": self.params_used.k,
            },
            "n_prime": self.n_prime,
            "n_hat": self.n_hat,
            "pick_n_result": self.pick_n_result,
            "pick_n_cap_reached": self.pick_n_cap_reached,
            "adjacent_se": list(self.adjacent_se),
            "zipf_points": {
                "points": [list(p) for p in self.zipf_points.points],
                "skipped_ranks": list(self.zipf_points.skipped_ranks),
                "lines": [
                    {"slope": ln.slope, "intercept": ln.intercept}
                    for ln in self.zipf_points.lines
                ],
            },
            "reference_slopes": list(self.reference_slopes),
            "sensitivity": [
                {"alpha": r.alpha, "N_est": r.N_est, "n_prime": r.n_prime}
                for r in self.sensitivity.rows
            ],
            "window": list(self.window),
            "epsilon": self.epsilon,
            "window_scale_min": self.window_scale_min,
        }


def _text_lines(source: str | Path | IO[bytes] | IO[str] | Iterable[str]) -> list[str]:
    """The lines of a path, bytes, a binary or text stream, or an iterable of lines."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    try:
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if isinstance(data, str):
            data.encode("utf-8")  # stdin may carry undecodable bytes as lone surrogates
            return data.splitlines()
    except UnicodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None
    return list(data)


def _is_number(field: str) -> bool:
    try:
        float(field.replace(",", "").replace("_", ""))
    except ValueError:
        return False
    return True


def load_rank_counts(
    source, fmt: str = "tsv", total: float | None = None
) -> RankedCounts:
    """Parse a (label, count) or (rank, label, count) table into ranked form.

    Records are sorted by count descending and ranks reassigned 1..len; the
    sort is stable, so ties keep their input order.  ``total`` overrides the
    table sum for truncated tables.  ``fmt="auto"`` picks TSV when the first
    line that is not blank or a '#' comment holds a tab, and CSV otherwise.
    """
    if fmt not in ("tsv", "csv", "auto"):
        raise DomainError(f"format must be 'tsv', 'csv' or 'auto', got {fmt!r}")
    lines = _text_lines(source)
    if fmt == "auto":
        first = next(
            (l for l in lines if l.strip() and not l.lstrip().startswith("#")), ""
        )
        fmt = "tsv" if "\t" in first else "csv"
    delimiter = "\t" if fmt == "tsv" else ","
    labels: list[str] = []
    counts: list[int] = []
    header_skipped = False
    for line_no, row in enumerate(csv.reader(lines, delimiter=delimiter), start=1):
        fields = [f.strip() for f in row]
        if not any(fields) or fields[0].startswith("#"):
            continue
        if len(fields) == 2:
            label, count_field = fields
        elif len(fields) == 3:
            _, label, count_field = fields
        else:
            raise ParseError(
                f"expected 2 or 3 columns, got {len(fields)}", line=line_no
            )
        try:
            count = int(count_field)
        except ValueError:
            if not (counts or header_skipped or _is_number(count_field)):
                header_skipped = True  # a single leading header row is allowed
                continue
            raise ParseError(
                f"count field {count_field!r} is not an integer", line=line_no
            ) from None
        if not 0 <= count <= _MAX_COUNT:
            if count < 0:
                raise ParseError(f"count must be >= 0, got {count}", line=line_no)
            raise ParseError("count exceeds the float range (about 1.8e308)", line=line_no)
        labels.append(label)
        counts.append(count)
    if not counts:
        raise ParseError("no data records found in input")
    # reverse=True keeps the sort stable: ties stay in input order
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    return RankedCounts(
        counts=tuple(map(float, map(counts.__getitem__, order))),
        labels=tuple(map(labels.__getitem__, order)),
        total=total,
    )


def adjacent_se(counts: RankedCounts) -> tuple[float, ...]:
    """Standard-error separation (X_i - X_{i+1}) / sqrt(X_i + X_{i+1}) per pair.

    Under Poisson sampling this is the number of estimated standard
    deviations separating consecutive counts.  Pairs summing to zero get a
    0 sentinel.
    """
    c = counts.counts
    return tuple(
        (a - b) / math.sqrt(a + b) if a + b > 0 else 0.0 for a, b in zip(c, c[1:])
    )


def zipf_plot_data(
    counts: RankedCounts, slopes: tuple[float, float] = DEFAULT_SLOPES
) -> ZipfPlotData:
    """Log-log plot points with reference lines anchored around the data.

    The lines pass through (0, ln X_1 + 0.5) and (0, ln X_1 - 0.5), ln X_1
    being the largest log count; 0.5 is a presentation offset, and the
    slopes must be finite.
    Zero counts cannot be plotted on a log scale and are reported as skipped.
    """
    c = counts.counts
    if c[0] <= 0.0:
        raise DomainError("rank 1 has count 0; nothing to anchor the plot on")
    if not all(map(math.isfinite, slopes)):
        raise DomainError(f"reference line slopes must be finite, got {slopes}")
    plotted = bisect.bisect_left(c, 0.0, key=operator.neg)  # zero counts are a suffix
    ranks = range(1, plotted + 1)
    top = math.log(c[0])
    lines = (
        ReferenceLine(slope=slopes[0], intercept=top + _ANCHOR_OFFSET),
        ReferenceLine(slope=slopes[1], intercept=top - _ANCHOR_OFFSET),
    )
    points = tuple(zip(ranks, map(math.log, ranks), map(math.log, c[:plotted])))
    return ZipfPlotData(points, tuple(range(plotted + 1, len(c) + 1)), lines)


def _default_alpha_grid(alpha: float) -> tuple[float, ...]:
    offsets = (-0.05, -0.025, 0.0, 0.025, 0.05)
    grid = sorted({round(alpha + d, 9) for d in offsets if alpha + d > 1.0 + 1e-9})
    return tuple(grid)


def analyze(
    counts: RankedCounts,
    alpha: float,
    k: float = 0.0,
    window: tuple[int, int] = DEFAULT_WINDOW,
    epsilon: float = 0.01,
    alphas: Sequence[float] | None = None,
    slopes: tuple[float, float] = DEFAULT_SLOPES,
) -> AnalysisReport:
    """Run the full ordering analysis of one rank-count table.

    The scale used for the error bounds comes from the recorded total
    (N = T / zeta(alpha, k+1)); ``n_prime`` and ``window_scale_min`` are the
    sensitivity sweep's row at ``alpha``, from the conservative window-minimum
    scale.  The requested window is clamped to the table length.
    """
    total = counts.total
    n_total = estimate_N_total(total, alpha, k)
    params = EnsembleParams(n_total, alpha, k)

    lo, hi = window
    hi = min(hi, len(counts))
    if not 1 <= lo <= hi:
        raise DomainError(
            f"window {window} does not intersect a table of length {len(counts)}"
        )
    at_alpha = sensitivity_sweep(counts, (alpha,), lo, hi).rows[0]
    n_hat = threshold_n_hat(total, alpha)

    picked = pick_n(params, epsilon, _PICK_N_CAP)

    grid = tuple(alphas) if alphas is not None else _default_alpha_grid(alpha)
    return AnalysisReport(
        counts_summary=CountsSummary(
            length=len(counts),
            total=total,
            top=tuple(itertools.islice(counts.rows(), 10)),
        ),
        params_used=params,
        n_prime=at_alpha.n_prime,
        n_hat=n_hat,
        pick_n_result=picked,
        pick_n_cap_reached=picked == _PICK_N_CAP,
        adjacent_se=adjacent_se(counts),
        zipf_points=zipf_plot_data(counts, slopes),
        reference_slopes=slopes,
        sensitivity=sensitivity_sweep(counts, grid, lo, hi),
        window=(lo, hi),
        epsilon=epsilon,
        window_scale_min=at_alpha.N_est,
    )


def write_zipf_csv(plot: ZipfPlotData, out: IO[str]) -> None:
    """Emit the log-log points as CSV with header i,ln_rank,ln_count."""
    out.write(_ZIPF_CSV_HEADER)
    for i, ln_rank, ln_count in plot.points:
        out.write(f"{i},{ln_rank!r},{ln_count!r}\n")


def write_se_csv(se: Sequence[float], out: IO[str]) -> None:
    """Emit the adjacent standard errors as CSV with header i,se."""
    out.write(_SE_CSV_HEADER)
    for i, value in enumerate(se, start=1):
        out.write(f"{i},{value!r}\n")

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
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .bounds import EnsembleParams, pick_n
from .errors import DomainError, ParseError
from .estimate import (
    RankedCounts,
    SensitivityReport,
    estimate_N_total,
    sensitivity_sweep,
    threshold_n_hat,
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
_CHUNK = 1024  # rows per slice when a long column is rendered to text
_SHOWN = 40  # characters of a bad field that an error message echoes


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
    """Log-log rank/count points, one column, plus two reference lines bracketing them."""

    ln_counts: tuple[float, ...]  # ln X_i of ranks i = 1, 2, ... up to the first zero count
    skipped_ranks: range  # the ranks of the zero counts, which have no log point
    lines: tuple[ReferenceLine, ReferenceLine]

    @property
    def points(self) -> tuple[tuple[int, float, float], ...]:
        """The (rank, ln rank, ln count) rows, built on each call."""
        ranks = range(1, len(self.ln_counts) + 1)
        return tuple(zip(ranks, map(math.log, ranks), self.ln_counts))


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
                "points": [[i, math.log(i), y]
                           for i, y in enumerate(self.zipf_points.ln_counts, start=1)],
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


def _shown(text: str) -> str:
    """``text``, cut to its first _SHOWN characters when longer, for an error message."""
    if len(text) <= _SHOWN:
        return text
    return f"{text[:_SHOWN]}... ({len(text):,} characters)"


def _per_run(fn: Callable, values: Iterable) -> Iterator:
    """``map(fn, values)`` with one call of ``fn`` per run of equal values,
    whose result every item of the run shares.

    Runs are cut with ``!=``, which takes 0.0 and -0.0 as equal; no column
    this runs on holds -0.0 (counts are ints >= 0, and no log is -0.0), so a
    run never joins values with different reprs.
    """
    last = result = None
    for x in values:
        if x != last:
            last, result = x, fn(x)
        yield result


class _Labels(Sequence):
    """A parsed table's labels in rank order, read like the tuple of them.

    They are kept as one string, ``text``, and the n + 1 offsets ``ends``
    where label i starts (``ends[i]``) and stops (``ends[i + 1]``); label i
    is made as a slice when it is read.  That costs each label its characters
    and 8 bytes, where a ``str`` per label costs 49 bytes or more besides.
    One label past Latin-1 widens every character of ``text`` to 2 bytes, or
    4 past the BMP; labels of up to about 16 characters still cost less.

    Indexing, slicing (to a tuple), ``==``, ``hash`` and ``repr`` are those
    of the tuple of the labels.
    """

    __slots__ = ("_text", "_ends")

    def __init__(self, text: str, ends: array):
        self._text = text
        self._ends = ends

    def __len__(self) -> int:
        return len(self._ends) - 1

    def __getitem__(self, i):
        picked = range(len(self))[i]  # IndexError and negative indices as a tuple's
        if isinstance(picked, range):
            return tuple(map(self.__getitem__, picked))
        return self._text[self._ends[picked]:self._ends[picked + 1]]

    def __iter__(self) -> Iterator[str]:
        ends = self._ends
        return map(self._text.__getitem__, map(slice, ends, itertools.islice(ends, 1, None)))

    def __eq__(self, other):
        if isinstance(other, _Labels):
            return self._ends == other._ends and self._text == other._text
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _is_number(field: str) -> bool:
    try:
        float(field.replace(",", "").replace("_", ""))
    except ValueError:
        return False
    return True


def _records(lines: Iterable[str], delimiter: str) -> Iterator[tuple[int, list[str]]]:
    """The records csv reads from ``lines`` that are neither blank nor a '#'
    comment, as the physical line each starts on and its stripped fields."""
    reader = csv.reader(lines, delimiter=delimiter)
    start = 1  # the line the next record starts on
    try:
        for row in reader:
            line_no, start = start, reader.line_num + 1
            fields = [f.strip() for f in row]
            if any(fields) and not fields[0].startswith("#"):
                yield line_no, fields
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ParseError(str(exc), line=start) from None


def load_rank_counts(
    source, fmt: str = "tsv", total: float | None = None
) -> RankedCounts:
    """Parse a (label, count) or (rank, label, count) table into ranked form.

    Records are sorted by count descending and ranks reassigned 1..len; the
    sort is stable, so ties keep their input order.  ``total`` overrides the
    table sum for truncated tables.  ``fmt="auto"`` picks TSV when csv, reading
    with tabs, finds more than one field in the first record that is not
    blank or a '#' comment, and CSV otherwise.

    ``source`` is a path, read as UTF-8, a text stream or an iterable of
    lines; a quoted field may span lines, and an error names the physical
    line its record starts on.
    """
    if fmt not in ("tsv", "csv", "auto"):
        raise DomainError(f"format must be 'tsv', 'csv' or 'auto', got {fmt!r}")
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as fh:
            return load_rank_counts(fh, fmt, total)
    lines = iter(source)
    labels: list[str] = []
    counts: list[int] = []
    header_skipped = False
    try:
        if fmt == "auto":
            # csv reads the first record with tabs, over as many lines as it
            # spans; those lines are kept in head and read again
            head: list[str] = []
            first = next(_records((head.append(line) or line for line in lines), "\t"), None)
            fmt = "tsv" if first and len(first[1]) > 1 else "csv"
            lines = itertools.chain(head, lines)
        for line_no, fields in _records(lines, "\t" if fmt == "tsv" else ","):
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
                digits = count_field[1:] if count_field[:1] in ("+", "-") else count_field
                if digits.isascii() and digits.isdigit():
                    # int() refuses digit strings past its limit (4,300 digits by
                    # default, 640 at least), and all of them are past 1.8e308
                    count = -math.inf if count_field[0] == "-" else math.inf
                elif not (counts or header_skipped or _is_number(count_field)):
                    header_skipped = True  # a single leading header row is allowed
                    continue
                else:
                    raise ParseError(
                        f"count field {_shown(repr(count_field))} is not an integer", line=line_no
                    ) from None
            if not 0 <= count <= _MAX_COUNT:
                if count < 0:
                    raise ParseError(f"count must be >= 0, got {_shown(str(count))}", line=line_no)
                raise ParseError("count exceeds the float range (about 1.8e308)", line=line_no)
            labels.append(label)
            counts.append(count)
        # reverse=True keeps the sort stable: ties stay in input order
        order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
        labels = list(map(labels.__getitem__, order))
        text = "".join(labels)
        text.encode("utf-8")  # stdin may carry undecodable bytes as lone surrogates
    except UnicodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None
    if not counts:
        raise ParseError("no data records found in input")
    ends = array("q", itertools.accumulate(map(len, labels), initial=0))
    del labels  # a str per label is 49 bytes or more: free them before the counts column
    # runs are cut on the floats, so counts that round to one float share it
    ranked = map(float, map(counts.__getitem__, order))
    return RankedCounts(
        counts=tuple(_per_run(float, ranked)),
        labels=_Labels(text, ends),
        total=total,
    )


def adjacent_se(counts: RankedCounts) -> tuple[float, ...]:
    """Standard-error separation (X_i - X_{i+1}) / sqrt(X_i + X_{i+1}) per pair.

    Under Poisson sampling this is the number of estimated standard
    deviations separating consecutive counts.  A tied pair, zeros included,
    gets 0.0, one float shared by every tie; a pair that is not tied has
    a > b >= 0, so a + b > 0.
    """
    c = counts.counts
    return tuple(
        (a - b) / math.sqrt(a + b) if a != b else 0.0 for a, b in zip(c, c[1:])
    )


def zipf_plot_data(
    counts: RankedCounts, slopes: tuple[float, float] = DEFAULT_SLOPES
) -> ZipfPlotData:
    """Log-log plot points with reference lines anchored around the data.

    The lines pass through (0, ln X_1 + 0.5) and (0, ln X_1 - 0.5), ln X_1
    being the largest log count; 0.5 is a presentation offset, and the
    slopes must be finite.
    Zero counts cannot be plotted on a log scale; their ranks, one run at the
    end of the table, are reported as the range ``skipped_ranks``.
    """
    c = counts.counts
    if c[0] <= 0.0:
        raise DomainError("rank 1 has count 0; nothing to anchor the plot on")
    if not all(map(math.isfinite, slopes)):
        raise DomainError(f"reference line slopes must be finite, got {slopes}")
    plotted = bisect.bisect_left(c, 0.0, key=operator.neg)  # zero counts are a suffix
    top = math.log(c[0])
    lines = (
        ReferenceLine(slope=slopes[0], intercept=top + _ANCHOR_OFFSET),
        ReferenceLine(slope=slopes[1], intercept=top - _ANCHOR_OFFSET),
    )
    ln_counts = tuple(_per_run(math.log, itertools.islice(c, plotted)))
    return ZipfPlotData(ln_counts, range(plotted + 1, len(c) + 1), lines)


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


# The renderers are the one path from a long column to text.  They write the
# repr of each value, a _CHUNK slice at a time, as the slice's compact JSON
# text with its outer brackets cut; the JSON text of a finite number is its
# repr, so a column bound for JSON holds no nan or infinity.
def _point_text(plot: ZipfPlotData) -> Iterator[str]:
    """The plot rows as ``1, 0.0, 4.6], [2, 0.69..., 4.1...``, slice by slice."""
    reprs = _per_run(repr, plot.ln_counts)
    for start in range(0, len(plot.ln_counts), _CHUNK):
        rows = enumerate(itertools.islice(reprs, _CHUNK), start=start + 1)
        yield "], [".join([f"{i}, {math.log(i)!r}, {y}" for i, y in rows])


def _column_text(values: Iterable[float]) -> Iterator[str]:
    """The values as ``1.5, -0.25``, slice by slice."""
    values = iter(values)
    while text := ", ".join(map(repr, itertools.islice(values, _CHUNK))):
        yield text


def _indented(slices: Iterable[str], depth: int, nl: str) -> Iterator[str]:
    """The ``indent=2`` text of a column from the slices of :func:`_column_text`
    (``depth`` 1) or :func:`_point_text` (``depth`` 2).

    ``nl`` is a newline and the indent of the line the column starts on.
    The compact separators are replaced, the outermost first, since the text
    of a number never holds ", " or "], ["; the first replacement's new text
    also joins the slices.  No slices is the empty list.
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


def _zipf_csv(slices: Iterable[str]) -> Iterator[str]:
    """The plot CSV, cut from the slices of :func:`_point_text`."""
    yield "i,ln_rank,ln_count\n"
    for text in slices:
        yield text.replace("], [", "\n").replace(", ", ",") + "\n"


def _numbered_csv(header: str, slices: Iterable[str]) -> Iterator[str]:
    """A CSV of ``i,value`` rows, cut from the slices of :func:`_column_text` and numbered from 1."""
    yield header + "\n"
    done = 0
    for text in slices:
        values = text.split(", ")
        yield "".join([f"{i},{v}\n" for i, v in enumerate(values, start=done + 1)])
        done += len(values)


def write_zipf_csv(plot: ZipfPlotData, out: IO[str]) -> None:
    """Emit the log-log points as CSV with header i,ln_rank,ln_count."""
    out.writelines(_zipf_csv(_point_text(plot)))


def write_se_csv(se: Sequence[float], out: IO[str]) -> None:
    """Emit the adjacent standard errors as CSV with header i,se."""
    out.writelines(_numbered_csv("i,se", _column_text(se)))

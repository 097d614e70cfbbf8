"""Report text: the one place where report values become the bytes written.

A JSON report is byte for byte ``json.dumps(payload, indent=2)`` plus a
newline, written in bounded pieces; a CSV row holds the ``repr`` of each
value.  A long column is rendered once, a _CHUNK slice at a time, as the
slice's compact JSON text with its outer brackets cut, and the JSON report
and the column's CSV are both cut from those slices.

The renderers write the ``repr`` of each number, which is its JSON text when
the number is finite (json writes ``NaN`` and ``Infinity`` where repr writes
``nan`` and ``inf``).  Every column bound for JSON is finite: a pair term is
exp(-x) with x >= 0 or x = inf; counts are finite and >= 0, and so are their
logs; and a standard error (a - b) / sqrt(a + b) is 0 where a + b overflows.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, Iterable, Iterator

_CHUNK = 1024  # rows per slice when a long column is rendered to text


def _per_run(fn: Callable, values: Iterable) -> Iterator:
    """``map(fn, values)`` with one call of ``fn`` per run of equal values,
    whose result every item of the run shares.

    Runs are cut with ``!=`` and, between zeros, by sign: 0.0 == -0.0, but
    their reprs differ, so a run never joins values with different reprs.
    """
    last = result = None
    for x in values:
        if x != last or not x and math.copysign(1.0, x) != math.copysign(1.0, last):
            last, result = x, fn(x)
        yield result


def _column_text(values: Iterable[float]) -> Iterator[str]:
    """The values as ``1.5, -0.25``, slice by slice."""
    values = iter(values)
    while text := ", ".join(map(repr, itertools.islice(values, _CHUNK))):
        yield text


def _point_text(plot) -> Iterator[str]:
    """The rows of a ``ZipfPlotData`` as ``1, 0.0, 4.6], [2, 0.69..., 4.1...``,
    slice by slice."""
    reprs = _per_run(repr, plot.ln_counts)
    for start in range(0, len(plot.ln_counts), _CHUNK):
        rows = enumerate(itertools.islice(reprs, _CHUNK), start=start + 1)
        yield "], [".join([f"{i}, {math.log(i)!r}, {y}" for i, y in rows])


def _json(payload, columns: Iterable[tuple[str, Iterable[str], int]] = ()) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2) + "\\n"``, in bounded pieces.

    ``columns`` holds a (key, slices, depth) triple for each long column, in
    the order the text holds their keys: the key holds an empty list in
    ``payload``, and the slices come from :func:`_column_text` (depth 1) or
    :func:`_point_text` (depth 2).  A key is found as a space, its JSON text
    and ``: []``; nothing but a key matches that, since json.dumps escapes
    every quote inside a string.

    A column is written at the indent of its key's line.  The compact
    separators of each slice are replaced, the outermost first, since the
    text of a number never holds ", " or "], ["; the first replacement's new
    text also joins the slices.  No slices is the empty list.
    """
    text = json.dumps(payload, indent=2) + "\n"
    for key, slices, depth in columns:
        key_text = f" {json.dumps(key)}: "
        head, text = text.split(key_text + "[]", 1)
        yield head + key_text
        nl = head[head.rindex("\n"):] + " "  # a newline and the indent of the key's line
        inner = nl + "  "
        if depth == 1:
            opening, closing = "[" + inner, nl + "]"
            replacements = ((", ", "," + inner),)
        else:
            row = inner + "  "
            opening, closing = "[" + inner + "[" + row, inner + "]" + nl + "]"
            replacements = (("], [", inner + "]," + inner + "[" + row), (", ", "," + row))
        sep = opening
        for piece in slices:
            for old, new in replacements:
                piece = piece.replace(old, new)
            yield sep + piece
            sep = replacements[0][1]
        yield "[]" if sep is opening else closing
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

"""Table ingestion, diagnostics, and the composed analysis report."""

import csv
import io
import json
import math
import pickle
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BNC_TOTAL, make_zipf_table
from oracles import (
    adjacent_se_per_row,
    ln_counts_per_row,
    ranked_floats_per_row,
    write_se_csv_per_row,
    write_zipf_csv_per_row,
)
from zipforder import (
    DomainError,
    ParseError,
    RankedCounts,
    ZipfPlotData,
    adjacent_se,
    analyze,
    load_rank_counts,
    threshold_n_prime,
    write_se_csv,
    write_zipf_csv,
    zipf_plot_data,
)
from zipforder._text import _CHUNK


class TestLoadRankCounts:
    def test_tsv_two_rows(self):
        text = "the\t6187267\nbe\t4239632\n"
        table = load_rank_counts(io.StringIO(text), fmt="tsv")
        assert table.counts == (6187267.0, 4239632.0)
        assert table.labels == ("the", "be")
        assert load_rank_counts(io.StringIO(text), fmt="auto") == table

    def test_csv_single_row(self):
        table = load_rank_counts(io.StringIO("x,5\n"), fmt="csv")
        assert len(table) == 1
        assert table.total == 5.0
        assert load_rank_counts(io.StringIO("x,5\n"), fmt="auto") == table

    def test_unsorted_input_sorted(self):
        table = load_rank_counts(io.StringIO("a,3\nb,9\nc,5\n"), fmt="csv")
        assert table.counts == (9.0, 5.0, 3.0)
        assert table.labels == ("b", "c", "a")

    def test_ties_keep_input_order(self):
        table = load_rank_counts(io.StringIO("a,5\nb,7\nc,5\n"), fmt="csv")
        assert table.labels == ("b", "a", "c")

    def test_three_column_form(self):
        table = load_rank_counts(io.StringIO("1\tfoo\t10\n2\tbar\t4\n"), fmt="tsv")
        assert table.labels == ("foo", "bar")

    def test_header_and_comments_skipped(self):
        text = "#\tword frequency list\nword,count\na,9\nb,3\n"
        table = load_rank_counts(io.StringIO(text), fmt="csv")
        assert table.counts == (9.0, 3.0)
        # auto looks past the comment, whose tab says nothing of the delimiter
        assert load_rank_counts(io.StringIO(text), fmt="auto") == table

    @pytest.mark.parametrize(
        "text",
        [
            "word\tfreq\nthe\t100\nof\t50\n",
            "rank\tword\tcount\n1\tthe\t100\n2\tof\t50\n",
            "word\t\nthe\t100\nof\t50\n",
        ],
    )
    def test_header_forms_skipped(self, text):
        table = load_rank_counts(io.StringIO(text), fmt="auto")
        assert table.counts == (100.0, 50.0)
        assert table.labels == ("the", "of")

    @pytest.mark.parametrize("count", ["100.0", "1e6", "6,187,267", "1_000.5", "nan", "inf"])
    def test_numeric_first_count_is_not_a_header(self, count):
        """A first record whose count is a number, but no integer, keeps rank 1 by failing."""
        lines = [f"the\t{count}", "of\t50", "and\t10"]
        with pytest.raises(ParseError, match="^line 1: count field"):
            load_rank_counts(lines, fmt="tsv")
        with pytest.raises(ParseError, match="^line 2: count field"):
            load_rank_counts(["# list", *lines], fmt="tsv")

    def test_second_header_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            load_rank_counts(["word\tcount", "word\tcount", "the\t9"], fmt="tsv")

    def test_malformed_count_has_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            load_rank_counts(io.StringIO("a,9\nb,3\nc,x\n"), fmt="csv")

    def test_column_count_checked(self):
        with pytest.raises(ParseError, match="line 2: expected 2 or 3 columns, got 4"):
            load_rank_counts(io.StringIO("a,9\n1,b,3,x\n"), fmt="csv")

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="line 2: count must be >= 0"):
            load_rank_counts(io.StringIO("a\t9\nb\t-3\n"))

    def test_count_beyond_float_range_rejected(self):
        text = "a\t1\nb\t1" + "0" * 400 + "\nc\t3\n"
        with pytest.raises(ParseError, match="line 2: count exceeds the float range"):
            load_rank_counts(io.StringIO(text))

    @pytest.mark.parametrize(
        "rows, line", [(["a\t" + "1" * 5000, "b\t5"], 1), (["b\t5", "a\t" + "1" * 5000], 2)]
    )
    def test_count_past_int_digit_limit(self, rows, line):
        """int() refuses more than 4,300 digits; the count is past the float range."""
        with pytest.raises(ParseError, match=f"^line {line}: count exceeds the float range") as exc:
            load_rank_counts(rows)
        assert len(str(exc.value)) < 100

    @pytest.mark.parametrize("line", [1, 2])
    @pytest.mark.parametrize(
        "sign, message", [("-", "count must be >= 0"), ("+", "count exceeds the float range")]
    )
    def test_signed_count_past_int_digit_limit(self, sign, message, line):
        """A sign before digits int() refuses is read as the sign of a count past 1.8e308."""
        rows = ["b\t5", "a\t" + sign + "1" * 5000][::1 if line == 2 else -1]
        with pytest.raises(ParseError, match=f"^line {line}: {message}") as exc:
            load_rank_counts(rows)
        assert len(str(exc.value)) < 100

    def test_field_past_csv_limit_is_parse_error(self):
        """csv refuses a field longer than its limit; the error names the record."""
        lines = ["a\t9", "x" * (csv.field_size_limit() + 1) + "\t5", "c\t3"]
        with pytest.raises(ParseError, match=r"^line 2: field larger than field limit") as exc:
            load_rank_counts(lines)
        assert len(str(exc.value)) < 100

    def test_non_integer_count_echo_is_capped(self):
        """A stray quote makes csv join the rest of the table into one count field."""
        lines = ["w%d\t%s%d" % (i, '"' if i == 3 else "", 1000 - i) for i in range(1, 901)]
        with pytest.raises(ParseError, match="^line 3: count field '997w4") as exc:
            load_rank_counts(lines)
        assert len(str(exc.value)) < 150
        assert str(exc.value).endswith(" characters) is not an integer")

    def test_negative_count_echo_is_capped(self):
        with pytest.raises(ParseError, match="^line 2: count must be >= 0, got -111") as exc:
            load_rank_counts(["a\t9", "b\t-" + "1" * 4000])
        assert len(str(exc.value)) < 150
        with pytest.raises(ParseError, match="^line 1: count must be >= 0, got -3$"):
            load_rank_counts(["b\t-3"])

    def test_float_range_edge(self):
        """The largest count float() rounds to a finite value parses; the next is refused."""
        edge = 2**1024 - 2**970 - 1
        assert load_rank_counts(io.StringIO(f"a\t{edge}\n")).counts == (1.7976931348623157e308,)
        assert load_rank_counts(io.StringIO(f"a\t3\nb\t{10**308}\n")).counts == (1e308, 3.0)
        with pytest.raises(ParseError, match="line 1: count exceeds the float range"):
            load_rank_counts(io.StringIO(f"a\t{edge + 1}\n"))

    @pytest.mark.parametrize("fmt", ["tsv", "csv", "auto"])
    def test_counts_padded_with_separator_characters(self, fmt):
        """str.strip removes \\x1c-\\x1f around a count, which int() alone refuses."""
        sep = "," if fmt == "csv" else "\t"
        text = f"a{sep}\x1c7\x1d\nb{sep}\x1e12\x1f\nc{sep} \x1f3\x1c\n"
        table = load_rank_counts(io.StringIO(text), fmt=fmt)
        assert table.counts == (12.0, 7.0, 3.0)
        assert table.labels == ("b", "a", "c")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no data"):
            load_rank_counts(io.StringIO("# nothing here\n"), fmt="csv")

    def test_total_override(self):
        table = load_rank_counts(io.StringIO("a,9\n"), fmt="csv", total=100.0)
        assert table.total == 100.0

    def test_non_utf8_path_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"a\t9\n\xff\t3\n")
        with pytest.raises(ParseError, match="UTF-8"):
            load_rank_counts(bad)

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_text_stream_is_parse_error(self, errors):
        stream = io.TextIOWrapper(
            io.BytesIO(b"a\t9\n\xff\t3\n"), encoding="utf-8", errors=errors
        )
        with pytest.raises(ParseError, match="UTF-8"):
            load_rank_counts(stream)

    def test_bad_format_rejected(self):
        with pytest.raises(DomainError):
            load_rank_counts(io.StringIO("a,9\n"), fmt="xlsx")

    def test_fixture_loads(self, bnc_top10):
        assert len(bnc_top10) == 10
        assert bnc_top10.counts[0] == 6187267.0
        assert bnc_top10.total == BNC_TOTAL


# Characters that str.splitlines ends a line at but csv and io do not, then
# line breaks, quotes, both delimiters, and Latin-1, CJK and astral letters
_LABEL_CHARS = [
    "a", "b", " ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ",", '"', "\t", "\n", "\r\n", "\xe9", "\u4e2d", "\U0001f600",
]


@st.composite
def _written_tables(draw):
    """A format, a line terminator, (label, count) rows for csv.writer, and
    the index of a row past the first whose count is written as 'oops', or None."""
    fmt = draw(st.sampled_from(["tsv", "csv"]))
    terminator = draw(st.sampled_from(["\r\n", "\n"]))
    label = st.lists(st.sampled_from(_LABEL_CHARS), max_size=6).map("".join)
    rows = draw(st.lists(st.tuples(label, st.integers(0, 10**6)), min_size=1, max_size=12))
    bad = draw(st.none() | st.integers(1, len(rows) - 1)) if len(rows) > 1 else None
    return fmt, terminator, rows, bad


class TestTableStream:
    """csv reads the table as written: a quoted field keeps its line breaks,
    other characters never end a line, and errors name physical lines."""

    def test_auto_sniff_keeps_label_characters(self):
        text = "a\x85b\t5\nc\u2028d\t3\n"
        assert load_rank_counts(io.StringIO(text), fmt="auto").labels == ("a\x85b", "c\u2028d")

    @pytest.mark.parametrize("text, fmt", [
        ('a,9\n"b\nc",5\nd,oops\n', "csv"),
        ("# a\tlist\n\nd\t3\ne\toops\n", "auto"),  # the lines auto reads come first
    ])
    def test_error_names_the_physical_line(self, text, fmt):
        with pytest.raises(ParseError, match="^line 4: count field 'oops' is not an integer$"):
            load_rank_counts(io.StringIO(text), fmt=fmt)

    @settings(max_examples=200, deadline=None)
    @given(_written_tables())
    @example(("tsv", "\n", [("a\x0cb", 5), ("c", 3)], None))
    @example(("csv", "\n", [("b\nc", 5), ("d", 3)], None))
    @example(("csv", "\n", [("a", 9), ("b\nc", 5), ("d", 3)], 2))
    def test_written_tables_read_back(self, case):
        """By path, as a text stream and as its lines, the labels (stripped)
        and counts come back, and a bad count names its record's first line."""
        fmt, terminator, rows, bad = case
        out = io.StringIO(newline="")
        writer = csv.writer(out, delimiter="\t" if fmt == "tsv" else ",", lineterminator=terminator)
        starts = []
        for j, (label, count) in enumerate(rows):
            starts.append(out.getvalue().count("\n") + 1)  # every line end holds one \n
            writer.writerow([label, "oops" if j == bad else count])
        text = out.getvalue()
        order = sorted(range(len(rows)), key=lambda j: rows[j][1], reverse=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "table.txt")
            path.write_text(text, encoding="utf-8", newline="")
            for source in (
                path, io.StringIO(text, newline=""), io.StringIO(text, newline="").readlines()
            ):
                if bad is not None:
                    with pytest.raises(ParseError) as exc:
                        load_rank_counts(source, fmt=fmt)
                    assert str(exc.value) == (
                        f"line {starts[bad]}: count field 'oops' is not an integer"
                    )
                    continue
                table = load_rank_counts(source, fmt=fmt)
                assert table.labels == tuple(rows[j][0].strip() for j in order)
                assert table.counts == tuple(float(rows[j][1]) for j in order)

    def test_auto_sniff_reads_the_whole_first_record(self, tmp_path):
        """The first record's tab may follow a quoted label's line break, and
        a quote inside a CSV label, a tab past the first record and a tab in
        a quoted label say nothing."""
        for text, labels in [
            ('"a\r\nb"\t9\nc\t3\n', ("a\r\nb", "c")),
            ('a"b,9\nc,3\n', ('a"b', "c")),
            ('a,9\n"b\tc",3\n', ("a", "b\tc")),
            ('"a\tb",9\nc,3\n', ("a\tb", "c")),
        ]:
            path = tmp_path / "table.txt"
            path.write_text(text, encoding="utf-8", newline="")
            for source in (
                path, io.StringIO(text, newline=""), io.StringIO(text, newline="").readlines()
            ):
                table = load_rank_counts(source, fmt="auto")
                assert (table.labels, table.counts) == (labels, (9.0, 3.0))

    @pytest.mark.parametrize("text", [
        '# it\'s "a list", of words\n\na\t9\nb\t3\n',
        '#\tword\t"count"\n# "a\tb"\na,9\nb,3\n',
        '# x\t"y\nz"\na\t9\nb\t3\n',  # the tab dialect reads this comment over two lines
        '"# a\tb"\n  # c, d\na,9\nb,3\n',
    ])
    def test_auto_sniff_skips_comments_with_quotes_and_tabs(self, text):
        fmt = "tsv" if "a\t9" in text else "csv"
        table = load_rank_counts(io.StringIO(text, newline=""), fmt="auto")
        assert (table.labels, table.counts) == (("a", "b"), (9.0, 3.0))
        assert load_rank_counts(io.StringIO(text, newline=""), fmt=fmt) == table

    @pytest.mark.parametrize("fmt", ["auto", "tsv", "csv"])
    def test_oversize_first_record_after_a_comment(self, fmt):
        """csv's error on a field past its limit names the line the record starts on."""
        text = '# a list\n"' + "x" * (csv.field_size_limit() + 1) + '"\t5\nc\t3\n'
        with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
            load_rank_counts(io.StringIO(text), fmt=fmt)

    def test_auto_sniff_stops_at_the_field_limit(self, tmp_path):
        """A stray quote in the first label of a 10^5-row CSV, where a count of
        quotes would find them open to the end, does not take the table into
        memory: the parse peaks under 170 bytes per row."""
        n = 100_000
        path = tmp_path / "table.csv"
        counts = _poisson_zipf_counts(n, 1.25e7, seed=1)
        path.write_text('w"' + "".join(f"w{j:06d},{c}\n" for j, c in enumerate(counts)),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_rank_counts(path, fmt="auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == n and 'w"w000000' in table.labels
        assert peak < 170 * n

    def test_parse_by_path_memory_per_row(self, tmp_path):
        """Parsing a 10^5-row table by path peaks under 170 bytes per row:
        csv takes the file a line at a time, and no copy of the text is made."""
        n = 100_000
        path = tmp_path / "table.tsv"
        counts = _poisson_zipf_counts(n, 1.25e7, seed=1)
        path.write_text("".join(f"w{j:06d}\t{c}\n" for j, c in enumerate(counts)), encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_rank_counts(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == n
        assert peak < 170 * n


def _sources(data: bytes, tmp_path: Path) -> list:
    """``data`` as a path, as a text stream that keeps undecodable bytes as
    lone surrogates, as stdin does without a UTF-8 locale, and as its lines."""
    path = tmp_path / "table.txt"
    path.write_bytes(data)

    def stream():
        return io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline=""
        )

    return [path, stream(), stream().readlines()]


def _two_faults(faulty: dict[int, bytes], delimiter: bytes) -> bytes:
    """A ten-line TSV table whose lines are good records but for those of
    ``faulty`` (line number: line), with its tabs replaced by ``delimiter``."""
    lines = [faulty.get(n, b"w\t%d" % (20 - n)) for n in range(1, 11)]
    return b"".join(line + b"\n" for line in lines).replace(b"\t", delimiter)


class _Counted:
    """An iterator over ``lines`` that counts the lines it has handed out."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.handed = 0

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self.handed += 1
        return line


class TestReadingRule:
    """A path, a text stream and a list of lines are read by one rule: one
    format default, one UTF-8 check of every line, one byte-order-mark rule."""

    @pytest.mark.parametrize("data, line", [
        (b"a\t\xff9\nb\t3\n", 1),  # the first record's count, once taken for a header
        (b"a\t9\nb\t\xff3\n", 2),  # a later count
        (b"w\xffrd\tcount\na\t9\n", 1),  # a header's label
        (b"# \xff\na\t9\n", 1),  # a comment
        (b"1\ta\t9\n\xff2\tb\t3\n", 2),  # the rank field of a 3-column row
        (b"a\t9\nb\t3\n" * 3000 + b"\xff\t1\n", 6001),  # a label past the first block
    ], ids=["first-count", "later-count", "header", "comment", "rank", "late-label"])
    @pytest.mark.parametrize("fmt", ["auto", "tsv"])
    def test_undecodable_byte_is_parse_error_anywhere(self, tmp_path, data, line, fmt):
        for source in [*_sources(data, tmp_path), io.BytesIO(data)]:
            with pytest.raises(ParseError, match=f"^line {line}: input is not UTF-8: "):
                load_rank_counts(source, fmt=fmt)

    @pytest.mark.parametrize("data", [
        b"a\t9\n",  # once read as lines of bytes, which csv refused
        b"the\t6187267\rof\t3093444\rand\t2687863\r",
        "caf\xe9\t9\n\u4e2d\t5\n\U0001f600\t3\n".encode("utf-8"),
        b"\xef\xbb\xbfword,count\nthe,6187267\nof,3093444\n",
        b'"a\r\nb"\t9\r\nc\t3\r\n',
    ], ids=["one-row", "cr-line-ends", "non-ascii", "byte-order-mark", "quoted-crlf"])
    @pytest.mark.parametrize("fmt", ["auto", "tsv", "csv"])
    def test_binary_stream_reads_as_its_path(self, tmp_path, data, fmt):
        """A binary stream is decoded as a path is, and is left open."""
        path = tmp_path / "table.txt"
        path.write_bytes(data)
        try:
            want = load_rank_counts(path, fmt=fmt)
        except ParseError as exc:
            want = str(exc)
        stream = io.BytesIO(data)
        try:
            got = load_rank_counts(stream, fmt=fmt)
        except ParseError as exc:
            got = str(exc)
        assert got == want
        assert not stream.closed and stream.read() == b""

    def test_bad_byte_is_named_by_line_and_column(self, tmp_path):
        """Line 5,001 of a 20,004-byte table is named by path, as a binary
        stream, as a surrogateescape text stream and as the binary buffer of
        a strict text stream, in one message."""
        data = b"a\t9\n" * 5000 + b"\xff\t1\n"
        assert len(data) == 20_004
        message = "line 5001: input is not UTF-8: undecodable byte 0xff at column 1"
        stream = io.BytesIO(data)
        sources = _sources(data, tmp_path)
        with sources[0].open(encoding="utf-8") as strict:
            for source in [*sources, stream, strict.buffer]:
                with pytest.raises(ParseError) as exc:
                    load_rank_counts(source)
                assert str(exc.value) == message
            assert not strict.buffer.closed
        assert not stream.closed

    @pytest.mark.parametrize("rows, line, message", [
        ({5: b"e\t1.5", 10: b"w\xff\t9"}, 5, "count field '1.5' is not an integer"),
        ({5: b"w\xff\t9", 10: b"e\t1.5"}, 5, "input is not UTF-8: undecodable byte 0xff at column 2"),
        ({3: b"# \xff", 4: b"1\ta\t9\tx"}, 3, "input is not UTF-8: undecodable byte 0xff at column 3"),
    ], ids=["count-then-byte", "byte-then-count", "comment-byte-then-columns"])
    @pytest.mark.parametrize("fmt", ["auto", "tsv", "csv"])
    def test_first_faulty_line_is_named(self, tmp_path, rows, line, message, fmt):
        """Of two faulty lines, the first is named, whatever its fault."""
        data = _two_faults(rows, b"," if fmt == "csv" else b"\t")
        for source in [*_sources(data, tmp_path), io.BytesIO(data)]:
            with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$"):
                load_rank_counts(source, fmt=fmt)

    @pytest.mark.parametrize("fmt", ["auto", "tsv", "csv"])
    def test_lines_are_read_as_they_are_checked(self, fmt):
        """A faulty line 5 is named before the reader takes more than one line
        past it from its source."""
        data = _two_faults({5: b"e\t1.5", 10: b"w\xff\t9"}, b"," if fmt == "csv" else b"\t")
        lines = _Counted(data.decode("utf-8", "surrogateescape").splitlines(keepends=True))
        with pytest.raises(ParseError, match="^line 5: "):
            load_rank_counts(lines, fmt=fmt)
        assert lines.handed <= 6

    def test_lone_surrogate_of_no_byte(self):
        with pytest.raises(ParseError) as exc:
            load_rank_counts(["a\t9\n", "b\ud800\t3\n"])
        assert str(exc.value) == "line 2: input is not UTF-8: lone surrogate U+D800 at column 2"

    def test_surrogate_before_a_line_that_is_not_a_str(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_rank_counts(["a\t\udcff9\n", None])

    @pytest.mark.parametrize("source, message", [
        ([b"a\t9\n"], "line 1: iterator should return strings, not bytes"),
        (["# a list", None], "line 2: iterator should return strings, not NoneType"),
        ([None], "line 1: iterator should return strings, not NoneType"),
        ([], "no data records found in input"),
    ], ids=["bytes-list", "none-later", "none-first", "empty"])
    @pytest.mark.parametrize("fmt", ["auto", "tsv", "csv"])
    def test_lines_that_are_not_text_keep_their_errors(self, source, message, fmt):
        with pytest.raises(ParseError, match=f"^{message}"):
            load_rank_counts(source, fmt=fmt)

    @pytest.mark.parametrize("text", [
        "the\t6187267\nof\t3093444\n",
        "word\tcount\nthe\t6187267\nof\t3093444\n",
        "# BNC\tlist\nthe\t6187267\nof\t3093444\n",
        "the,6187267\nof,3093444\n",
        "word,count\nthe,6187267\nof,3093444\n",
        "# BNC list\nthe,6187267\nof,3093444\n",
        '"the",6187267\nof,3093444\n',
    ])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        fmt = "tsv" if "\t6" in text else "csv"
        plain = load_rank_counts(io.StringIO(text), fmt=fmt)
        assert plain.labels == ("the", "of")
        for source in _sources(("\ufeff" + text).encode("utf-8"), tmp_path):
            source = source if isinstance(source, Path) else list(source)
            for f in (fmt, "auto"):
                assert load_rank_counts(source, fmt=f) == plain

    def test_only_one_byte_order_mark_is_dropped(self):
        table = load_rank_counts(["\ufeff\ufeffthe\t9\n", "\ufeffof\t3\n"])
        assert table.labels == ("\ufeffthe", "\ufeffof")

    def test_default_reads_tsv_as_tsv(self, bnc_top10_path):
        assert load_rank_counts(bnc_top10_path) == load_rank_counts(bnc_top10_path, fmt="tsv")
        counts = _poisson_zipf_counts(10_000, 1.25e5, seed=37)
        lines = [f"w{j:05d}\t{c}\n" for j, c in enumerate(counts)]
        assert load_rank_counts(lines) == load_rank_counts(lines, fmt="tsv")
        header = ["rank\tword\tcount\n"] + [f"{j}\t{line}" for j, line in enumerate(lines)]
        assert load_rank_counts(header) == load_rank_counts(header, fmt="tsv")

    def test_default_reads_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("word,count\nthe,6187267\nof,3093444\n", encoding="utf-8")
        table = load_rank_counts(path)
        assert table == load_rank_counts(path, fmt="csv")
        assert table.labels == ("the", "of")


# Labels by script, each set with an empty label, for tables of counts 9, 8, ...
_LABEL_SETS = {
    "ascii": ["the", "", "of", "and"],
    "latin-1": ["caf\xe9", "", "na\xefve", "\xc6sir"],
    "cjk": ["\u7684", "", "\u4e00\u4e2a", "\u65e5\u672c\u8a9e"],
    "astral": ["\U0001f600", "", "\U0001d11ex", "a\U00010348"],
    "quoted": ["a\nb", "", "c\td", "e\r\nf"],  # written as quoted fields
}


class TestLabelColumn:
    """A parsed table's labels read like the tuple of them."""

    @staticmethod
    def _load(tmp_path, labels):
        out = io.StringIO(newline="")
        csv.writer(out, delimiter="\t").writerows((lab, 9 - j) for j, lab in enumerate(labels))
        path = tmp_path / "table.tsv"
        path.write_text(out.getvalue(), encoding="utf-8", newline="")
        return load_rank_counts(path)

    @pytest.mark.parametrize("name", sorted(_LABEL_SETS))
    def test_reads_like_the_tuple(self, tmp_path, name):
        want = tuple(_LABEL_SETS[name])
        table = self._load(tmp_path, want)
        got = table.labels
        assert len(got) == len(want) and list(got) == list(want)
        assert [got[i] for i in range(-len(want), len(want))] == list(want + want)
        for i in (len(want), -len(want) - 1, 10**20):
            with pytest.raises(IndexError):
                got[i]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                    slice(3, 1), slice(0, 100, 2), slice(-3, -1)):
            assert type(got[cut]) is tuple and got[cut] == want[cut]
        assert list(reversed(got)) == list(reversed(want))
        assert want[2] in got and got.index(want[2]) == 2 and got.count("") == 1
        assert got == want and want == got and not got != want and not want != got
        other = want[:-1] + ("zz",)
        assert got != other and other != got and got != want[:-1] and got != list(want)
        assert hash(got) == hash(want) and repr(got) == repr(want)
        assert pickle.loads(pickle.dumps(got)) == got == want
        rebuilt = RankedCounts(counts=table.counts, labels=want, total=table.total)
        assert rebuilt.labels is want
        assert rebuilt == table and table == rebuilt and hash(rebuilt) == hash(table)

    def test_table_memory_per_row(self, tmp_path):
        """A seeded 10^5-row table loaded by path holds under 40 bytes per row:
        its labels are one string and an array of offsets, not a str each."""
        n = 100_000
        path = tmp_path / "table.tsv"
        counts = _poisson_zipf_counts(n, 1.25e7, seed=1)
        path.write_text("".join(f"w{j:06d}\t{c}\n" for j, c in enumerate(counts)), encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_rank_counts(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == n
        assert held < 40 * n


class TestAdjacentSe:
    def test_bnc_ranks_9_10(self, bnc_top10):
        se = adjacent_se(bnc_top10)
        assert se[8] == pytest.approx(34.9, abs=0.1)

    def test_near_tie_pair(self):
        pair = RankedCounts(counts=(20660.0, 20633.0))
        assert adjacent_se(pair)[0] == pytest.approx(0.133, abs=1e-3)

    def test_equal_counts_give_zero(self):
        assert adjacent_se(RankedCounts(counts=(5.0, 5.0)))[0] == 0.0

    def test_zero_sum_sentinel(self):
        table = RankedCounts(counts=(3.0, 0.0, 0.0))
        assert adjacent_se(table) == (pytest.approx(3.0 / math.sqrt(3.0)), 0.0)

    def test_sign_matches_direct_comparison(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            x = np.sort(rng.integers(0, 30, size=10))[::-1]
            table = RankedCounts(counts=tuple(float(v) for v in x))
            for (a, b), se in zip(zip(x, x[1:]), adjacent_se(table)):
                if a > b:
                    assert se > 0
                else:
                    assert se == 0.0


def _rows(plot):
    """The (rank, ln rank, ln count) rows of a plot, built from its ln_counts."""
    return tuple((i, math.log(i), y) for i, y in enumerate(plot.ln_counts, start=1))


class TestZipfPlotData:
    def test_hand_logs(self):
        table = RankedCounts(counts=(math.e, 1.0))
        plot = zipf_plot_data(table)
        assert _rows(plot)[0] == (1, 0.0, pytest.approx(1.0))
        assert _rows(plot)[1] == (2, pytest.approx(math.log(2.0)), pytest.approx(0.0))

    def test_slopes_echoed_and_anchored(self):
        table = RankedCounts(counts=(100.0, 10.0))
        plot = zipf_plot_data(table, slopes=(-0.9, -1.3))
        assert plot.lines[0].slope == -0.9
        assert plot.lines[1].slope == -1.3
        assert plot.lines[0].intercept == pytest.approx(math.log(100.0) + 0.5)
        assert plot.lines[1].intercept == pytest.approx(math.log(100.0) - 0.5)

    def test_zero_counts_skipped_and_reported(self):
        table = RankedCounts(counts=(10.0, 0.0, 0.0))
        plot = zipf_plot_data(table)
        assert len(_rows(plot)) == 1
        assert tuple(plot.skipped_ranks) == (2, 3)

    def test_matches_per_row_rule(self):
        """Points are the positive counts and the skipped ranks are the zeros, as
        a per-row pass over tables of every zero-tail length gives them."""
        rng = np.random.default_rng(3)
        for length in range(1, 30):
            for zeros in range(length):
                c = np.sort(rng.integers(1, 1000, size=length))[::-1].astype(float)
                c[length - zeros:] = 0.0
                plot = zipf_plot_data(RankedCounts(counts=tuple(c)))
                ranks = range(1, length + 1)
                assert _rows(plot) == tuple(
                    (i, math.log(i), math.log(x)) for i, x in zip(ranks, c) if x > 0.0
                )
                assert tuple(plot.skipped_ranks) == tuple(i for i, x in zip(ranks, c) if x == 0.0)
                assert plot.lines[0].intercept == math.log(c[0]) + 0.5

    @pytest.mark.parametrize("slopes", [(math.nan, -1.1), (-1.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_slope_rejected(self, slopes):
        with pytest.raises(DomainError, match="slopes must be finite"):
            zipf_plot_data(RankedCounts(counts=(10.0, 5.0)), slopes=slopes)

    def test_zero_top_count_rejected(self):
        with pytest.raises(DomainError, match="rank 1 has count 0"):
            zipf_plot_data(RankedCounts(counts=(0.0, 0.0)))

    def test_loglog_slope_near_power_law(self, synthetic_bnc_like):
        """Least-squares slope over ranks 10..100 sits in [-1.2, -1.0]."""
        plot = zipf_plot_data(synthetic_bnc_like)
        pts = [(lr, lc) for i, lr, lc in _rows(plot) if 10 <= i <= 100]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope = float(np.polyfit(x, y, 1)[0])
        assert -1.2 <= slope <= -1.0


class TestAnalyze:
    def test_corpus_anchors(self, bnc_top10):
        """Total-driven threshold and prefix pick on the real top-10 table."""
        report = analyze(bnc_top10, alpha=1.106, window=(10, 100), epsilon=0.01)
        assert report.n_hat == pytest.approx(72.08, abs=0.2)
        assert report.params_used.N == pytest.approx(1e7, rel=5e-3)
        # see the decisions ledger: the exact Bonferroni sums cross 1% at 69
        assert report.pick_n_result == 69
        assert report.window == (10, 10)  # clamped to the table length

    def test_synthetic_exact_composition(self):
        """On exact Zipf counts with known scale the report is pure composition."""
        table = make_zipf_table(1e6, 1.2, 500)
        report = analyze(table, alpha=1.2, window=(10, 100))
        n_est = report.window_scale_min
        assert report.n_prime == threshold_n_prime(n_est, 1.2).n_prime
        assert n_est == pytest.approx(1e6, rel=1e-2)

    @pytest.mark.parametrize("alphas", [None, (1.05, 1.106, 1.15), (1.3, 1.4)])
    @pytest.mark.parametrize("window", [(10, 100), (1, 5), (50, 10_000)])
    def test_window_threshold_is_brute_force_minimum(self, synthetic_bnc_like, alphas, window):
        """n_prime and window_scale_min come from min_i X_i i^alpha over the
        clamped window, whether or not alpha is on the sensitivity grid."""
        alpha = 1.106
        report = analyze(synthetic_bnc_like, alpha=alpha, window=window, alphas=alphas)
        lo, hi = report.window
        assert hi == min(window[1], len(synthetic_bnc_like))
        scale = min(synthetic_bnc_like.counts[i - 1] * i**alpha for i in range(lo, hi + 1))
        assert report.window_scale_min == scale
        assert report.n_prime == threshold_n_prime(scale, alpha).n_prime
        on_grid = [r for r in report.sensitivity.rows if r.alpha == alpha]
        assert len(on_grid) == (alphas is None or alpha in alphas)

    def test_echoes_inputs(self, synthetic_bnc_like):
        report = analyze(
            synthetic_bnc_like,
            alpha=1.106,
            window=(10, 100),
            epsilon=0.02,
            alphas=(1.05, 1.106, 1.15),
            slopes=(-1.0, -1.1),
        )
        assert report.epsilon == 0.02
        assert report.window == (10, 100)
        assert report.reference_slopes == (-1.0, -1.1)
        assert tuple(r.alpha for r in report.sensitivity.rows) == (1.05, 1.106, 1.15)
        assert len(report.adjacent_se) == len(synthetic_bnc_like) - 1
        assert report.counts_summary.length == len(synthetic_bnc_like)
        assert report.counts_summary.top == tuple(list(synthetic_bnc_like.rows())[:10])
        short = analyze(RankedCounts(counts=(9.0, 5.0, 2.0)), alpha=1.5, window=(1, 3))
        assert short.counts_summary.top == ((1, None, 9.0), (2, None, 5.0), (3, None, 2.0))

    def test_deterministic(self, synthetic_bnc_like):
        a = analyze(synthetic_bnc_like, alpha=1.106)
        b = analyze(synthetic_bnc_like, alpha=1.106)
        assert a == b

    def test_report_round_trips_through_json(self, bnc_top10):
        report = analyze(bnc_top10, alpha=1.106)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_hat"] == report.n_hat
        assert payload["pick_n_result"] == report.pick_n_result
        assert len(payload["zipf_points"]["points"]) == 10

    def test_report_holds_no_row_tuples(self):
        """Beyond the table, a 10^5-row report holds its two long columns (a
        tuple slot and a float per row each) and no (rank, ln rank, ln count)
        tuple per row, which alone would take about 150 bytes."""
        n = 100_000
        counts = RankedCounts(counts=tuple(float(2 * n - i) for i in range(n)))
        tracemalloc.start()
        try:
            report = analyze(counts, alpha=1.106, window=(1, 10))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report.zipf_points.ln_counts) == n
        assert held < 80 * n

    def test_window_outside_table_rejected(self):
        table = RankedCounts(counts=(9.0, 5.0))
        with pytest.raises(DomainError, match="window"):
            analyze(table, alpha=1.5, window=(10, 100))


def _poisson_zipf_counts(rows: int, scale: float, seed: int) -> list[int]:
    """Counts Poisson around scale * i^-1.106 for i = 1..rows, in shuffled file order."""
    rng = np.random.default_rng(seed)
    return rng.permutation(rng.poisson(scale * np.arange(1, rows + 1) ** -1.106)).tolist()


def _sharing_tables() -> dict[str, list[int]]:
    """Counts in file order: tie-heavy with zeros, all distinct, and float edge cases."""
    rng = np.random.default_rng(2311)
    distinct = rng.choice(10**12, size=3000, replace=False).tolist()
    edges = [
        8 * 10**307, 8 * 10**307 + 1,  # near 1e308, and one float for both
        2**53, 2**53 + 1, 10**300 + 7, 10**300,  # ints that round to one float
        10**17, 10**17 + 1, 1, 1, 0, 0, 3,
    ]
    return {
        "tie-heavy": _poisson_zipf_counts(5000, 2e4, seed=7),
        "all-distinct": distinct,
        "edges": edges + _poisson_zipf_counts(300, 50.0, seed=8),
    }


class TestRunSharing:
    """Each run of equal values in the corpus columns is one float object,
    and the columns equal the per-row forms value for value and repr for repr."""

    @staticmethod
    def _assert_same(got, want):
        assert got == want
        assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("name", ["tie-heavy", "all-distinct", "edges"])
    def test_columns_match_per_row_forms(self, name):
        ints = _sharing_tables()[name]
        table = load_rank_counts([f"w{j}\t{c}" for j, c in enumerate(ints)])
        c = table.counts
        self._assert_same(c, ranked_floats_per_row(sorted(ints, reverse=True)))
        assert len({id(x) for x in c}) == len(set(c))

        plot = zipf_plot_data(table)
        self._assert_same(plot.ln_counts, ln_counts_per_row([x for x in c if x > 0]))
        assert len({id(y) for y in plot.ln_counts}) == len(set(plot.ln_counts))

        se = adjacent_se(table)
        self._assert_same(se, adjacent_se_per_row(c))
        assert len({id(s) for s, a, b in zip(se, c, c[1:]) if a == b}) <= 1
        if name == "tie-heavy":
            assert len(set(c)) < len(c) // 2 and 0.0 in c

    @pytest.mark.parametrize("pair", [
        (5.0, 5.0), (0.0, 0.0), (3.0, 0.0), (5e-324, 0.0), (5e-324, 5e-324),
        (1e308, 1e308), (1.7e308, 1e308), (1.7976931348623157e308, 0.0),
    ])
    def test_tie_rule_matches_sum_rule(self, pair):
        """``a != b`` picks the same value as ``a + b > 0``: for ties, zero
        ones included, and where a + b overflows to inf (no RankedCounts
        holds such a pair, since its sum must be finite)."""
        counts = SimpleNamespace(counts=pair)
        self._assert_same(adjacent_se(counts), adjacent_se_per_row(pair))

    def test_table_and_report_memory_per_row(self):
        """A parsed 10^5-row Poisson-Zipf table and its report hold under 110
        bytes per row: past rank (alpha N)^(1/(alpha+1)), about 2,500 here,
        counts tie, and a run of ties shares its count, log and 0.0."""
        n = 100_000
        lines = [f"w{j:06d}\t{c}" for j, c in enumerate(_poisson_zipf_counts(n, 1.25e7, seed=1))]
        tracemalloc.start()
        try:
            table = load_rank_counts(lines)
            report = analyze(table, alpha=1.106)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report.adjacent_se) == n - 1
        assert held < 110 * n


class TestCsvWriters:
    def test_zipf_csv(self):
        plot = zipf_plot_data(RankedCounts(counts=(math.e, 1.0)))
        buf = io.StringIO()
        write_zipf_csv(plot, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,ln_rank,ln_count"
        assert lines[1].startswith("1,0.0,")
        assert len(lines) == 3

    def test_se_csv(self):
        buf = io.StringIO()
        write_se_csv((1.5, -0.25), buf)
        assert buf.getvalue() == "i,se\n1,1.5\n2,-0.25\n"

    def test_se_csv_writes_repr_of_non_finite(self):
        buf = io.StringIO()
        write_se_csv((math.nan, -math.inf, -0.0), buf)
        assert buf.getvalue() == "i,se\n1,nan\n2,-inf\n3,-0.0\n"

    @pytest.mark.parametrize("length", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5])
    def test_writers_match_per_row_reference(self, length):
        """The slice-cutting writers write the bytes of the per-row loops."""
        rng = np.random.default_rng(length)
        # positive counts from 1 to 10^308 (ln counts 0.0 to ~709), then zeros;
        # below the top, at most 10^300, so the table sum stays finite
        if length:
            positive = sorted(10.0 ** rng.uniform(0.0, 300.0, size=length), reverse=True)
            positive[0], positive[-1] = 1e308, 1.0
            zeros = (0.0,) * int(rng.integers(0, 4))
            plot = zipf_plot_data(RankedCounts(counts=tuple(map(float, positive)) + zeros))
        else:
            plot = ZipfPlotData((), (), zipf_plot_data(RankedCounts(counts=(1.0,))).lines)
        assert len(plot.ln_counts) == length
        se = list(rng.normal(size=length) * 10.0 ** rng.uniform(-300.0, 300.0, size=length))
        for value in (math.nan, math.inf, -math.inf, -0.0, 0.0)[:length]:
            se[int(rng.integers(0, length))] = value
        se = tuple(map(float, se))
        for write, reference, data in (
            (write_zipf_csv, write_zipf_csv_per_row, plot),
            (write_se_csv, write_se_csv_per_row, se),
        ):
            got, want = io.StringIO(), io.StringIO()
            write(data, got)
            reference(data, want)
            assert got.getvalue() == want.getvalue()

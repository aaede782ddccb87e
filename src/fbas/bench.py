"""Corpus loading, multi-matcher benchmark runs, and report rendering.

A benchmark runs all four matchers over the same corpus bytes for each
pattern of a sequence, verifies that they agree on match positions, and
tabulates comparison counts with derived statistics. A report carries
its totals in the same ``counts`` and ``stats`` fields as each of its
rows. Reports render as aligned text, Markdown, CSV, or JSON; the CSV
and JSON forms carry values at full precision for external tooling.
"""
from __future__ import annotations

import enum
import io
import os
from collections import namedtuple
from collections.abc import Iterable

from ._bytes import as_bytes, read_source, show
from ._record import Constructed
from .errors import EmptyCorpus, EmptyPattern, MatcherDisagreement
from .freq import AnchorSelection, FrequencyTable
from .match import ALGORITHMS, Mode, SearchQuery, bmh_search, fbas_search, kmp_search, naive_search
from .metrics import aggregate_stats, derive_stats, present

_UTF8_BOM = b"\xef\xbb\xbf"


class Corpus(Constructed, namedtuple("Corpus", "data source_name")):
    """Raw corpus bytes plus provenance; a ``str`` is coerced to UTF-8.
    Raises EmptyCorpus when there are no bytes."""

    __slots__ = ()

    def __new__(cls, data, source_name: str = "<memory>"):
        data = as_bytes(data)
        if not data:
            raise EmptyCorpus(f"corpus {source_name} is empty")
        return tuple.__new__(cls, (data, source_name))

    @property
    def length(self) -> int:
        return len(self.data)


def load_corpus(source, lowercase: bool = False) -> Corpus:
    """Read corpus bytes from a path, '-' (stdin), or a binary stream,
    named as ``read_source`` names it. Bytes are kept verbatim, a
    byte-order mark included, unless ``lowercase`` is set, which folds
    ASCII letters only. Raises IoFailure on unreadable sources and
    EmptyCorpus when nothing was read.
    """
    data, src_name = read_source(source, "corpus")
    if lowercase:
        data = data.lower()
    return Corpus(data=data, source_name=src_name)


def load_patterns(source) -> tuple[bytes, ...]:
    """Read a pattern list: UTF-8, one pattern per line, taken verbatim
    to end of line; one CR before the LF is dropped. One leading UTF-8
    byte-order mark is dropped. Lines starting with '#' and blank lines
    are skipped."""
    raw, _ = read_source(source, "patterns")
    lines = (line.removesuffix(b"\r") for line in raw.removeprefix(_UTF8_BOM).split(b"\n"))
    return tuple(line for line in lines if line and not line.startswith(b"#"))


class BenchRow(Constructed, namedtuple(
        "BenchRow", "pattern counts occurrences anchor duplicate stats")):
    """Comparison counts for one pattern, as measured, with ``stats``
    derived from the counts and ``length`` and ``label`` from the
    pattern. ``counts`` maps each matcher name to its count, in
    ``ALGORITHMS`` order. ``label`` is ``show(pattern)``: it names one
    byte string and fits on one line of a report."""

    __slots__ = ()
    _derived = ("stats",)

    def __new__(cls, pattern: bytes, counts: dict[str, int], occurrences: int,
                anchor: AnchorSelection, duplicate: bool = False):
        stats = derive_stats(**counts)
        return tuple.__new__(cls, (pattern, counts, occurrences, anchor, duplicate, stats))

    def __hash__(self):
        return hash((self.pattern, self.occurrences, self.anchor, self.duplicate, self.stats))

    @property
    def length(self) -> int:
        return len(self.pattern)

    @property
    def label(self) -> str:
        return show(self.pattern)


class BenchReport(Constructed, namedtuple(
        "BenchReport", "rows source_name corpus_length mode counts stats")):
    """The rows of one run over a corpus. Like a row, the report has
    ``counts``, the row sums in ``ALGORITHMS`` order, and ``stats``,
    aggregated over the rows; both are derived. A mode given by its
    value is coerced to its ``Mode``, and rows given in a list to a
    tuple. Rows and reports are hashable: their ``counts`` dicts are
    left out of the hash."""

    __slots__ = ()
    _derived = ("counts", "stats")

    def __new__(cls, rows: Iterable[BenchRow], source_name: str, corpus_length: int,
                mode: Mode | str):
        rows = tuple(rows)
        mode = Mode(mode)
        counts = {algo: sum(r.counts[algo] for r in rows) for algo in ALGORITHMS}
        stats = aggregate_stats([r.stats for r in rows], tuple(counts.values()))
        return tuple.__new__(cls, (rows, source_name, corpus_length, mode, counts, stats))

    def __hash__(self):
        return hash((self.rows, self.source_name, self.corpus_length, self.mode, self.stats))


class ReportFormat(enum.Enum):
    TEXT = "text"
    CSV = "csv"
    JSON = "json"
    MARKDOWN = "markdown"


def _first_difference(reference: list[int], other: list[int]) -> int:
    for i, (a, b) in enumerate(zip(reference, other)):
        if a != b:
            return min(a, b)
    longer = reference if len(reference) > len(other) else other
    return longer[min(len(reference), len(other))]


def run_benchmark(
    corpus: Corpus,
    patterns: Iterable[str | bytes],
    table: FrequencyTable | None = None,
    mode: Mode | str = Mode.ALL_MATCHES,
) -> BenchReport:
    """Run all four matchers for every pattern over the corpus bytes.

    ``patterns`` is any iterable of str or bytes patterns, in row order;
    a single str or bytes pattern raises TypeError, and no pattern, or
    an empty one, raises EmptyPattern. Duplicates are allowed and get
    flagged on their later rows. Position lists must agree across
    matchers for each pattern; any disagreement raises
    MatcherDisagreement, since shifts never skip an occurrence and all
    matchers implement the same match semantics.
    """
    if isinstance(patterns, (str, bytes, bytearray)):
        raise TypeError(f"expected an iterable of patterns, got a single {type(patterns).__name__}")
    patterns = tuple(patterns)
    if not patterns:
        raise EmptyPattern("cannot benchmark an empty pattern set")

    rows: list[BenchRow] = []
    seen: set[bytes] = set()
    for pat in patterns:
        query = SearchQuery(corpus.data, pat, mode)
        pat = query.pattern
        reference = naive_search(query)
        outcomes = {
            "naive": reference,
            "kmp": kmp_search(query),
            "bmh": bmh_search(query),
            "fbas": fbas_search(query, table),
        }
        for algo, outcome in outcomes.items():
            if outcome.positions != reference.positions:
                where = _first_difference(reference.positions, outcome.positions)
                raise MatcherDisagreement(
                    f"{algo} disagrees with naive for pattern '{show(pat)}'"
                    f" (first differing position: {where})",
                    pattern=pat,
                    first_difference=where,
                )
        rows.append(BenchRow(
            pattern=pat,
            counts={algo: outcomes[algo].comparisons for algo in ALGORITHMS},
            occurrences=len(reference.positions),
            anchor=outcomes["fbas"].anchor,
            duplicate=pat in seen,
        ))
        seen.add(pat)

    return BenchReport(rows, corpus.source_name, corpus.length, mode)


CSV_HEADER = (
    "pattern,length,naive,kmp,bmh,fbas,improvement_pct,speedup_vs_naive,"
    "anchor_index,anchor_char,anchor_score"
)

_TABLE_COLUMNS = ("Pattern", "Length", "Naive", "KMP", "BMH", "FBAS", "Improvement")


def _caption(report: BenchReport) -> str:
    return (
        f"corpus: {show(os.fsencode(report.source_name))} ({report.corpus_length:,} bytes),"
        f" mode: {report.mode.value}"
    )


def _table_cells(report: BenchReport) -> list[list[str]]:
    """One cell list per pattern row, then the Total row, built alike."""
    rows = [(r.label, str(r.length), r) for r in report.rows]
    rows.append(("Total", "--", report))
    return [
        [label, length, *(f"{c:,}" for c in r.counts.values()), present(r.stats.improvement_pct)]
        for label, length, r in rows
    ]


def _render_text(report: BenchReport) -> str:
    cells = _table_cells(report)
    widths = [
        max(len(_TABLE_COLUMNS[i]), *(len(row[i]) for row in cells))
        for i in range(len(_TABLE_COLUMNS))
    ]
    def fmt(row):
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        return "  ".join([first, *rest]).rstrip()

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [_caption(report), fmt(list(_TABLE_COLUMNS)), sep]
    lines.extend(fmt(row) for row in cells[:-1])
    lines.append(sep)
    lines.append(fmt(cells[-1]))
    return "\n".join(lines) + "\n"


def _render_markdown(report: BenchReport) -> str:
    def fmt(row):
        # An unescaped '|' inside a cell would split it into two columns.
        return "| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |"

    lines = [_caption(report), "", fmt(_TABLE_COLUMNS), fmt(["---"] * len(_TABLE_COLUMNS))]
    lines.extend(fmt(row) for row in _table_cells(report))
    return "\n".join(lines) + "\n"


def _render_csv(report: BenchReport) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in report.rows:
        writer.writerow([
            r.label,
            r.length,
            *r.counts.values(),
            r.stats.improvement_pct,
            r.stats.speedup_vs_naive,
            r.anchor.index,
            r.anchor.char,
            r.anchor.score,
        ])
    writer.writerow([
        "TOTAL", "", *report.counts.values(),
        report.stats.improvement_pct, report.stats.speedup_vs_naive, "", "", "",
    ])
    return out.getvalue()


def _render_json(report: BenchReport) -> str:
    import json

    doc = {
        "corpus_meta": {"source_name": report.source_name, "length": report.corpus_length},
        "mode": report.mode.value,
        "rows": [
            {
                "pattern": r.label,
                "length": r.length,
                **r.counts,
                "occurrences": r.occurrences,
                "duplicate": r.duplicate,
                "anchor": {
                    "index": r.anchor.index,
                    "char": r.anchor.char,
                    "score": r.anchor.score,
                },
                **r.stats._asdict(),
            }
            for r in report.rows
        ],
        "totals": {**report.counts, **report.stats._asdict()},
        # Per-pattern series for external plotting of improvements and speedups.
        "series": {
            "patterns": [r.label for r in report.rows],
            "improvement_pct": [r.stats.improvement_pct for r in report.rows],
            "speedup_fbas_vs_naive": [r.stats.speedup_vs_naive for r in report.rows],
            "speedup_bmh_vs_naive": [
                r.counts["naive"] / r.counts["bmh"] if r.counts["bmh"] > 0 else None
                for r in report.rows
            ],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


_RENDERERS = {
    ReportFormat.TEXT: _render_text,
    ReportFormat.MARKDOWN: _render_markdown,
    ReportFormat.CSV: _render_csv,
    ReportFormat.JSON: _render_json,
}


def render_report(report: BenchReport, format: ReportFormat | str = ReportFormat.TEXT) -> str:
    """Render a benchmark report in the requested format."""
    return _RENDERERS[ReportFormat(format)](report)

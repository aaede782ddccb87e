"""Corpus loading, multi-matcher benchmark runs, and report rendering.

A benchmark runs all four matchers over the same corpus bytes for each
pattern, verifies that they agree on match positions, and tabulates
comparison counts with derived statistics. Reports render as aligned
text, Markdown, CSV, or JSON; the CSV and JSON forms carry values at
full precision for external tooling.
"""
from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass

from ._bytes import as_bytes, display_byte, read_source
from .errors import EmptyCorpus, EmptyPattern, MatcherDisagreement
from .freq import AnchorSelection, FrequencyTable, default_table, select_anchor
from .match import Mode, SearchQuery, bmh_search, fbas_search, kmp_search, naive_search
from .metrics import DerivedStats, aggregate_stats, derive_stats, present


@dataclass(frozen=True)
class Corpus:
    """Raw corpus bytes plus provenance."""

    data: bytes
    source_name: str = "<memory>"

    @property
    def length(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class PatternSet:
    """An ordered list of non-empty byte patterns. Duplicates are allowed
    and get flagged on their later occurrences in benchmark rows."""

    patterns: tuple[bytes, ...]

    def __post_init__(self):
        coerced = tuple(as_bytes(p) for p in self.patterns)
        for p in coerced:
            if not p:
                raise EmptyPattern("pattern sets cannot contain empty patterns")
        object.__setattr__(self, "patterns", coerced)

    def __len__(self) -> int:
        return len(self.patterns)


def load_corpus(source, lowercase: bool = False, name: str | None = None) -> Corpus:
    """Read corpus bytes from a path, '-' (stdin), or a binary stream.

    Bytes are kept verbatim unless ``lowercase`` is set, which folds
    ASCII letters only. Raises IoFailure on unreadable sources and
    EmptyCorpus when nothing was read.
    """
    data, src_name = read_source(source, "corpus")
    src_name = name or src_name
    if not data:
        raise EmptyCorpus(f"corpus {src_name} is empty")
    if lowercase:
        data = data.lower()
    return Corpus(data=data, source_name=src_name)


def load_patterns(source) -> PatternSet:
    """Read a pattern list: UTF-8, one pattern per line, taken verbatim
    to end of line. Lines starting with '#' and blank lines are skipped."""
    raw, _ = read_source(source, "patterns")
    patterns = []
    for line in raw.split(b"\n"):
        line = line.rstrip(b"\r")
        if not line or line.startswith(b"#"):
            continue
        patterns.append(line)
    return PatternSet(tuple(patterns))


@dataclass(frozen=True)
class BenchRow:
    """Comparison counts and derived stats for one pattern."""

    label: str
    pattern: bytes
    length: int
    naive: int
    kmp: int
    bmh: int
    fbas: int
    occurrences: int
    anchor: AnchorSelection
    stats: DerivedStats
    duplicate: bool = False


@dataclass(frozen=True)
class BenchTotals:
    """Summed counts plus aggregate stats over all rows."""

    naive: int
    kmp: int
    bmh: int
    fbas: int
    stats: DerivedStats


@dataclass(frozen=True)
class CorpusMeta:
    source_name: str
    length: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    totals: BenchTotals
    corpus_meta: CorpusMeta
    mode: Mode


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
    patterns: PatternSet,
    table: FrequencyTable | None = None,
    mode: Mode = Mode.ALL_MATCHES,
) -> BenchReport:
    """Run all four matchers for every pattern over the corpus bytes.

    Position lists must agree across matchers for each pattern; any
    disagreement raises MatcherDisagreement, since shifts never skip an
    occurrence and all matchers implement the same match semantics.
    """
    if corpus.length == 0:
        raise EmptyCorpus("cannot benchmark an empty corpus")
    if len(patterns) == 0:
        raise EmptyPattern("cannot benchmark an empty pattern set")
    if table is None:
        table = default_table()

    rows: list[BenchRow] = []
    seen: set[bytes] = set()
    for pat in patterns.patterns:
        query = SearchQuery(corpus.data, pat, mode)
        reference = naive_search(query)
        outcomes = {
            "kmp": kmp_search(query),
            "bmh": bmh_search(query),
            "fbas": fbas_search(query, table),
        }
        for algo, outcome in outcomes.items():
            if outcome.positions != reference.positions:
                where = _first_difference(reference.positions, outcome.positions)
                raise MatcherDisagreement(
                    f"{algo} disagrees with naive for pattern {pat!r}"
                    f" (first differing position: {where})",
                    pattern=pat,
                    first_difference=where,
                )
        label = pat.decode("utf-8", "backslashreplace")
        counts = (
            reference.comparisons,
            outcomes["kmp"].comparisons,
            outcomes["bmh"].comparisons,
            outcomes["fbas"].comparisons,
        )
        rows.append(
            BenchRow(
                label=label,
                pattern=pat,
                length=len(pat),
                naive=counts[0],
                kmp=counts[1],
                bmh=counts[2],
                fbas=counts[3],
                occurrences=len(reference.positions),
                anchor=select_anchor(pat, table),
                stats=derive_stats(*counts),
                duplicate=pat in seen,
            )
        )
        seen.add(pat)

    totals = BenchTotals(
        naive=sum(r.naive for r in rows),
        kmp=sum(r.kmp for r in rows),
        bmh=sum(r.bmh for r in rows),
        fbas=sum(r.fbas for r in rows),
        stats=aggregate_stats([(r.naive, r.kmp, r.bmh, r.fbas) for r in rows]),
    )
    return BenchReport(
        rows=tuple(rows),
        totals=totals,
        corpus_meta=CorpusMeta(corpus.source_name, corpus.length),
        mode=mode,
    )


CSV_HEADER = (
    "pattern,length,naive,kmp,bmh,fbas,improvement_pct,speedup_vs_naive,"
    "anchor_index,anchor_char,anchor_score"
)

_TABLE_COLUMNS = ("Pattern", "Length", "Naive", "KMP", "BMH", "FBAS", "Improvement")


def _opt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _table_cells(report: BenchReport) -> list[list[str]]:
    rows = []
    for r in report.rows:
        rows.append([
            r.label,
            str(r.length),
            f"{r.naive:,}",
            f"{r.kmp:,}",
            f"{r.bmh:,}",
            f"{r.fbas:,}",
            present(r.stats.improvement_pct, 2, "%"),
        ])
    t = report.totals
    rows.append([
        "Total",
        "--",
        f"{t.naive:,}",
        f"{t.kmp:,}",
        f"{t.bmh:,}",
        f"{t.fbas:,}",
        present(t.stats.improvement_pct, 2, "%"),
    ])
    return rows


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
    lines = [
        f"corpus: {report.corpus_meta.source_name}"
        f" ({report.corpus_meta.length:,} bytes), mode: {report.mode.value}",
        fmt(list(_TABLE_COLUMNS)),
        sep,
    ]
    lines.extend(fmt(row) for row in cells[:-1])
    lines.append(sep)
    lines.append(fmt(cells[-1]))
    return "\n".join(lines) + "\n"


def _render_markdown(report: BenchReport) -> str:
    lines = [
        f"corpus: {report.corpus_meta.source_name}"
        f" ({report.corpus_meta.length:,} bytes), mode: {report.mode.value}",
        "",
        "| " + " | ".join(_TABLE_COLUMNS) + " |",
        "| " + " | ".join(["---"] * len(_TABLE_COLUMNS)) + " |",
    ]
    for row in _table_cells(report):
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _render_csv(report: BenchReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in report.rows:
        writer.writerow([
            r.label,
            r.length,
            r.naive,
            r.kmp,
            r.bmh,
            r.fbas,
            _opt(r.stats.improvement_pct),
            _opt(r.stats.speedup_vs_naive),
            r.anchor.index,
            display_byte(r.anchor.character),
            r.anchor.score,
        ])
    t = report.totals
    writer.writerow([
        "TOTAL", "", t.naive, t.kmp, t.bmh, t.fbas,
        _opt(t.stats.improvement_pct), _opt(t.stats.speedup_vs_naive), "", "", "",
    ])
    return out.getvalue()


def _stats_dict(stats: DerivedStats) -> dict:
    return {
        "improvement_pct": stats.improvement_pct,
        "speedup_vs_naive": stats.speedup_vs_naive,
        "reduction_vs_naive_pct": stats.reduction_vs_naive_pct,
    }


def _render_json(report: BenchReport) -> str:
    t = report.totals
    doc = {
        "corpus_meta": {
            "source_name": report.corpus_meta.source_name,
            "length": report.corpus_meta.length,
        },
        "mode": report.mode.value,
        "rows": [
            {
                "pattern": r.label,
                "length": r.length,
                "naive": r.naive,
                "kmp": r.kmp,
                "bmh": r.bmh,
                "fbas": r.fbas,
                "occurrences": r.occurrences,
                "duplicate": r.duplicate,
                "anchor": {
                    "index": r.anchor.index,
                    "char": display_byte(r.anchor.character),
                    "score": r.anchor.score,
                },
                **_stats_dict(r.stats),
            }
            for r in report.rows
        ],
        "totals": {
            "naive": t.naive,
            "kmp": t.kmp,
            "bmh": t.bmh,
            "fbas": t.fbas,
            **_stats_dict(t.stats),
        },
        # Per-pattern series for external plotting of improvements and speedups.
        "series": {
            "patterns": [r.label for r in report.rows],
            "improvement_pct": [r.stats.improvement_pct for r in report.rows],
            "speedup_fbas_vs_naive": [r.stats.speedup_vs_naive for r in report.rows],
            "speedup_bmh_vs_naive": [
                r.naive / r.bmh if r.bmh > 0 else None for r in report.rows
            ],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def render_report(report: BenchReport, format: ReportFormat | str = ReportFormat.TEXT) -> str:
    """Render a benchmark report in the requested format."""
    fmt = ReportFormat(format) if isinstance(format, str) else format
    if fmt is ReportFormat.TEXT:
        return _render_text(report)
    if fmt is ReportFormat.MARKDOWN:
        return _render_markdown(report)
    if fmt is ReportFormat.CSV:
        return _render_csv(report)
    return _render_json(report)

"""Anchor-first exact string matching with comparison-counted baselines.

The library searches raw bytes for byte patterns. Its centerpiece is a
Horspool variant that verifies each window starting at the pattern's
statistically rarest byte (the anchor), rejecting most windows after a
single comparison while keeping Horspool's shift rule and therefore its
alignment sequence. Naive, Knuth-Morris-Pratt, and plain Horspool
matchers share the same instrumented interface, and a benchmark harness
tabulates comparison counts across all four over user-supplied corpora.
"""

from .bench import (
    BenchReport,
    BenchRow,
    BenchTotals,
    Corpus,
    CorpusMeta,
    PatternSet,
    ReportFormat,
    load_corpus,
    load_patterns,
    render_report,
    run_benchmark,
)
from .errors import (
    EmptyCorpus,
    EmptyPattern,
    FbasError,
    InvalidProbability,
    IoFailure,
    MatcherDisagreement,
)
from .freq import (
    AnchorSelection,
    FrequencyTable,
    default_table,
    format_table,
    load_table,
    select_anchor,
    table_from_corpus,
)
from .match import (
    ALGORITHMS,
    ComparisonEstimate,
    Mode,
    SearchOutcome,
    SearchQuery,
    bmh_search,
    build_shift_table,
    char_probability,
    expected_comparisons,
    fbas_search,
    kmp_search,
    naive_search,
    search,
)
from .metrics import DerivedStats, aggregate_stats, derive_stats

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AnchorSelection",
    "BenchReport",
    "BenchRow",
    "BenchTotals",
    "ComparisonEstimate",
    "Corpus",
    "CorpusMeta",
    "DerivedStats",
    "EmptyCorpus",
    "EmptyPattern",
    "FbasError",
    "FrequencyTable",
    "InvalidProbability",
    "IoFailure",
    "MatcherDisagreement",
    "Mode",
    "PatternSet",
    "ReportFormat",
    "SearchOutcome",
    "SearchQuery",
    "aggregate_stats",
    "bmh_search",
    "build_shift_table",
    "char_probability",
    "default_table",
    "derive_stats",
    "expected_comparisons",
    "fbas_search",
    "format_table",
    "kmp_search",
    "load_corpus",
    "load_patterns",
    "load_table",
    "naive_search",
    "render_report",
    "run_benchmark",
    "search",
    "select_anchor",
    "table_from_corpus",
    "__version__",
]

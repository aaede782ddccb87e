"""A full benchmark run over the bundled Italian sample corpus.

Runs all four matchers for every pattern in the bundled 12-pattern set,
checks that they agree on positions, and renders the comparison-count
table. CSV and JSON renderings carry full-precision values; each JSON
row holds its pattern's counts and statistics.
"""
import json
from pathlib import Path

from fbas import ReportFormat, load_corpus, load_patterns, render_report, run_benchmark

data_dir = Path(__file__).resolve().parents[1] / "data"
corpus = load_corpus(data_dir / "italian_sample.txt")
patterns = load_patterns(data_dir / "patterns12.txt")

report = run_benchmark(corpus, patterns)

# 1. The human-readable table.
print(render_report(report, ReportFormat.TEXT))

# 2. Per-pattern detail: the anchor each pattern got.
print("anchors:")
for row in report.rows:
    print(f"  {row.label!r:16} anchor {row.anchor.char!r} at index {row.anchor.index} "
          f"(score {row.anchor.score}), {row.occurrences} occurrence(s)")

# 3. The JSON document's rows, one per pattern, at full precision.
doc = json.loads(render_report(report, ReportFormat.JSON))
print("\nimprovement % by pattern (JSON rows):")
for row in doc["rows"]:
    imp = row["improvement_pct"]
    bar = "#" * round(imp * 4)
    print(f"  {row['pattern']:14} {imp:6.2f}  {bar}")

# 4. The report's totals: counts keyed by matcher name, in ALGORITHMS order.
counts, stats = report.counts, report.stats
print(f"\ntotals: fbas made {counts['fbas']:,} comparisons vs bmh {counts['bmh']:,} "
      f"({stats.improvement_pct:.2f}% fewer) and naive {counts['naive']:,} "
      f"({stats.reduction_vs_naive_pct:.2f}% fewer on average per pattern)")
print(f"corpus {report.source_name}: {report.corpus_length:,} bytes")

"""Every committed BENCH_<n>.json: its count part must match the matchers.

Comparison and alignment counts are deterministic, so the counts recorded
for data/italian_sample.txt repeated 46 times (the paper's corpus scale)
are re-run here for every pattern of data/patterns12.txt and all four
matchers, in ALL_MATCHES mode, and compared with the count part of each
file. Any drift fails. The files' timings are reported, not checked.
"""
import hashlib
import json
from pathlib import Path

from fbas import ALGORITHMS, Mode, SearchQuery, bmh_search, fbas_search, kmp_search, naive_search

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REPEATS = 46
MATCHERS = dict(zip(ALGORITHMS, (naive_search, kmp_search, bmh_search, fbas_search)))

# naive, kmp, bmh, fbas comparisons summed over the 12 patterns.
PAPER_SCALE_TOTALS = {"naive": 7_084_520, "kmp": 7_044_118, "bmh": 1_342_775, "fbas": 1_269_822}


def count_part(corpus: bytes, patterns: list[bytes]) -> dict:
    """{pattern: {matcher: {"comparisons": c, "alignments": a}}}, ALL_MATCHES."""
    counts = {}
    for pattern in patterns:
        query = SearchQuery(corpus, pattern, Mode.ALL_MATCHES)
        outcomes = {algo: matcher(query) for algo, matcher in MATCHERS.items()}
        counts[pattern.decode()] = {
            algo: {"comparisons": o.comparisons, "alignments": o.alignments}
            for algo, o in outcomes.items()
        }
    return counts


def test_counts_match_committed_file(fixture_corpus, fixture_patterns):
    assert "BENCH_5.json" in [path.name for path in BENCH_FILES]
    corpus = fixture_corpus.data * REPEATS
    sha256 = hashlib.sha256(corpus).hexdigest()
    counts = count_part(corpus, list(fixture_patterns))
    totals = {algo: sum(row[algo]["comparisons"] for row in counts.values()) for algo in ALGORITHMS}
    assert totals == PAPER_SCALE_TOTALS

    for bench_file in BENCH_FILES:
        recorded = json.loads(bench_file.read_text())
        assert sha256 == recorded["environment"]["corpus_sha256"], bench_file.name
        assert counts == recorded["counts"], bench_file.name

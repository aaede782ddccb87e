"""Byte-exact reports for the bundled corpus and pattern set.

The files under ``tests/golden/`` hold ``render_report`` output for every
format in both modes. The corpus is named ``italian_sample.txt`` rather
than by its path, so the files do not depend on where the repository
lives. Any change to a report's bytes shows up here as a failing diff.
"""
from pathlib import Path

import pytest

from fbas import Corpus, Mode, ReportFormat, render_report, run_benchmark

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SUFFIXES = {
    ReportFormat.TEXT: "txt",
    ReportFormat.MARKDOWN: "md",
    ReportFormat.CSV: "csv",
    ReportFormat.JSON: "json",
}


def golden_path(fmt: ReportFormat, mode: Mode) -> Path:
    return GOLDEN_DIR / f"italian_sample-{mode.value}.{SUFFIXES[fmt]}"


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("fmt", list(ReportFormat), ids=lambda f: f.value)
def test_report_matches_golden(fixture_corpus, fixture_patterns, fmt, mode):
    corpus = Corpus(fixture_corpus.data, "italian_sample.txt")
    report = run_benchmark(corpus, fixture_patterns, mode=mode)
    expected = golden_path(fmt, mode).read_bytes().decode("utf-8")
    assert render_report(report, fmt) == expected

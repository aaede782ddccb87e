"""Corpus loading, benchmark runs, and report rendering."""
import io
import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fbas.bench as bench_module
import fbas.match as match_module
import fbas.metrics as metrics_module
from fbas import (
    BenchReport,
    Corpus,
    EmptyCorpus,
    EmptyPattern,
    IoFailure,
    MatcherDisagreement,
    Mode,
    ALGORITHMS,
    ReportFormat,
    SearchOutcome,
    SearchQuery,
    derive_stats,
    fbas_search,
    kmp_search,
    load_corpus,
    load_patterns,
    render_report,
    run_benchmark,
    select_anchor,
)
from fbas._bytes import ESCAPES, show
from fbas.bench import CSV_HEADER, BenchRow
from helpers import KNOWN_BENCHMARK_ROWS, unshow


def report_from_counts(rows, corpus_name="reference", corpus_length=551846):
    built = []
    seen = set()
    for label, length, *row_counts in rows:
        pattern = label.encode()
        assert len(pattern) == length
        built.append(BenchRow(
            pattern=pattern, counts=dict(zip(ALGORITHMS, row_counts)),
            occurrences=0, anchor=select_anchor(pattern),
            duplicate=pattern in seen,
        ))
        seen.add(pattern)
    return BenchReport(tuple(built), corpus_name, corpus_length, Mode.ALL_MATCHES)


class TestLoadCorpus:
    def test_reads_raw_bytes(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"abc")
        corpus = load_corpus(path)
        assert corpus.data == b"abc"
        assert corpus.length == 3
        assert corpus.source_name.endswith("c.txt")

    def test_lowercase_folds_ascii_only(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("AbC\xc8".encode("latin-1"))
        assert load_corpus(path, lowercase=True).data == "abc\xc8".encode("latin-1")

    def test_stream_source(self):
        corpus = load_corpus(io.BytesIO(b"hello"))
        assert corpus.length == 5
        assert corpus.source_name == "<stream>"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        with pytest.raises(EmptyCorpus):
            load_corpus(path)

    def test_missing_file_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_corpus(tmp_path / "nope.txt")

    def test_byte_order_mark_kept_verbatim(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"\xef\xbb\xbfluce")
        assert load_corpus(path).data == b"\xef\xbb\xbfluce"

    def test_empty_corpus_rejected_by_corpus(self):
        for data in (b"", "", bytearray()):
            with pytest.raises(EmptyCorpus, match="^corpus tiny is empty$"):
                Corpus(data, "tiny")


class TestLoadPatterns:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# heading\n\nfoo\n# other\nbar\n", encoding="utf-8")
        assert load_patterns(path) == (b"foo", b"bar")

    def test_spaces_taken_verbatim(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("selva oscura\nnel mezzo\n", encoding="utf-8")
        assert load_patterns(path) == (b"selva oscura", b"nel mezzo")

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"foo\r\nbar\r\n")
        assert load_patterns(path) == (b"foo", b"bar")
        # Only the CR of a CRLF ending is dropped.
        path.write_bytes(b"ab\r\r\nx\r\n")
        assert load_patterns(path) == (b"ab\r", b"x")

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"\xef\xbb\xbfluce\r\n\xef\xbb\xbfmezzo\n")
        assert load_patterns(path) == (b"luce", b"\xef\xbb\xbfmezzo")
        path.write_bytes(b"\xef\xbb\xbf# heading\nluce\n")
        assert load_patterns(path) == (b"luce",)

    def test_empty_pattern_rejected_in_set(self):
        with pytest.raises(EmptyPattern):
            run_benchmark(Corpus(b"ok"), (b"ok", b""))


class TestRunBenchmark:
    def test_tiny_corpus_row(self):
        report = run_benchmark(Corpus(b"aaaa", "tiny"), (b"aa",))
        row = report.rows[0]
        assert row.counts["naive"] == 6
        assert row.length == 2
        assert row.occurrences == 3
        assert report.counts["naive"] == 6
        assert (report.source_name, report.corpus_length) == ("tiny", 4)

    def test_str_corpus_is_counted_in_utf8_bytes(self):
        corpus = Corpus("città città")
        assert corpus.data == "città città".encode() and corpus.length == 13
        report = run_benchmark(corpus, (b"t\xc3\xa0",))
        assert report.corpus_length == 13
        assert report.rows[0].occurrences == 2
        assert "(13 bytes)" in render_report(report)

    def test_mode_given_by_value(self):
        corpus, patterns = Corpus(b"abab"), (b"ab",)
        report = run_benchmark(corpus, patterns, mode="first")
        assert report.mode is Mode.FIRST_MATCH
        assert report.rows[0].occurrences == 1
        assert "mode: first" in render_report(report)
        assert json.loads(render_report(report, "json"))["mode"] == "first"
        with pytest.raises(ValueError):
            run_benchmark(corpus, patterns, mode="every")
        with pytest.raises(ValueError):
            BenchReport((), "tiny", 4, "every")

    def test_absent_anchor_means_unit_cost_per_window(self):
        # anchor byte 'z' never occurs, so every window costs one comparison
        corpus = Corpus(b"la vita nova", "tiny")
        outcome = fbas_search(SearchQuery(corpus.data, b"az"))
        assert outcome.comparisons == outcome.alignments

    def test_empty_pattern_set_rejected(self, fixture_corpus):
        with pytest.raises(EmptyPattern):
            run_benchmark(fixture_corpus, ())
        with pytest.raises(EmptyPattern):
            run_benchmark(fixture_corpus, iter(()))

    def test_single_pattern_rejected(self):
        for pattern in ("luce", b"luce", bytearray(b"luce")):
            with pytest.raises(TypeError, match="iterable of patterns"):
                run_benchmark(Corpus(b"la luce"), pattern)

    def test_patterns_from_a_generator(self):
        corpus = Corpus(b"abcabc", "tiny")
        report = run_benchmark(corpus, (p for p in ("abc", b"bc")))
        assert report == run_benchmark(corpus, [b"abc", b"bc"])
        assert [r.pattern for r in report.rows] == [b"abc", b"bc"]

    def test_totals_are_row_sums(self, fixture_corpus, fixture_patterns):
        report = run_benchmark(fixture_corpus, fixture_patterns)
        assert list(report.counts) == list(ALGORITHMS)
        for algo in ALGORITHMS:
            assert report.counts[algo] == sum(r.counts[algo] for r in report.rows)

    def test_stats_derived_once_per_row_plus_totals(self, fixture_corpus, fixture_patterns, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return derive_stats(*args, **kwargs)

        monkeypatch.setattr(bench_module, "derive_stats", counting)
        monkeypatch.setattr(metrics_module, "derive_stats", counting)
        run_benchmark(fixture_corpus, fixture_patterns)
        assert len(calls) == len(fixture_patterns) + 1

    def test_row_stats_satisfy_formulas(self, fixture_corpus, fixture_patterns):
        report = run_benchmark(fixture_corpus, fixture_patterns)
        for r in report.rows:
            assert list(r.counts) == list(ALGORITHMS)
            naive, bmh, fbas = r.counts["naive"], r.counts["bmh"], r.counts["fbas"]
            assert r.stats.improvement_pct == pytest.approx(100 * (bmh - fbas) / bmh)
            assert r.stats.speedup_vs_naive == pytest.approx(naive / fbas)
            assert r.stats.reduction_vs_naive_pct == pytest.approx(100 * (naive - fbas) / naive)

    def test_labels_tell_a_backslash_from_an_escaped_byte(self):
        report = run_benchmark(Corpus(b"\\xff \xff \xe0\xa0", "tiny"),
                               (b"\\xff", b"\xff", b"\xe0"))
        assert [r.label for r in report.rows] == ["\\\\xff", "\\xff", "\\xe0"]
        csv_rows = render_report(report, ReportFormat.CSV).splitlines()[1:4]
        assert [row.split(",")[0] for row in csv_rows] == ["\\\\xff", "\\xff", "\\xe0"]

    def test_labels_tell_a_control_byte_from_its_escape(self):
        report = run_benchmark(Corpus(b"\t \\x09", "tiny"), (b"\t", b"\\x09"))
        assert [r.label for r in report.rows] == ["\\x09", "\\\\x09"]

    def test_report_rebuilt_from_its_rows_is_equal(self, fixture_corpus, fixture_patterns):
        report = run_benchmark(fixture_corpus, fixture_patterns)
        rebuilt = BenchReport(report.rows, report.source_name, report.corpus_length, report.mode)
        assert rebuilt == report

    def test_equal_rows_and_reports_hash_equal(self):
        # Frozen like FrequencyTable, rows and reports can key a dict; the
        # counts dicts are left out of the hash, as equal objects have
        # equal counts anyway.
        report, again = (run_benchmark(Corpus(b"abcabc"), [b"abc"]) for _ in range(2))
        assert hash(report) == hash(again) and hash(report.rows[0]) == hash(again.rows[0])
        assert {report: 1}[again] == 1
        rows = list(report.rows)
        from_list = BenchReport(rows, report.source_name, report.corpus_length, report.mode)
        assert from_list == report and hash(from_list) == hash(report)

    def test_duplicates_flagged(self):
        report = run_benchmark(Corpus(b"abcabc", "tiny"), (b"abc", b"abc"))
        assert [r.duplicate for r in report.rows] == [False, True]
        report = run_benchmark(Corpus("città città"), ("città", "città".encode()))
        assert [r.pattern for r in report.rows] == ["città".encode()] * 2
        assert [r.duplicate for r in report.rows] == [False, True]

    def test_first_match_mode_never_costs_more(self, fixture_corpus, fixture_patterns):
        all_mode = run_benchmark(fixture_corpus, fixture_patterns, mode=Mode.ALL_MATCHES)
        first_mode = run_benchmark(fixture_corpus, fixture_patterns, mode=Mode.FIRST_MATCH)
        for row_all, row_first in zip(all_mode.rows, first_mode.rows):
            for algo in ALGORITHMS:
                assert row_first.counts[algo] <= row_all.counts[algo]

    def test_disagreement_detected(self, monkeypatch):
        def broken_kmp(query, naive=None):
            return SearchOutcome(positions=[999])

        monkeypatch.setattr(bench_module, "kmp_search", broken_kmp)
        with pytest.raises(MatcherDisagreement) as exc_info:
            run_benchmark(Corpus(b"aaaa", "tiny"), (b"aa",))
        assert exc_info.value.first_difference == 0

    def test_disagreement_on_a_dropped_last_position(self, monkeypatch):
        def kmp_drops_the_last(query, naive=None):
            outcome = kmp_search(query, naive)
            outcome.positions.pop()
            return outcome

        monkeypatch.setattr(bench_module, "kmp_search", kmp_drops_the_last)
        with pytest.raises(MatcherDisagreement, match=r"first differing position: 2\)$") as exc_info:
            run_benchmark(Corpus(b"aaaa", "tiny"), (b"aa",))
        assert exc_info.value.first_difference == 2

    def test_disagreement_of_kmp_names_kmp(self, monkeypatch):
        # KMP checks its matches against the naive outcome it is given; a
        # failure function that loses the overlapping match must be blamed
        # on KMP, not on naive.
        monkeypatch.setattr(match_module, "_failure_function", lambda pat: [0] * len(pat))
        with pytest.raises(ValueError) as exc_info:
            run_benchmark(Corpus(b"ababab"), (b"abab",))
        assert "kmp" in str(exc_info.value)
        assert "first differing position: 2" in str(exc_info.value)

    def test_disagreement_message_quotes_the_label(self, monkeypatch):
        monkeypatch.setattr(bench_module, "kmp_search", lambda query, naive=None: SearchOutcome())
        with pytest.raises(MatcherDisagreement) as exc_info:
            run_benchmark(Corpus(b"a\nb\xff", "tiny"), (b"a\nb\xff",))
        assert str(exc_info.value) == (
            "kmp disagrees with naive for pattern 'a\\x0ab\\xff' (first differing position: 0)"
        )

    def test_deterministic_csv(self, fixture_corpus, fixture_patterns):
        first = render_report(run_benchmark(fixture_corpus, fixture_patterns), ReportFormat.CSV)
        second = render_report(run_benchmark(fixture_corpus, fixture_patterns), ReportFormat.CSV)
        assert first == second


class TestShow:
    @given(st.binary())
    @example("a\u0085b\u2028c\u2029\\x0a".encode())
    def test_one_line_that_names_the_bytes(self, data):
        text = show(data)
        assert not any(chr(c) in text for c in ESCAPES)
        assert len(text.splitlines()) <= 1
        assert unshow(text) == data


class TestRenderReport:
    def test_csv_header_contract(self, fixture_corpus, fixture_patterns):
        report = run_benchmark(fixture_corpus, fixture_patterns)
        out = render_report(report, ReportFormat.CSV)
        assert out.splitlines()[0] == CSV_HEADER

    def test_csv_has_data_rows_plus_total(self, fixture_corpus, fixture_patterns):
        report = run_benchmark(fixture_corpus, fixture_patterns)
        lines = render_report(report, "csv").splitlines()
        assert len(lines) == 1 + 12 + 1
        assert lines[-1].startswith("TOTAL,")

    def test_markdown_shows_reference_improvement(self):
        report = report_from_counts([r[:6] for r in KNOWN_BENCHMARK_ROWS])
        out = render_report(report, ReportFormat.MARKDOWN)
        beatrice_line = next(line for line in out.splitlines() if "beatrice" in line)
        assert "7.12%" in beatrice_line
        assert "| 5.33% |" in out.splitlines()[-1]

    def test_markdown_rows_keep_seven_cells(self):
        report = run_benchmark(Corpus(b"xa|b||luce", "a|b.txt"), (b"a|b", b"|", b"luce"))
        lines = render_report(report, ReportFormat.MARKDOWN).splitlines()
        assert lines[0].startswith("corpus: a|b.txt ")
        rows = lines[2:]
        assert len(rows) == 2 + 3 + 1
        for line in rows:
            assert len(re.split(r"(?<!\\)\|", line)) == 7 + 2, line
        assert rows[2].startswith("| a\\|b | 3 |")

    def test_control_bytes_keep_one_line_per_row(self, tmp_path):
        # A raw tab would shift the text columns, and a CR ends a Markdown row.
        path = tmp_path / "p.txt"
        path.write_bytes(b"x\ty\nb\rc\n\x7f\x1b\n")
        patterns = load_patterns(path)
        assert patterns == (b"x\ty", b"b\rc", b"\x7f\x1b")
        report = run_benchmark(Corpus(b"x\ty b\rc", "tiny"), patterns)
        assert [r.label for r in report.rows] == ["x\\x09y", "b\\x0dc", "\\x7f\\x1b"]
        for format, lines in ((ReportFormat.TEXT, 3 + 3 + 2), (ReportFormat.MARKDOWN, 4 + 3 + 1)):
            out = render_report(report, format)
            assert len(out.splitlines()) == lines
            assert all(" " <= c != "\x7f" for c in out.replace("\n", "")), format
        markdown = render_report(report, ReportFormat.MARKDOWN).splitlines()
        assert [line.split(" | ")[0] for line in markdown[4:7]] == [
            "| x\\x09y", "| b\\x0dc", "| \\x7f\\x1b"
        ]

    def test_unicode_line_breaks_keep_one_line_per_row(self):
        # str.splitlines also breaks on U+0085, U+2028 and U+2029.
        patterns = (b"a\xc2\x85b", b"c\xe2\x80\xa8d", b"\xe2\x80\xa9", b"zz")
        report = run_benchmark(Corpus(b" ".join(patterns), "tiny"), patterns)
        assert [r.label for r in report.rows] == [
            "a\\xc2\\x85b", "c\\xe2\\x80\\xa8d", "\\xe2\\x80\\xa9", "zz"
        ]
        for format, lines in ((ReportFormat.TEXT, 3 + 4 + 2), (ReportFormat.MARKDOWN, 4 + 4 + 1)):
            out = render_report(report, format)
            assert len(out.splitlines()) == out.count("\n") == lines, format

    def test_text_layout_columns(self):
        report = report_from_counts([r[:6] for r in KNOWN_BENCHMARK_ROWS])
        out = render_report(report, ReportFormat.TEXT)
        header = out.splitlines()[1]
        for column in ("Pattern", "Length", "Naive", "KMP", "BMH", "FBAS", "Improvement"):
            assert column in header
        assert out.splitlines()[-1].startswith("Total")

    def test_json_document_shape(self, fixture_corpus, fixture_patterns):
        report = run_benchmark(fixture_corpus, fixture_patterns)
        doc = json.loads(render_report(report, ReportFormat.JSON))
        assert set(doc) == {"corpus_meta", "mode", "rows", "totals"}
        assert doc["corpus_meta"]["length"] == fixture_corpus.length
        assert doc["mode"] == "all"
        assert len(doc["rows"]) == 12
        row = doc["rows"][0]
        assert row["pattern"] == "inferno"
        assert row["anchor"] == {"index": 2, "char": "f", "score": 9}
        for row in doc["rows"]:
            assert {"improvement_pct", "speedup_vs_naive", "naive", "bmh"} <= set(row)

    def test_json_empty_rows_document(self):
        report = BenchReport(
            rows=(),
            source_name="none",
            corpus_length=0,
            mode=Mode.ALL_MATCHES,
        )
        doc = json.loads(render_report(report, ReportFormat.JSON))
        assert doc["rows"] == []
        assert doc["totals"]["naive"] == 0
        assert doc["totals"]["improvement_pct"] is None

    def test_csv_full_precision(self):
        report = report_from_counts([("beatrice", 8, 555464, 551846, 92715, 86111)])
        line = render_report(report, "csv").splitlines()[1]
        assert str(100 * (92715 - 86111) / 92715) in line

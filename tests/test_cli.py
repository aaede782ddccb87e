"""CLI subcommands: output contracts, exit codes, file handling."""
import json
import os
import subprocess
import sys

from conftest import DATA_DIR
from helpers import run_cli

CORPUS = str(DATA_DIR / "italian_sample.txt")
PATTERNS = str(DATA_DIR / "patterns12.txt")


class TestSearch:
    def test_all_matches_from_stdin(self):
        code, out, _ = run_cli(["search", "aa", "-", "--all"], stdin=b"aaaa")
        assert code == 0
        assert out == "0\n1\n2\n"

    def test_default_mode_prints_first_match_only(self):
        code, out, _ = run_cli(["search", "aa", "-"], stdin=b"aaaa")
        assert code == 0
        assert out == "0\n"

    def test_no_match_exits_one(self):
        code, out, _ = run_cli(["search", "zzz", "-"], stdin=b"abcabc")
        assert code == 1
        assert out == ""

    def test_empty_stdin_exits_one(self):
        code, out, _ = run_cli(["search", "zzz", "-"], stdin=b"")
        assert code == 1
        assert out == ""

    def test_stats_include_anchor_line(self):
        code, out, _ = run_cli(
            ["search", "oscura", CORPUS, "--algo", "fbas", "--stats", "--all"]
        )
        assert code == 0
        assert "anchor: 'u' @ 3 (score 16)" in out
        assert any(line.startswith("comparisons: ") for line in out.splitlines())
        assert any(line.startswith("alignments: ") for line in out.splitlines())

    def test_same_offsets_for_every_algorithm(self):
        results = set()
        for algo in ("naive", "kmp", "bmh", "fbas"):
            code, out, _ = run_cli(["search", "luce", CORPUS, "--algo", algo, "--all"])
            assert code == 0
            results.add(out)
        assert len(results) == 1

    def test_lowercase_flag_folds_input(self):
        code, out, _ = run_cli(["search", "dante", "-", "--all"], stdin=b"Dante e dante")
        assert out == "8\n"
        code, out, _ = run_cli(
            ["search", "dante", "-", "--all", "--lowercase"], stdin=b"Dante e dante"
        )
        assert out == "0\n8\n"

    def test_missing_file_exits_two(self):
        code, out, err = run_cli(["search", "x", "/no/such/file"])
        assert code == 2
        assert "error:" in err

    def test_empty_pattern_exits_two(self):
        code, _, err = run_cli(["search", "", "-"], stdin=b"abc")
        assert code == 2
        assert "error:" in err

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # Far more output than a pipe buffers, so the writer is still
        # writing when the reader goes away.
        text = tmp_path / "e.txt"
        text.write_bytes(b"e" * 200_000)
        src = str(DATA_DIR.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "fbas", "search", "--all", "e", str(text)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert stderr == b""
        assert code == 141


class TestAnchor:
    def test_nel_mezzo(self):
        code, out, _ = run_cli(["anchor", "nel mezzo"])
        assert code == 0
        assert out == "index=6 char=z score=1\n"

    def test_beatrice(self):
        code, out, _ = run_cli(["anchor", "beatrice"])
        assert out == "index=0 char=b score=10\n"

    def test_tie_breaks_to_first_index(self):
        code, out, _ = run_cli(["anchor", "aaa"])
        assert out == "index=0 char=a score=28\n"

    def test_empty_pattern_exits_two(self):
        code, _, err = run_cli(["anchor", ""])
        assert code == 2

    def test_unreadable_freq_table_exits_two(self, tmp_path):
        for path in (tmp_path / "missing.tsv", tmp_path):
            code, out, err = run_cli(["anchor", "oscura", "--freq-table", str(path)])
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read frequency table")


class TestTable:
    def test_default_has_26_entries(self):
        code, out, _ = run_cli(["table"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 26
        assert "z\t1" in lines
        assert "e\t29" in lines

    def test_from_corpus_orders_by_rank(self, tmp_path):
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("aab", encoding="utf-8")
        code, out, _ = run_cli(["table", "--from-corpus", str(tiny)])
        assert code == 0
        assert out.index("b\t1") < out.index("a\t2")

    def test_missing_corpus_exits_two(self):
        code, _, err = run_cli(["table", "--from-corpus", "/no/such/file"])
        assert code == 2

    def test_round_trip_preserves_anchor_choices(self, tmp_path):
        _, table_text, _ = run_cli(["table"])
        table_file = tmp_path / "default.tsv"
        table_file.write_text(table_text, encoding="utf-8")
        for pattern in ("oscura", "nel mezzo", "beatrice", "virtute", "qqjj"):
            _, expected, _ = run_cli(["anchor", pattern])
            _, actual, _ = run_cli(["anchor", pattern, "--freq-table", str(table_file)])
            assert actual == expected


class TestBench:
    def test_csv_has_12_rows_plus_total(self):
        code, out, _ = run_cli(["bench", CORPUS, PATTERNS, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[-1].startswith("TOTAL,")

    def test_json_single_pattern(self, tmp_path):
        single = tmp_path / "single.txt"
        single.write_text("luce\n", encoding="utf-8")
        code, out, _ = run_cli(["bench", CORPUS, str(single), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["pattern"] == "luce"

    def test_first_match_never_costs_more(self):
        _, all_out, _ = run_cli(["bench", CORPUS, PATTERNS, "--format", "json"])
        _, first_out, _ = run_cli(
            ["bench", CORPUS, PATTERNS, "--format", "json", "--first-match"]
        )
        all_doc, first_doc = json.loads(all_out), json.loads(first_out)
        assert first_doc["mode"] == "first"
        for row_all, row_first in zip(all_doc["rows"], first_doc["rows"]):
            for algo in ("naive", "kmp", "bmh", "fbas"):
                assert row_first[algo] <= row_all[algo]

    def test_output_is_deterministic(self):
        runs = {run_cli(["bench", CORPUS, PATTERNS, "--format", "csv"])[1] for _ in range(2)}
        assert len(runs) == 1

    def test_missing_corpus_exits_two(self):
        code, _, err = run_cli(["bench", "/no/such/file", PATTERNS])
        assert code == 2
        assert "error:" in err

    def test_empty_corpus_exits_two(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        code, _, err = run_cli(["bench", str(empty), PATTERNS])
        assert code == 2

    def test_unknown_format_is_usage_error(self):
        code, _, _ = run_cli(["bench", CORPUS, PATTERNS, "--format", "xml"])
        assert code == 2


class TestUsage:
    def test_missing_subcommand(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

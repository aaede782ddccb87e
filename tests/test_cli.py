"""CLI subcommands: output contracts, exit codes, file handling."""
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import fbas.cli
from conftest import DATA_DIR
from fbas import Mode, SearchQuery, fbas_search, load_table
from helpers import run_cli

CORPUS = str(DATA_DIR / "italian_sample.txt")
PATTERNS = str(DATA_DIR / "patterns12.txt")


def _module_env() -> dict[str, str]:
    """Environment in which ``python -m fbas`` imports the package under test."""
    src = str(DATA_DIR.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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

    def test_stats_report_the_anchor_of_the_given_table(self, tmp_path):
        table = tmp_path / "o-rarest.tsv"
        table.write_text("o\t1\n")
        code, out, _ = run_cli(
            ["search", "oscura", CORPUS, "--stats", "--all", "--freq-table", str(table)]
        )
        assert code == 0
        lines = out.splitlines()
        assert "anchor: 'o' @ 0 (score 1)" in lines
        text = (DATA_DIR / "italian_sample.txt").read_bytes()
        query = SearchQuery(text, "oscura", Mode.ALL_MATCHES)
        hits = fbas_search(query, load_table(table)).anchor_hits
        assert f"anchor hits: {hits}" in lines

    def test_bmh_stats_have_no_anchor_lines(self):
        code, out, _ = run_cli(["search", "oscura", CORPUS, "--algo", "bmh", "--stats", "--all"])
        assert code == 0
        assert not any(line.startswith("anchor") for line in out.splitlines())

    def test_non_utf8_pattern_byte(self):
        # argv decodes undecodable bytes to lone surrogates; the pattern is
        # the original byte 0xE0 again, found after the Latin-1 "caffè ".
        code, out, err = run_cli(["search", "\udce0", "-", "--all"], stdin=b"caff\xe8 \xe0")
        assert (code, out, err) == (0, "6\n", "")

    def test_utf8_pattern_is_its_utf8_bytes(self):
        code, out, _ = run_cli(["search", "città", "-", "--all"], stdin="la città".encode())
        assert (code, out) == (0, "3\n")

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
        proc = subprocess.Popen(
            [sys.executable, "-m", "fbas", "search", "--all", "e", str(text)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
        )
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert stderr == b""
        assert code == 141

    def test_interrupt_exits_quietly(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(fbas.cli, "search", interrupted)
        assert run_cli(["search", "x", "-"], stdin=b"x") == (130, "", "")


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

    def test_non_utf8_pattern_byte(self):
        code, out, _ = run_cli(["anchor", "z\udce0"])
        assert (code, out) == (0, "index=0 char=z score=1\n")
        code, out, _ = run_cli(["anchor", "\udce0"])
        assert (code, out) == (0, "index=0 char=\\xe0 score=50\n")

    def test_unreadable_freq_table_exits_two(self, tmp_path):
        for path in (tmp_path / "missing.tsv", tmp_path):
            code, out, err = run_cli(["anchor", "oscura", "--freq-table", str(path)])
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read frequency table")

    def test_freq_table_from_stdin(self):
        code, out, _ = run_cli(["anchor", "nel mezzo", "--freq-table", "-"], stdin=b"m\t1\n")
        assert (code, out) == (0, "index=4 char=m score=1\n")


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
    def test_closed_stdout_exits_quietly(self, tmp_path):
        # A report far larger than a pipe buffers. Unbuffered, one write of
        # it would lose its tail without an error when the reader goes away.
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"p1 p22 p333")
        patterns = tmp_path / "p.txt"
        patterns.write_text("".join(f"p{n}\n" for n in range(600)), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "fbas", "bench", str(corpus), str(patterns), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**_module_env(), "PYTHONUNBUFFERED": "1"},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert stderr == b""
        assert code == 141

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

    def test_corpus_and_patterns_both_from_stdin_exit_two(self):
        code, out, err = run_cli(["bench", "-", "-"], stdin=b"luce\n")
        assert code == 2
        assert out == ""
        assert "cannot both come from stdin" in err

    @pytest.mark.parametrize(
        "name,shown", [(b"a\nb.txt", "a\\x0ab.txt"), (b"c\xff.txt", "c\\xff.txt")],
        ids=["line-break", "not-utf8"],
    )
    @pytest.mark.parametrize("format", ["text", "markdown"])
    def test_caption_shows_the_corpus_name_on_one_line(self, tmp_path, name, shown, format):
        # A strict UTF-8 stdout, as under a UTF-8 locale, cannot take the
        # surrogate that a byte which is not UTF-8 decodes to in a file name.
        (tmp_path / os.fsdecode(name)).write_bytes(b"p1 p22")
        proc = subprocess.run(
            [sys.executable, "-m", "fbas", "bench", name, PATTERNS, "--format", format],
            capture_output=True, cwd=tmp_path, timeout=60,
            env={**_module_env(), "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().splitlines()[0] == f"corpus: {shown} (6 bytes), mode: all"

    def test_unknown_format_is_usage_error(self):
        code, _, _ = run_cli(["bench", CORPUS, PATTERNS, "--format", "xml"])
        assert code == 2


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["search", "mezzo", "-", "--freq-table", "-"],
         ["bench", CORPUS, "-", "--freq-table", "-"],
         ["bench", "-", PATTERNS, "--freq-table", "-"]],
        ids=["search", "bench-patterns", "bench-corpus"],
    )
    def test_two_sources_from_stdin_exit_two(self, argv):
        code, out, err = run_cli(argv, stdin=b"nel mezzo del cammin")
        assert (code, out) == (2, "")
        assert err.startswith("error: the ")
        assert "cannot both come from stdin" in err

    @pytest.mark.parametrize(
        "argv,closed,message",
        [(["search", "a", "-"], 0, b"error: cannot read input from -: stdin is closed\n"),
         (["table"], 1, b"error: cannot write output: stdout is closed\n"),
         (["anchor", "zz"], 1, b"error: cannot write output: stdout is closed\n"),
         (["search", "e", CORPUS], 1, b"error: cannot write output: stdout is closed\n")],
        ids=["stdin-search", "stdout-table", "stdout-anchor", "stdout-search"],
    )
    def test_closed_standard_stream_exits_two(self, argv, closed, message):
        proc = subprocess.run(
            [sys.executable, "-m", "fbas", *argv], stderr=subprocess.PIPE,
            env=_module_env(), timeout=60, preexec_fn=lambda: os.close(closed),
        )
        assert (proc.returncode, proc.stderr) == (2, message)

    @pytest.mark.parametrize(
        "argv",
        [["bench", "no\nsuch.txt", PATTERNS], ["bench", "e\nmpty.txt", PATTERNS],
         ["search", "x", "no\nsuch"]],
        ids=["missing-corpus", "empty-corpus", "missing-input"],
    )
    def test_error_naming_a_line_break_is_one_line(self, tmp_path, monkeypatch, argv):
        (tmp_path / "e\nmpty.txt").write_bytes(b"")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.splitlines(keepends=True) == [err]
        assert "\\x0a" in err

    def test_parser_is_built_once_per_process(self, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(fbas.cli, "build_parser", rebuilt)
        assert run_cli(["anchor", "nel mezzo"])[:2] == (0, "index=6 char=z score=1\n")
        code, out, _ = run_cli(["bench", CORPUS, PATTERNS, "--format", "json"])
        assert code == 0
        assert len(json.loads(out)["rows"]) == 12

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv", [["table"], ["search", "e", CORPUS, "--all"]], ids=["table", "search"]
    )
    def test_failed_write_exits_two_with_one_error_line(self, argv):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "fbas", *argv],
                stdout=full, stderr=subprocess.PIPE, env=_module_env(), timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: cannot write output: ")
        assert proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr

    @pytest.mark.skipif(
        not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
        reason="no /dev/full device or /proc/self/fd",
    )
    def test_failed_write_leaks_no_file_descriptor(self, monkeypatch):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for _ in range(3):
            with open("/dev/full", "w") as full:
                monkeypatch.setattr(sys, "stdout", full)
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    assert fbas.cli.main(["table"]) == 2
                monkeypatch.undo()
            assert err.getvalue().startswith("error: cannot write output: ")
        assert open_fds() == before

    def test_missing_subcommand(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

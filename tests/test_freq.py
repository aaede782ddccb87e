"""Frequency tables, rarity scoring, and anchor selection."""
import io
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fbas import (
    EmptyCorpus,
    EmptyPattern,
    FrequencyTable,
    default_table,
    format_table,
    load_table,
    select_anchor,
    table_from_corpus,
)

PINNED_SCORES = {
    "z": 1, "j": 2, "x": 3, "q": 4, "k": 5, "w": 6, "y": 7, "v": 8,
    "f": 9, "b": 10, "g": 11, "h": 12, "p": 13, "m": 14, "d": 15,
    "u": 16, "c": 17, "l": 18, "s": 19, "n": 20, "r": 21, "t": 22,
    "i": 23, "o": 24, "a": 28, "e": 29,
}


class TestDefaultTable:
    def test_all_pinned_scores(self):
        table = default_table()
        for letter, score in PINNED_SCORES.items():
            assert table.score(letter) == score, letter

    def test_exactly_26_entries_all_lowercase_letters(self):
        entries = default_table().entries
        assert len(entries) == 26
        assert set(entries) == {b for b in range(ord("a"), ord("z") + 1)}

    def test_scores_25_to_27_unused(self):
        assert not {25, 26, 27} & set(default_table().entries.values())

    def test_non_alphabetic_defaults_to_50(self):
        table = default_table()
        assert table.score(" ") == 50
        assert table.score("9") == 50
        assert table.score(0xE8) == 50

    def test_uppercase_folds_to_lowercase_entry(self):
        table = default_table()
        assert table.score("Z") == 1
        for b in range(256):
            folded = b + 0x20 if 0x41 <= b <= 0x5A else b
            assert table.score(b) == table.score(folded)

    def test_lookup_total_over_all_bytes(self):
        table = default_table()
        for b in range(256):
            assert 1 <= table.score(b) <= 50
        assert table.scores == bytes(table.score(b) for b in range(256))


class TestFrequencyTable:
    def test_entries_are_immutable(self):
        table = default_table()
        with pytest.raises(TypeError):
            table.entries[ord("z")] = 9

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FrequencyTable({ord("a"): 0})
        with pytest.raises(ValueError):
            FrequencyTable({ord("a"): 51})

    def test_non_byte_key_rejected(self):
        with pytest.raises(ValueError):
            FrequencyTable({300: 10})
        with pytest.raises(ValueError):
            FrequencyTable({97.0: 10})

    @pytest.mark.parametrize("score", [1.5, 2.0, True, "3", None])
    def test_non_integer_score_rejected(self, score):
        # format_table would write such a score in a form load_table rejects
        with pytest.raises(ValueError, match="is not an integer in 1..50"):
            FrequencyTable({ord("a"): score})

    def test_score_of_what_is_not_one_byte_rejected(self):
        with pytest.raises(ValueError, match="byte value out of range: 256"):
            default_table().score(256)
        with pytest.raises(ValueError, match="expected a single byte, got 2 bytes"):
            default_table().score("ab")

    def test_uppercase_key_scores_its_lowercase_letter(self):
        table = FrequencyTable({ord("Z"): 1})
        assert dict(table.entries) == {ord("z"): 1}
        assert table.score("z") == table.score("Z") == 1
        assert select_anchor("QUIZ", table).score == 1

    def test_hashable_and_hash_agrees_with_equality(self, tmp_path):
        assert {default_table(): 1}[default_table()] == 1
        path = tmp_path / "custom.tsv"
        path.write_text("z\t1\nE\t29\n", encoding="utf-8")
        first, second = load_table(path), load_table(path)
        assert first == second
        assert hash(first) == hash(second)
        assert FrequencyTable({ord("Z"): 1}) == FrequencyTable({ord("z"): 1})
        assert hash(FrequencyTable({ord("Z"): 1})) == hash(FrequencyTable({ord("z"): 1}))


class TestSelectAnchor:
    def test_oscura_worked_example(self):
        sel = select_anchor("oscura")
        assert (sel.index, sel.char, sel.score) == (3, "u", 16)

    def test_nel_mezzo_first_of_two_z(self):
        sel = select_anchor("nel mezzo")
        assert (sel.index, sel.char, sel.score) == (6, "z", 1)

    def test_beatrice(self):
        sel = select_anchor("beatrice")
        assert (sel.index, sel.char, sel.score) == (0, "b", 10)

    def test_all_equal_scores_picks_first(self):
        sel = select_anchor("aaa")
        assert (sel.index, sel.char, sel.score) == (0, "a", 28)

    def test_anchor_keeps_original_case(self):
        sel = select_anchor("OsCuRa")
        assert sel.index == 3
        assert sel.char == "u"
        assert sel.score == 16

    def test_char_shows_a_byte_as_reports_do(self):
        assert select_anchor("àà").char == "\\xc3"
        assert select_anchor(b"\t").char == "\\x09"
        assert select_anchor(b"\\").char == "\\\\"

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyPattern):
            select_anchor(b"")

    @given(
        st.binary(min_size=1, max_size=40),
        st.none() | st.dictionaries(st.integers(0, 255), st.integers(1, 50)),
    )
    def test_anchor_invariants(self, pattern, entries):
        table = default_table() if entries is None else FrequencyTable(entries)
        sel = select_anchor(pattern, table)
        assert 0 <= sel.index < len(pattern)
        assert sel.character == pattern[sel.index]
        assert sel.score == table.score(pattern[sel.index])
        scores = [table.score(b) for b in pattern]
        assert sel.score == min(scores)
        assert all(s > sel.score for s in scores[:sel.index])


class TestTableFromCorpus:
    def test_rarest_gets_rank_one(self):
        table = table_from_corpus("aab")
        assert table.score("b") == 1
        assert table.score("a") == 2

    def test_absent_letters_default(self):
        table = table_from_corpus("zzz")
        assert table.score("z") == 1
        assert table.score("e") == 50

    def test_tie_broken_by_byte_order(self):
        table = table_from_corpus("abab")
        assert table.score("a") == 1
        assert table.score("b") == 2

    def test_counts_fold_case(self):
        table = table_from_corpus("AaB")
        assert table.score("b") == 1
        assert table.score("a") == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            table_from_corpus(b"")

    @given(st.text(alphabet="abcdxyz ,.", min_size=1, max_size=200))
    def test_strictly_rarer_letter_scores_lower(self, text):
        table = table_from_corpus(text)
        counts = {c: text.lower().count(c) for c in "abcdxyz"}
        for x, nx in counts.items():
            for y, ny in counts.items():
                if nx >= 1 and ny >= 1 and nx < ny:
                    assert table.score(x) < table.score(y)


class TestTableFiles:
    def test_round_trip_preserves_entries(self):
        table = default_table()
        reloaded = load_table(io.StringIO(format_table(table)))
        assert dict(reloaded.entries) == dict(table.entries)

    def test_format_orders_by_score(self):
        lines = format_table(table_from_corpus("aab")).splitlines()
        assert lines == ["b\t1", "a\t2"]

    def test_comments_and_blank_lines_ignored(self):
        table = load_table(io.StringIO("# comment\n\nq\t4\n"))
        assert dict(table.entries) == {ord("q"): 4}
        assert table.score("z") == 50

    @pytest.mark.parametrize("inside", ["\u2028", "\f"])
    def test_a_line_ends_only_at_lf_cr_lf_or_cr(self, inside):
        head = f"# a{inside}b\nz\t1\r\nq\t2\r"
        assert dict(load_table(io.BytesIO(head.encode())).entries) == {ord("z"): 1, ord("q"): 2}
        with pytest.raises(ValueError, match="^line 4: score 0 out of range"):
            load_table(io.BytesIO(f"{head}x\t0\n".encode()))

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "custom.tsv"
        path.write_text("z\t1\ne\t29\n", encoding="utf-8")
        table = load_table(path)
        assert table.score("z") == 1
        assert table.score("e") == 29

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "notepad.tsv"
        path.write_bytes(b"\xef\xbb\xbfz\t1\ne\t29\n")
        assert dict(load_table(path).entries) == {ord("z"): 1, ord("e"): 29}

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_table(io.StringIO("zz\t3\n"))
        with pytest.raises(ValueError):
            load_table(io.StringIO("no tab here\n"))
        for bad_escape in ("\\xg1", "\\x1", "\\x123"):
            with pytest.raises(ValueError):
                load_table(io.StringIO(f"{bad_escape}\t1\n"))
        for score in ("abc", "", "\u0663", "1_0", "+7"):
            with pytest.raises(ValueError, match=f"^line 2: score '{re.escape(score)}' is not an integer$"):
                load_table(io.StringIO(f"z\t1\nx\t{score}\n"))
        latin1 = tmp_path / "latin1.tsv"
        latin1.write_bytes(b"\xe0\t3\n")
        with pytest.raises(ValueError, match="latin1.tsv is not UTF-8"):
            load_table(latin1)

    def test_out_of_range_score_rejected(self):
        with pytest.raises(ValueError):
            load_table(io.StringIO("z\t51\n"))

    def test_uppercase_entries_fold_to_lowercase(self):
        table = load_table(io.StringIO("Q\t4\n"))
        assert table.score("q") == 4
        assert table.score("Q") == 4

    def test_uppercase_literal_and_escaped_keys_score_alike(self):
        tables = [load_table(io.StringIO(f"{key}\t4\n")) for key in ("Z", "\\x5a", "z")]
        assert tables[0].scores == tables[1].scores == tables[2].scores

    def test_later_line_wins_when_keys_fold_together(self):
        assert load_table(io.StringIO("q\t5\nQ\t4\n")).score("q") == 4
        assert load_table(io.StringIO("Q\t4\nq\t5\n")).score("Q") == 5

    @pytest.mark.parametrize("byte", [0x09, 0x0B, 0x1C, 0x85, ord("#"), ord("\\")])
    def test_unsafe_bytes_written_escaped(self, byte):
        text = format_table(FrequencyTable({byte: 3}))
        assert text == f"\\x{byte:02x}\t3\n"
        assert dict(load_table(io.StringIO(text)).entries) == {byte: 3}

    def test_escaped_keys_load_as_written(self):
        table = load_table(io.StringIO("\\xC3\t2\n\\x5a\t4\n\\\t5\n"))
        assert dict(table.entries) == {0xC3: 2, ord("z"): 4, ord("\\"): 5}
        # the lead byte of every two-byte UTF-8 letter such as 'à' is 0xC3
        assert select_anchor("città", table).score == 2

    def test_non_ascii_character_rejected(self):
        with pytest.raises(ValueError, match="not an ASCII character"):
            load_table(io.StringIO("à\t1\n"))

    @given(st.dictionaries(st.integers(0, 255), st.integers(1, 50)))
    @example({b: b % 50 + 1 for b in range(256)})
    def test_round_trip_property(self, entries):
        table = FrequencyTable(entries)
        reloaded = load_table(io.StringIO(format_table(table)))
        assert reloaded.entries == table.entries
        assert reloaded.scores == table.scores

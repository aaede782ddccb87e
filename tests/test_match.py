"""The four matchers: positions, counting semantics, and shift tables."""
import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbas import (
    EmptyCorpus,
    EmptyPattern,
    FrequencyTable,
    InvalidProbability,
    Mode,
    SearchQuery,
    bmh_search,
    build_shift_table,
    char_probability,
    default_table,
    expected_comparisons,
    fbas_search,
    kmp_search,
    naive_search,
    search,
    select_anchor,
)
from fbas.match import _failure_function, _horspool_walk
from helpers import (
    oracle_positions,
    per_window_horspool_walk,
    per_window_kmp_search,
    per_window_naive_search,
)

ALL = Mode.ALL_MATCHES
FIRST = Mode.FIRST_MATCH


# Letter alphabets of 2, 4 and 26 bytes, and raw bytes: the ends and the
# middle of the byte range, then all 256 values.
ALPHABETS = (b"ab", b"abcd", b"abcdefghijklmnopqrstuvwxyz", b"\x00\x01\x7f\x80\xfe\xff",
             bytes(range(256)))


@st.composite
def search_cases(draw):
    sigma = draw(st.sampled_from(ALPHABETS))
    text = bytes(draw(st.lists(st.sampled_from(sigma), max_size=64)))
    if text and draw(st.booleans()):
        m = draw(st.integers(1, min(8, len(text))))
        start = draw(st.integers(0, len(text) - m))
        pattern = text[start:start + m]
    else:
        pattern = bytes(draw(st.lists(st.sampled_from(sigma), min_size=1, max_size=8)))
    return text, pattern


@st.composite
def periodic_cases(draw):
    """A text and a pattern that repeat one 1-3 byte word, each with an
    optional odd byte: long borders, overlapping matches and KMP states
    that fall back again and again."""
    word = bytes(draw(st.lists(st.sampled_from(b"ab"), min_size=1, max_size=3)))
    text = word * draw(st.integers(0, 24))
    start = draw(st.integers(0, len(word) - 1))
    pattern = (word * 5)[start:start + draw(st.integers(1, 12))]

    def with_odd_byte(data):
        if not data or not draw(st.booleans()):
            return data
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + draw(st.sampled_from((b"a", b"b", b"c"))) + data[i + 1:]

    return with_odd_byte(text), with_odd_byte(pattern)


@st.composite
def prefix_dense_cases(draw):
    """A pattern and a text strung together from the pattern's prefixes
    and stray bytes: dense in ``pat[0]``, with partial matches of every
    length, back to back or cut off by the end of the text."""
    pattern = bytes(draw(st.lists(st.sampled_from(b"abc"), min_size=1, max_size=8)))
    pieces = st.one_of(
        st.integers(1, len(pattern)).map(lambda k: pattern[:k]),
        st.sampled_from((b"a", b"b", b"c", b"x")),
    )
    return b"".join(draw(st.lists(pieces, max_size=24))), pattern


@st.composite
def long_walk_cases(draw):
    """A text of up to 2 KiB over 2-4 letters and a pattern of up to 16
    bytes, half the time cut from the text: long blocks of windows and
    many first-test hits."""
    sigma = draw(st.sampled_from((b"ab", b"abc", b"abcd")))
    size = draw(st.integers(0, 2048))
    letters = bytes(sigma[b % len(sigma)] for b in range(256))
    text = draw(st.binary(min_size=size, max_size=size)).translate(letters)
    if text and draw(st.booleans()):
        m = draw(st.integers(1, min(16, len(text))))
        start = draw(st.integers(0, len(text) - m))
        return text, text[start:start + m]
    return text, bytes(draw(st.lists(st.sampled_from(sigma), min_size=1, max_size=16)))


def kmp_states(text, pattern):
    """The KMP automaton's state after each text byte."""
    fail, j, states = _failure_function(pattern), 0, []
    for c in text:
        while j and (j == len(pattern) or c != pattern[j]):
            j = fail[j - 1]
        j += c == pattern[j]
        states.append(j)
    return states


def recurrence(pattern):
    """Where ``pattern[0]`` first recurs, or m if it does not: KMP's ``top``."""
    return next((k for k in range(1, len(pattern)) if pattern[k] == pattern[0]), len(pattern))


def bmh_trace(query):
    """bmh's windows from the reference walk, once bmh_search agrees with it."""
    outcome, windows = per_window_horspool_walk(query, None)
    assert bmh_search(query) == outcome
    return outcome, windows


def fbas_trace(query, table=None):
    """fbas's windows from the reference walk, once fbas_search agrees with it."""
    outcome, windows = per_window_horspool_walk(query, select_anchor(query.pattern, table))
    assert fbas_search(query, table) == outcome
    return outcome, windows


# Tables that rank the letters of search_cases in arbitrary order.
custom_tables = st.builds(
    FrequencyTable, st.dictionaries(st.integers(ord("a"), ord("z")), st.integers(1, 50))
)


class TestShiftTable:
    def test_oscura_by_hand(self):
        table = build_shift_table("oscura")
        assert len(table) == 256
        shifted = {b: s for b, s in enumerate(table) if s != 6}
        assert shifted == {
            ord("o"): 5, ord("s"): 4, ord("c"): 3, ord("u"): 2, ord("r"): 1,
        }

    def test_repeated_prefix_byte(self):
        table = build_shift_table("aa")
        assert {b: s for b, s in enumerate(table) if s != 2} == {ord("a"): 1}

    def test_single_byte_pattern_has_empty_table(self):
        # no prefix bytes: every byte takes the full shift of m = 1
        assert build_shift_table("z") == [1] * 256

    def test_step_values(self):
        table = build_shift_table("oscura")
        assert table[ord("u")] == 2
        assert table[ord("q")] == 6  # absent byte
        assert table[ord("a")] == 6  # last pattern byte, excluded from prefix

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyPattern):
            build_shift_table(b"")

    @given(st.binary(min_size=1, max_size=16))
    def test_shift_invariants(self, pattern):
        table = build_shift_table(pattern)
        m = len(pattern)
        prefix = pattern[:-1]
        assert len(table) == 256
        for b in range(256):
            step = table[b]
            assert 1 <= step <= m
            if b in prefix:
                last = max(i for i in range(m - 1) if pattern[i] == b)
                assert step == m - 1 - last
            else:
                assert step == m


class TestNaive:
    def test_overlapping_matches_and_count(self):
        outcome = naive_search(SearchQuery("aaaa", "aa"))
        assert outcome.positions == [0, 1, 2]
        assert outcome.comparisons == 6
        assert outcome.alignments == 3

    def test_exact_match_window(self):
        outcome = naive_search(SearchQuery("abc", "abc"))
        assert outcome.positions == [0]
        assert outcome.comparisons == 3

    def test_one_failing_test_per_window(self):
        outcome = naive_search(SearchQuery("bbbb", "a"))
        assert outcome.positions == []
        assert outcome.comparisons == 4

    def test_degenerate_full_verify(self):
        outcome = naive_search(SearchQuery(b"a" * 1000, b"aaa"))
        assert outcome.comparisons == 998 * 3


class TestKmp:
    def test_first_match(self):
        outcome = kmp_search(SearchQuery("abababc", "ababc", FIRST))
        assert outcome.positions == [2]

    def test_overlapping_matches(self):
        assert kmp_search(SearchQuery("aaaa", "aa")).positions == [0, 1, 2]

    @given(search_cases())
    def test_comparisons_at_most_2n(self, case):
        text, pattern = case
        outcome = kmp_search(SearchQuery(text, pattern))
        assert outcome.comparisons <= 2 * len(text)


class TestBmh:
    def test_overlapping_matches(self):
        assert bmh_search(SearchQuery("aaaa", "aa")).positions == [0, 1, 2]

    def test_single_byte_pattern_first_match(self):
        assert bmh_search(SearchQuery("abcd", "d", FIRST)).positions == [3]


class TestFbas:
    def test_overlapping_matches(self):
        outcome = fbas_search(SearchQuery("aaaa", "aa"))
        assert outcome.positions == [0, 1, 2]
        assert outcome.anchor_hits == outcome.alignments == 3

    def test_text_shorter_than_pattern(self):
        outcome = fbas_search(SearchQuery("abc", "zzzz"))
        assert outcome.positions == []
        assert outcome.comparisons == 0
        assert outcome.alignments == 0

    def test_anchor_miss_costs_one_per_window(self):
        # anchor of "bz" is 'z' (score 1), which never occurs in the text
        outcome = fbas_search(SearchQuery("xbxx", "bz"))
        assert outcome.positions == []
        assert outcome.comparisons == outcome.alignments == 2
        assert outcome.anchor_hits == 0

    def test_full_match_costs_pattern_length(self):
        text = "mi ritrovai per una selva oscura di notte"
        outcome, windows = fbas_trace(SearchQuery(text, "oscura"))
        assert outcome.positions == [text.index("oscura")]
        by_position = {pos: (cost, hit) for pos, cost, hit in windows}
        assert by_position[outcome.positions[0]] == (6, True)

    def test_single_byte_pattern_anchor_is_whole_verification(self):
        outcome = fbas_search(SearchQuery("abcabc", "b"))
        assert outcome.positions == [1, 4]
        assert outcome.comparisons == outcome.alignments == 6
        assert outcome.anchor_hits == 2

    def test_respects_custom_table(self):
        # invert rarity so 'a' becomes the anchor of "ab"
        from fbas import FrequencyTable, select_anchor

        table = FrequencyTable({ord("a"): 1, ord("b"): 40})
        assert select_anchor("ab", table).index == 0

    def test_utf8_pattern_matches_byte_exactly(self):
        # multi-byte characters are plain bytes: offsets count bytes and
        # the accent bytes score the neutral default
        text = "il perché e la virtù"
        pattern = "perché"
        query = SearchQuery(text, pattern)
        expected = [text.encode().index(pattern.encode())]
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            assert matcher(query).positions == expected
        from fbas import select_anchor

        sel = select_anchor(pattern)
        assert sel.char == "h"  # accent bytes default to 50, 'h' is rarest
        assert default_table().score(pattern.encode()[-1]) == 50


class TestOracleEquivalence:
    @given(search_cases())
    @settings(max_examples=300)
    def test_positions_match_oracle_all_modes(self, case):
        text, pattern = case
        expected_all = oracle_positions(text, pattern)
        expected_first = expected_all[:1]
        for mode, expected in ((ALL, expected_all), (FIRST, expected_first)):
            query = SearchQuery(text, pattern, mode)
            assert naive_search(query).positions == expected
            assert kmp_search(query).positions == expected
            assert bmh_search(query).positions == expected
            assert fbas_search(query).positions == expected

    @given(search_cases())
    def test_fbas_and_bmh_examine_identical_alignments(self, case):
        text, pattern = case
        for mode in (ALL, FIRST):
            query = SearchQuery(text, pattern, mode)
            _, fbas_windows = fbas_trace(query)
            _, bmh_windows = bmh_trace(query)
            assert [w[0] for w in fbas_windows] == [w[0] for w in bmh_windows]

    @given(search_cases())
    def test_fail_fast_cost_identity(self, case):
        text, pattern = case
        outcome, windows = fbas_trace(SearchQuery(text, pattern))
        m = len(pattern)
        extra = 0
        for _, cost, hit in windows:
            assert 1 <= cost <= m
            if hit:
                extra += cost - 1
            else:
                assert cost == 1
        assert outcome.comparisons == outcome.alignments + extra
        assert outcome.anchor_hits == sum(hit for _, _, hit in windows)

    @given(search_cases())
    def test_first_match_never_costs_more(self, case):
        text, pattern = case
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            all_mode = matcher(SearchQuery(text, pattern, ALL))
            first_mode = matcher(SearchQuery(text, pattern, FIRST))
            assert first_mode.comparisons <= all_mode.comparisons


def horspool_blocks(query: SearchQuery) -> list[tuple[int, list[int]]]:
    """The Horspool walk's windows grouped into the blocks of a walk over
    the whole text, as ``(planned size, window positions)``: a block that
    starts at window position w plans ``(n - m + 1 - w) // m`` windows,
    at least one. In FIRST_MATCH the windows end at the first match, which
    can lie inside such a block; the walk itself plans its blocks up to
    the end of that match."""
    n, m = len(query.text), len(query.pattern)
    positions = [pos for pos, _, _ in per_window_horspool_walk(query)[1]]
    blocks = []
    while positions:
        planned = (n - m + 1 - positions[0]) // m or 1
        blocks.append((planned, positions[:planned]))
        positions = positions[planned:]
    return blocks


class TestSkipLoop:
    """Every matcher against its per-window reference: naive and kmp reach
    candidate windows with bytes.find, and bmh and fbas keep no window
    trace, yet their whole outcomes (positions, counts, anchor hits and
    anchor) equal those of the per-window loops."""

    PAIRS = (
        (naive_search, per_window_naive_search),
        (kmp_search, per_window_kmp_search),
        (bmh_search, lambda q: per_window_horspool_walk(q, None)[0]),
        (fbas_search, lambda q: per_window_horspool_walk(q, select_anchor(q.pattern))[0]),
    )

    def assert_same_as_per_window(self, text, pattern):
        for mode in (ALL, FIRST):
            query = SearchQuery(text, pattern, mode)
            for matcher, reference in self.PAIRS:
                assert matcher(query) == reference(query), (matcher.__name__, mode)

    @given(search_cases())
    @settings(max_examples=300)
    def test_counts_equal_per_window_loops(self, case):
        self.assert_same_as_per_window(*case)

    @given(periodic_cases())
    @settings(max_examples=300)
    def test_periodic_counts_equal_per_window_loops(self, case):
        self.assert_same_as_per_window(*case)

    @given(prefix_dense_cases())
    @settings(max_examples=300)
    def test_prefix_dense_counts_equal_per_window_loops(self, case):
        self.assert_same_as_per_window(*case)

    @given(long_walk_cases())
    @settings(max_examples=100, deadline=None)
    def test_long_text_counts_equal_per_window_loops(self, case):
        # Texts of up to 2 KiB, where naive's last >> 8 is above 0.
        for mode in (ALL, FIRST):
            query = SearchQuery(*case, mode)
            assert naive_search(query) == per_window_naive_search(query)
            assert kmp_search(query) == per_window_kmp_search(query)

    def test_real_text_counts_equal_per_window_loops(self, fixture_corpus, fixture_patterns):
        # Italian text has long shared prefixes that short random cases lack.
        for pattern in fixture_patterns:
            self.assert_same_as_per_window(fixture_corpus.data, pattern)

    @pytest.mark.parametrize(
        "text,pattern",
        [
            pytest.param(b"bcdbcdbcd", b"abc", id="first-byte-absent"),
            pytest.param(b"bbbbbbbab", b"aab", id="first-byte-only-in-last-m-1"),
            pytest.param(b"bbbbbbaab", b"aab", id="match-in-last-window"),
            pytest.param(b"abcabc", b"c", id="m-is-1"),
            pytest.param(b"abcabc", b"abcabc", id="m-is-n"),
            pytest.param(b"abcabc", b"abcabd", id="m-is-n-no-match"),
            pytest.param(b"a" * 1000, b"aaa", id="all-candidates"),
            pytest.param(b"aaaab", b"aab", id="kmp-falls-back-to-0"),
            pytest.param(b"x\xe0y\xe0\xe8\xe0", b"\xe0\xe8", id="high-first-byte"),
            pytest.param(b"ab", b"abc", id="text-shorter"),
            pytest.param(b"abz xbz abzz", b"abz", id="anchor-is-last-byte"),
            pytest.param(b"nel mezo, nel mezzo, pizza", b"nel mezzo", id="anchor-byte-twice"),
            pytest.param(b"xxxxxuoscura", b"oscura", id="shift-aligns-anchor"),
            pytest.param(b"", b"ab", id="empty-text"),
            pytest.param(b"xyzxy", b"abc", id="final-shift-lands-on-n"),
            pytest.param(b"xxxxbbc", b"abc", id="last-window-hit-fails-verification"),
            pytest.param(b"zebrzebzebra zebr", b"zebra", id="anchor-at-index-0"),
            pytest.param(b"\x00\x80\xff\x00\xff\x80\xff", b"\xff\x80", id="raw-bytes"),
            pytest.param(b"xxab", b"abc", id="prefix-after-last-window"),
            pytest.param(b"aabaabaab", b"aab", id="bordered-prefix"),
            pytest.param(b"abababac", b"abac", id="first-match-in-last-window"),
            pytest.param(b"xaab", b"ac", id="kmp-state-0-on-last-byte"),
            pytest.param(b"zebra-zebra", b"zebra", id="anchor-at-0-reads-last-byte"),
            pytest.param(b"xab abxab", b"abc", id="text-ends-in-partial-match"),
            pytest.param(b"xaxabxyzabc", b"abcab", id="borderless-prefix-ends-at-n"),
            pytest.param(b"abaabaaabx", b"aab", id="top-is-1"),
            pytest.param(b"xabcabcabdabcabx", b"abcabd", id="bordered-excursion-takes-pat0"),
            pytest.param(b"ab abc abx abcab abcab", b"abcab", id="first-match-in-later-stretch"),
            pytest.param(b"a" * 20000, b"ab", id="state-1-at-every-byte"),
            pytest.param(b"xyzxyzxyzxy", b"abc", id="last-block-ends-on-stop"),
            pytest.param(b"xyzabcxyzxyz", b"abc", id="first-match-mid-block"),
            pytest.param(b"xyzxyzx", b"abc", id="blocks-of-one-window"),
            pytest.param(b"x" * 2000 + b"zebra" + b"x" * 500, b"zebra", id="first-match-past-window-256"),
            pytest.param(b"b" * 600 + b"ab", b"a", id="m-is-1-past-window-256"),
            pytest.param(b"aabbabab" * 40, b"ba", id="m-is-2"),
            pytest.param(b"xxbdxbcdabcxabcd", b"abcd", id="hits-miss-at-second-and-last-test"),
            # Texts of 512 bytes and more, where naive may stop counting
            # on a sparse level rather than an empty one.
            pytest.param(b"ab" * 300, b"azb", id="dense-level-then-empty"),
            pytest.param(b"x" * 300 + b"zebu" + b"x" * 300 + b"zebra" + b"x" * 10, b"zebra",
                         id="rare-first-byte"),
            pytest.param(b"aabaaabab" * 60, b"aab", id="first-byte-recurs-at-1-long"),
            # The sparse threshold's first steps: last = n - m is 255, 256,
            # 511 and 512, with one or two windows on each counted level.
            pytest.param((b"x" * 100 + b"zebu").ljust(255 + 5, b"x"), b"zebra", id="last-255"),
            pytest.param((b"x" * 100 + b"zebu").ljust(256 + 5, b"x"), b"zebra", id="last-256"),
            pytest.param((b"x" * 100 + b"zebu" + b"x" * 200 + b"zebra").ljust(511 + 5, b"x"),
                         b"zebra", id="last-511"),
            pytest.param((b"x" * 100 + b"zebu" + b"x" * 200 + b"zebra").ljust(512 + 5, b"x"),
                         b"zebra", id="last-512"),
        ],
    )
    def test_edge_cases(self, text, pattern):
        self.assert_same_as_per_window(text, pattern)

    def test_long_edge_cases_reach_their_levels(self):
        # Naive counts a dense level, then an empty one.
        text = b"ab" * 300
        assert text.count(b"a") > (len(text) - 3) >> 8 and b"az" not in text
        # It stops at level 1 on a first byte that starts at most last >> 8
        # windows.
        text = b"x" * 300 + b"zebu" + b"x" * 300 + b"zebra" + b"x" * 10
        assert text.count(b"z") == (len(text) - 5) >> 8
        # At last = 255 and 511 it counts on past level 1; one window
        # more and the threshold steps up, so it stops there.
        short = b"x" * 100 + b"zebu"
        for head, last in ((short, 255), (short, 256), (short + b"x" * 200 + b"zebra", 511),
                           (short + b"x" * 200 + b"zebra", 512)):
            text = head.ljust(last + 5, b"x")
            assert (text.count(b"z") > last >> 8) == (last % 256 == 255)

    def test_kmp_copies_no_text_at_its_end(self):
        # The last stretch holds pat[0] far from the end of the text;
        # telling whether the text ends inside a partial match copies
        # nothing longer than the pattern.
        query = SearchQuery(b"ax" + b"a" * 1_000_000, b"xy")
        tracemalloc.start()
        try:
            outcome = kmp_search(query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert (outcome.comparisons, outcome.alignments) == (len(query.text) + 1, len(query.text))

    def test_first_match_copies_no_text(self):
        # FIRST_MATCH bounds the text it reads instead of slicing it, with
        # the only match at the end of a 1 MB text, with no match, and with
        # a match followed by 1 MB more: slicing bytes at their own end
        # copies nothing, so only the last case catches a slice. The
        # pattern shares no byte with the base text, so every shift is m.
        base, pattern = b"selva oscura " * 80_000, b"NEL-MEZZO-DEL-CAMMIN-" * 3
        for text, positions in ((base + pattern, [len(base)]), (base, []),
                                (base + pattern + base, [len(base)])):
            query = SearchQuery(text, pattern, FIRST)
            for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
                tracemalloc.start()
                try:
                    outcome = matcher(query)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 64 * 1024, matcher.__name__
                assert outcome.positions == positions

    def test_edge_cases_reach_their_boundaries(self):
        # The cases above hit what their ids say: the walk ends with the
        # window end exactly on n, the last window's first test hits but
        # verification fails, and the anchor sits m - 1 bytes before the end.
        text, pattern = b"xyzxy", b"abc"
        _, windows = per_window_horspool_walk(SearchQuery(text, pattern), None)
        end = windows[-1][0] + len(pattern) - 1
        assert end + build_shift_table(pattern)[text[end]] == len(text)
        for anchor in (None, select_anchor(b"abc")):
            outcome, windows = per_window_horspool_walk(SearchQuery(b"xxxxbbc", b"abc"), anchor)
            assert windows[-1][0] == 4 and windows[-1][1] > 1 and not outcome.positions
        assert select_anchor(b"zebra").index == 0
        # A prefix of the pattern occurs only past the last window.
        assert b"xxab".find(b"ab") > len(b"xxab") - len(b"abc")
        # A proper prefix of the pattern is bordered ("aa").
        assert _failure_function(b"aab")[1] == 1
        # The only match is in the last window.
        assert oracle_positions(b"abababac", b"abac") == [len(b"abababac") - len(b"abac")]
        # KMP's state falls back from above 0 to 0 on the last text byte.
        states = kmp_states(b"xaab", b"ac")
        assert states[-2] > 0 and states[-1] == 0
        # The anchor is at index 0 and the last window ends on the last text byte.
        text, pattern = b"zebra-zebra", b"zebra"
        anchor = select_anchor(pattern)
        _, windows = per_window_horspool_walk(SearchQuery(text, pattern), anchor)
        assert anchor.index == 0 and windows[-1][0] == len(text) - len(pattern)
        # KMP's stretches: the text ends inside a partial match that no
        # occurrence of pat[:top], up to where pat[0] recurs, follows.
        top = recurrence(b"abc")
        assert b"xab abxab".find(b"abc"[:top]) < 0 and kmp_states(b"xab abxab", b"abc")[-1] == 2
        # pat[:top] ends on the last text byte, with top < m.
        text, pattern = b"xaxabxyzabc", b"abcab"
        top = recurrence(pattern)
        assert top < len(pattern) and text.find(pattern[:top]) == len(text) - top
        assert recurrence(b"aab") == 1
        # A bordered excursion above top reads a later pat[0] at a state above 0.
        text, pattern = b"xabcabcabdabcabx", b"abcabd"
        states = kmp_states(text, pattern)
        assert any(text[p] == pattern[0] and states[p] > 1 for p in range(len(text)))
        # The first match follows a stretch that ends at pat[:top] and a failed excursion.
        text, pattern = b"ab abc abx abcab abcab", b"abcab"
        top = recurrence(pattern)
        assert 0 < text.find(pattern[:top]) < text.find(pattern)
        assert 0 in kmp_states(text, pattern)[text.find(pattern[:top]):text.find(pattern)]
        # KMP stays in state 1 from the first byte to the last.
        assert set(kmp_states(b"a" * 20000, b"ab")) == {1}
        # The walk's last block runs all its windows and its last shift
        # lands exactly on the end of the text.
        text, pattern = b"xyzxyzxyzxy", b"abc"
        planned, windows = horspool_blocks(SearchQuery(text, pattern))[-1]
        end = windows[-1] + len(pattern) - 1
        assert planned == len(windows) > 1
        assert end + build_shift_table(pattern)[text[end]] == len(text)
        # The first match is the second window of a longer block.
        text, pattern = b"xyzabcxyzxyz", b"abc"
        planned, windows = horspool_blocks(SearchQuery(text, pattern, FIRST))[0]
        assert planned > len(windows) and windows == [0, 3] == [0, *oracle_positions(text, pattern)]
        # Every block holds one window, and there is more than one window.
        blocks = horspool_blocks(SearchQuery(b"xyzxyzx", b"abc"))
        assert len(blocks) > 1 and all(planned == len(windows) == 1 for planned, windows in blocks)
        # The first match lies past window 256 of a longer block, for bmh's
        # order and for an anchor-first order whose first test is not on the
        # shift byte.
        text, pattern = b"x" * 2000 + b"zebra" + b"x" * 500, b"zebra"
        planned, windows = horspool_blocks(SearchQuery(text, pattern, FIRST))[0]
        assert planned > len(windows) > 256 and windows[-1] == oracle_positions(text, pattern)[0]
        assert select_anchor(pattern).index < len(pattern) - 1
        # m = 1: one block of one-byte shifts, matching past window 256.
        text, pattern = b"b" * 600 + b"ab", b"a"
        planned, windows = horspool_blocks(SearchQuery(text, pattern, FIRST))[0]
        assert planned > len(windows) > 256 and windows[-1] == oracle_positions(text, pattern)[0]
        # First-test hits that match, and hits that miss at the second test
        # and at the last: for m = 2 (the shift byte tested first for bmh,
        # the other byte for fbas) and for m = 4.
        assert select_anchor(b"ba").index == 0
        for text, pattern in ((b"aabbabab" * 40, b"ba"), (b"xxbdxbcdabcxabcd", b"abcd")):
            for anchor in (None, select_anchor(pattern)):
                outcome, windows = per_window_horspool_walk(SearchQuery(text, pattern), anchor)
                costs = {cost for pos, cost, _ in windows if pos not in outcome.positions}
                assert outcome.positions and {2, len(pattern)} <= costs


class TestFirstMatchCut:
    """FIRST_MATCH is ALL_MATCHES over the text cut after the first match,
    for every matcher, by construction: each reads the text only up to
    the bound that one function decides, the end of the first match
    as ``bytes.find`` finds it."""

    def assert_first_is_cut_all(self, text, pattern):
        p = text.find(pattern)
        cut = text if p < 0 else text[:p + len(pattern)]
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            first = matcher(SearchQuery(text, pattern, FIRST))
            assert first == matcher(SearchQuery(cut, pattern, ALL)), matcher.__name__

    @given(search_cases())
    @settings(max_examples=300)
    @example((b"abcab", b"ab"))  # a match at 0
    @example((b"abababac", b"abac"))  # the only match is in the last window
    @example((b"aaaa", b"aa"))  # a second match overlaps the first
    @example((b"abcabc", b"abd"))  # the pattern is absent
    @example((b"ab", b"abc"))  # n < m
    @example((b"xyxzxz", b"z"))  # m = 1
    def test_short_texts(self, case):
        self.assert_first_is_cut_all(*case)

    @given(long_walk_cases())
    @settings(max_examples=100, deadline=None)
    def test_long_texts(self, case):
        self.assert_first_is_cut_all(*case)


class TestWalkOrders:
    """The Horspool walk takes any verification order as data: its counts
    equal those of the per-window reference for that order, and it
    visits bmh's windows whatever the order."""

    @given(st.data())
    @settings(max_examples=300)
    def test_any_order_equals_per_window_walk(self, data):
        text, pattern = data.draw(search_cases())
        drawn = data.draw(st.permutations(range(len(pattern))))
        # The drawn order, and the same order rotated to start at index
        # m - 1, so the walk's shift-byte-first loop runs too.
        last = drawn.index(len(pattern) - 1)
        for order, mode in itertools.product((drawn, drawn[last:] + drawn[:last]), (ALL, FIRST)):
            query = SearchQuery(text, pattern, mode)
            reference, windows = per_window_horspool_walk(query, order=order)
            positions, comparisons, alignments, hits = _horspool_walk(query, order)
            assert (positions, comparisons, alignments, hits) == (
                reference.positions, reference.comparisons, reference.alignments,
                reference.anchor_hits,
            )
            _, bmh_windows = per_window_horspool_walk(query)
            assert [w[0] for w in windows] == [w[0] for w in bmh_windows]
            assert alignments == bmh_search(query).alignments

    @given(long_walk_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_long_texts_equal_per_window_walk(self, case, data):
        # Blocks of hundreds of windows, and hits that verify in full or
        # miss at any rank of a random order.
        text, pattern = case
        order = data.draw(st.permutations(range(len(pattern))))
        for mode in (ALL, FIRST):
            query = SearchQuery(text, pattern, mode)
            reference, _ = per_window_horspool_walk(query, order=order)
            assert _horspool_walk(query, order) == (
                reference.positions, reference.comparisons, reference.alignments,
                reference.anchor_hits,
            )


class TestOutcomeInvariants:
    @given(search_cases())
    def test_positions_sorted_and_bounded(self, case):
        text, pattern = case
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            outcome = matcher(SearchQuery(text, pattern))
            assert outcome.positions == sorted(set(outcome.positions))
            for pos in outcome.positions:
                assert 0 <= pos <= len(text) - len(pattern)
            assert outcome.anchor_hits <= outcome.alignments
            if matcher is not fbas_search:
                assert outcome.anchor_hits == 0

    @given(search_cases())
    def test_first_match_returns_at_most_one(self, case):
        text, pattern = case
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            assert len(matcher(SearchQuery(text, pattern, FIRST)).positions) <= 1

    def test_searches_are_pure(self):
        query = SearchQuery("la selva oscura", "selva")
        assert fbas_search(query) == fbas_search(query)


class TestWindowTrace:
    @given(search_cases())
    def test_recorded_windows_sum_to_total(self, case):
        text, pattern = case
        for mode in (ALL, FIRST):
            query = SearchQuery(text, pattern, mode)
            for trace in (bmh_trace, fbas_trace):
                outcome, windows = trace(query)
                assert len(windows) == outcome.alignments
                assert sum(cost for _, cost, _ in windows) == outcome.comparisons
            assert not any(hit for _, _, hit in bmh_trace(query)[1])


class TestReportedAnchor:
    @given(search_cases(), custom_tables)
    def test_fbas_reports_the_anchor_it_selects(self, case, custom):
        text, pattern = case
        for table in (None, default_table(), custom):
            for mode in (ALL, FIRST):
                outcome = fbas_search(SearchQuery(text, pattern, mode), table)
                assert outcome.anchor == select_anchor(pattern, table)

    @given(search_cases(), custom_tables)
    def test_every_window_tests_the_reported_anchor_first(self, case, custom):
        text, pattern = case
        for table in (None, custom):
            outcome, windows = fbas_trace(SearchQuery(text, pattern), table)
            a = outcome.anchor.index
            for pos, cost, hit in windows:
                assert hit == (text[pos + a] == pattern[a])
                if not hit:
                    assert cost == 1

    @given(search_cases())
    def test_other_matchers_report_no_anchor(self, case):
        query = SearchQuery(*case)
        for matcher in (naive_search, kmp_search, bmh_search):
            assert matcher(query).anchor is None


class TestSearchDispatch:
    def test_routes_by_name(self):
        query = SearchQuery("aaaa", "aa")
        for algo in ("naive", "kmp", "bmh", "fbas"):
            assert search(query, algorithm=algo).positions == [0, 1, 2]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            search(SearchQuery("a", "a"), algorithm="boyer")

    def test_empty_pattern_rejected_at_query(self):
        with pytest.raises(EmptyPattern):
            SearchQuery("abc", "")

    def test_mode_given_by_value(self):
        query = SearchQuery(b"abab", b"ab", "first")
        assert query.mode is FIRST
        for algo in ("naive", "kmp", "bmh", "fbas"):
            assert search(query, algorithm=algo).positions == [0]
        assert SearchQuery(b"abab", b"ab", "all").mode is ALL

    def test_unknown_mode_rejected_at_query(self):
        for mode in ("every", "FIRST", None):
            with pytest.raises(ValueError):
                SearchQuery(b"abab", b"ab", mode)

    def test_text_that_is_not_text_rejected_at_query(self):
        with pytest.raises(TypeError, match="expected str or bytes, got int"):
            SearchQuery(1, "a")


class TestEstimator:
    def test_extremes_and_midpoint(self):
        assert expected_comparisons(0.0, 5).expected_comparisons == 1.0
        assert expected_comparisons(1.0, 5).expected_comparisons == 5.0
        assert expected_comparisons(0.1, 7).expected_comparisons == pytest.approx(1.6)

    def test_probability_bounds(self):
        with pytest.raises(InvalidProbability):
            expected_comparisons(-0.01, 5)
        with pytest.raises(InvalidProbability):
            expected_comparisons(1.01, 5)

    def test_pattern_length_bound(self):
        with pytest.raises(EmptyPattern):
            expected_comparisons(0.5, 0)


class TestCharProbability:
    def test_examples(self):
        assert char_probability("aaab", "a") == 0.75
        assert char_probability("xyz", "q") == 0.0
        assert char_probability("z", "z") == 1.0

    def test_case_sensitive(self):
        assert char_probability("Aa", "a") == 0.5

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyCorpus):
            char_probability(b"", "a")

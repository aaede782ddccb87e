"""The four matchers: positions, counting semantics, and shift tables."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbas import (
    EmptyCorpus,
    EmptyPattern,
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
)
from helpers import oracle_positions

ALL = Mode.ALL_MATCHES
FIRST = Mode.FIRST_MATCH


@st.composite
def search_cases(draw):
    sigma = draw(st.sampled_from(["ab", "abcd", "abcdefghijklmnopqrstuvwxyz"]))
    text = draw(st.text(alphabet=sigma, max_size=64)).encode()
    if text and draw(st.booleans()):
        m = draw(st.integers(1, min(8, len(text))))
        start = draw(st.integers(0, len(text) - m))
        pattern = text[start:start + m]
    else:
        pattern = draw(st.text(alphabet=sigma, min_size=1, max_size=8)).encode()
    return text, pattern


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
        outcome = fbas_search(SearchQuery("xbxx", "bz"), record_windows=True)
        assert outcome.positions == []
        assert [cost for _, cost, _ in outcome.windows] == [1] * outcome.alignments
        assert outcome.anchor_hits == 0

    def test_full_match_costs_pattern_length(self):
        text = "mi ritrovai per una selva oscura di notte"
        outcome = fbas_search(SearchQuery(text, "oscura"), record_windows=True)
        assert outcome.positions == [text.index("oscura")]
        by_position = {pos: (cost, hit) for pos, cost, hit in outcome.windows}
        assert by_position[outcome.positions[0]] == (6, True)

    def test_single_byte_pattern_anchor_is_whole_verification(self):
        outcome = fbas_search(SearchQuery("abcabc", "b"), record_windows=True)
        assert outcome.positions == [1, 4]
        assert all(cost == 1 for _, cost, _ in outcome.windows)
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
            fbas = fbas_search(query, record_windows=True)
            bmh = bmh_search(query, record_windows=True)
            assert [w[0] for w in fbas.windows] == [w[0] for w in bmh.windows]

    @given(search_cases())
    def test_fail_fast_cost_identity(self, case):
        text, pattern = case
        outcome = fbas_search(SearchQuery(text, pattern), record_windows=True)
        m = len(pattern)
        extra = 0
        for _, cost, hit in outcome.windows:
            assert 1 <= cost <= m
            if hit:
                extra += cost - 1
            else:
                assert cost == 1
        assert outcome.comparisons == outcome.alignments + extra
        assert outcome.anchor_hits == sum(hit for _, _, hit in outcome.windows)

    @given(search_cases())
    def test_first_match_never_costs_more(self, case):
        text, pattern = case
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            all_mode = matcher(SearchQuery(text, pattern, ALL))
            first_mode = matcher(SearchQuery(text, pattern, FIRST))
            assert first_mode.comparisons <= all_mode.comparisons


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
        assert fbas_search(query, record_windows=True) == fbas_search(query, record_windows=True)


class TestWindowTrace:
    @given(search_cases())
    def test_recorded_windows_sum_to_total(self, case):
        text, pattern = case
        for mode in (ALL, FIRST):
            query = SearchQuery(text, pattern, mode)
            for matcher in (bmh_search, fbas_search):
                outcome = matcher(query, record_windows=True)
                assert len(outcome.windows) == outcome.alignments
                assert sum(cost for _, cost, _ in outcome.windows) == outcome.comparisons
                plain = matcher(query)
                assert (plain.positions, plain.comparisons, plain.alignments, plain.anchor_hits) == (
                    outcome.positions, outcome.comparisons, outcome.alignments, outcome.anchor_hits)
            assert not any(hit for _, _, hit in bmh_search(query, record_windows=True).windows)

    def test_recording_off_by_default(self):
        query = SearchQuery("la selva oscura", "selva")
        for matcher in (naive_search, kmp_search, bmh_search, fbas_search):
            assert matcher(query).windows is None


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

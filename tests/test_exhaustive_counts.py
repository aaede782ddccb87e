"""Every small case: all texts over a small alphabet up to a length, with
every pattern up to a length, in both modes.

The counted matchers rest on shortcuts (naive's bulk levels and sparse
cut, KMP's stretches and end-of-text adjustment, the walk's blocks and
FIRST_MATCH's bound) that sampled tests may miss at some boundary. Here
each matcher must equal its per-window reference on positions,
comparisons, alignments and anchor hits in every case. Naive's counts
must not depend on where it stops counting, so it is checked again with
its sparse cut at every level down to the first.
"""
import itertools

import pytest

import fbas.match as match_module
from fbas import Mode, SearchQuery, bmh_search, fbas_search, kmp_search, naive_search, select_anchor
from helpers import per_window_horspool_walk, per_window_kmp_search, per_window_naive_search


def _strings(alphabet: bytes, longest: int):
    for length in range(longest + 1):
        yield from map(bytes, itertools.product(alphabet, repeat=length))


# (alphabet, longest text, longest pattern): about 59,000 cases in all.
@pytest.mark.parametrize("alphabet, text_bound, pattern_bound", [(b"ab", 8, 4), (b"abc", 5, 3)])
def test_every_small_case_equals_the_per_window_references(
    monkeypatch, alphabet, text_bound, pattern_bound
):
    patterns = [pattern for pattern in _strings(alphabet, pattern_bound) if pattern]
    naive_cases = []
    for text, pattern, mode in itertools.product(_strings(alphabet, text_bound), patterns, Mode):
        query = SearchQuery(text, pattern, mode)
        expected = per_window_naive_search(query)
        assert naive_search(query) == expected, query
        naive_cases.append((query, expected))
        assert kmp_search(query) == per_window_kmp_search(query), query
        assert bmh_search(query) == per_window_horspool_walk(query)[0], query
        anchor = select_anchor(pattern)
        assert fbas_search(query) == per_window_horspool_walk(query, anchor)[0], query

    for shift in (0, 1, 2):
        monkeypatch.setattr(match_module, "_SPARSE_SHIFT", shift)
        for query, expected in naive_cases:
            assert naive_search(query) == expected, (shift, query)

"""Exact counts of all four matchers over the bundled fixture.

Comparison counts are deterministic, so any change to a matcher's walk
or verification order shows up here as a drifted number. Values are
(comparisons, alignments, anchor_hits) per matcher, for every pattern of
data/patterns12.txt over data/italian_sample.txt.
"""
import pytest

from fbas import Mode, SearchQuery, bmh_search, fbas_search, kmp_search, naive_search

MATCHERS = (naive_search, kmp_search, bmh_search, fbas_search)

# pattern: (naive, kmp, bmh, fbas)
PINNED = {
    Mode.ALL_MATCHES: {
        "inferno": ((13319, 12266, 0), (13192, 12138, 0), (2308, 2059, 0), (2116, 2059, 36)),
        "paradiso": ((12659, 12265, 0), (12584, 12190, 0), (2027, 1862, 0), (2027, 1862, 116)),
        "purgatorio": ((12633, 12263, 0), (12582, 12212, 0), (1782, 1598, 0), (1700, 1598, 59)),
        "beatrice": ((12337, 12265, 0), (12325, 12253, 0), (2139, 1920, 0), (1951, 1920, 15)),
        "dante": ((12660, 12268, 0), (12587, 12195, 0), (3114, 2776, 0), (2969, 2776, 142)),
        "virtute": ((12486, 12266, 0), (12433, 12213, 0), (2185, 1976, 0), (2059, 1976, 56)),
        "canoscenza": ((12825, 12263, 0), (12736, 12177, 0), (1750, 1536, 0), (1581, 1536, 20)),
        "nel mezzo": ((13091, 12264, 0), (12972, 12145, 0), (1843, 1652, 0), (1692, 1652, 16)),
        "selva oscura": ((12864, 12261, 0), (12780, 12178, 0), (1778, 1535, 0), (1619, 1535, 42)),
        "amor": ((13451, 12269, 0), (13412, 12230, 0), (3614, 3376, 0), (3547, 3376, 141)),
        "luce": ((12975, 12269, 0), (12942, 12236, 0), (3617, 3251, 0), (3454, 3251, 180)),
        "dolce": ((12635, 12268, 0), (12588, 12221, 0), (3023, 2718, 0), (2882, 2718, 132)),
    },
    Mode.FIRST_MATCH: {
        "inferno": ((1593, 1450, 0), (1575, 1432, 0), (278, 242, 0), (251, 242, 4)),
        "paradiso": ((1784, 1717, 0), (1771, 1704, 0), (300, 267, 0), (303, 267, 21)),
        "purgatorio": ((1658, 1600, 0), (1652, 1594, 0), (236, 209, 0), (223, 209, 6)),
        "beatrice": ((3028, 3001, 0), (3024, 2997, 0), (536, 474, 0), (489, 474, 6)),
        "dante": ((2039, 1975, 0), (2025, 1961, 0), (499, 447, 0), (487, 447, 26)),
        "virtute": ((5295, 5193, 0), (5271, 5169, 0), (918, 837, 0), (885, 837, 30)),
        "canoscenza": ((5443, 5203, 0), (5413, 5173, 0), (761, 664, 0), (682, 664, 10)),
        "nel mezzo": ((323, 302, 0), (322, 301, 0), (52, 43, 0), (51, 43, 1)),
        "selva oscura": ((895, 831, 0), (876, 812, 0), (118, 94, 0), (119, 94, 5)),
        "amor": ((5174, 4689, 0), (5164, 4679, 0), (1376, 1292, 0), (1354, 1292, 52)),
        "luce": ((1190, 1128, 0), (1189, 1127, 0), (336, 296, 0), (312, 296, 14)),
        "dolce": ((6174, 6007, 0), (6157, 5990, 0), (1462, 1326, 0), (1409, 1326, 70)),
    },
}


def test_pins_cover_the_pattern_file(fixture_patterns):
    for pinned in PINNED.values():
        assert list(pinned) == [p.decode() for p in fixture_patterns]


@pytest.mark.parametrize("mode", list(PINNED), ids=lambda mode: mode.value)
def test_counts_match_pins(fixture_corpus, mode):
    for label, expected in PINNED[mode].items():
        query = SearchQuery(fixture_corpus.data, label, mode)
        actual = tuple(
            (o.comparisons, o.alignments, o.anchor_hits)
            for o in (matcher(query) for matcher in MATCHERS)
        )
        assert actual == expected, label

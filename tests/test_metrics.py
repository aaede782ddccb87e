"""Derived statistics and display rounding."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbas import aggregate_stats, derive_stats
from fbas.metrics import DerivedStats, present

counts = st.integers(min_value=0, max_value=10**7)


class TestDeriveStats:
    def test_known_row_small_gap(self):
        stats = derive_stats(13269, 12334, 2260, 2247)
        assert stats.improvement_pct == pytest.approx(0.58, abs=0.005)

    def test_known_row_large_gap(self):
        stats = derive_stats(555464, 551846, 92715, 86111)
        assert stats.improvement_pct == pytest.approx(7.12, abs=0.005)

    def test_identical_counts(self):
        stats = derive_stats(100, 100, 100, 100)
        assert stats.improvement_pct == 0.0
        assert stats.speedup_vs_naive == 1.0
        assert stats.reduction_vs_naive_pct == 0.0

    def test_zero_denominators_marked_undefined(self):
        stats = derive_stats(0, 0, 0, 0)
        assert stats.improvement_pct is None
        assert stats.speedup_vs_naive is None
        assert stats.reduction_vs_naive_pct is None

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_stats(-1, 0, 0, 0)

    @given(counts, counts, counts, counts, st.integers(min_value=1, max_value=1000))
    def test_scale_invariance(self, n, k, b, f, scale):
        base = derive_stats(n, k, b, f)
        scaled = derive_stats(n * scale, k * scale, b * scale, f * scale)
        for field in ("improvement_pct", "speedup_vs_naive", "reduction_vs_naive_pct"):
            lhs, rhs = getattr(base, field), getattr(scaled, field)
            if lhs is None:
                assert rhs is None
            else:
                assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(counts, counts, st.integers(min_value=1, max_value=10**7), counts)
    def test_improvement_positive_iff_fbas_below_bmh(self, n, k, b, f):
        stats = derive_stats(n, k, b, f)
        assert (stats.improvement_pct > 0) == (f < b)


def aggregate_counts(counts):
    """aggregate_stats over (naive, kmp, bmh, fbas) rows: each row's stats
    plus the column sums."""
    return aggregate_stats([derive_stats(*c) for c in counts], tuple(map(sum, zip(*counts))))


class TestAggregateStats:
    def test_empty_rows(self):
        assert aggregate_stats([], (0, 0, 0, 0)) == DerivedStats(None, None, None)

    def test_improvement_uses_summed_totals(self):
        rows = [(100, 90, 50, 40), (1000, 900, 500, 490)]
        stats = aggregate_counts(rows)
        assert stats.improvement_pct == pytest.approx(100 * (550 - 530) / 550)

    def test_speedup_and_reduction_are_row_means(self):
        rows = [(100, 90, 50, 40), (1000, 900, 500, 490)]
        stats = aggregate_counts(rows)
        assert stats.speedup_vs_naive == pytest.approx((100 / 40 + 1000 / 490) / 2)
        assert stats.reduction_vs_naive_pct == pytest.approx((60.0 + 51.0) / 2)

    def test_undefined_rows_left_out_of_means(self):
        stats = aggregate_counts([(100, 90, 50, 40), (0, 0, 0, 0)])
        assert stats.speedup_vs_naive == pytest.approx(2.5)

    def test_means_identical_on_every_python(self):
        # Per-pattern (naive, kmp, bmh, fbas) counts of patterns12 over
        # italian_sample.txt. Plain sum() gives 6.029151939402599 and
        # 81.686432213739 before Python 3.12; the exact values are pinned.
        all_matches = [
            (13319, 13192, 2308, 2116), (12659, 12584, 2027, 2027),
            (12633, 12582, 1782, 1700), (12337, 12325, 2139, 1951),
            (12660, 12587, 3114, 2969), (12486, 12433, 2185, 2059),
            (12825, 12736, 1750, 1581), (13091, 12972, 1843, 1692),
            (12864, 12780, 1778, 1619), (13451, 13412, 3614, 3547),
            (12975, 12942, 3617, 3454), (12635, 12588, 3023, 2882),
        ]
        first_match = [
            (1593, 1575, 278, 251), (1784, 1771, 300, 303), (1658, 1652, 236, 223),
            (3028, 3024, 536, 489), (2039, 2025, 499, 487), (5295, 5271, 918, 885),
            (5443, 5413, 761, 682), (323, 322, 52, 51), (895, 876, 118, 119),
            (5174, 5164, 1376, 1354), (1190, 1189, 336, 312), (6174, 6157, 1462, 1409),
        ]
        assert repr(aggregate_counts(all_matches).speedup_vs_naive) == "6.0291519394026"
        assert repr(aggregate_counts(first_match).reduction_vs_naive_pct) == "81.68643221373898"


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.575, 0.58), (0.005, 0.01), (-0.005, -0.01), (5.333229, 5.33),
         (7.1229, 7.12), (2.125, 2.13), (1.0, 1.0)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert present(value) == f"{expected:.2f}%"

    def test_present_formats_two_decimals(self):
        assert present(5.333229) == "5.33%"
        assert present(0.575) == "0.58%"
        assert present(None) == "n/a"


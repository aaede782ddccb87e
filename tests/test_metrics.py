"""Derived statistics and display rounding."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbas import aggregate_stats, derive_stats
from fbas.metrics import present, round_half_away

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


class TestAggregateStats:
    def test_empty_rows(self):
        stats = aggregate_stats([])
        assert stats == aggregate_stats(())
        assert stats.improvement_pct is None

    def test_improvement_uses_summed_totals(self):
        rows = [(100, 90, 50, 40), (1000, 900, 500, 490)]
        stats = aggregate_stats(rows)
        assert stats.improvement_pct == pytest.approx(100 * (550 - 530) / 550)

    def test_speedup_and_reduction_are_row_means(self):
        rows = [(100, 90, 50, 40), (1000, 900, 500, 490)]
        stats = aggregate_stats(rows)
        assert stats.speedup_vs_naive == pytest.approx((100 / 40 + 1000 / 490) / 2)
        assert stats.reduction_vs_naive_pct == pytest.approx((60.0 + 51.0) / 2)

    def test_undefined_rows_left_out_of_means(self):
        stats = aggregate_stats([(100, 90, 50, 40), (0, 0, 0, 0)])
        assert stats.speedup_vs_naive == pytest.approx(2.5)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.575, 0.58), (0.005, 0.01), (-0.005, -0.01), (5.333229, 5.33),
         (7.1229, 7.12), (2.125, 2.13), (1.0, 1.0)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected

    def test_present_formats_two_decimals(self):
        assert present(5.333229, 2, "%") == "5.33%"
        assert present(0.575, 2, "%") == "0.58%"
        assert present(None) == "n/a"


"""Derived benchmark statistics and their display rounding.

Statistics are computed from comparison counts (equality tests between
a text byte and a pattern byte during the search phase) and kept at full
precision; rounding happens only when a report is rendered.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import fsum


class DerivedStats(
    namedtuple("DerivedStats", "improvement_pct speedup_vs_naive reduction_vs_naive_pct")
):
    """Relative statistics for one benchmark row or for totals.

    A ``None`` field marks an undefined value (zero denominator).
    Values are kept at full precision; rounding happens only when
    rendering.
    """

    __slots__ = ()


def derive_stats(naive: int, kmp: int, bmh: int, fbas: int) -> DerivedStats:
    """Compute relative statistics from one row of comparison counts.

    improvement_pct        = 100 * (bmh - fbas) / bmh
    speedup_vs_naive       = naive / fbas
    reduction_vs_naive_pct = 100 * (naive - fbas) / naive

    The kmp count is carried in every row but no derived field uses it.
    """
    for label, count in (("naive", naive), ("kmp", kmp), ("bmh", bmh), ("fbas", fbas)):
        if count < 0:
            raise ValueError(f"{label} count must be non-negative, got {count}")
    return DerivedStats(
        improvement_pct=100.0 * (bmh - fbas) / bmh if bmh > 0 else None,
        speedup_vs_naive=naive / fbas if fbas > 0 else None,
        reduction_vs_naive_pct=100.0 * (naive - fbas) / naive if naive > 0 else None,
    )


def aggregate_stats(rows: Sequence[DerivedStats], totals: Sequence[int]) -> DerivedStats:
    """Aggregate the stats of many rows, given their summed
    (naive, kmp, bmh, fbas) counts.

    Improvement comes from the summed totals; speedup and reduction are
    the means of the per-row values, matching how a totals row is
    conventionally reported. Rows whose own value is undefined are left
    out of the mean; with no defined rows the field is None. Means use
    ``math.fsum``, so they are correctly rounded and the same on every
    Python version (``sum`` of floats changed its rounding in 3.12).
    """
    return DerivedStats(
        improvement_pct=derive_stats(*totals).improvement_pct,
        speedup_vs_naive=_mean([r.speedup_vs_naive for r in rows]),
        reduction_vs_naive_pct=_mean([r.reduction_vs_naive_pct for r in rows]),
    )


def _mean(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return fsum(defined) / len(defined) if defined else None


def present(value: float | None) -> str:
    """Format a percentage for reports: two decimals with ties rounded
    away from zero and a '%' sign, 'n/a' when undefined."""
    if value is None:
        return "n/a"
    from decimal import ROUND_HALF_UP, Decimal

    # Decimal of the shortest repr, so 0.575 rounds as written, not as stored.
    return f"{Decimal(repr(value)).quantize(Decimal('0.01'), rounding=ROUND_HALF_UP)}%"

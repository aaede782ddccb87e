"""Derived benchmark statistics and their display rounding.

Statistics are computed from comparison counts (equality tests between
a text byte and a pattern byte during the search phase) and kept at full
precision; rounding happens only when a report is rendered.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from typing import Sequence


@dataclass(frozen=True)
class DerivedStats:
    """Relative statistics for one benchmark row or for totals.

    A ``None`` field marks an undefined value (zero denominator).
    Values are kept at full precision; rounding happens only when
    rendering.
    """

    improvement_pct: float | None
    speedup_vs_naive: float | None
    reduction_vs_naive_pct: float | None


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


def aggregate_stats(counts: Sequence[tuple[int, int, int, int]]) -> DerivedStats:
    """Aggregate statistics over many (naive, kmp, bmh, fbas) rows.

    Improvement comes from the summed totals; speedup and reduction are
    the means of the per-row values, matching how a totals row is
    conventionally reported. Rows whose own value is undefined are left
    out of the mean; with no defined rows the field is None.
    """
    if not counts:
        return DerivedStats(None, None, None)
    total_bmh = sum(c[2] for c in counts)
    total_fbas = sum(c[3] for c in counts)
    improvement = 100.0 * (total_bmh - total_fbas) / total_bmh if total_bmh > 0 else None

    speedups = [c[0] / c[3] for c in counts if c[3] > 0]
    reductions = [100.0 * (c[0] - c[3]) / c[0] for c in counts if c[0] > 0]
    return DerivedStats(
        improvement_pct=improvement,
        speedup_vs_naive=sum(speedups) / len(speedups) if speedups else None,
        reduction_vs_naive_pct=sum(reductions) / len(reductions) if reductions else None,
    )


def _quantize(value: float, ndigits: int) -> Decimal:
    # Decimal of the shortest repr, so 0.575 rounds as written, not as stored.
    return Decimal(repr(value)).quantize(Decimal(1).scaleb(-ndigits), rounding=ROUND_HALF_UP)


def round_half_away(value: float, ndigits: int = 2) -> float:
    """Round with ties going away from zero (display convention)."""
    return float(_quantize(value, ndigits))


def present(value: float | None, ndigits: int = 2, suffix: str = "") -> str:
    """Format a stat for reports: fixed decimals, 'n/a' when undefined."""
    if value is None:
        return "n/a"
    return f"{_quantize(value, ndigits)}{suffix}"

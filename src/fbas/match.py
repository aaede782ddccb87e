"""Exact string matchers instrumented to count character comparisons.

Four matchers share one interface: naive scan, Knuth-Morris-Pratt,
Boyer-Moore-Horspool, and the anchor-first Horspool variant (fbas).
All of them operate on raw bytes, return 0-based byte offsets, and
count every text-byte vs pattern-byte equality test made during the
search phase. Preprocessing comparisons are not counted.

The fbas matcher keeps Horspool's bad-character shift rule untouched
and changes only the verification order inside a window: the pattern's
rarest byte (the anchor) is tested first, so a window whose anchor
mismatches is rejected after exactly one comparison. Both Horspool
matchers run the same walk and differ only in that order, so they
examine the same sequence of windows by construction.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from ._bytes import as_bytes, byte_value
from .errors import EmptyCorpus, EmptyPattern, InvalidProbability
from .freq import FrequencyTable, select_anchor


class Mode(enum.Enum):
    """Stop at the first match, or enumerate all (including overlapping)."""

    FIRST_MATCH = "first"
    ALL_MATCHES = "all"


@dataclass
class SearchQuery:
    """A text/pattern pair plus the match mode.

    Strings are coerced to UTF-8 bytes. The pattern must be non-empty;
    the text may be shorter than the pattern, in which case searches
    return an empty outcome.
    """

    text: bytes
    pattern: bytes
    mode: Mode = Mode.ALL_MATCHES

    def __post_init__(self):
        self.text = as_bytes(self.text)
        self.pattern = as_bytes(self.pattern)
        if not self.pattern:
            raise EmptyPattern("pattern must contain at least one byte")


@dataclass
class SearchOutcome:
    """Match positions plus instrumentation for one search.

    ``alignments`` counts window positions examined; ``anchor_hits`` is
    non-zero only for the fbas matcher. When a Horspool matcher was
    asked to record windows, ``windows`` holds one
    ``(position, cost, anchor_hit)`` tuple per examined alignment, in
    order; the costs sum to ``comparisons``.
    """

    positions: list[int] = field(default_factory=list)
    comparisons: int = 0
    alignments: int = 0
    anchor_hits: int = 0
    windows: list[tuple[int, int, bool]] | None = None

    @property
    def found(self) -> bool:
        return bool(self.positions)


def build_shift_table(pattern) -> list[int]:
    """Build Horspool's bad-character table as a 256-entry list.

    Entry c is m - 1 - (the last index of byte c in the pattern prefix,
    all but the final byte), or m for bytes absent from that prefix, so
    every shift lies in 1..m. For m = 1 every byte shifts by 1.
    """
    pat = as_bytes(pattern)
    m = len(pat)
    if m == 0:
        raise EmptyPattern("cannot build a shift table for an empty pattern")
    shifts = [m] * 256
    for i in range(m - 1):
        shifts[pat[i]] = m - 1 - i
    return shifts


def naive_search(query: SearchQuery) -> SearchOutcome:
    """Check every window left to right; the correctness oracle for the rest."""
    text, pat = query.text, query.pattern
    n, m = len(text), len(pat)
    if n < m:
        return SearchOutcome()
    first_only = query.mode is Mode.FIRST_MATCH
    positions: list[int] = []
    comparisons = 0

    for pos in range(n - m + 1):
        for i in range(m):
            comparisons += 1
            if text[pos + i] != pat[i]:
                break
        else:
            positions.append(pos)
            if first_only:
                break

    # pos is the last window examined
    return SearchOutcome(positions=positions, comparisons=comparisons, alignments=pos + 1)


def _failure_function(pat: bytes) -> list[int]:
    # Longest proper prefix of pat[:i+1] that is also its suffix.
    m = len(pat)
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k > 0 and pat[i] != pat[k]:
            k = fail[k - 1]
        if pat[i] == pat[k]:
            k += 1
        fail[i] = k
    return fail


def kmp_search(query: SearchQuery) -> SearchOutcome:
    """Knuth-Morris-Pratt with the classic failure function.

    Only search-phase comparisons are counted; building the failure
    function is preprocessing. An alignment here is a distinct value of
    the implicit window start (text index minus pattern index) at which
    at least one comparison was made.
    """
    text, pat = query.text, query.pattern
    n, m = len(text), len(pat)
    if n < m:
        return SearchOutcome()
    first_only = query.mode is Mode.FIRST_MATCH
    fail = _failure_function(pat)
    positions: list[int] = []
    comparisons = alignments = 0
    last_start = -1

    i = j = 0
    while i < n:
        if i - j != last_start:
            last_start = i - j
            alignments += 1
        comparisons += 1
        if text[i] == pat[j]:
            i += 1
            j += 1
            if j == m:
                positions.append(i - m)
                if first_only:
                    break
                j = fail[j - 1]
        elif j > 0:
            j = fail[j - 1]
        else:
            i += 1

    return SearchOutcome(positions=positions, comparisons=comparisons, alignments=alignments)


def _horspool_walk(
    query: SearchQuery, order: Sequence[int], anchored: bool, record_windows: bool
) -> SearchOutcome:
    """Visit Horspool's windows, verifying each in the given order.

    ``order`` lists the m pattern positions in the order they are
    tested; testing stops at the first mismatch. The shift after every
    window comes from the last window byte, so the window sequence
    depends on the text and pattern only, never on ``order``. When
    ``anchored``, a window whose first tested byte matches counts as an
    anchor hit.
    """
    text, pat = query.text, query.pattern
    m = len(pat)
    limit = len(text) - m
    first_only = query.mode is Mode.FIRST_MATCH
    shifts = build_shift_table(pat)
    first, rest = order[0], order[1:]
    first_byte = pat[first]
    last = m - 1
    positions: list[int] = []
    windows: list[tuple[int, int, bool]] | None = [] if record_windows else None
    alignments = hits = extra = 0

    pos = 0
    while pos <= limit:
        alignments += 1
        cost = 1
        hit = text[pos + first] == first_byte
        if hit:
            hits += 1
            for i in rest:
                cost += 1
                if text[pos + i] != pat[i]:
                    break
            else:
                positions.append(pos)
            extra += cost - 1
        if windows is not None:
            windows.append((pos, cost, hit and anchored))
        if first_only and positions:
            break
        pos += shifts[text[pos + last]]

    return SearchOutcome(
        positions=positions,
        comparisons=alignments + extra,
        alignments=alignments,
        anchor_hits=hits if anchored else 0,
        windows=windows,
    )


def bmh_search(query: SearchQuery, record_windows: bool = False) -> SearchOutcome:
    """Boyer-Moore-Horspool: verify right to left, shift by the
    bad-character rule on the last window byte."""
    m = len(query.pattern)
    return _horspool_walk(query, range(m - 1, -1, -1), anchored=False, record_windows=record_windows)


def fbas_search(
    query: SearchQuery,
    table: FrequencyTable | None = None,
    record_windows: bool = False,
) -> SearchOutcome:
    """Anchor-first Horspool search.

    Each window first tests the anchor byte (one comparison). Only on
    an anchor hit are the remaining positions verified, left to right,
    skipping the anchor and stopping at the first mismatch, so a full
    match costs exactly m comparisons and an anchor miss exactly one.
    Shifts use the same bad-character rule as bmh_search, on the last
    window byte, whether or not the window matched.
    """
    a = select_anchor(query.pattern, table).index
    order = [a, *(i for i in range(len(query.pattern)) if i != a)]
    return _horspool_walk(query, order, anchored=True, record_windows=record_windows)


ALGORITHMS = ("naive", "kmp", "bmh", "fbas")


def search(
    query: SearchQuery,
    algorithm: str = "fbas",
    table: FrequencyTable | None = None,
) -> SearchOutcome:
    """Run one of the four matchers by name."""
    if algorithm == "fbas":
        return fbas_search(query, table)
    if algorithm == "naive":
        return naive_search(query)
    if algorithm == "kmp":
        return kmp_search(query)
    if algorithm == "bmh":
        return bmh_search(query)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


@dataclass(frozen=True)
class ComparisonEstimate:
    """Expected per-window comparison cost for an anchor-first search."""

    match_probability: float
    pattern_length: int
    expected_comparisons: float


def expected_comparisons(match_probability: float, pattern_length: int) -> ComparisonEstimate:
    """Model of the mean window cost: 1 + p * (m - 1).

    One comparison always happens (the first position tested); with
    probability p it matches and the remaining m - 1 positions are
    charged. Early mismatch stopping makes the model exact for m <= 2
    and an upper bound for longer patterns.
    """
    if not 0.0 <= match_probability <= 1.0:
        raise InvalidProbability(f"match probability must be in [0, 1], got {match_probability}")
    if pattern_length < 1:
        raise EmptyPattern("pattern length must be at least 1")
    return ComparisonEstimate(
        match_probability=match_probability,
        pattern_length=pattern_length,
        expected_comparisons=1.0 + match_probability * (pattern_length - 1),
    )


def char_probability(text, c) -> float:
    """Relative frequency of byte c in text, byte-exact (no case folding)."""
    data = as_bytes(text)
    if not data:
        raise EmptyCorpus("cannot estimate a probability from empty text")
    return data.count(byte_value(c)) / len(data)

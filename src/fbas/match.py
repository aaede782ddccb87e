"""Exact string matchers instrumented to count character comparisons.

Four matchers share one interface: naive scan, Knuth-Morris-Pratt,
Boyer-Moore-Horspool, and the anchor-first Horspool variant (fbas).
All of them operate on raw bytes, return 0-based byte offsets, and
count every text-byte vs pattern-byte equality test made during the
search phase. Preprocessing comparisons are not counted. In
FIRST_MATCH every matcher reads the text only up to the end of the
first occurrence, as ``bytes.find`` finds it, so its counts are those
of ALL_MATCHES over that prefix. The naive and KMP matchers count with
``bytes.count`` the windows or bytes that start with a prefix of the
pattern in which ``pat[0]`` does not recur, and run Python only from
that prefix's occurrences, found by ``bytes.find``, so their counts are
those of a per-window loop at a fraction of its time.

The fbas matcher keeps Horspool's bad-character shift rule untouched
and changes only the verification order inside a window: the pattern's
rarest byte (the anchor) is tested first, so a window whose anchor
mismatches is rejected after exactly one comparison. Both Horspool
matchers run one walk that takes the verification order as data, a
list of all m pattern indices: bmh passes m-1 down to 0, fbas the
anchor and then the other indices left to right. The walk shifts on
the window's last byte whatever the order, so the two examine the same
sequence of windows by construction. The walk runs its windows in
blocks that need no bound test, no count and no new int per window,
and when the first test is on the shift byte (always for bmh) it reads
that byte once for the test and the shift. The loops keep counts only:
a window whose first test misses costs one comparison, so the misses
need no bookkeeping beyond ``alignments``, and a window whose first
test hits adds what its other tests cost in one step.
"""
from __future__ import annotations

import enum
from collections import namedtuple
from itertools import repeat
from types import SimpleNamespace

from ._bytes import as_bytes, byte_value
from .errors import EmptyCorpus, EmptyPattern, InvalidProbability
from .freq import AnchorSelection, FrequencyTable, select_anchor


class Mode(enum.Enum):
    """Stop at the first match, or enumerate all (including overlapping).

    FIRST_MATCH searches the text up to the end of the first occurrence,
    as ``bytes.find`` finds it, and counts as ALL_MATCHES over that prefix.
    """

    FIRST_MATCH = "first"
    ALL_MATCHES = "all"


class SearchQuery(SimpleNamespace):
    """A text/pattern pair plus the match mode.

    Strings are coerced to UTF-8 bytes and a mode given by its value
    (``"first"``, ``"all"``) to its ``Mode``; any other mode raises
    ValueError. The pattern must be non-empty; the text may be shorter
    than the pattern, in which case searches return an empty outcome. A
    FIRST_MATCH search reads the text up to the first match's end only.
    A query is mutable and unhashable, and equals any namespace with
    the same attributes.
    """

    def __init__(self, text: bytes | str, pattern: bytes | str,
                 mode: Mode | str = Mode.ALL_MATCHES):
        self.text = as_bytes(text)
        self.pattern = as_bytes(pattern)
        self.mode = Mode(mode)
        if not self.pattern:
            raise EmptyPattern("pattern must contain at least one byte")

    # SimpleNamespace pickles and copies by calling the class with no
    # arguments, which __init__ rejects; object's way skips __init__.
    __reduce__ = object.__reduce__


class SearchOutcome(SimpleNamespace):
    """Match positions plus instrumentation for one search.

    ``alignments`` counts window positions examined. ``anchor`` is the
    position the fbas matcher verified first in every window, and
    ``anchor_hits`` counts the windows where it matched; the other three
    matchers leave them None and 0. For fbas, the
    ``alignments - anchor_hits`` misses cost one comparison each and the
    hits cost the rest of ``comparisons``. ``positions`` defaults to a
    new empty list. Like a query, an outcome is mutable and unhashable.
    """

    def __init__(
        self,
        positions: list[int] | None = None,
        comparisons: int = 0,
        alignments: int = 0,
        anchor_hits: int = 0,
        anchor: AnchorSelection | None = None,
    ):
        self.positions = [] if positions is None else positions
        self.comparisons = comparisons
        self.alignments = alignments
        self.anchor_hits = anchor_hits
        self.anchor = anchor

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


def _end(query: SearchQuery) -> int:
    """The text's length, or in FIRST_MATCH the end of the first match, if any."""
    if query.mode is Mode.FIRST_MATCH and (first := query.text.find(query.pattern)) >= 0:
        return first + len(query.pattern)
    return len(query.text)


# naive_search stops counting at a level that at most one window in
# 2**_SPARSE_SHIFT starts with.
_SPARSE_SHIFT = 8


def naive_search(query: SearchQuery) -> SearchOutcome:
    """Check every window left to right; the correctness oracle for the rest.

    A window costs one comparison per byte of its common prefix with the
    pattern, plus the mismatching one: ``min(lcp + 1, m)``. Summed over
    the windows that is ``alignments + Σ lcp − matches``, and ``Σ lcp``
    is the sum over h of the windows that start with ``pat[:h]``. They
    cannot overlap while ``pat[0]`` does not recur in ``pat[:h]``, so
    ``bytes.count`` counts them exactly (Hume & Sunday's skip loop, 1991,
    level by level). Counting goes up a level while ``pat[0]`` does not
    recur there and more than one window in 256 starts with the level
    below; the windows that start with the last level counted are then
    verified in Python. The counts do not depend on where it stops.
    """
    text, pat = query.text, query.pattern
    m = len(pat)
    last = _end(query) - m  # the last window examined
    if last < 0:
        return SearchOutcome()
    positions: list[int] = []
    lcp_sum = 0
    for h in range(1, m + 1):
        windows = text.count(pat[:h], 0, last + h)
        lcp_sum += windows
        if h == m or pat[h] == pat[0] or windows <= last >> _SPARSE_SHIFT:
            break

    if windows:
        head, stop = pat[:h], last + h
        pos = text.find(head, 0, stop)
        while pos >= 0:
            k = h
            while k < m and text[pos + k] == pat[k]:
                k += 1
            lcp_sum += k - h
            if k == m:
                positions.append(pos)
            pos = text.find(head, pos + 1, stop)

    alignments = last + 1
    return SearchOutcome(
        positions=positions, comparisons=alignments + lcp_sum - len(positions), alignments=alignments
    )


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


def _prefix_counts(text: bytes, prefixes: list[bytes], start: int, last: int) -> list[int]:
    """How many windows starting in ``[start, last]`` begin with each of
    KMP's ``prefixes`` (``pat[:1]``, ``pat[:2]``, ... short of where
    ``pat[0]`` first recurs), up to the first that none begins with.
    Their occurrences cannot overlap, so ``bytes.count`` finds every one.
    """
    counts = []
    for k, prefix in enumerate(prefixes, 1):
        windows = text.count(prefix, start, last + k)
        if not windows:
            break
        counts.append(windows)
    return counts


def kmp_search(query: SearchQuery) -> SearchOutcome:
    """Knuth-Morris-Pratt with the classic failure function.

    Only search-phase comparisons are counted; building the failure
    function is preprocessing. An alignment here is a distinct value of
    the implicit window start (text index minus pattern index) at which
    at least one comparison was made. Above state 0 a window start
    moves, and an alignment is counted, after a mismatch or a full match
    that leaves a state above 0.

    ``top`` is where ``pat[0]`` first recurs in the pattern, or m. Whenever
    the state falls to 0, the scan goes on at the next ``pat[:top]``,
    found by ``bytes.find``, in state ``top`` just past it. The stretch
    skipped on the way is charged in bulk. As ``pat[0]`` does not recur
    in ``pat[1:top]``, each ``pat[0]`` in the stretch starts a partial
    match that fails inside it, at one miss (unless the text ends
    first), and no two partial matches overlap. So ``bytes.count`` of
    ``pat[:l]`` for l >= 2 gives the bytes matched above state 0, and
    every other byte of the stretch is one comparison at a new alignment,
    read at state 0. The counts are those of a per-byte loop.
    """
    text, pat = query.text, query.pattern
    n, m = _end(query), len(pat)
    if n < m:
        return SearchOutcome()
    fail = _failure_function(pat)
    top = pat.find(pat[:1], 1)  # where pat[0] first recurs
    top = m if top < 0 else top
    head = pat[:top]
    partials = [pat[:k] for k in range(1, top)]  # all a stretch can hold of the pattern
    positions: list[int] = []
    scanned = misses = moves = 0

    i = j = 0
    while i < n:
        if j == 0:
            k = text.find(head, i)
            end = n if k < 0 else k
            scanned += end - i
            if levels := _prefix_counts(text, partials, i, end - 1):
                misses += levels[0]
                scanned -= sum(levels) - levels[0]
                tail = n - text.rfind(pat[0], i) if k < 0 else m  # from the last pat[0] on
                if tail < m and text.startswith(pat[:tail], n - tail):
                    misses -= 1  # the text ends inside the last partial match
            if k < 0:
                i = n
                break
            scanned += 1  # the pat[0] at k, read at state 0
            i, j = k + top, top
        elif text[i] == pat[j]:
            i += 1
            j += 1
        else:
            misses += 1
            j = fail[j - 1]
            if j:
                moves += 1
            continue
        if j == m:
            positions.append(i - m)
            j = fail[j - 1]
            if j and i < n:
                moves += 1

    # Each text byte read at state 0 or matched at a state above 0 moved
    # i on by one; the misses at a state above 0 did not.
    comparisons, alignments = i + misses, scanned + moves
    return SearchOutcome(positions=positions, comparisons=comparisons, alignments=alignments)


def _horspool_walk(
    query: SearchQuery, order: list[int] | range
) -> tuple[list[int], int, int, int]:
    """Visit Horspool's windows, testing the pattern indices of each in ``order``.

    ``order`` lists all m indices; testing stops at the first mismatch.
    Returns ``(positions, comparisons, alignments, first_test_hits)``. A
    window whose first test misses costs one comparison and is counted
    by ``alignments`` alone; only a hit does more work.

    A window is tracked by ``a``, the text index of its first-tested
    byte. The shift byte, the window's last, is ``back`` bytes after
    ``a``. The shift comes from that byte alone, so the window sequence
    depends on the text and pattern, never on the order.

    Every shift is at most m, so from ``a`` the next ``(stop - a) // m``
    windows (at least one) all start before ``stop``, ``back`` bytes
    short of where the search stops reading. They run as one block, with
    no bound test and no count per window, over ``repeat(None, block)``,
    which yields the same object each time where ``range`` makes a new
    int for every window past the 256th (CPython caches only small ints).
    The block is counted when it ends. Two copies of the block differ
    only in how a window reads its bytes. When the first test is on the
    shift byte (``back == 0``: always for bmh), the byte is read once and
    serves both the test and the shift. Otherwise the shift byte is read
    through a zero-copy view of the text that starts ``back`` bytes in,
    so no window adds ``back``. Each copy verifies its hits in place:
    ending the block at every hit and verifying once after it made the
    walk 1.5 times slower on 2- and 4-letter text.

    A hit tests the order's second index inline, then walks the rest as
    (offset from ``a``, pattern byte, rank) triples built once per call,
    the second index being rank 1. A hit adds 1 when the second test
    misses, the rank of a later test that misses, and m - 1 when the
    window matches. For m = 1 the second test is the first one again:
    it holds on every hit and is never charged.
    """
    text, pat = query.text, query.pattern
    shifts = build_shift_table(pat)
    m = len(pat)
    first = order[0]
    back = m - 1 - first  # from the first-tested byte to the shift byte
    first_byte = pat[first]
    second = order[1] if m > 1 else first  # for m = 1, the first test again
    second_offset, second_byte = second - first, pat[second]
    checks = [(i - first, pat[i], k) for k, i in enumerate(order[2:], 2)]
    shift_bytes = memoryview(text)[back:]  # shift_bytes[a] is text[a + back]
    positions: list[int] = []
    alignments = hits = extra = 0

    a, stop = first, _end(query) - back
    while a < stop:
        block = (stop - a) // m or 1  # every shift is at most m
        if back:
            for _ in repeat(None, block):
                if text[a] == first_byte:
                    hits += 1
                    if text[a + second_offset] != second_byte:
                        extra += 1
                    else:
                        for offset, byte, k in checks:
                            if text[a + offset] != byte:
                                extra += k
                                break
                        else:
                            extra += m - 1
                            positions.append(a - first)
                a += shifts[shift_bytes[a]]
        else:
            for _ in repeat(None, block):
                c = text[a]
                if c == first_byte:
                    hits += 1
                    if text[a + second_offset] != second_byte:
                        extra += 1
                    else:
                        for offset, byte, k in checks:
                            if text[a + offset] != byte:
                                extra += k
                                break
                        else:
                            extra += m - 1
                            positions.append(a - first)
                a += shifts[c]
        alignments += block

    return positions, alignments + extra, alignments, hits


def bmh_search(query: SearchQuery) -> SearchOutcome:
    """Boyer-Moore-Horspool: verify right to left, shift by the
    bad-character rule on the last window byte."""
    order = range(len(query.pattern) - 1, -1, -1)
    positions, comparisons, alignments, _ = _horspool_walk(query, order)
    return SearchOutcome(positions, comparisons, alignments)


def fbas_search(query: SearchQuery, table: FrequencyTable | None = None) -> SearchOutcome:
    """Anchor-first Horspool search.

    Each window first tests the anchor byte (one comparison). Only on
    an anchor hit are the remaining positions verified, left to right,
    skipping the anchor and stopping at the first mismatch, so a full
    match costs exactly m comparisons and an anchor miss exactly one.
    Shifts use the same bad-character rule as bmh_search, on the last
    window byte, whether or not the window matched. The anchor, chosen
    once by ``select_anchor(pattern, table)``, is returned as
    ``outcome.anchor``.
    """
    anchor = select_anchor(query.pattern, table)
    order = [anchor.index, *(i for i in range(len(query.pattern)) if i != anchor.index)]
    return SearchOutcome(*_horspool_walk(query, order), anchor)


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


class ComparisonEstimate(namedtuple("ComparisonEstimate", "expected_comparisons")):
    """Expected per-window comparison cost for an anchor-first search."""

    __slots__ = ()


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
    return ComparisonEstimate(1.0 + match_probability * (pattern_length - 1))


def char_probability(text, c) -> float:
    """Relative frequency of byte c in text, byte-exact (no case folding)."""
    data = as_bytes(text)
    if not data:
        raise EmptyCorpus("cannot estimate a probability from empty text")
    return data.count(byte_value(c)) / len(data)

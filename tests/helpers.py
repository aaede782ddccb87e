"""Shared test helpers: an independent match oracle, the per-window
reference matchers, the inverse of the printed byte form and a CLI
runner."""
from __future__ import annotations

import contextlib
import io
import re
import sys
from collections.abc import Sequence

from fbas.cli import main
from fbas.freq import AnchorSelection
from fbas.match import Mode, SearchOutcome, SearchQuery


# Reference comparison counts for the classic 12-pattern benchmark over the
# full Divina Commedia (551,846 bytes). Arithmetic fixtures only: the derived
# statistics must reproduce the reference improvement percentages from these
# counts. (label, length, naive, kmp, bmh, fbas, improvement_pct)
KNOWN_BENCHMARK_ROWS = [
    ("inferno",       7,   13269,   12334,    2260,    2247, 0.58),
    ("paradiso",      8,  192754,  188270,   30357,   29711, 2.13),
    ("purgatorio",   10,  223283,  218785,   30211,   28711, 4.97),
    ("beatrice",      8,  555464,  551846,   92715,   86111, 7.12),
    ("dante",         5,  565860,  549395,  135666,  129119, 4.83),
    ("virtute",       7,    4161,    4078,     717,     699, 2.51),
    ("canoscenza",   10,  144380,  138566,   18400,   17175, 6.66),
    ("nel mezzo",     9,   46088,   43679,    6243,    5815, 6.86),
    ("selva oscura", 12,     147,     146,      29,      27, 6.90),
    ("amor",          4,    1707,    1557,     460,     449, 2.39),
    ("luce",          4,   10184,    9733,    2802,    2723, 2.82),
    ("dolce",         5,    1740,    1701,     415,     407, 1.93),
]
KNOWN_TOTALS = (1759037, 1720090, 320275, 303194)


def oracle_positions(text: bytes, pattern: bytes, first_only: bool = False) -> list[int]:
    """Slicing-based brute-force oracle, independent of the library's matchers."""
    m = len(pattern)
    found = []
    for i in range(len(text) - m + 1):
        if text[i:i + m] == pattern:
            found.append(i)
            if first_only:
                break
    return found


# The per-window loops that the package's matchers replace: naive and
# KMP visit every window and every text byte in Python, and the Horspool
# walk records every window it examines. Their counts hold by
# inspection; the package's matchers must reproduce them exactly. They
# build their failure function and shifts from the definitions, so they
# share no code with the matchers they check.


def per_window_naive_search(query: SearchQuery) -> SearchOutcome:
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


def per_window_kmp_search(query: SearchQuery) -> SearchOutcome:
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
    # fail[i]: the length of the longest proper border of pat[:i + 1].
    fail = [max(k for k in range(i + 1) if pat[:k] == pat[i + 1 - k:i + 1]) for i in range(m)]
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


def per_window_horspool_walk(
    query: SearchQuery, anchor: AnchorSelection | None = None, order: Sequence[int] | None = None
) -> tuple[SearchOutcome, list[tuple[int, int, bool]]]:
    """Horspool's walk with a per-window trace, testing each window's
    pattern indices in ``order``: ``bmh_search`` when neither ``anchor``
    nor ``order`` is given, ``fbas_search`` with ``anchor``, and the
    package's walk with ``order`` alone.

    Returns the outcome and one ``(position, cost, first_test_hit)``
    tuple per examined window, in order; the costs sum to
    ``comparisons``. First-test hits are counted in ``anchor_hits`` and
    flagged in the trace unless the order is bmh's default.
    """
    text, pat = query.text, query.pattern
    m = len(pat)
    limit = len(text) - m
    first_only = query.mode is Mode.FIRST_MATCH
    counts_hits = anchor is not None or order is not None
    if anchor is not None:
        order = [anchor.index] + [i for i in range(m) if i != anchor.index]
    elif order is None:
        order = range(m - 1, -1, -1)
    first, rest = order[0], order[1:]
    first_byte = pat[first]
    last = m - 1
    positions: list[int] = []
    windows: list[tuple[int, int, bool]] = []
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
        windows.append((pos, cost, hit and counts_hits))
        if first_only and positions:
            break
        # Horspool's shift: from the last occurrence of the window's last
        # byte in pat[:m - 1] to the pattern's end, or m when it has none.
        pos += m - 1 - pat.rfind(text[pos + last], 0, m - 1)

    outcome = SearchOutcome(
        positions=positions,
        comparisons=alignments + extra,
        alignments=alignments,
        anchor_hits=hits if counts_hits else 0,
        anchor=anchor,
    )
    return outcome, windows


def unshow(text: str) -> bytes:
    """The bytes that ``fbas._bytes.show`` printed as ``text``: ``\\\\`` is
    a backslash, ``\\xNN`` the byte NN, and any other character its
    UTF-8 bytes."""
    return b"".join(
        b"\\" if token == "\\\\"
        else bytes.fromhex(token[2:]) if token.startswith("\\x")
        else token.encode()
        for token in re.findall(r"\\\\|\\x[0-9a-f]{2}|.", text, re.DOTALL)
    )


def run_cli(argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
    """Invoke the CLI entry point in-process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()

"""Character rarity scoring and anchor selection.

A frequency table maps byte values to integer rarity scores in 1..50,
lower meaning rarer. The built-in table ranks the 26 lowercase ASCII
letters for mixed English/Italian text; every other byte scores the
neutral default of 50. The anchor of a pattern is the position of its
rarest byte under a table, which the anchor-first matcher verifies
before anything else in each window.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._bytes import as_bytes, byte_value, display_byte, read_source
from .errors import EmptyCorpus, EmptyPattern

DEFAULT_SCORE = 50
MIN_SCORE = 1
MAX_SCORE = 50

# Lowercase letters ordered rarest first; positions give scores 1..24.
# 'a' and 'e' sit apart at 28 and 29, so 25..27 are deliberately unused.
_RARITY_ORDER = "zjxqkwyvfbghpmduclsnrtio"


@dataclass(frozen=True)
class FrequencyTable:
    """Immutable mapping from byte values to rarity scores.

    Lookup is total: bytes without an explicit entry score ``DEFAULT_SCORE``.
    Safe to share across concurrent searches.
    """

    entries: Mapping[int, int]
    name: str = "custom"

    def __post_init__(self):
        for b, s in self.entries.items():
            if not 0 <= b <= 255:
                raise ValueError(f"entry key is not a byte: {b}")
            if not MIN_SCORE <= s <= MAX_SCORE:
                raise ValueError(f"score for byte {b} out of range 1..50: {s}")
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def score(self, c) -> int:
        """Rarity score of a character.

        Uppercase ASCII letters are lowercased before lookup; all other
        bytes (including non-ASCII) are looked up as-is. Absent bytes
        score the default of 50.
        """
        b = byte_value(c)
        if 0x41 <= b <= 0x5A:
            b += 0x20
        return self.entries.get(b, DEFAULT_SCORE)


@dataclass(frozen=True)
class AnchorSelection:
    """The pattern position chosen for anchor-first verification.

    ``character`` is the original pattern byte (not lowercased);
    ``score`` is the table score of its lowercased form.
    """

    index: int
    character: int
    score: int

    @property
    def char(self) -> str:
        return chr(self.character)


_DEFAULT_ENTRIES = {ord(ch): i + 1 for i, ch in enumerate(_RARITY_ORDER)}
_DEFAULT_ENTRIES[ord("a")] = 28
_DEFAULT_ENTRIES[ord("e")] = 29

_DEFAULT_TABLE = FrequencyTable(_DEFAULT_ENTRIES, name="default")


def default_table() -> FrequencyTable:
    """The built-in English/Italian rarity table.

    Exactly the 26 lowercase letters have entries, rarest first:
    z=1, j=2, x=3, q=4, k=5, w=6, y=7, v=8, f=9, b=10, g=11, h=12,
    p=13, m=14, d=15, u=16, c=17, l=18, s=19, n=20, r=21, t=22,
    i=23, o=24, a=28, e=29.
    """
    return _DEFAULT_TABLE


def table_from_corpus(text, name: str = "corpus") -> FrequencyTable:
    """Rank letters by their observed counts in ``text``.

    Counts lowercased ASCII letters only. Letters that occur at least
    once get scores 1..k ordered by ascending count, ties broken by
    ascending byte value; absent letters and non-letters default to 50.
    """
    data = as_bytes(text)
    if not data:
        raise EmptyCorpus("cannot derive a frequency table from empty text")
    counts = Counter(data.lower())
    letters = [b for b in counts if ord("a") <= b <= ord("z")]
    letters.sort(key=lambda b: (counts[b], b))
    return FrequencyTable({b: rank + 1 for rank, b in enumerate(letters)}, name=name)


def select_anchor(pattern, table: FrequencyTable | None = None) -> AnchorSelection:
    """Pick the pattern position with the minimum rarity score.

    A single left-to-right pass keeps the first position whose score is
    strictly smaller than the running minimum, so ties resolve to the
    earliest index.
    """
    pat = as_bytes(pattern)
    if not pat:
        raise EmptyPattern("cannot select an anchor in an empty pattern")
    if table is None:
        table = _DEFAULT_TABLE
    best_index = 0
    best_score = table.score(pat[0])
    for i in range(1, len(pat)):
        s = table.score(pat[i])
        if s < best_score:
            best_score = s
            best_index = i
    return AnchorSelection(index=best_index, character=pat[best_index], score=best_score)


def _file_key(b: int) -> str:
    # '#' would read as a comment and a literal uppercase letter loads as its
    # lowercase letter, so both are escaped along with the non-printable bytes.
    if b == 0x23 or 0x41 <= b <= 0x5A:
        return f"\\x{b:02x}"
    return display_byte(b)


def format_table(table: FrequencyTable) -> str:
    """Render a table in the loadable file format, one ``<char>\\t<score>``
    line per entry, ordered by ascending score then byte value.

    Printable ASCII bytes are written as themselves; control bytes,
    non-ASCII bytes, '#' and uppercase letters as ``\\xNN``, so that
    ``load_table`` gives back exactly the same entries.
    """
    lines = [
        f"{_file_key(b)}\t{s}"
        for b, s in sorted(table.entries.items(), key=lambda kv: (kv[1], kv[0]))
    ]
    return "\n".join(lines) + "\n" if lines else ""


_ESCAPED_KEY = re.compile(r"\\x([0-9a-fA-F]{2})")


def load_table(source, name: str | None = None) -> FrequencyTable:
    """Load a custom table from a file path, '-' (stdin), or a stream.

    Format: one entry per line as ``<key><TAB><score>``, UTF-8, scores
    1..50. A key is one ASCII character or a byte written as ``\\xNN``
    (two hex digits). Non-ASCII characters are rejected: a table scores
    single bytes, and the UTF-8 bytes of such a character would never
    match it. Lines starting with '#' and blank lines are ignored.
    Unlisted bytes default to 50. Literal uppercase ASCII letters fold to
    lowercase, matching how scores are looked up; escaped bytes are kept
    as written. Raises IoFailure when the source cannot be read.
    """
    data, src_name = read_source(source, "frequency table")
    label = name or Path(src_name).name
    text = data.decode("utf-8")

    entries: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        key, sep, score_text = line.partition("\t")
        escaped = _ESCAPED_KEY.fullmatch(key)
        if not sep or not (escaped or len(key) == 1):
            raise ValueError(f"line {lineno}: expected '<character><TAB><score>', got {line!r}")
        if escaped:
            code = int(escaped.group(1), 16)
        elif key.isascii():
            code = ord(key.lower())
        else:
            raise ValueError(
                f"line {lineno}: {key!r} is not an ASCII character; write a byte as \\xNN"
            )
        score = int(score_text.strip())
        if not MIN_SCORE <= score <= MAX_SCORE:
            raise ValueError(f"line {lineno}: score {score} out of range 1..50")
        entries[code] = score
    return FrequencyTable(entries, name=label)

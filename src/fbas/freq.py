"""Character rarity scoring and anchor selection.

A frequency table maps byte values to integer rarity scores in 1..50,
lower meaning rarer. The built-in table ranks the 26 lowercase ASCII
letters for mixed English/Italian text; every other byte scores the
neutral default of 50. The anchor of a pattern is the position of its
rarest byte under a table, which the anchor-first matcher verifies
before anything else in each window.
"""
from __future__ import annotations

import os
import re
from collections import Counter, namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from ._bytes import as_bytes, byte_value, read_source, show
from ._record import Constructed
from .errors import EmptyCorpus, EmptyPattern

DEFAULT_SCORE = 50
MIN_SCORE = 1
MAX_SCORE = 50

# Lowercase letters ordered rarest first; positions give scores 1..24.
# 'a' and 'e' sit apart at 28 and 29, so 25..27 are deliberately unused.
_RARITY_ORDER = "zjxqkwyvfbghpmduclsnrtio"

# Byte value -> the byte it scores as: A-Z map to a-z, all else to itself.
_FOLD = bytes(range(256)).lower()


class FrequencyTable(Constructed, namedtuple("FrequencyTable", "entries name scores")):
    """Immutable mapping from byte values to rarity scores.

    Uppercase ASCII keys fold to their lowercase letter; when two keys
    fold together, the later one wins. ``scores`` holds the score of
    every byte, indexed by byte value: an uppercase letter scores as its
    lowercase letter and a byte without an entry scores ``DEFAULT_SCORE``.
    Safe to share across concurrent searches, and hashable: equal tables
    have equal ``scores``, which stand in for ``entries`` in the hash.
    """

    __slots__ = ()
    _derived = ("scores",)

    def __new__(cls, entries: Mapping[int, int], name: str = "custom"):
        folded = {}
        for b, s in entries.items():
            if type(b) is not int or not 0 <= b <= 255:
                raise ValueError(f"entry key is not a byte: {b!r}")
            if type(s) is not int or not MIN_SCORE <= s <= MAX_SCORE:
                raise ValueError(f"score for byte {b} is not an integer in 1..50: {s!r}")
            folded[_FOLD[b]] = s
        scores = bytes(folded.get(f, DEFAULT_SCORE) for f in _FOLD)
        return tuple.__new__(cls, (MappingProxyType(folded), name, scores))

    def __hash__(self):
        return hash((self.name, self.scores))

    def __repr__(self):
        return f"{type(self).__name__}(entries={self.entries!r}, name={self.name!r})"

    def __getnewargs__(self):
        # Pickle cannot take the entries proxy; the constructor takes a dict.
        return dict(self.entries), self.name

    def score(self, c) -> int:
        """Rarity score of a character (str/bytes of length 1, or int 0..255)."""
        return self.scores[byte_value(c)]


class AnchorSelection(namedtuple("AnchorSelection", "index character score")):
    """The pattern position chosen for anchor-first verification.

    ``character`` is the pattern byte as written; ``score`` is its
    table score. ``char`` is the byte as ``show`` prints it: printable
    ASCII as itself, a backslash as ``\\\\`` and any other byte as
    ``\\xNN``.
    """

    __slots__ = ()

    @property
    def char(self) -> str:
        return show(bytes((self.character,)))


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

    Ties resolve to the earliest index.
    """
    pat = as_bytes(pattern)
    if not pat:
        raise EmptyPattern("cannot select an anchor in an empty pattern")
    if table is None:
        table = _DEFAULT_TABLE
    ranked = pat.translate(table.scores)
    best = min(ranked)
    index = ranked.index(best)
    return AnchorSelection(index=index, character=pat[index], score=best)


def _file_key(b: int) -> str:
    # '#' would read as a comment, and a key is one character or one escape.
    return f"\\x{b:02x}" if b in b"#\\" else show(bytes((b,)))


def format_table(table: FrequencyTable) -> str:
    """Render a table in the loadable file format, one ``<char>\\t<score>``
    line per entry, ordered by ascending score then byte value.

    Printable ASCII bytes are written as themselves; control bytes,
    non-ASCII bytes, '#' and '\\' as ``\\xNN``, so that ``load_table``
    gives back exactly the same entries.
    """
    lines = [
        f"{_file_key(b)}\t{s}"
        for b, s in sorted(table.entries.items(), key=lambda kv: (kv[1], kv[0]))
    ]
    return "\n".join(lines) + "\n" if lines else ""


_ESCAPED_KEY = re.compile(r"\\x([0-9a-fA-F]{2})")


def load_table(source) -> FrequencyTable:
    """Load a custom table from a file path, '-' (stdin), or a stream.

    Format: one entry per line as ``<key><TAB><score>``, UTF-8 (one
    leading byte-order mark is dropped), scores 1..50 in ASCII digits.
    A line ends at LF, CR LF or CR only, so a comment may hold any
    other character.
    A key is one ASCII character or a byte written as ``\\xNN`` (two
    hex digits). Non-ASCII characters are rejected: a table scores
    single bytes, and the UTF-8 bytes of such a character would never
    match it. Lines starting with '#' and blank lines are ignored.
    Unlisted bytes default to 50. The table is named after the base
    name of the source (``<stdin>`` for '-'). Raises IoFailure when the
    source cannot be read.
    """
    data, src_name = read_source(source, "frequency table")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"frequency table {src_name} is not UTF-8: {exc}") from exc

    entries: dict[int, int] = {}
    for lineno, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        if not line or line.startswith("#"):
            continue
        key, sep, score_text = line.partition("\t")
        escaped = _ESCAPED_KEY.fullmatch(key)
        if not sep or not (escaped or len(key) == 1):
            raise ValueError(f"line {lineno}: expected '<character><TAB><score>', got {line!r}")
        if escaped:
            code = int(escaped.group(1), 16)
        elif key.isascii():
            code = ord(key)
        else:
            raise ValueError(
                f"line {lineno}: {key!r} is not an ASCII character; write a byte as \\xNN"
            )
        digits = score_text.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"line {lineno}: score {score_text!r} is not an integer")
        score = int(digits)
        if not MIN_SCORE <= score <= MAX_SCORE:
            raise ValueError(f"line {lineno}: score {score} out of range 1..50")
        entries[code] = score
    return FrequencyTable(entries, name=os.path.basename(src_name))

"""The benchmark's workloads: their inputs, made from a seed, and their operations.

Each synthetic workload has a fixed pool of input variants, and the
committed ``reference.json`` holds counts and position digests for every
operation of every variant. ``--seed`` picks the variant (seed modulo the
pool size) and the order of the operations within a cycle, so the same
seed always gives the same inputs and every input has committed counts.

- italian-bench: ``fbas bench --format json`` over data/italian_sample.txt
  (12,272 B), ALL_MATCHES, once per pattern of data/patterns12.txt in
  seeded order. The paper-reproduction path at 1/46 of the paper table's
  scale (the sample repeated 46 times, whose counts the self-test checks):
  a per-pattern call over the 46-fold corpus takes 0.3-0.6 s, and on a
  shared host calls that long cannot be timed steadily. Naive and KMP take
  most of its matcher time.
- search-walk: ``match.search`` (fbas, bmh) over 64 KiB corpora of random
  bytes (256-byte alphabet) and random letters (26), patterns m = 8..64,
  half cut from the text and half random, ALL_MATCHES. Long shifts, rare
  anchor hits: the alignment walk does nearly all the work. The 256-byte
  corpus goes through ``match.search``, not the CLI: ``fbas search`` takes
  its pattern from argv as UTF-8 text, so ``$'\\xe0'`` exits 2
  ("surrogates not allowed") and ``à`` is searched as its two UTF-8 bytes;
  the CLI cannot express an arbitrary byte pattern.
- search-verify: the same calls over 32 KiB corpora of 2- and 4-byte
  alphabets, m = 2..16, many matches. Short shifts, frequent anchor hits:
  window verification dominates.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from fbas.match import Mode

from harness import CliOp, SearchOp, check_bench_json, entry_key

VARIANTS = {"italian-bench": 1, "search-walk": 4, "search-verify": 4}
NAMES = tuple(VARIANTS)

WALK_SIZE = 1 << 16
WALK_LENGTHS = (8, 12, 16, 24, 32, 48, 64)
VERIFY_SIZE = 1 << 15
VERIFY_LENGTHS = (2, 3, 4, 6, 8, 12, 16)
PATTERNS_PER_LENGTH = 2  # of each origin: cut from the text, and random
SEARCH_ALGOS = ("fbas", "bmh")


@dataclass
class Workload:
    name: str
    seed: int
    variant: int
    mode: Mode
    ops: list
    inputs: dict[str, str]  # generated file or corpus name -> sha256
    texts: dict[str, bytes]  # text key -> the bytes the oracle searches


def _rng(name: str, variant: int) -> random.Random:
    return random.Random(f"fbas-benchmark/{name}/{variant}")


def _over(alphabet: bytes) -> bytes:
    """A bytes.translate table mapping random bytes onto the alphabet."""
    return bytes(alphabet[i % len(alphabet)] for i in range(256))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(name: str, seed: int, workdir: Path, data_dir: Path) -> Workload:
    """Generate the workload's inputs for this seed and write its files."""
    if name not in VARIANTS:
        raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
    variant = seed % VARIANTS[name]
    if name == "italian-bench":
        wl = _italian(seed, workdir, data_dir)
    elif name == "search-walk":
        wl = _search(name, seed, variant, WALK_SIZE, WALK_LENGTHS,
                     {"c256": bytes(range(256)), "c26": b"abcdefghijklmnopqrstuvwxyz"})
    else:
        wl = _search(name, seed, variant, VERIFY_SIZE, VERIFY_LENGTHS,
                     {"c2": b"ab", "c4": b"acgt"})
    random.Random(seed).shuffle(wl.ops)
    return wl


def _search(name, seed, variant, size, lengths, alphabets) -> Workload:
    rng = _rng(name, variant)
    ops, texts = [], {}
    for key, alphabet in alphabets.items():
        table = _over(alphabet)
        text = rng.randbytes(size).translate(table)
        texts[key] = text
        for m in lengths:
            for i in range(PATTERNS_PER_LENGTH):
                start = rng.randrange(size - m)
                for origin, pattern in (("cut", text[start:start + m]),
                                        ("rand", rng.randbytes(m).translate(table))):
                    for algo in SEARCH_ALGOS:
                        ops.append(SearchOp(f"{key}/m{m}/{origin}{i}/{algo}", key, text,
                                            pattern, Mode.ALL_MATCHES, algo))
    return Workload(name, seed, variant, Mode.ALL_MATCHES, ops,
                    {key: _sha(text) for key, text in texts.items()}, texts)


def _italian(seed, workdir: Path, data_dir: Path) -> Workload:
    corpus_path = data_dir / "italian_sample.txt"
    corpus = corpus_path.read_bytes()
    patterns = [line for line in (data_dir / "patterns12.txt").read_bytes().split(b"\n")
                if line and not line.startswith(b"#")]
    random.Random(seed).shuffle(patterns)
    ops = []
    for i, pattern in enumerate(patterns):
        path = workdir / f"pattern{i}.txt"
        path.write_bytes(pattern + b"\n")
        key = entry_key("corpus", Mode.ALL_MATCHES, pattern)
        argv = ["bench", str(corpus_path), str(path), "--format", "json"]
        ops.append(CliOp(f"bench/{pattern.decode()}", "corpus", argv, len(corpus), [key],
                         check_bench_json("corpus", Mode.ALL_MATCHES, [key])))
    return Workload("italian-bench", seed, 0, Mode.ALL_MATCHES, ops,
                    {"italian_sample.txt": _sha(corpus)}, {"corpus": corpus})


# What the traced run should show on each workload, as (claim, test on the
# per-layer metrics of that run).
PREDICTIONS = {
    "italian-bench": [
        ("naive plus kmp take at least half the traced wall time",
         lambda m: m["match.naive_search_s"] + m["match.kmp_search_s"] >= 0.5 * m["trace.wall_s"]),
    ],
    "search-walk": [
        ("naive is never called", lambda m: m["match.naive_search_s"] == 0),
        ("anchor hits are rare (rate below 0.05)", lambda m: m["match.fbas.anchor_hit_rate"] < 0.05),
    ],
    "search-verify": [
        ("naive is never called", lambda m: m["match.naive_search_s"] == 0),
        ("anchor hits are frequent (rate above 0.2)", lambda m: m["match.fbas.anchor_hit_rate"] > 0.2),
    ],
}

"""Operations, correctness checks, the closed loop and the span tracer.

Every operation goes through a public entry point of the package
(``fbas.match.search`` or ``fbas.cli.main``), looked up on its module at
call time so that the tracer's wrappers see it. One process runs one
operation at a time: each call waits for the previous one (a closed loop
with a single client).

An operation fails when it raises, exits with an unexpected code, returns
positions that differ from the ``bytes.find`` oracle, or reports a
comparison, alignment or anchor-hit count that differs from the counts
committed in ``reference.json``.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import fbas
from fbas import cli, match
from fbas.match import Mode, SearchQuery

ALGOS = ("naive", "kmp", "bmh", "fbas")
TRACED_MODULES = ("cli", "bench", "match", "freq", "metrics")
MATCHERS = {f"match.{algo}_search": algo for algo in ALGOS}


def oracle_positions(text: bytes, pattern: bytes, mode: Mode) -> list[int]:
    """Match positions by ``bytes.find``, overlapping, independent of the matchers."""
    positions = []
    pos = text.find(pattern)
    while pos >= 0:
        positions.append(pos)
        if mode is Mode.FIRST_MATCH:
            break
        pos = text.find(pattern, pos + 1)
    return positions


def positions_digest(positions: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, positions)).encode()).hexdigest()[:16]


def entry_key(text_key: str, mode: Mode, pattern: bytes) -> str:
    return f"{text_key}|{mode.value}|{pattern.hex()}"


def key_oracle(texts: dict[str, bytes], key: str) -> list[int]:
    """Oracle positions for the search an ``entry_key`` names."""
    text_key, mode, pattern = key.split("|")
    return oracle_positions(texts[text_key], bytes.fromhex(pattern), Mode(mode))


@dataclass
class Expectation:
    """What one (text, pattern, mode) search must return: the oracle's
    positions and the committed per-matcher counts."""

    positions: list[int]
    counts: dict[str, list[int]]  # algo -> [comparisons, alignments, anchor_hits]


def outcome_counts(outcome) -> list[int]:
    return [outcome.comparisons, outcome.alignments, outcome.anchor_hits]


def check_outcome(algo: str, outcome, expected: Expectation) -> str | None:
    if outcome.positions != expected.positions:
        return f"{algo} positions differ from the oracle"
    if algo in expected.counts and outcome_counts(outcome) != expected.counts[algo]:
        return f"{algo} counts {outcome_counts(outcome)} != committed {expected.counts[algo]}"
    return None


class ReferenceMismatch(Exception):
    """The generated inputs are not the ones the reference was made from."""


def expectations(workload, reference: dict) -> dict[str, Expectation]:
    """Oracle positions for every search the workload's operations make,
    checked against the committed digests, with the committed counts."""
    for key, text in workload.texts.items():
        if hashlib.sha256(text).hexdigest() != reference["texts"].get(key):
            raise ReferenceMismatch(f"text {key!r} differs from the reference")
    expect = {}
    for op in workload.ops:
        for key in op.keys:
            positions = key_oracle(workload.texts, key)
            entry = reference["entries"].get(key)
            if entry is None or entry["digest"] != positions_digest(positions):
                raise ReferenceMismatch(f"oracle positions for {key} differ from the reference")
            expect[key] = Expectation(positions, {a: entry[a] for a in ALGOS if a in entry})
    return expect


class SearchOp:
    """One ``match.search`` call over an in-memory text."""

    def __init__(self, label, text_key, text, pattern, mode, algo):
        self.label = label
        self.text_key = text_key
        self.algo = algo
        self.query = SearchQuery(text, pattern, mode)
        self.input_bytes = len(text)
        self.keys = [entry_key(text_key, mode, self.query.pattern)]

    def call(self):
        return match.search(self.query, algorithm=self.algo)

    def check(self, outcome, expect) -> str | None:
        return check_outcome(self.algo, outcome, expect[self.keys[0]])

    def stdout_bytes(self, outcome) -> int:
        return 0


class CliOp:
    """One in-process ``cli.main(argv)`` call with stdout and stderr captured.

    ``checker(rc, stdout, expect)`` returns a problem string or None.
    """

    def __init__(self, label, text_key, argv, input_bytes, keys, checker):
        self.label = label
        self.text_key = text_key
        self.argv = argv
        self.input_bytes = input_bytes
        self.keys = keys
        self.checker = checker

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(self.argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, out.getvalue()

    def check(self, result, expect) -> str | None:
        rc, stdout = result
        return self.checker(rc, stdout, expect)

    def stdout_bytes(self, result) -> int:
        return len(result[1].encode())


def check_bench_json(text_key: str, mode: Mode, keys: list[str]):
    """Checker for ``fbas bench --format json``: exit 0, one row per pattern
    searched (``keys``), and per row the committed comparison counts and the
    oracle's occurrence count."""

    def checker(rc, stdout, expect):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        try:
            rows = json.loads(stdout)["rows"]
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc}"
        for row in rows:
            expected = expect.get(entry_key(text_key, mode, row["pattern"].encode()))
            if expected is None:
                return f"unexpected pattern {row['pattern']!r}"
            if row["occurrences"] != len(expected.positions):
                return f"{row['pattern']!r}: {row['occurrences']} occurrences, oracle {len(expected.positions)}"
            for algo in ALGOS:
                if row[algo] != expected.counts[algo][0]:
                    return f"{row['pattern']!r}: {algo} {row[algo]} != committed {expected.counts[algo][0]}"
        if len(rows) != len(keys):
            return f"report has {len(rows)} rows, expected {len(keys)}"
        return None

    return checker


class Tracer:
    """Spans around the public functions of the package's modules.

    Entering the tracer replaces every public module-level function of
    ``fbas.cli``, ``bench``, ``match``, ``freq`` and ``metrics`` with a
    timing wrapper, in every module namespace that holds a reference to
    it, so calls between modules are seen too. Leaving it restores the
    originals. No package source changes. Spans stay in memory as
    ``(op_id, name, start, end, parent_index)``; matcher results are kept
    per operation so they can be checked against the reference.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = 0
        self.calls: list = []  # (algo, query, outcome) of matcher calls in the current op
        modules = [importlib.import_module(f"fbas.{m}") for m in TRACED_MODULES]
        names = {}
        for short, mod in zip(TRACED_MODULES, modules):
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    names[value] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        self._patches = [
            (mod, attr, value, wrappers[value])
            for mod in [fbas, *modules]
            for attr, value in vars(mod).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        algo = MATCHERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.op_id, name, start, end, parent)
            if algo is not None:
                self.calls.append((algo, args[0], result))
            return result

        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        return False

    def begin_op(self):
        self.op_id += 1
        self.calls = []

    def layer_times(self) -> tuple[Counter, Counter]:
        """Busy and self time per span name, summed over all spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy, self_time = Counter(), Counter()
        for index, (_, name, start, end, _) in enumerate(spans):
            busy[name] += end - start
            self_time[name] += end - start - child_time[index]
        return busy, self_time

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@dataclass
class Tally:
    """Results of the operations run in one mode (traced or untraced)."""

    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    wall_s: float = 0.0
    input_bytes: int = 0
    stdout_bytes: int = 0
    latencies: defaultdict = field(default_factory=lambda: defaultdict(list))  # op label -> times
    problems: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)  # matcher counts, traced only
    model_cost: list[tuple[float, int]] = field(default_factory=list)  # (model, alignments)

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems[f"{label}: {problem}"] += 1


def run_op(op, expect, tally: Tally, tracer: Tracer | None = None) -> None:
    """Run and time one operation, then check it (outside the timed span)."""
    if tracer is not None:
        tracer.begin_op()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # any exception is a failed operation, not a harness crash
        tally.fail(op.label, f"raised {type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter() - start
    tally.latencies[op.label].append(elapsed)
    tally.wall_s += elapsed
    tally.input_bytes += op.input_bytes
    tally.stdout_bytes += op.stdout_bytes(result)
    problem = op.check(result, expect)
    if problem is None and tracer is not None:
        problem = check_traced_calls(op, tracer.calls, expect, tally)
    if problem is not None:
        tally.fail(op.label, problem)


def check_traced_calls(op, calls, expect, tally: Tally) -> str | None:
    """Check every matcher call seen inside the op and add up its counts."""
    for algo, query, outcome in calls:
        key = entry_key(op.text_key, query.mode, query.pattern)
        if key not in expect:
            return f"{algo} searched an unexpected pattern {query.pattern!r}"
        problem = check_outcome(algo, outcome, expect[key])
        if problem is not None:
            return problem
        tally.counts[f"{algo}.comparisons"] += outcome.comparisons
        tally.counts[f"{algo}.alignments"] += outcome.alignments
        tally.counts[f"{algo}.anchor_hits"] += outcome.anchor_hits
        tally.counts["matches"] += len(outcome.positions)
        if algo == "fbas" and tally.cycles == 0:
            tally.model_cost.append((model_cost(query), outcome.alignments))
    return None


def model_cost(query) -> float:
    """The paper's mean window cost 1 + p(m-1) for the anchor fbas picks.

    Runs while the tracer is installed, so it calls the unwrapped functions
    saved before wrapping.
    """
    anchor = _select_anchor(query.pattern)
    p = _char_probability(query.text, anchor.character)
    return _expected_comparisons(p, len(query.pattern)).expected_comparisons


_select_anchor = fbas.freq.select_anchor
_char_probability = match.char_probability
_expected_comparisons = match.expected_comparisons


def run_cycle(ops, expect, tally: Tally, tracer: Tracer | None = None) -> None:
    for op in ops:
        run_op(op, expect, tally, tracer)
    tally.cycles += 1

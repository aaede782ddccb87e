"""Self-test of the benchmark harness.

    python3 -m pytest benchmark

A stubbed matcher that returns a wrong position list or a drifted count
must raise the error rate above zero, the same seed must give
byte-identical inputs, and the package must still reproduce the
comparison counts of the paper's table.
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import workloads  # noqa: E402
import fbas  # noqa: E402
from fbas import match  # noqa: E402

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def build(name, seed, workdir):
    return workloads.build(name, seed, workdir, ROOT / "data")


def run_cycle(workload, tracer=None):
    expect = harness.expectations(workload, REFERENCE[workload.name][workload.variant])
    tally = harness.Tally()
    if tracer is None:
        harness.run_cycle(workload.ops, expect, tally)
    else:
        with tracer:
            harness.run_cycle(workload.ops, expect, tally, tracer)
    return tally


def stub_fbas_search(monkeypatch, change):
    """Replace fbas_search, wherever the package holds it, with a version
    whose outcome ``change`` corrupts."""
    real = match.fbas_search

    @functools.wraps(real)
    def stub(*args, **kwargs):
        outcome = real(*args, **kwargs)
        change(outcome)
        return outcome

    for module in (fbas, fbas.bench, match):
        monkeypatch.setattr(module, "fbas_search", stub)


@pytest.fixture
def verify(tmp_path):
    return build("search-verify", 1, tmp_path)


@pytest.fixture(scope="module")
def italian(tmp_path_factory):
    return build("italian-bench", 2, tmp_path_factory.mktemp("italian"))


def test_clean_cycle_has_no_failures(verify):
    tally = run_cycle(verify)
    assert tally.attempted == len(verify.ops)
    assert tally.failed == 0


@pytest.mark.parametrize("change", [
    lambda outcome: outcome.positions.append(outcome.positions[-1] + 1 if outcome.positions else 0),
    lambda outcome: setattr(outcome, "comparisons", outcome.comparisons + 1),
    lambda outcome: setattr(outcome, "alignments", outcome.alignments - 1),
    lambda outcome: setattr(outcome, "anchor_hits", outcome.anchor_hits + 1),
], ids=["positions", "comparisons", "alignments", "anchor_hits"])
def test_corrupted_search_outcome_fails(verify, monkeypatch, change):
    stub_fbas_search(monkeypatch, change)
    tally = run_cycle(verify)
    assert tally.failed == sum(op.algo == "fbas" for op in verify.ops) > 0


def test_raising_matcher_fails(verify, monkeypatch):
    def boom(outcome):
        raise RuntimeError("stub")

    stub_fbas_search(monkeypatch, boom)
    assert run_cycle(verify).failed > 0


def test_cli_wrong_position_fails(italian, monkeypatch):
    # fbas bench exits 2 when a matcher disagrees with the naive one.
    stub_fbas_search(monkeypatch, lambda outcome: outcome.positions.insert(0, -1))
    tally = run_cycle(italian)
    assert tally.failed == tally.attempted == len(italian.ops)


def test_cli_drifted_comparisons_fail(italian, monkeypatch):
    stub_fbas_search(monkeypatch, lambda outcome: setattr(outcome, "comparisons", outcome.comparisons + 1))
    assert run_cycle(italian).failed == len(italian.ops)


def test_cli_drifted_anchor_hits_fail_when_traced(italian, monkeypatch):
    # The bench report prints no anchor hits; the traced run checks them.
    stub_fbas_search(monkeypatch, lambda outcome: setattr(outcome, "anchor_hits", outcome.anchor_hits + 1))
    assert run_cycle(italian).failed == 0
    assert run_cycle(italian, harness.Tracer()).failed == len(italian.ops)


def test_traced_cycle_restores_the_package(italian):
    original = match.fbas_search
    tally = run_cycle(italian, harness.Tracer())
    assert tally.failed == 0
    assert match.fbas_search is original
    assert tally.counts["fbas.alignments"] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for workdir in dirs:
        workdir.mkdir()
    first, second = (build(name, 5, workdir) for workdir in dirs)
    assert first.inputs == second.inputs
    assert first.texts == second.texts
    assert [op.label for op in first.ops] == [op.label for op in second.ops]
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_package_reproduces_the_paper_table_counts(tmp_path):
    # ROADMAP baseline: italian_sample.txt x46 (564,512 B), the 12 patterns, ALL_MATCHES.
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes((ROOT / "data" / "italian_sample.txt").read_bytes() * 46)
    op = harness.CliOp("paper", "corpus", ["bench", str(corpus), str(ROOT / "data" / "patterns12.txt"),
                                           "--format", "json"], 0, [], None)
    tracer = harness.Tracer()
    with tracer:
        tracer.begin_op()
        rc, stdout = op.call()
    assert rc == 0
    for algo in ("bmh", "fbas"):
        assert sum(outcome.alignments for a, _, outcome in tracer.calls if a == algo) == 1_208_274
    report = json.loads(stdout)
    assert report["corpus_meta"]["length"] == 564_512
    assert [report["totals"][algo] for algo in harness.ALGOS] == [7_084_520, 7_044_118, 1_342_775, 1_269_822]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "search-verify", "--seed", "3",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "search-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

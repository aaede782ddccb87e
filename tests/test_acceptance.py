"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Criterion 8b is opt-in: it needs a locally supplied full
Divina Commedia text (FBAS_DIVINA_PATH) and is skipped otherwise.
"""
import math
import os
import random
import statistics

import pytest

from conftest import DATA_DIR
from fbas import (
    Mode,
    PatternSet,
    SearchQuery,
    aggregate_stats,
    bmh_search,
    char_probability,
    default_table,
    derive_stats,
    expected_comparisons,
    fbas_search,
    kmp_search,
    load_corpus,
    load_patterns,
    naive_search,
    run_benchmark,
    select_anchor,
)
from fbas.metrics import round_half_away
from helpers import KNOWN_BENCHMARK_ROWS, KNOWN_TOTALS, oracle_positions, run_cli

SEED = 20260808
ALPHABETS = {2: b"ab", 4: b"abcd", 26: b"abcdefghijklmnopqrstuvwxyz"}
CASES_PER_ALPHABET = 3400  # 10,200 cases total, each run in both modes


def _random_case(rng: random.Random, alphabet: bytes) -> tuple[bytes, bytes]:
    m = rng.randint(1, 12)
    n = rng.randint(m, 256)
    text = bytes(rng.choices(alphabet, k=n))
    if rng.random() < 0.5:
        start = rng.randint(0, n - m)
        pattern = text[start:start + m]
    else:
        pattern = bytes(rng.choices(alphabet, k=m))
    return text, pattern


@pytest.fixture(scope="module")
def randomized_suite():
    """One pass over the randomized cases; criteria 1-3 consume the tallies."""
    rng = random.Random(SEED)
    tallies = {
        "cases": 0,
        "runs": 0,
        "oracle_mismatches": 0,
        "trace_mismatches": 0,
        "fail_fast_violations": 0,
    }
    for alphabet in ALPHABETS.values():
        for _ in range(CASES_PER_ALPHABET):
            text, pattern = _random_case(rng, alphabet)
            m = len(pattern)
            tallies["cases"] += 1
            expected_all = oracle_positions(text, pattern)
            for mode, expected in (
                (Mode.ALL_MATCHES, expected_all),
                (Mode.FIRST_MATCH, expected_all[:1]),
            ):
                tallies["runs"] += 1
                query = SearchQuery(text, pattern, mode)
                naive = naive_search(query)
                kmp = kmp_search(query)
                bmh = bmh_search(query, record_windows=True)
                fbas = fbas_search(query, record_windows=True)

                agreed = (
                    naive.positions == expected
                    and kmp.positions == expected
                    and bmh.positions == expected
                    and fbas.positions == expected
                )
                if not agreed:
                    tallies["oracle_mismatches"] += 1

                if [w[0] for w in fbas.windows] != [w[0] for w in bmh.windows]:
                    tallies["trace_mismatches"] += 1

                extra = 0
                well_formed = True
                for _, cost, hit in fbas.windows:
                    if not 1 <= cost <= m:
                        well_formed = False
                    if hit:
                        extra += cost - 1
                    elif cost != 1:
                        well_formed = False
                if not well_formed or fbas.comparisons != fbas.alignments + extra:
                    tallies["fail_fast_violations"] += 1
    return tallies


def test_criterion_01_oracle_equivalence(randomized_suite):
    """All four matchers return naive/oracle positions on >= 10,000 random cases."""
    assert randomized_suite["cases"] >= 10_000
    assert randomized_suite["oracle_mismatches"] == 0
    print(f"\ncriterion 1 PASS: {randomized_suite['runs']} runs over "
          f"{randomized_suite['cases']} cases, 0 position mismatches")


def test_criterion_02_alignment_trace_equality(randomized_suite):
    """fbas and bmh examine identical alignment sequences (zero tolerance)."""
    assert randomized_suite["trace_mismatches"] == 0
    print(f"\ncriterion 2 PASS: identical alignment traces in "
          f"{randomized_suite['runs']} runs")


def test_criterion_03_fail_fast_cost(randomized_suite):
    """comparisons = alignments + extra over anchor hits; misses cost exactly 1."""
    assert randomized_suite["fail_fast_violations"] == 0
    print(f"\ncriterion 3 PASS: fail-fast cost identity held in "
          f"{randomized_suite['runs']} runs")


def test_criterion_04_pinned_scores():
    """Exact pinned rarity scores, including the non-alphabet default."""
    table = default_table()
    pinned = {"z": 1, "j": 2, "x": 3, "u": 16, "b": 10, "a": 28, "e": 29}
    for letter, score in pinned.items():
        assert table.score(letter) == score
    assert table.score(" ") == 50
    assert table.score("0") == 50
    print("\ncriterion 4 PASS: pinned scores exact")


def test_criterion_05_worked_example():
    """Anchor of 'oscura' is 'u' at index 3 with score 16, exactly."""
    sel = select_anchor("oscura")
    assert (sel.index, sel.char, sel.score) == (3, "u", 16)
    print("\ncriterion 5 PASS: select_anchor('oscura') = (3, 'u', 16)")


def test_criterion_06_estimator():
    """Empirical mean window cost matches 1 + (1/sigma)(m-1) within 3 SE.

    Uniform text, sigma = 4, n = 100,000. Pattern 'ab': its anchor 'b'
    is unique in the pattern, and with m = 2 the single secondary
    comparison cannot stop early, so the model is the exact expectation.
    """
    rng = random.Random(SEED + 6)
    sigma = 4
    n = 100_000
    text = bytes(rng.choices(b"abcd", k=n))
    pattern = b"ab"
    outcome = fbas_search(SearchQuery(text, pattern), record_windows=True)
    costs = [cost for _, cost, _ in outcome.windows]
    mean = statistics.fmean(costs)
    stderr = statistics.stdev(costs) / math.sqrt(len(costs))
    model = expected_comparisons(1 / sigma, len(pattern)).expected_comparisons
    assert abs(mean - model) <= 3 * stderr, (mean, model, stderr)
    print(f"\ncriterion 6 PASS: mean window cost {mean:.5f} vs model {model} "
          f"({abs(mean - model) / stderr:.2f} SE over {len(costs)} windows)")


def test_criterion_07_naive_closed_form():
    """Naive all-matches over 'a'*1000 with 'aaa' costs exactly 998 * 3."""
    outcome = naive_search(SearchQuery(b"a" * 1000, b"aaa"))
    assert outcome.comparisons == 2994
    assert outcome.alignments == 998
    print("\ncriterion 7 PASS: 2994 comparisons exactly")


def test_criterion_08a_directional_gain_on_fixture(fixture_corpus, fixture_patterns):
    """Where the anchor byte is strictly rarer in the fixture than the last
    pattern byte, fbas must not exceed bmh comparison counts."""
    table = default_table()
    applicable = 0
    for pattern in fixture_patterns.patterns:
        sel = select_anchor(pattern, table)
        p_anchor = char_probability(fixture_corpus.data, sel.character)
        p_last = char_probability(fixture_corpus.data, pattern[-1])
        if p_anchor < p_last:
            applicable += 1
            query = SearchQuery(fixture_corpus.data, pattern)
            fbas = fbas_search(query, table)
            bmh = bmh_search(query)
            assert fbas.comparisons <= bmh.comparisons, pattern
    assert applicable >= 1
    print(f"\ncriterion 8a PASS: directional gain held on {applicable}/12 "
          f"applicable patterns")


def test_criterion_08b_full_corpus_best_effort(fixture_patterns):
    """Best-effort reproduction on a user-supplied full Divina Commedia text.

    Needs >= 10 of 12 patterns with fbas < bmh and aggregate improvement
    in the 3..8 percent band, on the raw or the lowercased reading.
    """
    path = os.environ.get("FBAS_DIVINA_PATH")
    if not path:
        pytest.skip("best-effort, not CI-gated: set FBAS_DIVINA_PATH to a "
                    "full Divina Commedia text file")
    readings = []
    for lowercase in (False, True):
        corpus = load_corpus(path, lowercase=lowercase)
        report = run_benchmark(corpus, fixture_patterns)
        wins = sum(1 for r in report.rows if r.fbas < r.bmh)
        improvement = report.totals.stats.improvement_pct
        readings.append((lowercase, wins, improvement))
    ok = any(wins >= 10 and 3.0 <= imp <= 8.0 for _, wins, imp in readings)
    assert ok, readings
    print(f"\ncriterion 8b PASS: {readings}")


def test_criterion_09_derived_stat_spot_checks():
    """Reference-row arithmetic: 0.58 (row), 5.33 and 81.70 (totals)."""
    stats = derive_stats(13269, 12334, 2260, 2247)
    assert abs(stats.improvement_pct - 0.58) <= 0.005

    counts = [(n, k, b, f) for (_, _, n, k, b, f, _) in KNOWN_BENCHMARK_ROWS]
    assert tuple(sum(c[i] for c in counts) for i in range(4)) == KNOWN_TOTALS
    for (_, _, n, k, b, f, expected_impr) in KNOWN_BENCHMARK_ROWS:
        assert round_half_away(derive_stats(n, k, b, f).improvement_pct) == expected_impr

    totals = aggregate_stats(counts)
    assert abs(totals.improvement_pct - 5.33) <= 0.005
    assert abs(totals.reduction_vs_naive_pct - 81.70) <= 0.05
    print(f"\ncriterion 9 PASS: improvement {totals.improvement_pct:.4f}%, "
          f"reduction {totals.reduction_vs_naive_pct:.4f}%")


def test_criterion_10_cli_contract(tmp_path):
    """Table output round-trips through --freq-table; bench CSV is
    byte-deterministic across two runs on the fixture."""
    corpus = str(DATA_DIR / "italian_sample.txt")
    patterns_file = str(DATA_DIR / "patterns12.txt")

    code, table_text, _ = run_cli(["table"])
    assert code == 0
    table_file = tmp_path / "roundtrip.tsv"
    table_file.write_text(table_text, encoding="utf-8")
    for row in KNOWN_BENCHMARK_ROWS:
        pattern = row[0]
        _, expected, _ = run_cli(["anchor", pattern])
        code, actual, _ = run_cli(["anchor", pattern, "--freq-table", str(table_file)])
        assert code == 0
        assert actual == expected

    first = run_cli(["bench", corpus, patterns_file, "--format", "csv"])
    second = run_cli(["bench", corpus, patterns_file, "--format", "csv"])
    assert first[0] == 0
    assert first[1] == second[1]
    print("\ncriterion 10 PASS: table round-trip and deterministic bench CSV")

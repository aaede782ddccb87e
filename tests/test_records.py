"""Record types: frozen named tuples, and mutable search queries and outcomes."""
import copy
import pickle

import pytest

from fbas import (
    AnchorSelection,
    BenchReport,
    BenchRow,
    ComparisonEstimate,
    Corpus,
    DerivedStats,
    EmptyCorpus,
    FrequencyTable,
    Mode,
    SearchOutcome,
    SearchQuery,
    default_table,
    derive_stats,
    expected_comparisons,
    fbas_search,
    run_benchmark,
)


@pytest.fixture(scope="module")
def report():
    return run_benchmark(Corpus(b"abcabc abd", "tiny"), [b"abc", b"ab", b"abc"])


def frozen(report):
    row = report.rows[0]
    return {
        "report": report,
        "row": row,
        "anchor": row.anchor,
        "stats": row.stats,
        "estimate": expected_comparisons(0.25, 3),
        "corpus": Corpus(b"abc"),
        "table": FrequencyTable({ord("q"): 2}, name="q"),
    }


KINDS = ("report", "row", "anchor", "stats", "estimate", "corpus", "table")


class TestFrozen:
    def test_every_kind_is_covered(self, report):
        types = {type(record) for record in frozen(report).values()}
        assert types == {BenchReport, BenchRow, AnchorSelection, DerivedStats,
                         ComparisonEstimate, Corpus, FrequencyTable}

    @pytest.mark.parametrize("kind", KINDS)
    def test_assignment_refused(self, report, kind):
        record = frozen(report)[kind]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_record_is_a_tuple_of_its_fields(self, report, kind):
        record = frozen(report)[kind]
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
        assert record == tuple(record)
        assert list(record._asdict()) == list(record._fields)

    @pytest.mark.parametrize("kind", ("report", "row", "table"))
    def test_hash_leaves_out_the_dict_fields(self, report, kind):
        # A tuple's own hash would hash the counts dict or entries proxy and fail.
        record = frozen(report)[kind]
        unhashable = record.entries if kind == "table" else record.counts
        with pytest.raises(TypeError):
            hash(unhashable)
        again = type(record)._make(tuple(record))
        assert again == record and hash(again) == hash(record)
        assert {record: 1}[again] == 1

    def test_repr_shows_no_score_list(self):
        table = default_table()
        assert repr(table) == f"FrequencyTable(entries={table.entries!r}, name='default')"

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_and_copy_round_trip(self, report, kind):
        record = frozen(report)[kind]
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(again) is type(record) and again == record


class TestBuiltThroughTheConstructor:
    """``_make`` and ``_replace`` never give a record whose derived
    fields disagree with its inputs, nor one its constructor rejects."""

    def test_make_derives_afresh(self, report):
        row = report.rows[0]
        bogus = DerivedStats(None, None, None)
        assert BenchRow._make((*row[:-1], bogus)) == row
        assert BenchReport._make((*report[:4], {}, bogus)) == report
        assert FrequencyTable._make((default_table().entries, "default", b"")) == default_table()
        with pytest.raises(TypeError):
            BenchRow._make(row[:-1])

    def test_replace_derives_afresh(self, report):
        row = report.rows[0]
        counts = {"naive": 10, "kmp": 9, "bmh": 8, "fbas": 4}
        assert row._replace(counts=counts).stats == derive_stats(**counts)
        fewer = report._replace(rows=report.rows[1:2])
        assert fewer.counts == report.rows[1].counts
        assert fewer.stats.improvement_pct == report.rows[1].stats.improvement_pct
        assert report._replace(mode="first").mode is Mode.FIRST_MATCH
        table = default_table()._replace(entries={ord("Z"): 3})
        assert dict(table.entries) == {ord("z"): 3} and table.score("z") == 3
        assert table.score("e") == 50

    @pytest.mark.parametrize("kind, field", [("row", "stats"), ("report", "counts"),
                                             ("report", "stats"), ("table", "scores")])
    def test_derived_field_cannot_be_replaced(self, report, kind, field):
        record = frozen(report)[kind]
        # copy.replace, new in Python 3.13, calls __replace__.
        for replace in (record._replace, record.__replace__):
            with pytest.raises(TypeError):
                replace(**{field: getattr(record, field)})

    def test_corpus_checks_and_coerces(self):
        corpus = Corpus(b"abc", "x")
        assert corpus._replace(data="città").data == "città".encode()
        assert Corpus._make(["ab", "y"]).data == b"ab"
        with pytest.raises(EmptyCorpus):
            corpus._replace(data=b"")
        with pytest.raises(EmptyCorpus):
            Corpus._make([b"", "y"])


class TestMutable:
    def test_query_assigns_compares_and_is_unhashable(self):
        query = SearchQuery("abcab", "ab")
        assert query == SearchQuery(b"abcab", b"ab", "all")
        query.mode = Mode.FIRST_MATCH
        assert query == SearchQuery(b"abcab", b"ab", "first")
        assert query != SearchQuery(b"abcab", b"ab")
        with pytest.raises(TypeError):
            hash(query)
        assert pickle.loads(pickle.dumps(query)) == query
        assert copy.copy(query) == query

    def test_outcome_assigns_compares_and_is_unhashable(self):
        outcome = fbas_search(SearchQuery("abcab", "ab"))
        same = SearchOutcome([0, 3], outcome.comparisons, outcome.alignments,
                             outcome.anchor_hits, outcome.anchor)
        assert outcome == same and outcome.found
        outcome.comparisons += 1
        assert outcome != same
        with pytest.raises(TypeError):
            hash(outcome)
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_outcome_defaults_to_a_new_empty_list(self):
        first, second = SearchOutcome(), SearchOutcome()
        assert first == second and not first.found
        first.positions.append(1)
        assert second.positions == []

"""Tests for the result/statistics types."""

import pytest

from repro.core.result import DecisionStats, SolveOutcome, StageRecord
from repro.core.status import Status
from repro.encodings.hybrid import EncodingStats
from repro.sat.solver import SatStats


def stage_stats(*records):
    return DecisionStats(method="HYBRID", stages=list(records))


class TestDecisionStats:
    def test_total_seconds(self):
        stats = stage_stats(
            StageRecord("func-elim", 0.25),
            StageRecord("encode", 0.5),
            StageRecord("cnf", 0.25),
            StageRecord("preprocess", 0.5),
            StageRecord("sat", 2.5),
        )
        assert stats.encode_seconds == 1.5
        assert stats.sat_seconds == 2.5
        assert stats.total_seconds == 4.0

    @pytest.mark.parametrize(
        "encode,search", [("encode", "refine"), ("flatten", "split")]
    )
    def test_baseline_stage_split(self, encode, search):
        stats = stage_stats(StageRecord(encode, 1.0), StageRecord(search, 2.0))
        assert (stats.encode_seconds, stats.sat_seconds) == (1.0, 2.0)

    def test_enumerate_is_search(self):
        stats = stage_stats(StageRecord("enumerate", 3.0))
        assert (stats.encode_seconds, stats.sat_seconds) == (0.0, 3.0)

    def test_wrapper_and_decode_stages_count_in_neither_part(self):
        stats = stage_stats(
            StageRecord("encode", 1.0),
            StageRecord("sat", 2.0),
            StageRecord("decode", 4.0),
            StageRecord("cache", 8.0),
            StageRecord("race", 16.0),
        )
        assert stats.total_seconds == 3.0
        assert stats.seconds("decode", "race") == 20.0

    def test_sizes_read_from_stage_counters(self):
        stats = stage_stats(
            StageRecord("func-elim", counters={"dag_suf": 9, "dag_sep": 7}),
            StageRecord("cnf", counters={"vars": 30, "clauses": 80}),
            StageRecord(
                "preprocess", counters={"vars_after": 3, "clauses_after": 4}
            ),
        )
        assert (stats.dag_size_suf, stats.dag_size_sep) == (9, 7)
        assert (stats.cnf_vars, stats.cnf_clauses) == (30, 80)
        assert stats.counter("clauses_after") == 4

    def test_empty_stats_read_zero(self):
        stats = DecisionStats()
        assert stats.total_seconds == 0.0
        assert stats.cnf_clauses == 0
        assert stats.counter("iterations") == 0

    def test_conflict_clauses_proxy(self):
        stats = DecisionStats()
        assert stats.conflict_clauses == 0
        stats.sat = SatStats(learned_clauses=42)
        assert stats.conflict_clauses == 42

    def test_sep_predicates_proxy(self):
        stats = DecisionStats()
        assert stats.sep_predicates == 0
        stats.encoding = EncodingStats(total_sep_count=17)
        assert stats.sep_predicates == 17


class TestSolveOutcome:
    def test_valid_mapping(self):
        for status in Status:
            outcome = SolveOutcome(engine="hybrid", status=status)
            assert outcome.valid is status.as_valid
            assert outcome.decided is status.decided

    def test_repr_mentions_status(self):
        outcome = SolveOutcome(
            engine="hybrid",
            status=Status.VALID,
            stats=DecisionStats(method="HYBRID"),
        )
        text = repr(outcome)
        assert "VALID" in text and "HYBRID" in text

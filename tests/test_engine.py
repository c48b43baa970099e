"""Tests for the engine layer: contract, registry, stage telemetry."""

import dataclasses

import pytest

from repro.benchgen.suite import benchmark_by_name
from repro.core.status import Status
from repro.engine import registry
from repro.engine.base import Engine, EngineCapabilities
from repro.engine.contract import SolveOutcome, SolveRequest
from repro.logic.parser import parse_formula
from repro.logic.traversal import dag_size

VALID_F = "(=> (and (< x y) (< y z)) (< x z))"
INVALID_F = "(= x y)"
UF_VALID_F = "(=> (= a b) (= (f a) (f b)))"

ALL_ENGINES = ("hybrid", "static", "eij", "sd", "lazy", "svc", "brute")


class TestStatus:
    def test_string_compatible(self):
        assert Status.VALID == "VALID"
        assert "%s" % Status.INVALID == "INVALID"
        assert "{}".format(Status.UNKNOWN) == "UNKNOWN"
        assert Status("VALID") is Status.VALID

    def test_as_valid(self):
        assert Status.VALID.as_valid is True
        assert Status.INVALID.as_valid is False
        assert Status.UNKNOWN.as_valid is None
        assert Status.ERROR.as_valid is None

    def test_decided(self):
        assert Status.VALID.decided and Status.INVALID.decided
        assert not Status.TRANSLATION_LIMIT.decided


class TestRegistry:
    def test_all_builtins_registered(self):
        names = registry.list_engines()
        for name in ALL_ENGINES + ("portfolio",):
            assert name in names

    def test_priority_order_starts_with_hybrid(self):
        assert registry.list_engines()[0] == "hybrid"

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(KeyError, match="hybrid"):
            registry.get("no-such-engine")

    def test_register_and_unregister(self):
        class Fake(Engine):
            name = "fake-test-engine"

            def solve(self, request):
                return SolveOutcome(engine=self.name, status=Status.UNKNOWN)

        try:
            registry.register(Fake())
            assert registry.get("fake-test-engine").name == "fake-test-engine"
            with pytest.raises(ValueError):
                registry.register(Fake())
        finally:
            registry.unregister("fake-test-engine")
        assert "fake-test-engine" not in registry.list_engines()

    def test_capability_metadata(self):
        assert registry.get("brute").capabilities.bounded
        assert not registry.get("brute").capabilities.countermodels
        for name in ("hybrid", "lazy", "svc"):
            caps = registry.get(name).capabilities
            assert caps.complete
            assert caps.countermodels
            assert caps.description


class TestEngineContract:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_valid_formula(self, name):
        outcome = registry.get(name).decide(parse_formula(VALID_F))
        assert outcome.status == Status.VALID
        assert outcome.engine == name
        assert outcome.wall_seconds >= 0

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_invalid_formula(self, name):
        outcome = registry.get(name).decide(parse_formula(INVALID_F))
        assert outcome.status == Status.INVALID
        if registry.get(name).capabilities.countermodels:
            assert outcome.counterexample is not None

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_agreement_on_suite_subset(self, name):
        for bench_name in ("pipeline_s2_r2_1", "transval_s1_i3_1"):
            bench = benchmark_by_name(bench_name)
            outcome = registry.get(name).solve(
                SolveRequest(
                    formula=bench.formula,
                    want_countermodel=False,
                    time_limit=30.0,
                )
            )
            if name == "brute" and outcome.status == Status.UNKNOWN:
                continue  # enumeration space exceeds the oracle budget
            assert outcome.valid == bench.expected_valid, (
                name,
                bench_name,
                outcome.status,
            )

    def test_check_validity_returns_run_eager_outcome(self, monkeypatch):
        from repro.core.decision import check_validity
        from repro.engine import stages

        formula = parse_formula(VALID_F)
        assert isinstance(check_validity(formula), SolveOutcome)
        produced = SolveOutcome(engine="sd", status=Status.VALID)
        calls = []

        def fake_run_eager(request, method):
            calls.append((request, method))
            return produced

        monkeypatch.setattr(stages, "run_eager", fake_run_eager)
        assert check_validity(formula, method="sd", sep_thold=5) is produced
        [(request, method)] = calls
        assert method == "sd"
        assert request.formula is formula and request.sep_thold == 5

    def test_replace_formula_keeps_knobs(self):
        request = SolveRequest(
            formula=parse_formula(VALID_F),
            want_countermodel=False,
            time_limit=2.5,
            conflict_limit=9,
            sep_thold=123,
            trans_budget=77,
            sd_ranges="ascending",
            preprocess=True,
            options={"limit": 7},
        )
        new_formula = parse_formula(INVALID_F)
        clone = request.replace_formula(new_formula)
        assert clone.formula is new_formula
        for field in dataclasses.fields(SolveRequest):
            if field.name == "formula":
                continue
            # Every knob is set off its default, so a field the copy
            # dropped would show up as a mismatch.
            if field.default is not dataclasses.MISSING:
                default = field.default
            else:
                default = field.default_factory()
            assert getattr(request, field.name) != default, field.name
            assert getattr(clone, field.name) == getattr(
                request, field.name
            ), field.name
        assert clone.options is not request.options


EAGER_COUNTERS = {
    "func-elim": {"dag_suf", "dag_sep", "fresh_consts"},
    "encode": {
        "classes",
        "sd_classes",
        "eij_classes",
        "sep_vars",
        "trans_clauses",
    },
    "cnf": {"vars", "clauses", "sep_cnf_vars"},
    "sat": {"decisions", "propagations", "conflicts", "learned"},
    "decode": {"model_vars"},
}

#: The opt-in stage ``SolveRequest(preprocess=True)`` adds after ``cnf``.
PREPROCESS_COUNTERS = {
    "clauses_before",
    "clauses_after",
    "vars_before",
    "vars_after",
    "units",
    "pure",
    "subsumed",
    "strengthened",
    "eliminated",
}

EAGER_ENGINES = ("hybrid", "static", "eij", "sd")

#: Stage names, in order, and counter keys per engine: the telemetry
#: contract the benchmark harness and ``repro check --stats`` read.
STAGE_COUNTERS = {
    **{name: EAGER_COUNTERS for name in EAGER_ENGINES},
    "lazy": {
        "encode": {"dag_suf", "dag_sep", "vars", "clauses"},
        "refine": {"iterations", "theory_checks", "conflict_clauses"},
    },
    "svc": {
        "flatten": {"dag_suf", "dag_sep"},
        "split": {"splits", "theory_checks", "pruned"},
    },
    "brute": {"enumerate": {"limit"}},
}

#: The stage a wrapper engine appends after its member's stages, and the
#: counter key sets that stage may carry (a cache miss or a cache hit).
WRAPPER_STAGES = {
    "cached": (
        "cache",
        ({"miss", "store"}, {"hit", "hit_memory", "hit_disk"}),
    ),
    "portfolio": ("race", ({"members", "finished", "cancelled"},)),
}

INVALID_UF_F = "(=> (< x y) (= (f x) (f y)))"


def expected_stage_names(engine, outcome):
    expected = list(STAGE_COUNTERS[engine])
    if engine in EAGER_ENGINES and outcome.status is not Status.INVALID:
        expected.remove("decode")
    return expected


class TestStageTelemetry:
    @pytest.mark.parametrize("name", ALL_ENGINES + ("cached", "portfolio"))
    @pytest.mark.parametrize("text", [VALID_F, INVALID_UF_F])
    def test_stage_contract(self, name, text):
        formula = parse_formula(text)
        outcome = registry.get(name).decide(formula, time_limit=30.0)
        assert outcome.decided
        stages = list(outcome.stages)
        if name in WRAPPER_STAGES:
            stage, counter_sets = WRAPPER_STAGES[name]
            wrapper = stages.pop()
            assert wrapper.name == stage
            assert set(wrapper.counters) in counter_sets
        if stages:
            member = outcome.winner or outcome.engine
            names = [record.name for record in stages]
            assert names == expected_stage_names(member, outcome)
            for record in stages:
                expected = STAGE_COUNTERS[member][record.name]
                assert set(record.counters) == expected, record.name
        stats = outcome.stats
        assert stats.encode_seconds + stats.sat_seconds <= outcome.wall_seconds
        if stats.counter("dag_suf"):
            assert stats.dag_size_suf == dag_size(formula)

    @pytest.mark.parametrize("name", EAGER_ENGINES)
    @pytest.mark.parametrize("text", [VALID_F, INVALID_UF_F])
    def test_stage_contract_with_preprocess(self, name, text):
        outcome = registry.get(name).solve(
            SolveRequest(formula=parse_formula(text), preprocess=True)
        )
        assert outcome.decided
        names = [record.name for record in outcome.stages]
        expected = ["func-elim", "encode", "cnf", "preprocess", "sat"]
        if "sat" not in names:  # preprocessing closed the instance
            expected.remove("sat")
        if outcome.status is Status.INVALID:
            expected.append("decode")
        assert names == expected
        counters = {**EAGER_COUNTERS, "preprocess": PREPROCESS_COUNTERS}
        for record in outcome.stages:
            assert set(record.counters) == counters[record.name], record.name
        assert outcome.stats.preprocess is not None

    def test_eager_stage_names(self):
        outcome = registry.get("hybrid").decide(parse_formula(VALID_F))
        assert [s.name for s in outcome.stages] == [
            "func-elim",
            "encode",
            "cnf",
            "sat",
        ]
        assert outcome.stats.preprocess is None

    def test_eager_stage_names_without_preprocess(self):
        outcome = registry.get("hybrid").solve(
            SolveRequest(
                formula=parse_formula(VALID_F), preprocess=False
            )
        )
        assert [s.name for s in outcome.stages] == [
            "func-elim",
            "encode",
            "cnf",
            "sat",
        ]

    def test_eager_decode_stage_on_invalid(self):
        outcome = registry.get("hybrid").decide(parse_formula(INVALID_F))
        assert [s.name for s in outcome.stages][-1] == "decode"

    def test_stage_seconds_match_legacy_split(self):
        outcome = registry.get("sd").decide(parse_formula(UF_VALID_F))
        by_name = {s.name: s for s in outcome.stages}
        front = sum(
            by_name[n].seconds
            for n in ("func-elim", "encode", "cnf", "preprocess")
            if n in by_name
        )
        assert outcome.stats.encode_seconds == pytest.approx(front)
        assert outcome.stats.sat_seconds == pytest.approx(
            by_name["sat"].seconds if "sat" in by_name else 0.0
        )

    def test_eager_counters(self):
        outcome = registry.get("eij").decide(parse_formula(VALID_F))
        by_name = {s.name: s for s in outcome.stages}
        assert by_name["func-elim"].counters["dag_suf"] > 0
        assert by_name["cnf"].counters["clauses"] == outcome.stats.cnf_clauses
        assert "preprocess" not in by_name
        assert "decisions" in by_name["sat"].counters

    def test_lazy_stages(self):
        outcome = registry.get("lazy").decide(parse_formula(VALID_F))
        by_name = {s.name: s for s in outcome.stages}
        assert "iterations" in by_name["refine"].counters
        assert by_name["refine"].counters["iterations"] >= 1

    def test_svc_stages(self):
        outcome = registry.get("svc").decide(parse_formula(VALID_F))
        names = [s.name for s in outcome.stages]
        assert names == ["flatten", "split"]

    def test_brute_stages(self):
        outcome = registry.get("brute").decide(parse_formula(VALID_F))
        assert [s.name for s in outcome.stages] == ["enumerate"]
        assert outcome.stages[0].counters["limit"] > 0

    def test_check_validity_carries_stages(self):
        from repro.core.decision import check_validity

        result = check_validity(parse_formula(VALID_F), method="hybrid")
        assert result.stats.stages
        assert result.stats.stages[0].name == "func-elim"

    def test_stage_record_describe(self):
        outcome = registry.get("hybrid").decide(parse_formula(VALID_F))
        line = outcome.stages[0].describe()
        assert "func-elim" in line and "dag_suf=" in line


class TestEngineOptions:
    def test_brute_limit_option(self):
        outcome = registry.get("brute").solve(
            SolveRequest(
                formula=parse_formula(VALID_F), options={"limit": 1}
            )
        )
        assert outcome.status == Status.UNKNOWN
        assert "limit" in outcome.detail

    def test_lazy_iteration_cap(self):
        outcome = registry.get("lazy").solve(
            SolveRequest(
                formula=parse_formula(INVALID_F),
                options={"max_iterations": 10_000},
            )
        )
        assert outcome.status == Status.INVALID

    def test_translation_limit_surfaces(self):
        bench = benchmark_by_name("pipeline_s2_r2_1")
        outcome = registry.get("eij").solve(
            SolveRequest(formula=bench.formula, trans_budget=1)
        )
        assert outcome.status == Status.TRANSLATION_LIMIT

    def test_capabilities_dataclass(self):
        caps = EngineCapabilities(description="x", bounded=True)
        assert caps.bounded and caps.description == "x"

"""Transitivity-constraint generation tests.

The central property (completeness): for any truth assignment to the EIJ
Boolean variables, the generated constraints are all satisfied *iff* the
asserted difference bounds have no negative cycle.  This is exactly what
makes ``F_trans ⟹ F_bvar`` equivalid with the input formula.  Soundness
is the converse direction clause by clause: no emitted clause rules out a
consistent assignment.

The generators write packed clauses into ``registry.cnf``; the helpers
below decode them back to bounds through the registry.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.encodings.sepvars import Bound, SepVarRegistry
from repro.encodings.transitivity import (
    TransitivityBudgetExceeded,
    TransitivityStats,
    generate_equality_transitivity,
    generate_transitivity,
)
from repro.logic.terms import Var
from repro.sat.cnf import Cnf
from repro.sat.solver import solve_cnf
from repro.separation.unionfind import DisjointSet
from repro.theory.difference import check_bounds


def make_vars(n):
    return [Var("tv%d" % i) for i in range(n)]


def emitted(registry, indices):
    """The clauses at ``indices`` of ``registry.cnf``, packed."""
    return [registry.cnf.packed(i) for i in indices]


def literal_var(registry, lit):
    """The registry BoolVar a packed literal is over."""
    return registry.cnf.names[lit >> 1]


def literal_alternatives(registry, lit):
    """What a packed literal asserts, as alternative lists of bounds.

    A bound literal asserts one bound; an equality literal asserts two
    bounds (``x = y``) or one of two (``x != y``) over the integers.
    """
    var = literal_var(registry, lit)
    negative = bool(lit & 1)
    bound = registry.bound_of(var)
    if bound is not None:
        return [[bound.negation() if negative else bound]]
    x, y = registry.eq_pair_of(var)
    if negative:
        return [[Bound(x, y, -1)], [Bound(y, x, -1)]]
    return [[Bound(x, y, 0), Bound(y, x, 0)]]


def assert_clauses_sound(registry, clauses):
    """The negation of every clause is theory-inconsistent.

    The generators skip duplicate checks because, by construction, no
    clause repeats and none mentions a variable twice; check that too.
    """
    assert len({frozenset(c) for c in clauses}) == len(clauses)
    for clause in clauses:
        assert len({lit >> 1 for lit in clause}) == len(clause), clause
        negated = [literal_alternatives(registry, lit ^ 1) for lit in clause]
        for choice in itertools.product(*negated):
            bounds = [bound for part in choice for bound in part]
            assert not check_bounds(bounds).consistent, clause


class TestBasicGeneration:
    def test_empty_registry(self):
        registry = SepVarRegistry()
        assert len(generate_transitivity(registry, make_vars(3))) == 0
        assert len(registry.cnf) == 0

    def test_triangle_chain(self):
        registry = SepVarRegistry()
        x, y, z = make_vars(3)
        registry.literal(x, y, 0)
        registry.literal(y, z, 0)
        registry.literal(x, z, 0)
        clauses = generate_transitivity(registry, [x, y, z])
        assert len(clauses) > 0  # at least the chained implication
        assert clauses == range(0, len(registry.cnf))

    def test_budget_exceeded(self):
        registry, vars_ = dense_bound_registry()
        stats = TransitivityStats()
        with pytest.raises(TransitivityBudgetExceeded) as info:
            generate_transitivity(registry, vars_, budget=3, stats=stats)
        assert stats.clauses == info.value.clauses == 4

    def test_budget_exceeded_counts_earlier_classes(self):
        # The budget caps the running total across a formula's classes.
        registry, vars_ = dense_bound_registry()
        stats = TransitivityStats(clauses=2)
        with pytest.raises(TransitivityBudgetExceeded) as info:
            generate_transitivity(registry, vars_, budget=3, stats=stats)
        assert stats.clauses == info.value.clauses == 4

        registry, vars_ = dense_bound_registry()
        needed = len(generate_transitivity(registry, vars_))
        registry, vars_ = dense_bound_registry()
        stats = TransitivityStats(clauses=1)
        with pytest.raises(TransitivityBudgetExceeded):
            generate_transitivity(registry, vars_, budget=needed, stats=stats)
        assert stats.clauses == needed + 1

    def test_refused_class_writes_nothing(self):
        registry, vars_ = dense_bound_registry()
        var_count = registry.var_count()
        stats = TransitivityStats()
        with pytest.raises(TransitivityBudgetExceeded):
            generate_transitivity(registry, vars_, budget=3, stats=stats)
        assert len(registry.cnf) == 0
        assert registry.cnf.num_vars == 0
        assert registry.var_count() == var_count
        assert registry.derived_var_count == 0
        assert stats == TransitivityStats(clauses=4)

    def test_refused_equality_class_writes_nothing(self):
        registry = SepVarRegistry()
        w, x, y, z = make_vars(4)
        for a, c in ((w, x), (x, y), (y, z), (z, w)):
            registry.eq_var(a, c)
        stats = TransitivityStats()
        with pytest.raises(TransitivityBudgetExceeded) as info:
            generate_equality_transitivity(
                registry, [w, x, y, z], budget=5, stats=stats
            )
        assert stats.clauses == info.value.clauses == 6
        assert len(registry.cnf) == 0
        assert registry.cnf.num_vars == 0
        assert registry.derived_var_count == 0

    def test_stats_populated(self):
        registry = SepVarRegistry()
        x, y, z = make_vars(3)
        registry.literal(x, y, 1)
        registry.literal(y, z, -2)
        registry.literal(x, z, 0)
        stats = TransitivityStats()
        clauses = generate_transitivity(registry, [x, y, z], stats=stats)
        assert stats.eliminated_nodes == 3
        assert stats.clauses == len(clauses) > 0

    def test_other_class_vars_ignored(self):
        registry = SepVarRegistry()
        x, y, u, v = make_vars(4)
        registry.literal(x, y, 0)
        registry.literal(x, y, 2)
        registry.literal(u, v, 0)
        clauses = emitted(
            registry, generate_transitivity(registry, [x, y])
        )
        assert clauses  # x - y <= 0 implies x - y <= 2
        for clause in clauses:
            for lit in clause:
                bound = registry.bound_of(literal_var(registry, lit))
                assert {bound.lhs, bound.rhs} == {x, y}

    def test_equality_classes_share_the_cnf(self):
        registry = SepVarRegistry()
        w, x, y, z = make_vars(4)
        for a, c in ((w, x), (x, y), (y, z), (z, w)):
            registry.eq_var(a, c)
        stats = TransitivityStats()
        clauses = generate_equality_transitivity(
            registry, [w, x, y, z], stats=stats
        )
        # The 4-cycle gets one derived chord, making two triangles of
        # three implications each.
        assert len(clauses) == stats.clauses == 6
        assert stats.fill_edges == registry.derived_var_count == 1
        assert all(len(c) == 3 for c in emitted(registry, clauses))


def dense_bound_registry():
    """Forty random bounds over eight constants: far over a small budget."""
    registry = SepVarRegistry()
    vars_ = make_vars(8)
    rng = random.Random(0)
    for _ in range(40):
        a, c = rng.sample(vars_, 2)
        registry.literal(a, c, rng.randint(-5, 5))
    return registry, vars_


def assignment_consistent(registry, assignment):
    """Theory-consistency of a full Boolean assignment via Bellman-Ford."""
    bounds = registry.asserted_bounds(assignment)
    return check_bounds(bounds).consistent


def equalities_consistent(registry, assignment):
    """Can the asserted equalities and disequalities hold together?"""
    classes = DisjointSet(v for pair in registry.eq_pairs() for v in pair)
    for var, value in assignment.items():
        if value:
            classes.union(*registry.eq_pair_of(var))
    return all(
        classes.find(x) != classes.find(y)
        for var, value in assignment.items()
        if not value
        for x, y in [registry.eq_pair_of(var)]
    )


def constraints_satisfied(registry, assignment):
    """Is there an extension of ``assignment`` (to the derived variables)
    satisfying every transitivity clause?  Decided with the SAT solver
    on a copy of the registry's CNF plus one unit per assigned variable."""
    cnf = Cnf()
    cnf.ensure_vars(registry.cnf.num_vars)
    cnf.add_packed_clauses(registry.cnf.iter_packed())
    for var, value in assignment.items():
        idx = registry.cnf.lookup(var)
        if idx is not None:
            cnf.add_packed_clause([(idx << 1) | (0 if value else 1)])
    return solve_cnf(cnf).is_sat


def random_bound_registry(rng):
    n = rng.randint(2, 5)
    vars_ = make_vars(n)
    registry = SepVarRegistry()
    for _ in range(rng.randint(1, 7)):
        a, c = rng.sample(vars_, 2)
        registry.literal(a, c, rng.randint(-3, 3))
    return registry, vars_


def random_equality_registry(rng):
    n = rng.randint(2, 6)
    vars_ = make_vars(n)
    registry = SepVarRegistry()
    for _ in range(rng.randint(1, 8)):
        a, c = rng.sample(vars_, 2)
        registry.eq_var(a, c)
    return registry, vars_


class TestCompleteness:
    """The paper's requirement: F_trans rules out exactly the assignments
    with no corresponding integer model."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_consistent_iff_extendable(self, seed):
        rng = random.Random(seed)
        registry, vars_ = random_bound_registry(rng)
        original_vars = registry.all_vars()
        generate_transitivity(registry, vars_)

        # Sample full assignments to the original variables.
        for _ in range(min(2 ** len(original_vars), 8)):
            assignment = {
                v: rng.random() < 0.5 for v in original_vars
            }
            consistent = assignment_consistent(registry, assignment)
            satisfied = constraints_satisfied(registry, assignment)
            # Consistent assignments extend to satisfy F_trans;
            # inconsistent ones must violate it under every extension.
            assert satisfied == consistent

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_equality_consistent_iff_extendable(self, seed):
        rng = random.Random(seed)
        registry, vars_ = random_equality_registry(rng)
        original_vars = registry.all_eq_vars()
        generate_equality_transitivity(registry, vars_)

        for _ in range(min(2 ** len(original_vars), 8)):
            assignment = {
                v: rng.random() < 0.5 for v in original_vars
            }
            consistent = equalities_consistent(registry, assignment)
            satisfied = constraints_satisfied(registry, assignment)
            assert satisfied == consistent


class TestSoundness:
    """Every emitted clause is a theory lemma: its negation, decoded
    through the registry to bounds, has a negative cycle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_bound_clauses_are_lemmas(self, seed):
        registry, vars_ = random_bound_registry(random.Random(seed))
        clauses = generate_transitivity(registry, vars_)
        assert_clauses_sound(registry, emitted(registry, clauses))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_equality_clauses_are_lemmas(self, seed):
        registry, vars_ = random_equality_registry(random.Random(seed))
        clauses = generate_equality_transitivity(registry, vars_)
        assert_clauses_sound(registry, emitted(registry, clauses))


class TestBudgetPlan:
    """The plan counts exactly what the emitter writes: a class is refused
    iff its clauses do not fit in what the budget has left, a refused
    class leaves the registry untouched, and an accepted one is emitted
    exactly as without a budget."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        equality=st.booleans(),
        start=st.integers(0, 5),
        offset=st.integers(-4, 4),
    )
    def test_refused_iff_over_budget(self, seed, equality, start, offset):
        if equality:
            make, generate = (
                random_equality_registry,
                generate_equality_transitivity,
            )
        else:
            make, generate = random_bound_registry, generate_transitivity
        registry, vars_ = make(random.Random(seed))
        free = TransitivityStats()
        expected = emitted(registry, generate(registry, vars_, stats=free))
        budget = max(0, start + len(expected) + offset)

        registry, vars_ = make(random.Random(seed))
        var_count = registry.var_count()
        stats = TransitivityStats(clauses=start)
        if len(expected) > budget - start:
            with pytest.raises(TransitivityBudgetExceeded) as info:
                generate(registry, vars_, budget=budget, stats=stats)
            assert info.value.clauses == budget + 1
            assert stats == TransitivityStats(clauses=budget + 1)
            assert len(registry.cnf) == registry.cnf.num_vars == 0
            assert registry.var_count() == var_count
            assert registry.derived_var_count == 0
        else:
            clauses = generate(registry, vars_, budget=budget, stats=stats)
            assert emitted(registry, clauses) == expected
            free.clauses += start
            assert stats == free

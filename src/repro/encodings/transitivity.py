"""Transitivity-constraint generation for the per-constraint (EIJ) encoding.

A full assignment to the EIJ Boolean variables asserts one difference bound
per variable (the bound itself, or its integer negation).  The assignment is
theory-consistent iff the asserted bounds contain no negative-weight cycle.
This module generates the clauses of ``F_trans`` that rule out *every*
negative cycle, by graph-shaped Fourier–Motzkin elimination:

* build the *variable graph* of the class (nodes = symbolic constants,
  edges = pairs related by some bound variable);
* eliminate nodes in min-degree order; when node ``v`` goes, every pair of
  bounds ``a - v <= c1`` and ``v - b <= c2`` yields the implied bound
  ``a - b <= c1 + c2``, adding the chord ``(a, b)`` (this is the chordal
  triangulation the Strichman–Seshia–Bryant CAV'02 procedure performs);
* an implied bound on a *new* (pair, constant) allocates a fresh Boolean
  variable — the paper notes "this process might, in general, result in new
  Boolean variables being generated";
* self-implications ``a - a <= c`` with ``c < 0`` become two-literal
  conflict clauses.

Clauses are written straight into the registry's CNF
(:attr:`SepVarRegistry.cnf <repro.encodings.sepvars.SepVarRegistry.cnf>`)
as int-packed literals (``2v`` / ``2v + 1``, the :mod:`repro.sat.cnf`
convention); no formula node is built for them.

Every clause is emitted exactly once without a duplicate check: the three
literals of a clause made while eliminating ``v`` sit on the three distinct
pairs ``{a, v}``, ``{v, b}``, ``{a, b}`` (so none is complementary or
repeated), distinct ``(a, b, c1, c2)`` give distinct literal sets, and once
``v`` is gone no later clause mentions a pair containing it.

The number of constants per edge can grow multiplicatively — this is the
potentially-exponential blow-up the paper attributes to EIJ.  A budget
caps the work and raises :class:`TransitivityBudgetExceeded`, which the
experiment harness treats the way the paper treats EIJ translation-stage
timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..logic.terms import Var
from .sepvars import SepVarRegistry

__all__ = [
    "TransitivityBudgetExceeded",
    "TransitivityStats",
    "generate_transitivity",
    "generate_equality_transitivity",
]


class TransitivityBudgetExceeded(Exception):
    """Raised when constraint generation exceeds the configured budget."""

    def __init__(self, clauses: int, budget: int):
        super().__init__(
            "transitivity generation exceeded budget: %d clauses "
            "(budget %d)" % (clauses, budget)
        )
        self.clauses = clauses
        self.budget = budget


@dataclass
class TransitivityStats:
    clauses: int = 0
    derived_vars: int = 0
    eliminated_nodes: int = 0
    fill_edges: int = 0


def _min_degree(remaining: Set[Var], adjacency: Dict[Var, Set[Var]]) -> Var:
    """Next node to eliminate: min degree, ties broken by uid."""
    return min(remaining, key=lambda v: (len(adjacency[v]), v.uid))


def generate_equality_transitivity(
    registry: SepVarRegistry,
    class_vars: Sequence[Var],
    budget: Optional[int] = None,
    stats: Optional[TransitivityStats] = None,
) -> range:
    """Triangle constraints for an *equality-only* class (Bryant–Velev).

    Each pair of compared constants has one Boolean variable; the variable
    graph is chordalised by min-degree elimination, and every triangle of
    the filled graph contributes its three transitivity implications
    ``E_ab ∧ E_bc ⇒ E_ac``.  This is the polynomial subclass the paper's
    Section 3 footnote highlights — no constants, no derived chains.

    The clauses are appended to ``registry.cnf``; returns the range of
    their indices there.
    """
    if stats is None:
        stats = TransitivityStats()
    cnf = registry.cnf
    first = len(cnf)
    cnf.add_packed_clauses(
        _triangle_clauses(registry, set(class_vars), budget, stats)
    )
    return range(first, len(cnf))


def _triangle_clauses(
    registry: SepVarRegistry,
    members: Set[Var],
    budget: Optional[int],
    stats: TransitivityStats,
) -> Iterator[Tuple[int, ...]]:
    adjacency: Dict[Var, Set[Var]] = {}
    for x, y in registry.eq_pairs():
        if x not in members or y not in members:
            continue
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    remaining = set(adjacency)
    while remaining:
        node = _min_degree(remaining, adjacency)
        neighbors = sorted(adjacency[node], key=lambda v: v.uid)
        for i, a in enumerate(neighbors):
            adjacent_a = adjacency[a]
            for c in neighbors[i + 1:]:
                if c not in adjacent_a:
                    stats.fill_edges += 1
                adjacent_a.add(c)
                adjacency[c].add(a)
                e_av = registry.packed_eq(a, node, derived=True)
                e_vc = registry.packed_eq(node, c, derived=True)
                e_ac = registry.packed_eq(a, c, derived=True)
                yield (e_av ^ 1, e_vc ^ 1, e_ac)
                yield (e_av ^ 1, e_ac ^ 1, e_vc)
                yield (e_vc ^ 1, e_ac ^ 1, e_av)
                stats.clauses += 3
                if budget is not None and stats.clauses > budget:
                    raise TransitivityBudgetExceeded(stats.clauses, budget)
        for a in neighbors:
            adjacency[a].discard(node)
        adjacency[node] = set()
        remaining.discard(node)
        stats.eliminated_nodes += 1


def generate_transitivity(
    registry: SepVarRegistry,
    class_vars: Sequence[Var],
    budget: Optional[int] = None,
    stats: Optional[TransitivityStats] = None,
) -> range:
    """Generate the transitivity clauses for one EIJ-encoded class.

    The clauses are appended to ``registry.cnf`` as packed literals over
    the registry variables' CNF ids; their conjunction is the class's
    contribution to ``F_trans``.  Returns the range of their indices in
    ``registry.cnf``.
    """
    if stats is None:
        stats = TransitivityStats()
    cnf = registry.cnf
    first = len(cnf)
    cnf.add_packed_clauses(
        _elimination_clauses(registry, set(class_vars), budget, stats)
    )
    return range(first, len(cnf))


def _elimination_clauses(
    registry: SepVarRegistry,
    members: Set[Var],
    budget: Optional[int],
    stats: TransitivityStats,
) -> Iterator[Tuple[int, ...]]:
    # Directed constant tables: (u, v) -> {c: packed literal u - v <= c}.
    table: Dict[Tuple[Var, Var], Dict[int, int]] = {}
    adjacency: Dict[Var, Set[Var]] = {}

    for x, y in registry.pairs():
        if x not in members or y not in members:
            continue
        fwd = table.setdefault((x, y), {})
        rev = table.setdefault((y, x), {})
        for c in registry.constants(x, y):
            lit = registry.packed_literal(x, y, c)
            fwd[c] = lit
            rev[-c - 1] = lit ^ 1
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    def implied(a: Var, b: Var, c: int) -> int:
        """Literal for ``a - b <= c``, allocating a derived variable."""
        before = registry.var_count()
        lit = registry.packed_literal(a, b, c, derived=True)
        if registry.var_count() > before:
            stats.derived_vars += 1
        return lit

    # The clause count lives in a local for the inner loops and is written
    # back to ``stats`` when the generator finishes or raises.
    count = stats.clauses
    limit = budget if budget is not None else -1
    remaining = set(adjacency)
    try:
        while remaining:
            node = _min_degree(remaining, adjacency)
            neighbors = sorted(adjacency[node], key=lambda v: v.uid)
            for a in neighbors:
                in_bounds = table.get((a, node))
                if not in_bounds:
                    continue
                for b in neighbors:
                    out_bounds = table.get((node, b))
                    if not out_bounds:
                        continue
                    if a is b:
                        # a -> node -> a : conflict when the cycle is
                        # negative; complementary literals are a tautology.
                        for c1, l1 in in_bounds.items():
                            for c2, l2 in out_bounds.items():
                                if c1 + c2 < 0 and l1 != l2 ^ 1:
                                    yield (l1 ^ 1, l2 ^ 1)
                                    count += 1
                                    if count > limit >= 0:
                                        raise TransitivityBudgetExceeded(
                                            count, limit
                                        )
                        continue
                    forward = table.setdefault((a, b), {})
                    backward = table.setdefault((b, a), {})
                    for c1, l1 in in_bounds.items():
                        n1 = l1 ^ 1
                        for c2, l2 in out_bounds.items():
                            c = c1 + c2
                            l3 = forward.get(c)
                            if l3 is None:
                                l3 = forward[c] = implied(a, b, c)
                                backward[-c - 1] = l3 ^ 1
                            yield (n1, l2 ^ 1, l3)
                            count += 1
                            if count > limit >= 0:
                                raise TransitivityBudgetExceeded(count, limit)
                    adjacent_a = adjacency[a]
                    if b not in adjacent_a:
                        stats.fill_edges += 1
                    adjacent_a.add(b)
                    adjacency[b].add(a)
            # Remove the node from the graph.
            for a in neighbors:
                adjacency[a].discard(node)
            adjacency[node] = set()
            remaining.discard(node)
            stats.eliminated_nodes += 1
    finally:
        stats.clauses = count

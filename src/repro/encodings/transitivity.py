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
caps it, so each generator works in two phases:

* **plan** — run the elimination on the graph alone (on constant *sets*
  for difference classes), recording the order and each node's
  neighbours and counting the clauses exactly.  If the running total
  passes the budget the class is refused with
  :class:`TransitivityBudgetExceeded` (reporting ``budget + 1``) before
  any variable is allocated or any clause written;
* **emit** — walk the recorded plan with the literal tables, writing the
  clauses in the order a single pass would.

The experiment harness treats a refusal the way the paper treats EIJ
translation-stage timeouts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..logic.terms import Var
from .sepvars import SepVarRegistry

__all__ = [
    "TransitivityBudgetExceeded",
    "TransitivityStats",
    "generate_transitivity",
    "generate_equality_transitivity",
]


class TransitivityBudgetExceeded(Exception):
    """Raised, before anything is written, for a class over the budget."""

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


#: One elimination step: the node and its neighbours (sorted by uid) at
#: the moment it goes.  A plan is the list of steps in elimination order.
_Step = Tuple[Var, List[Var]]


def _min_degree(remaining: Set[Var], adjacency: Dict[Var, Set[Var]]) -> Var:
    """Next node to eliminate: min degree, ties broken by uid."""
    return min(remaining, key=lambda v: (len(adjacency[v]), v.uid))


def _check_budget(
    count: int, budget: Optional[int], stats: TransitivityStats
) -> None:
    """Refuse the class once the running clause total passes ``budget``.

    Only the planners call this, so a refused class has allocated no
    variable and written no clause; ``stats`` reports ``budget + 1``.
    """
    if budget is not None and count > budget:
        stats.clauses = budget + 1
        raise TransitivityBudgetExceeded(budget + 1, budget)


def _append(
    registry: SepVarRegistry, clauses: Iterable[Tuple[int, ...]]
) -> range:
    """Append ``clauses`` to ``registry.cnf``; the range of their indices."""
    cnf = registry.cnf
    first = len(cnf)
    cnf.add_packed_clauses(clauses)
    return range(first, len(cnf))


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
    steps = _plan_triangles(registry, set(class_vars), budget, stats)
    return _append(registry, _triangle_clauses(registry, steps))


def _plan_triangles(
    registry: SepVarRegistry,
    members: Set[Var],
    budget: Optional[int],
    stats: TransitivityStats,
) -> List[_Step]:
    """Chordalise the class's equality graph; refuse it if over budget.

    Eliminating a node with ``k`` neighbours emits three clauses per
    neighbour pair, so the count needs the graph alone.
    """
    adjacency: Dict[Var, Set[Var]] = {}
    for x, y in registry.eq_pairs():
        if x not in members or y not in members:
            continue
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    steps: List[_Step] = []
    count = stats.clauses
    fill_edges = 0
    remaining = set(adjacency)
    while remaining:
        node = _min_degree(remaining, adjacency)
        neighbors = sorted(adjacency[node], key=lambda v: v.uid)
        steps.append((node, neighbors))
        count += 3 * (len(neighbors) * (len(neighbors) - 1) // 2)
        _check_budget(count, budget, stats)
        for i, a in enumerate(neighbors):
            adjacent_a = adjacency[a]
            for c in neighbors[i + 1:]:
                if c not in adjacent_a:
                    fill_edges += 1
                adjacent_a.add(c)
                adjacency[c].add(a)
        for a in neighbors:
            adjacency[a].discard(node)
        adjacency[node] = set()
        remaining.discard(node)
    stats.clauses = count
    stats.fill_edges += fill_edges
    stats.eliminated_nodes += len(steps)
    return steps


def _triangle_clauses(
    registry: SepVarRegistry, steps: List[_Step]
) -> Iterator[Tuple[int, ...]]:
    for node, neighbors in steps:
        for i, a in enumerate(neighbors):
            for c in neighbors[i + 1:]:
                e_av = registry.packed_eq(a, node, derived=True)
                e_vc = registry.packed_eq(node, c, derived=True)
                e_ac = registry.packed_eq(a, c, derived=True)
                yield (e_av ^ 1, e_vc ^ 1, e_ac)
                yield (e_av ^ 1, e_ac ^ 1, e_vc)
                yield (e_vc ^ 1, e_ac ^ 1, e_av)


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
    members = set(class_vars)
    steps = _plan_elimination(registry, members, budget, stats)
    return _append(
        registry, _elimination_clauses(registry, members, steps, stats)
    )


def _class_pairs(
    registry: SepVarRegistry, members: Set[Var]
) -> Iterator[Tuple[Var, Var]]:
    """The registry's canonical bound pairs inside the class."""
    for x, y in registry.pairs():
        if x in members and y in members:
            yield x, y


def _plan_elimination(
    registry: SepVarRegistry,
    members: Set[Var],
    budget: Optional[int],
    stats: TransitivityStats,
) -> List[_Step]:
    """The elimination of :func:`_elimination_clauses` on constant sets.

    Tracks, per directed pair, the set of constants the emitter's literal
    table will hold, and counts the clauses it will write.  While ``v`` is
    eliminated, the tables ``T(a, v)`` and ``T(v, b)`` do not change (only
    pairs of two neighbours gain constants), so for ``a != b`` the step
    writes ``|T(a, v)| * |T(v, b)|`` clauses and ``T(a, b)`` gains their
    sumset; for ``a is b`` it writes one clause per pair with
    ``c1 + c2 < -1``.  Refuses the class as soon as the running total
    passes the budget.
    """
    table: Dict[Tuple[Var, Var], Set[int]] = {}
    adjacency: Dict[Var, Set[Var]] = {}
    for x, y in _class_pairs(registry, members):
        constants = registry.constants(x, y)
        table[(x, y)] = set(constants)
        table[(y, x)] = {-c - 1 for c in constants}
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    steps: List[_Step] = []
    count = stats.clauses
    fill_edges = 0
    remaining = set(adjacency)
    while remaining:
        node = _min_degree(remaining, adjacency)
        neighbors = sorted(adjacency[node], key=lambda v: v.uid)
        steps.append((node, neighbors))
        outs = [(b, table.get((node, b))) for b in neighbors]
        for a in neighbors:
            in_bounds = table.get((a, node))
            if not in_bounds:
                continue
            for b, out_bounds in outs:
                if not out_bounds:
                    continue
                if a is b:
                    below = sorted(out_bounds)
                    count += sum(
                        bisect_left(below, -1 - c1) for c1 in in_bounds
                    )
                    _check_budget(count, budget, stats)
                    continue
                count += len(in_bounds) * len(out_bounds)
                _check_budget(count, budget, stats)
                sums = {c1 + c2 for c1 in in_bounds for c2 in out_bounds}
                table.setdefault((a, b), set()).update(sums)
                table.setdefault((b, a), set()).update(-c - 1 for c in sums)
                adjacent_a = adjacency[a]
                if b not in adjacent_a:
                    fill_edges += 1
                adjacent_a.add(b)
                adjacency[b].add(a)
        for a in neighbors:
            adjacency[a].discard(node)
        adjacency[node] = set()
        remaining.discard(node)
    stats.clauses = count
    stats.fill_edges += fill_edges
    stats.eliminated_nodes += len(steps)
    return steps


def _elimination_clauses(
    registry: SepVarRegistry,
    members: Set[Var],
    steps: List[_Step],
    stats: TransitivityStats,
) -> Iterator[Tuple[int, ...]]:
    # Directed constant tables: (u, v) -> {c: packed literal u - v <= c}.
    table: Dict[Tuple[Var, Var], Dict[int, int]] = {}
    for x, y in _class_pairs(registry, members):
        fwd = table.setdefault((x, y), {})
        rev = table.setdefault((y, x), {})
        for c in registry.constants(x, y):
            lit = registry.packed_literal(x, y, c)
            fwd[c] = lit
            rev[-c - 1] = lit ^ 1

    def implied(a: Var, b: Var, c: int) -> int:
        """Literal for ``a - b <= c``, allocating a derived variable."""
        before = registry.var_count()
        lit = registry.packed_literal(a, b, c, derived=True)
        if registry.var_count() > before:
            stats.derived_vars += 1
        return lit

    for node, neighbors in steps:
        outs = [(b, table.get((node, b))) for b in neighbors]
        for a in neighbors:
            in_bounds = table.get((a, node))
            if not in_bounds:
                continue
            for b, out_bounds in outs:
                if not out_bounds:
                    continue
                if a is b:
                    # a -> node -> a : conflict when the cycle is negative.
                    # c1 + c2 == -1 pairs a bound with its own negation
                    # (the same variable, complementary literals): a
                    # tautology, so it is skipped, here and in the plan.
                    for c1, l1 in in_bounds.items():
                        for c2, l2 in out_bounds.items():
                            if c1 + c2 < -1:
                                yield (l1 ^ 1, l2 ^ 1)
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

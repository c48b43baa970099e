"""Tseitin transformation: propositional :class:`Formula` DAG to CNF.

The encoders in :mod:`repro.encodings` output *propositional* formulas —
``Formula`` objects whose only atoms are :class:`BoolVar` and
:class:`BoolConst` — next to a CNF that already holds the ``F_trans``
transitivity clauses; :func:`to_cnf` can extend that CNF in place.
This module flattens such a DAG to CNF, introducing one
definition variable per internal connective node.  Sharing in the DAG is
preserved: each distinct node is defined exactly once, which is what keeps
the CNF size linear in DAG size (the property the paper's size analysis
relies on).

Since PR 7 the encoder works natively in the packed-literal convention of
:mod:`repro.sat.cnf` (variable ``v`` is ``2v``, its negation ``2v + 1``):
the node memo holds packed literals, negation is ``lit ^ 1``, and clauses
land in the packed arena with no signed/packed round-trip anywhere on the
bulk-insert path.

Two encodings are supported:

* **classic** Tseitin — every definition variable is constrained in both
  directions (``out ↔ definition``);
* **Plaisted–Greenbaum** (``mode="pg"``) — polarity-aware: a node that
  only occurs positively under the asserted roots gets only the
  ``out → definition`` clauses, a negative-only node gets only the
  ``definition → out`` clauses, and bipolar nodes (e.g. under ``Iff``)
  keep both.  The CNF is equisatisfiable and any model of it, projected
  onto the input variables, satisfies the original formula — which is the
  property countermodel decoding needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..logic.terms import (
    And,
    BoolConst,
    BoolVar,
    FALSE,
    Formula,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    TRUE,
)
from ..logic.traversal import postorder
from .cnf import Cnf

__all__ = ["tseitin", "to_cnf", "compute_polarities", "POS", "NEG", "BOTH"]

#: Polarity bitmask values: a node needs the positive direction of its
#: definition (``out → def``), the negative one (``¬out → ¬def``), or both.
POS = 1
NEG = 2
BOTH = POS | NEG


def _flip(mask: int) -> int:
    return ((mask << 1) | (mask >> 1)) & BOTH


def compute_polarities(
    roots: Iterable[Formula],
    polarities: Optional[Dict[Node, int]] = None,
) -> Dict[Node, int]:
    """Polarity mask of every node reachable from ``roots``.

    Each root is taken positively (it will be asserted).  ``Not`` and the
    antecedent of ``Implies`` flip polarity, ``And``/``Or`` preserve it,
    and both sides of an ``Iff`` are bipolar.  Pass the same dict across
    calls to accumulate polarities over several roots that will share a
    Tseitin memo.
    """
    if polarities is None:
        polarities = {}
    stack = [(root, POS) for root in roots]
    while stack:
        node, mask = stack.pop()
        current = polarities.get(node, 0)
        added = mask & ~current
        if not added:
            continue
        polarities[node] = current | added
        if isinstance(node, Not):
            stack.append((node.arg, _flip(added)))
        elif isinstance(node, (And, Or)):
            for arg in node.args:
                stack.append((arg, added))
        elif isinstance(node, Implies):
            stack.append((node.lhs, _flip(added)))
            stack.append((node.rhs, added))
        elif isinstance(node, Iff):
            stack.append((node.lhs, BOTH))
            stack.append((node.rhs, BOTH))
    return polarities


def tseitin(
    formula: Formula,
    cnf: Cnf = None,
    lits: Dict[Node, int] = None,
    polarities: Optional[Dict[Node, int]] = None,
) -> Tuple[Cnf, int]:
    """Encode ``formula``; returns ``(cnf, root_literal)``.

    The root literal is **packed** (``2v`` / ``2v + 1``); the caller
    asserts the root by adding it as a packed unit clause (:func:`to_cnf`
    does exactly that) and negates it with ``root ^ 1``.  Passing an
    existing ``cnf`` allows several formulas to share one variable space,
    and passing the same ``lits`` memo across calls keeps shared sub-DAGs
    defined once (the memo holds packed literals).

    ``polarities`` switches on the Plaisted–Greenbaum mode: only the
    clause direction(s) a node's mask requires are emitted.  The mask must
    cover *every* root that will share the ``lits`` memo (compute it once
    with :func:`compute_polarities` over all of them) — a memoised node is
    never revisited, so directions missing from the mask would be lost.
    """
    if cnf is None:
        cnf = Cnf()
    if lits is None:
        lits = {}
    emit = cnf.add_packed_clause

    # TRUE/FALSE get a dedicated always-true variable so that constant
    # sub-formulas need no special-casing in parents.
    const_var = None

    def const_lit(value: bool) -> int:
        nonlocal const_var
        if const_var is None:
            const_var = cnf.new_var(("tseitin", "const_true")) << 1
            emit([const_var])
        return const_var if value else const_var | 1

    for node in postorder(formula):
        if node in lits:
            continue
        if isinstance(node, BoolConst):
            lits[node] = const_lit(node.value)
            continue
        if isinstance(node, BoolVar):
            lits[node] = cnf.var_for(node) << 1
            continue
        if isinstance(node, Not):
            lits[node] = lits[node.arg] ^ 1
            continue
        mask = BOTH if polarities is None else polarities.get(node, BOTH)
        if isinstance(node, And):
            out = cnf.new_var() << 1
            kids = [lits[a] for a in node.args]
            if mask & POS:
                not_out = out | 1
                for k in kids:
                    emit([not_out, k])
            if mask & NEG:
                emit([out] + [k ^ 1 for k in kids])
            lits[node] = out
        elif isinstance(node, Or):
            out = cnf.new_var() << 1
            kids = [lits[a] for a in node.args]
            if mask & NEG:
                for k in kids:
                    emit([out, k ^ 1])
            if mask & POS:
                emit([out | 1] + kids)
            lits[node] = out
        elif isinstance(node, Implies):
            out = cnf.new_var() << 1
            a, b = lits[node.lhs], lits[node.rhs]
            if mask & POS:
                emit([out | 1, a ^ 1, b])
            if mask & NEG:
                emit([out, a])
                emit([out, b ^ 1])
            lits[node] = out
        elif isinstance(node, Iff):
            out = cnf.new_var() << 1
            a, b = lits[node.lhs], lits[node.rhs]
            if mask & POS:
                emit([out | 1, a ^ 1, b])
                emit([out | 1, a, b ^ 1])
            if mask & NEG:
                emit([out, a, b])
                emit([out, a ^ 1, b ^ 1])
            lits[node] = out
        else:
            raise TypeError(
                "non-propositional node reached Tseitin: %r" % (type(node),)
            )
    return cnf, lits[formula]


def to_cnf(
    formula: Formula, mode: str = "classic", cnf: Optional[Cnf] = None
) -> Cnf:
    """Encode ``formula`` and assert it; returns the CNF.

    With ``cnf`` given, the clauses are added to it (in place) and
    :class:`BoolVar` atoms reuse the variables it already names; this is
    how the encoders' output is completed: :attr:`Encoding.cnf
    <repro.encodings.hybrid.Encoding.cnf>` already holds the
    ``F_trans`` transitivity clauses as packed literal clauses, and
    ``to_cnf(encoding.residual, cnf=encoding.cnf)`` adds ``¬F_bvar`` and
    the SD domain bounds.  Without ``cnf`` a fresh one is returned.

    Top-level conjunctions are asserted conjunct by conjunct, and asserted
    disjunctions of plain literals become clauses directly — no definition
    variables.

    ``mode`` selects the definitional encoding: ``"classic"`` (both
    directions of every definition) or ``"pg"`` (Plaisted–Greenbaum,
    polarity-aware — the eager pipeline's default since it emits up to
    half the definitional clauses).
    """
    if mode not in ("classic", "pg"):
        raise ValueError("unknown Tseitin mode %r" % (mode,))
    if cnf is None:
        cnf = Cnf()
    if formula is TRUE:
        return cnf
    if formula is FALSE:
        v = cnf.new_var(("tseitin", "const_true"))
        cnf.add_clause([v])
        cnf.add_clause([-v])
        return cnf

    asserted: list = [formula]
    complex_nodes: list = []
    literal_clauses: list = []
    while asserted:
        node = asserted.pop()
        if node is TRUE:
            continue
        if node is FALSE:
            v = cnf.var_for(("tseitin", "const_false_assert"))
            cnf.add_clause([v])
            cnf.add_clause([-v])
            continue
        if isinstance(node, And):
            asserted.extend(node.args)
            continue
        lits = _literal_clause(node, cnf)
        if lits is not None:
            # Already packed by _literal_clause; var_for allocated every
            # variable, so no validation pass is needed either.
            literal_clauses.append(lits)
            continue
        complex_nodes.append(node)
    cnf.add_packed_clauses(literal_clauses)

    polarities = None
    if mode == "pg":
        polarities = compute_polarities(complex_nodes)
    shared_memo: dict = {}
    for node in complex_nodes:
        _, root = tseitin(node, cnf, shared_memo, polarities=polarities)
        cnf.add_packed_clause([root])
    return cnf


def _literal_clause(node: Formula, cnf: Cnf):
    """Packed literals when ``node`` is a literal or a clause of literals."""

    def literal(sub):
        if isinstance(sub, BoolVar):
            return cnf.var_for(sub) << 1
        if isinstance(sub, Not) and isinstance(sub.arg, BoolVar):
            return (cnf.var_for(sub.arg) << 1) | 1
        return None

    single = literal(node)
    if single is not None:
        return [single]
    if isinstance(node, Or):
        out = []
        for arg in node.args:
            lit = literal(arg)
            if lit is None:
                return None
            out.append(lit)
        return out
    return None

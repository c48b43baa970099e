"""Fingerprint the F_trans transitivity clauses of the paper suite.

For each of the 98 suite formulas (valid and invalid) that HYBRID
encodes at SEP_THOLD=700 with a transitivity budget of 100000, prints
the sha256 of its sorted, rendered clause set together with the
accumulated ``TransitivityStats``.  Formulas that exhaust the budget are
left out.  A literal renders as the bound it asserts (``x - y <= 3``) or
as ``x = y`` / ``x != y``, so the fingerprint does not depend on CNF
variable numbering.

Run from the repository root in a fresh interpreter, because the
elimination order breaks ties by node uid and uids depend on what the
process built before::

    PYTHONPATH=src python tools/trans_fingerprints.py

``tests/fixtures/trans_fingerprints.json`` holds the expected output;
``tests/test_trans_fingerprints.py`` regenerates and compares it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Dict, List

from repro.benchgen import suite
from repro.encodings import hybrid
from repro.encodings.sepvars import SepVarRegistry
from repro.encodings.transitivity import (
    TransitivityBudgetExceeded,
    TransitivityStats,
)
from repro.transform.func_elim import eliminate_applications

SEP_THOLD = 700
TRANS_BUDGET = 100000
#: Hashed ahead of the rendered clauses: bump it when the rendering
#: changes, so old fingerprints stop matching instead of being misread.
FINGERPRINT_SCHEMA = "trans-fingerprints/1"


def render_literal(registry: SepVarRegistry, lit: int) -> str:
    var = registry.cnf.names[lit >> 1]
    negative = bool(lit & 1)
    bound = registry.bound_of(var)
    if bound is not None:
        return str(bound.negation() if negative else bound)
    x, y = sorted(v.name for v in registry.eq_pair_of(var))
    return "%s %s %s" % (x, "!=" if negative else "=", y)


def fingerprints() -> Dict[str, Any]:
    captured: List[TransitivityStats] = []

    def capture(original):
        def wrapper(registry, class_vars, budget=None, stats=None):
            captured[:] = [stats]
            return original(registry, class_vars, budget, stats)

        return wrapper

    out: Dict[str, Any] = {}
    for name in ("generate_transitivity", "generate_equality_transitivity"):
        setattr(hybrid, name, capture(getattr(hybrid, name)))
    for bench in suite(valid=True) + suite(valid=False):
        captured[:] = []
        f_sep, _ = eliminate_applications(bench.formula)
        try:
            encoding = hybrid.encode_hybrid(
                f_sep, sep_thold=SEP_THOLD, trans_budget=TRANS_BUDGET
            )
        except TransitivityBudgetExceeded:
            continue
        # Before Tseitin runs, the CNF holds exactly the F_trans clauses.
        rendered = sorted(
            " | ".join(
                sorted(render_literal(encoding.registry, lit) for lit in c)
            )
            for c in encoding.cnf.iter_packed()
        )
        stats = captured[0] if captured else TransitivityStats()
        key = "%s/%s" % (bench.name, "valid" if bench.expected_valid
                         else "invalid")
        out[key] = {
            "sha256": hashlib.sha256(
                "\n".join([FINGERPRINT_SCHEMA] + rendered).encode()
            ).hexdigest(),
            "clauses": stats.clauses,
            "derived_vars": stats.derived_vars,
            "eliminated_nodes": stats.eliminated_nodes,
            "fill_edges": stats.fill_edges,
        }
    return out


def main() -> int:
    json.dump(fingerprints(), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

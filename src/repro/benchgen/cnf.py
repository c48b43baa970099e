"""Generated pure-CNF instances: fixed-seed random 3-CNF and pigeonhole.

These exercise the SAT core and the cube-and-conquer conductor on their
own (``tools/profile_sat.py``, the cube tests).  They are solver
microbenchmarks; the end-to-end workload is the SUF suite.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from ..sat.cnf import Cnf

__all__ = ["CNF_INSTANCES", "cnf_instance", "pigeonhole_cnf", "random_3cnf"]


def random_3cnf(seed: int, num_vars: int, num_clauses: int) -> Cnf:
    """Fixed-seed uniform random 3-CNF (three distinct variables)."""
    rng = random.Random(seed)
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause(
            [v if rng.random() < 0.5 else -v for v in chosen]
        )
    return cnf


def pigeonhole_cnf(pigeons: int, holes: int) -> Cnf:
    """Pigeonhole principle CNF; UNSAT whenever ``pigeons > holes``."""
    cnf = Cnf()
    var = {
        (p, h): cnf.new_var()
        for p in range(pigeons)
        for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


#: Named instances: ``name -> (generator, params)``.  Random 3-CNF sits
#: near the ~4.26 clause/variable phase-transition ratio
#: (``r3_<vars>_<clauses>_s<seed>``); ``php_<pigeons>_<holes>`` is UNSAT.
CNF_INSTANCES: Dict[str, Tuple[Callable[..., Cnf], tuple]] = {
    "r3_100_426_s3": (random_3cnf, (3, 100, 426)),
    "r3_120_511_s5": (random_3cnf, (5, 120, 511)),
    "r3_190_808_s19": (random_3cnf, (19, 190, 808)),
    "r3_200_852_s7": (random_3cnf, (7, 200, 852)),
    "r3_210_895_s23": (random_3cnf, (23, 210, 895)),
    "php_6_5": (pigeonhole_cnf, (6, 5)),
    "php_8_7": (pigeonhole_cnf, (8, 7)),
    "php_9_8": (pigeonhole_cnf, (9, 8)),
}


def cnf_instance(name: str) -> Cnf:
    """Build the named :data:`CNF_INSTANCES` instance (a fresh copy)."""
    try:
        generator, params = CNF_INSTANCES[name]
    except KeyError:
        raise ValueError(
            "unknown CNF instance %r (known: %s)"
            % (name, ", ".join(sorted(CNF_INSTANCES)))
        ) from None
    return generator(*params)

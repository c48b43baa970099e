"""Microbenchmarks for the substrate layers.

Not a paper figure — these keep the building blocks honest: CDCL search
throughput, Tseitin flattening, transitivity generation (both the
difference-bound elimination and the equality triangle closure), the
Bellman–Ford theory core, and function elimination on a deep DAG.

Run:  pytest benchmarks/bench_substrates.py --benchmark-only -q
"""

import random

import pytest

from repro.encodings.sepvars import Bound, SepVarRegistry
from repro.encodings.transitivity import (
    generate_equality_transitivity,
    generate_transitivity,
)
from repro.logic import builders as b
from repro.logic.terms import Var
from repro.sat.cnf import Cnf
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf
from repro.theory.difference import check_bounds
from repro.transform.func_elim import eliminate_applications


def _php(pigeons, holes):
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


def test_cdcl_pigeonhole(benchmark):
    benchmark.group = "substrate: CDCL"
    result = benchmark(lambda: solve_cnf(_php(7, 6)))
    assert result.is_unsat


def test_cdcl_random_sat(benchmark):
    benchmark.group = "substrate: CDCL"
    rng = random.Random(1)
    cnf = Cnf()
    for _ in range(120):
        cnf.new_var()
    for _ in range(480):
        cnf.add_clause(
            [rng.choice([1, -1]) * rng.randint(1, 120) for _ in range(3)]
        )

    result = benchmark(lambda: solve_cnf(cnf))
    assert result.status in ("SAT", "UNSAT")


def test_tseitin_large_formula(benchmark):
    benchmark.group = "substrate: Tseitin"
    atoms = [b.bconst("ts%d" % i) for i in range(64)]
    formula = b.bconst("seed")
    for i in range(200):
        # The iff operands are always distinct (6i = -1 mod 64 has no
        # solution), so no sub-formula folds to a constant.
        formula = b.bor(
            b.band(atoms[i % 64], formula),
            b.iff(atoms[(i * 7) % 64], atoms[(i * 13 + 1) % 64]),
        )
    cnf = benchmark(lambda: to_cnf(formula))
    assert len(cnf.clauses) > 100


def test_transitivity_difference(benchmark):
    benchmark.group = "substrate: transitivity"

    def build():
        registry = SepVarRegistry()
        vars_ = [Var("bt%d" % i) for i in range(10)]
        rng = random.Random(3)
        for _ in range(25):
            x, y = rng.sample(vars_, 2)
            registry.literal(x, y, rng.randint(-2, 2))
        generate_transitivity(registry, vars_, budget=300_000)
        return registry.cnf

    cnf = benchmark(build)
    assert len(cnf) > 0


def test_transitivity_equality(benchmark):
    benchmark.group = "substrate: transitivity"

    def build():
        registry = SepVarRegistry()
        vars_ = [Var("be%d" % i) for i in range(24)]
        rng = random.Random(5)
        for _ in range(90):
            x, y = rng.sample(vars_, 2)
            registry.eq_var(x, y)
        generate_equality_transitivity(registry, vars_)
        return registry.cnf

    cnf = benchmark(build)
    assert len(cnf) > 0


def test_bellman_ford(benchmark):
    benchmark.group = "substrate: theory"
    rng = random.Random(7)
    vars_ = [Var("bf%d" % i) for i in range(60)]
    bounds = [
        Bound(*rng.sample(vars_, 2), c=rng.randint(-1, 5))
        for _ in range(400)
    ]
    result = benchmark(lambda: check_bounds(bounds))
    assert result.consistent or result.cycle


def test_function_elimination(benchmark):
    benchmark.group = "substrate: func-elim"
    f = b.func("f")
    xs = [b.const("fe%d" % i) for i in range(30)]
    parts = []
    for i in range(29):
        parts.append(b.eq(f(xs[i]), f(xs[i + 1])))
    formula = b.implies(b.band(*parts), b.eq(f(xs[0]), f(xs[29])))
    f_sep, info = benchmark(lambda: eliminate_applications(formula))
    assert len(info.func_consts["f"]) == 30

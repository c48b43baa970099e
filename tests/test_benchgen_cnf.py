"""The generated pure-CNF instances (benchgen/cnf.py)."""

import pytest

from repro.benchgen.cnf import (
    CNF_INSTANCES,
    cnf_instance,
    pigeonhole_cnf,
    random_3cnf,
)


class TestCnfGenerators:
    def test_random_3cnf_deterministic_and_shaped(self):
        a = random_3cnf(7, 30, 90)
        b = random_3cnf(7, 30, 90)
        assert a.clauses == b.clauses
        assert a.num_vars == 30
        assert len(a.clauses) == 90
        for clause in a.clauses:
            assert len(clause) == 3
            assert len({abs(lit) for lit in clause}) == 3

    def test_pigeonhole_shape(self):
        cnf = pigeonhole_cnf(4, 3)
        assert cnf.num_vars == 12
        # 4 at-least-one clauses + 3 * C(4,2) at-most-one binaries.
        assert len(cnf.clauses) == 4 + 3 * 6

    def test_instance_lookup(self):
        cnf = cnf_instance("php_6_5")
        assert cnf.num_vars == 30
        with pytest.raises(ValueError):
            cnf_instance("no_such_instance")

    def test_every_named_instance_resolves(self):
        for name in CNF_INSTANCES:
            assert cnf_instance(name).num_vars > 0

"""Tests for the ascending (Pnueli et al.) SD range allocation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import check_validity
from repro.encodings.hybrid import encode_sd
from repro.logic import builders as b
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf
from repro.solvers.brute import (
    BruteForceLimitExceeded,
    brute_force_valid_sep,
)

from helpers import random_sep_formula, random_suf_formula


class TestAllocationModes:
    def test_invalid_mode_rejected(self):
        x, y = b.const("x"), b.const("y")
        with pytest.raises(ValueError):
            encode_sd(b.eq(x, y), sd_ranges="diagonal")

    def test_equality_only_gets_tight_bounds(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.bnot(b.band(b.eq(x, y), b.eq(y, z)))
        uniform = encode_sd(formula, sd_ranges="uniform")
        ascending = encode_sd(formula, sd_ranges="ascending")
        # Same variables and widths; only the domain constraints differ.
        assert set(uniform.var_bits) == set(ascending.var_bits)
        assert uniform.sd_domain is not ascending.sd_domain

    def test_offset_classes_unaffected(self):
        x, y = b.const("x"), b.const("y")
        formula = b.bnot(b.lt(b.succ(x), y))
        uniform = encode_sd(formula, sd_ranges="uniform")
        ascending = encode_sd(formula, sd_ranges="ascending")
        assert uniform.sd_domain is ascending.sd_domain

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_ascending_agrees_with_brute_force(self, seed):
        formula = random_sep_formula(seed, max_vars=4, depth=2)
        try:
            expected = brute_force_valid_sep(formula, limit=150_000)
        except BruteForceLimitExceeded:
            return
        encoding = encode_sd(formula, sd_ranges="ascending")
        got = solve_cnf(to_cnf(encoding.residual, cnf=encoding.cnf)).is_unsat
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_check_validity_plumbing(self, seed):
        formula = random_suf_formula(seed, max_vars=3)
        default = check_validity(
            formula, method="sd", want_countermodel=False
        ).valid
        tight = check_validity(
            formula,
            method="sd",
            sd_ranges="ascending",
            want_countermodel=False,
        ).valid
        assert default == tight


class TestCountermodelsStillDecode:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_decoded_model_falsifies(self, seed):
        from repro.logic.semantics import evaluate

        formula = random_suf_formula(seed, max_vars=3)
        result = check_validity(formula, method="sd", sd_ranges="ascending")
        if result.valid is False:
            assert not evaluate(formula, result.counterexample)

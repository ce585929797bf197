import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spence

from entarch import models, sampling, special


def dilog_oracle(x: float) -> float:
    # scipy's spence(z) equals Li2(1 - z)
    return float(spence(1.0 - x))


class TestDilog:
    def test_fixed_values(self):
        assert special.dilog(0.0) == 0.0
        assert abs(special.dilog(1.0) - math.pi**2 / 6) <= 1e-15
        assert abs(special.dilog(-1.0) + math.pi**2 / 12) <= 1e-15
        target = math.pi**2 / 12 - math.log(2.0) ** 2 / 2
        assert abs(special.dilog(0.5) - target) <= 1e-15

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.dilog(1.0000001)

    @pytest.mark.parametrize("x", np.linspace(-3.0, 1.0, 81))
    def test_against_scipy(self, x):
        assert abs(special.dilog(float(x)) - dilog_oracle(float(x))) <= 1e-14

    @given(st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_reflection_identity(self, x):
        lhs = special.dilog(x) + special.dilog(1.0 - x)
        rhs = math.pi**2 / 6 - math.log(x) * math.log1p(-x)
        assert abs(lhs - rhs) <= 1e-13

    @given(st.floats(-1 + 1e-9, 1 - 1e-9))
    @settings(max_examples=300, deadline=None)
    def test_duplication_identity(self, x):
        lhs = special.dilog(x) + special.dilog(-x)
        assert abs(lhs - 0.5 * special.dilog(x * x)) <= 1e-13


class TestAcoth:
    def test_value(self):
        # ulp-scale agreement with the logarithmic form
        assert abs(special.acoth(2.0) - math.log(3.0) / 2) <= 2e-16

    def test_odd(self):
        assert special.acoth(-2.0) == -special.acoth(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            special.acoth(0.5)

    def test_kernel_argument_consistent_with_log_reduction(self):
        s = math.sqrt(81 - 64 / math.sqrt(3))
        r = math.sqrt(729 - 192 * math.sqrt(3))
        lhs = math.log(27 + r) - special.acoth(9 / s)
        assert abs(lhs - (3 * math.log(2) + 0.75 * math.log(3))) <= 1e-13


class TestLi1:
    def test_values(self):
        assert special.li1(0.0) == 0.0
        assert abs(special.li1(0.5) - math.log(2.0)) <= 1e-16

    def test_identity_residual(self):
        assert special.li1_identity_check() <= 1e-13


class TestClosedForms:
    def test_p1_original_value(self):
        rep = special.p1_original()
        assert abs(rep.value - special.P1_REFERENCE) <= 1e-12
        assert rep.identity_checks["radical_factorization"] <= 1e-13
        assert rep.parts["C"] < 0.0  # dilog is increasing, first argument smaller

    def test_p1_simplified_agrees(self):
        a = special.p1_original().value
        b = special.p1_simplified().value
        assert abs(a - b) <= 1e-12

    def test_p1_simplified_identities(self):
        rep = special.p1_simplified()
        assert rep.identity_checks["log_difference_is_twice_acoth"] <= 1e-13
        assert rep.identity_checks["log_minus_acoth_reduction"] <= 1e-13

    def test_p2_value_and_cross_form(self):
        rep = special.p2_closed()
        assert abs(rep.value - special.P2_REFERENCE) <= 5e-7
        assert rep.identity_checks["uniform_product_tail_form"] <= 1e-14
        assert 0.0 < rep.value < 1.0


class TestChiTilde:
    def test_limit_at_one(self):
        assert special.chi_tilde_1(1.0) == 1.0

    def test_small_argument_leading_order(self):
        # leading behavior 32 eps / (3 pi^2); next correction is O(eps^3)
        eps = 1e-4
        lead = 32.0 * eps / (3.0 * math.pi**2)
        assert abs(special.chi_tilde_1(eps) - lead) <= 1e-12
        assert special.chi_tilde_1(eps) < 2e-4

    def test_monotone_points(self):
        assert special.chi_tilde_1(0.3) < special.chi_tilde_1(0.6)

    def test_nondecreasing_grid(self):
        grid = np.linspace(1e-3, 1.0, 1000)
        vals = [special.chi_tilde_1(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            special.chi_tilde_1(0.0)
        with pytest.raises(ValueError):
            special.chi_tilde_1(1.2)


def test_verify_all_passes():
    checks = special.verify_all()
    failed = [c for c in checks if not c["passed"]]
    assert not failed, failed


def test_verify_all_names_and_tolerances_in_order():
    checks = special.verify_all()
    assert [(c["name"], c["tolerance"]) for c in checks] == [
        ("qubit_ququart_longform_value", 1e-11),
        ("qubit_ququart_simplified_value", 1e-11),
        ("longform_equals_simplified", 1e-12),
        ("radical_factorization", 1e-13),
        ("log_difference_is_twice_acoth", 1e-13),
        ("log_minus_acoth_reduction", 1e-13),
        ("li1_difference_is_twice_acoth", 1e-13),
        ("two_ququart_value", 5e-7),
        ("two_ququart_cross_form", 1e-14),
        ("chi_tilde_limit_at_one", 1e-12),
        ("dilog_at_one", 1e-14),
        ("dilog_at_half", 1e-14),
        ("dilog_reflection_identity", 1e-13),
        ("dilog_duplication_identity", 1e-13),
        ("chi_tilde_nondecreasing", 1e-15),
    ]


def test_verify_all_detects_mutation(monkeypatch):
    # Shifting the dilogarithm by 1e-6 must break the verification chain.
    original = special.dilog
    monkeypatch.setattr(special, "dilog", lambda x: original(x) + 1e-6)
    checks = special.verify_all()
    assert not special.all_passed(checks)


def test_reference_table_keys_name_real_runs():
    table = special.reference_probabilities()
    assert table[("M3", "multiplicative", "analytic")] == 0.3911855600402
    for model_id, constraint, mode in table:
        assert mode in models.get_model(model_id).modes
        assert constraint in sampling.CONSTRAINTS

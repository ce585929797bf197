"""Dilogarithm and inverse-hyperbolic kernels plus every closed-form evaluator.

The two bound-entanglement probabilities have exact expressions:

* qubit-ququart family (M1): a dilogarithm expression available in a long
  form with sub-terms A, B, C (``p1_original``) and in a reduced form
  (``p1_simplified``); the two must agree to 1e-12.
* two-ququart family (M2, cube domain): an elementary logarithmic
  expression (``p2_closed``) equal to the product-of-uniforms tail
  probability 1 - c + c ln c - c (ln c)^2 / 2 with c = 256/729.

All radicals and integer constants inside the formulas are evaluated from
exact expressions at call time; reported reference decimals appear only as
verification targets.  ``reference_probabilities`` is the one table of
reference values that Monte Carlo estimates are compared with.
"""

import math
from dataclasses import asdict, dataclass, field

from .models import MODE_ANALYTIC, MODE_PAPER_CUBE, MODE_PSD_ORACLE

# Reference decimals the closed forms are verified against.
P1_REFERENCE = 0.08655423366978987
P2_REFERENCE = 0.0890496
# Reported multiplicative probability shared by the M3 and M4 families.
MULT_REFERENCE_M3_M4 = 0.3911855600402

_PI2_6 = math.pi**2 / 6.0
_SERIES_CUTOFF = 1e-18
_SERIES_MAX_TERMS = 200


@dataclass(frozen=True)
class FormulaReport:
    """A named closed-form value with its sub-terms and identity residuals."""

    name: str
    value: float
    parts: dict = field(default_factory=dict)
    identity_checks: dict = field(default_factory=dict)

    as_dict = asdict


def _dilog_series(x: float) -> float:
    # Direct series sum x^k / k^2, used for |x| <= 1/2.
    total = 0.0
    power = x
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = power / (k * k)
        total += term
        if abs(term) < _SERIES_CUTOFF:
            return total
        power *= x
    return total


def dilog(x: float) -> float:
    """Real-branch dilogarithm Li2(x) for x <= 1, absolute error <= 1e-14.

    Direct series for |x| <= 1/2; the reflection identity
    Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x) for x in (1/2, 1); the
    duplication identity Li2(x) + Li2(-x) = Li2(x^2)/2 for x < -1/2; and
    the inversion formula for x < -1.
    """
    x = float(x)
    if x > 1.0:
        raise ValueError(f"dilog is real only for x <= 1, got {x}")
    if x == 1.0:
        return _PI2_6
    if x == 0.0:
        return 0.0
    if x < -1.0:
        return -_PI2_6 - 0.5 * math.log(-x) ** 2 - dilog(1.0 / x)
    if x > 0.5:
        return _PI2_6 - math.log(x) * math.log1p(-x) - dilog(1.0 - x)
    if x < -0.5:
        return 0.5 * dilog(x * x) - dilog(-x)
    return _dilog_series(x)


def li1(x: float) -> float:
    """Li1(x) = -ln(1 - x) for x < 1."""
    x = float(x)
    if x >= 1.0:
        raise ValueError(f"li1 is finite only for x < 1, got {x}")
    return -math.log1p(-x)


def acoth(x: float) -> float:
    """Inverse hyperbolic cotangent, atanh(1/x), for |x| > 1."""
    x = float(x)
    if abs(x) <= 1.0:
        raise ValueError(f"acoth requires |x| > 1, got {x}")
    return math.atanh(1.0 / x)


def _kernel_constants():
    """The shared radicals: s = sqrt(81 - 64/sqrt 3), r = sqrt(729 - 192 sqrt 3)."""
    sqrt3 = math.sqrt(3.0)
    s = math.sqrt(81.0 - 64.0 / sqrt3)
    r = math.sqrt(729.0 - 192.0 * sqrt3)
    return sqrt3, s, r


def p1_original() -> FormulaReport:
    """Qubit-ququart bound-entanglement probability, long form with A, B, C."""
    sqrt3, s, r = _kernel_constants()
    ac = acoth(9.0 / s)
    a_term = 2.0 * math.log(1024.0 / 243.0 * (9.0 + s)) * math.log(27.0 - r) - 3.0 * math.log(
        48.0
    ) * math.log(108.0)
    b_term = 2.0 * math.log(27.0 + r) ** 2 + 3.0 * math.log(2187.0 / 256.0) * math.log(27.0 + r)
    c_term = 8.0 * dilog((9.0 - s) / 18.0) - 8.0 * dilog((9.0 + s) / 18.0)
    value = (9.0 * math.sqrt(243.0 - 64.0 * sqrt3) - 4.0 * (16.0 * ac + a_term + b_term + c_term)) / (
        81.0 * sqrt3
    )
    return FormulaReport(
        name="qubit_ququart_longform",
        value=value,
        parts={"A": a_term, "B": b_term, "C": c_term, "acoth_term": ac},
        identity_checks={"radical_factorization": abs(r - 3.0 * s)},
    )


def p1_simplified() -> FormulaReport:
    """Qubit-ququart bound-entanglement probability, reduced form.

    Obtained from the long form via two logarithm/acoth identities, whose
    residuals are reported alongside the value.
    """
    sqrt3, s, r = _kernel_constants()
    ac = acoth(9.0 / s)
    dilog_diff = dilog((9.0 + s) / 18.0) - dilog((9.0 - s) / 18.0)
    value = (
        16.0 * (-4.0 - 9.0 * math.log(3.0) + 8.0 * math.log(2.0)) * ac
        + 32.0 * dilog_diff
        + 9.0 * sqrt3 * s
    ) / (81.0 * sqrt3)
    return FormulaReport(
        name="qubit_ququart_simplified",
        value=value,
        parts={"acoth_term": ac, "dilog_difference": dilog_diff, "radical": s},
        identity_checks={
            "log_difference_is_twice_acoth": abs(
                (math.log(27.0 + r) - math.log(27.0 - r)) - 2.0 * ac
            ),
            "log_minus_acoth_reduction": abs(
                (math.log(27.0 + r) - ac) - (3.0 * math.log(2.0) + 0.75 * math.log(3.0))
            ),
        },
    )


def li1_identity_check() -> float:
    """Residual of the order-one analogue: the Li1 difference at the two
    kernel arguments equals twice the acoth term."""
    _, s, _ = _kernel_constants()
    ac = acoth(9.0 / s)
    diff = li1((9.0 + s) / 18.0) - li1((9.0 - s) / 18.0)
    return abs(diff - 2.0 * ac)


def p2_closed() -> FormulaReport:
    """Two-ququart bound-entanglement probability over the cube domain.

    (473 - 512 L (1 + L)) / 729 with L = ln(27/16); algebraically equal to
    the tail probability of a product of three uniforms,
    1 - c + c ln c - c (ln c)^2 / 2 with c = 256/729.
    """
    big_l = math.log(27.0 / 16.0)
    value = (473.0 - 512.0 * big_l * (1.0 + big_l)) / 729.0
    c = 256.0 / 729.0
    ln_c = math.log(c)
    cross = 1.0 - c + c * ln_c - c * ln_c**2 / 2.0
    return FormulaReport(
        name="two_ququart_closed",
        value=value,
        parts={"log_ratio": big_l, "uniform_product_tail_constant": c, "cross_form": cross},
        identity_checks={"uniform_product_tail_form": abs(value - cross)},
    )


def chi_tilde_1(eps: float) -> float:
    """The order-one separability-probability kernel on (0, 1].

    2 (eps^2 (4 Li2(eps) - Li2(eps^2)) - eps^4 atanh(eps) + eps^3 - eps
       + atanh(eps)) / (pi^2 eps^2), with the analytic limit 1 at eps = 1.
    Vanishes like 32 eps / (3 pi^2) as eps -> 0.
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"chi_tilde_1 requires 0 < eps <= 1, got {eps}")
    if eps == 1.0:
        return 1.0
    at = math.atanh(eps)
    num = 2.0 * (
        eps**2 * (4.0 * dilog(eps) - dilog(eps * eps)) - eps**4 * at + eps**3 - eps + at
    )
    return num / (math.pi**2 * eps**2)


def _check(name, value, target, tolerance):
    residual = abs(value - target)
    return {
        "name": name,
        "value": value,
        "target": target,
        "residual": residual,
        "tolerance": tolerance,
        "passed": bool(residual <= tolerance),
    }


def verify_all() -> list:
    """Run every closed-form and identity check; one record per check."""
    rep1 = p1_original()
    rep1s = p1_simplified()
    rep2 = p2_closed()
    # Reflection and duplication identities on a deterministic grid.
    reflection = max(
        abs(dilog(x) + dilog(1.0 - x) - (_PI2_6 - math.log(x) * math.log1p(-x)))
        for x in (k / 64.0 for k in range(1, 64))
    )
    duplication = max(
        abs(dilog(x) + dilog(-x) - 0.5 * dilog(x * x))
        for x in (k / 64.0 - 0.5 for k in range(0, 64))
        if x != 0.0
    )
    vals = [chi_tilde_1(k / 1000.0) for k in range(1, 1001)]
    worst_step = min(b - a for a, b in zip(vals, vals[1:]))
    p1_identities = {**rep1.identity_checks, **rep1s.identity_checks}
    rows = [  # (name, value, target, tolerance)
        ("qubit_ququart_longform_value", rep1.value, P1_REFERENCE, 1e-11),
        ("qubit_ququart_simplified_value", rep1s.value, P1_REFERENCE, 1e-11),
        ("longform_equals_simplified", rep1.value, rep1s.value, 1e-12),
        *((name, residual, 0.0, 1e-13) for name, residual in p1_identities.items()),
        ("li1_difference_is_twice_acoth", li1_identity_check(), 0.0, 1e-13),
        ("two_ququart_value", rep2.value, P2_REFERENCE, 5e-7),
        ("two_ququart_cross_form", rep2.identity_checks["uniform_product_tail_form"], 0.0, 1e-14),
        ("chi_tilde_limit_at_one", chi_tilde_1(1.0), 1.0, 1e-12),
        ("dilog_at_one", dilog(1.0), _PI2_6, 1e-14),
        ("dilog_at_half", dilog(0.5), math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0, 1e-14),
        ("dilog_reflection_identity", reflection, 0.0, 1e-13),
        ("dilog_duplication_identity", duplication, 0.0, 1e-13),
        ("chi_tilde_nondecreasing", max(0.0, -worst_step), 0.0, 1e-15),
    ]
    return [_check(*row) for row in rows]


def all_passed(checks) -> bool:
    return all(c["passed"] for c in checks)


def reference_probabilities() -> dict:
    """Reference probability per (model id, constraint, physical mode).

    The M1 and M2 closed forms, the reported M3/M4 values and M5's empty
    entangled region.
    """
    half_minus_mult = 0.5 - MULT_REFERENCE_M3_M4
    table = {
        ("M1", "multiplicative", MODE_ANALYTIC): p1_simplified().value,
        ("M1", "additive", MODE_ANALYTIC): 0.0,
        ("M2", "multiplicative", MODE_PAPER_CUBE): p2_closed().value,
        ("M2", "additive", MODE_PAPER_CUBE): 0.0,
        ("M5", "multiplicative", MODE_PSD_ORACLE): 0.0,
    }
    for mid in ("M3", "M4"):
        table[(mid, "multiplicative", MODE_ANALYTIC)] = MULT_REFERENCE_M3_M4
        table[(mid, "additive", MODE_ANALYTIC)] = 0.5
        table[(mid, "non_ppt", MODE_ANALYTIC)] = 0.5
        table[(mid, "additive_minus_mult", MODE_ANALYTIC)] = half_minus_mult
    return table

"""Closed-form constants: worked examples and monotonicity/limit properties."""

import dataclasses
import math

import numpy as np
import pytest

from chemowave.errors import DomainError, RegimeError, SpeedError
from chemowave.params import (Params, RegimeTag, SIGMA, barrier_constants,
                              c_star, chi_star, classify_regime,
                              constants_report, default_kappa_tilde,
                              kappa_of_speed, kappa1_default,
                              M_barrier, M_chi, require_speed_above)

# frozen from an independent high-precision evaluation of the constant chain
CC_CHI_M001 = 2.2145442750487412


def test_params_reject_invalid_values():
    Params(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="m must be >= 1"):
        Params(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError, match="chi non-finite"):
        Params(math.nan, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="alpha"):
        Params(0.0, 1.0, 0.99, 1.0)
    with pytest.raises(DomainError, match="gamma"):
        Params(0.0, 1.0, 1.0, math.inf)


def test_classify_regime():
    assert classify_regime(Params(-1.0, 1, 1, 1)) is RegimeTag.NEG_CHI_ALPHA_LE
    assert classify_regime(Params(0.25, 1, 1, 1)) is RegimeTag.POS_CHI_ALPHA_EQ
    assert classify_regime(Params(0.25, 1, 3, 1)) is RegimeTag.POS_CHI_ALPHA_GT
    assert classify_regime(Params(0.9, 1, 1, 1)) is RegimeTag.OUTSIDE
    # chi=0 satisfies both the nonpositive and the nonnegative hypotheses;
    # the nonpositive branch wins
    assert classify_regime(Params(0.0, 1, 1, 1)) is RegimeTag.NEG_CHI_ALPHA_LE


def test_kappa_of_speed_examples():
    assert kappa_of_speed(2.0) == 1.0
    assert kappa_of_speed(2.5) == pytest.approx(0.5, abs=1e-15)
    assert kappa_of_speed(3.0) == pytest.approx(0.3819660113, abs=1e-10)
    with pytest.raises(DomainError):
        kappa_of_speed(1.99)


@pytest.mark.parametrize("c", [1.35e8, 1e9, 1e200, 1e308])
def test_kappa_of_a_speed_whose_root_cancels_is_a_domain_error(c):
    # from c ~ 1.34e8 sqrt(c^2 - 4) rounds to c, and from ~1.3e154 c^2
    # overflows: no kappa > 0 comes out, so none is returned
    with pytest.raises(DomainError, match="too large"):
        kappa_of_speed(c)


@pytest.mark.parametrize("call", [
    lambda p: c_star(p), lambda p: M_barrier(p, 0.4),
    lambda p: barrier_constants(p, 0.3, 0.6), lambda p: constants_report(p)],
    ids=["c_star", "M_barrier", "barrier_constants", "constants_report"])
def test_an_overflowing_closed_form_is_a_domain_error(call):
    # Python's float ** raises OverflowError: gamma^2 at gamma = 1e200
    with pytest.raises(DomainError, match="overflows at chi=-1, .*1e\\+200"):
        call(Params(-1.0, gamma=1e200))


def test_constants_report_overflow_names_the_chain():
    # M_chi = 2 > 1 at chi = 1/2, and 2^(m + gamma) overflows at gamma = 1e4
    with pytest.raises(DomainError, match="constants_report overflows at "
                       "chi=0.5, m=1, alpha=1, gamma=10000"):
        constants_report(Params(0.5, gamma=1e4))


def test_kappa_root_relation():
    for c in np.linspace(2.0, 100.0, 491):
        k = kappa_of_speed(float(c))
        assert abs(k * k - c * k + 1.0) < 1e-12


def test_c_star_examples():
    assert c_star(Params(0.0, 1, 1, 1)) == 2.0
    assert c_star(Params(-3.0, 1, 1, 1)) == pytest.approx(
        1.0 / math.sqrt(7.0) + math.sqrt(7.0), abs=1e-12)
    v = c_star(Params(-100.0, 1, 1, 1))
    assert v == pytest.approx(math.sqrt(201) + 1 / math.sqrt(201), abs=1e-12)
    assert v / math.sqrt(100.0) == pytest.approx(math.sqrt(2.0), rel=0.01)


def test_c_star_monotone_in_abs_chi():
    chis = np.linspace(-100.0, 0.0, 1000)
    vals = [c_star(Params(float(c), 2, 2, 3)) for c in chis]
    diffs = np.diff(vals)        # chi increasing toward 0 => |chi| decreasing
    assert np.all(diffs <= 1e-12)


def test_c_star_large_chi_limit():
    v = c_star(Params(-1e4, 1, 1, 1))
    assert v / math.sqrt(1e4) == pytest.approx(math.sqrt(2.0), rel=0.01)


def test_chi_star():
    assert chi_star(1, 1) == 1.0
    assert chi_star(2, 1) == 0.75
    assert chi_star(3, 2) == 0.625


def test_M_chi():
    assert M_chi(Params(-1.0)) == 1.0
    assert M_chi(Params(0.25, 1, 1, 1)) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert M_chi(Params(0.3, 1, 2, 1)) == pytest.approx(1.1952286093, abs=1e-9)
    with pytest.raises(DomainError):
        M_chi(Params(1.0))


def test_barrier_constants_simplified_branch():
    bc = barrier_constants(Params(-1.0, 1, 1, 1), 0.25, 0.5)
    assert bc.K == pytest.approx(1.75 / 0.9375, abs=1e-12)
    assert bc.D_sub == pytest.approx(2 * (0.9375 + 1.75) / 0.9375, abs=1e-12)
    assert bc.d_sub == pytest.approx(0.125 * 0.9375 / 2.6875, abs=1e-10)
    # x_minus with D = e and exponent gap 0.25
    assert math.log(math.e) / 0.25 == 4.0
    assert bc.x_minus == pytest.approx(math.log(bc.D_sub) / 0.25, abs=1e-12)
    assert bc.x_plus == pytest.approx(math.log(2 * bc.D_sub) / 0.25, abs=1e-12)


def test_barrier_constants_M_barrier():
    bc = barrier_constants(Params(0.0, 1, 1, 1), 0.4, 0.8)
    assert bc.M_barrier == pytest.approx(2.5, abs=1e-14)


def test_barrier_constants_general_branch():
    # kappa_tilde != 2 kappa falls back to the general K/D/d formulas
    p = Params(-0.5, 1, 1, 1)
    bc = barrier_constants(p, 0.3, 0.7, M=1.0)
    c = 0.3 + 1.0 / 0.3
    denom = c * 0.7 - 0.49 - 1.0
    K = (1.0 * (0.7 + 0.3) + 1.0) / (1.0 - 0.09)
    D = (1.0 + 0.5 * K) / denom
    assert bc.K == pytest.approx(K, abs=1e-12)
    assert bc.D_sub == pytest.approx(D, abs=1e-12)
    d = min(1.0 / 1.5, (0.3 / (0.7 * D)) ** (0.3 / 0.4) * (1.0 - 3.0 / 7.0))
    assert bc.d_sub == pytest.approx(d, abs=1e-12)


def test_barrier_constants_errors():
    p = Params(-1.0)
    with pytest.raises(DomainError):
        barrier_constants(p, 0.5, 0.5)       # kappa_tilde <= kappa
    with pytest.raises(DomainError):
        barrier_constants(p, 0.5, 2.5)       # denominator c*kt - kt^2 - 1 < 0


def test_M_barrier_exceeds_one_above_c_star():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = Params(float(-rng.uniform(0, 10)), float(rng.uniform(1, 3)),
                   1.0, float(rng.uniform(1, 3)))
        c = c_star(p) * (1.0 + rng.uniform(0.001, 1.0))
        assert M_barrier(p, kappa_of_speed(c)) > 1.0


def test_c_star_star_fisher_values():
    r = constants_report(Params(0.0, 1, 1, 1))
    assert r.c1 == 2.0
    assert r.c2 == 0.0
    assert r.c3 == 2.0
    assert r.c_star_star == 2.0


def test_c_star_star_gamma_dominates():
    r = constants_report(Params(0.0, 1, 2, 2))
    assert r.c_star_star == 2.5


def test_c_star_star_regression_small_chi():
    r = constants_report(Params(-0.01, 1, 1, 1))
    assert r.c_star_star == pytest.approx(CC_CHI_M001, rel=1e-13)


def test_c_star_star_order_chi_sixth():
    # c** - (gamma + 1/gamma) stays below a fixed multiple of |chi|^(1/6)
    p_ref = Params(1e-3, 1, 1, 1)
    ref = (constants_report(p_ref).c_star_star - 2.0) / 1e-3 ** SIGMA
    assert ref > 0
    for k in range(3, 10):
        chi = 10.0 ** (-k)
        gap = constants_report(Params(chi, 1, 1, 1)).c_star_star - 2.0
        assert gap <= 5.0 * ref * chi ** SIGMA


def test_c_star_star_lower_bound():
    for chi in (-2.0, -0.3, -1e-4, 0.0, 1e-4, 0.3):
        for (m, a, g) in ((1, 1, 1), (2, 2, 1), (1, 2, 2)):
            p = Params(chi, m, a, g)
            cc = constants_report(p).c_star_star
            s = abs(chi) ** SIGMA
            assert cc >= 1.0 + s + 1.0 / (1.0 + s) - 1e-12


def test_c_star_star_at_zero_equals_gamma_rate():
    for g in (1.0, 1.5, 2.0, 3.0):
        cc = constants_report(Params(0.0, 1.0, g, g)).c_star_star
        assert cc == pytest.approx(g + 1.0 / g, abs=1e-14)


def test_kappa1_default_midpoint():
    p = Params(0.0, 1, 1, 1)
    k = kappa_of_speed(3.0)
    assert kappa1_default(p, k) == pytest.approx(0.5 * (k + 2 * k))


def test_require_speed_above():
    # it returns the threshold it checked: c* for chi <= 0, else 2
    assert require_speed_above(Params(-1.0), 4.0) == c_star(Params(-1.0))
    assert require_speed_above(Params(0.25), 2.5) == 2.0
    with pytest.raises(SpeedError, match="c below c_star"):
        require_speed_above(Params(-1.0), 1.5)
    with pytest.raises(SpeedError):
        require_speed_above(Params(0.25), 1.9)
    with pytest.raises(RegimeError):
        require_speed_above(Params(0.9), 4.0)


def test_constants_report_speed_fields():
    rep = constants_report(Params(-1.0), c=4.0)
    assert rep.kappa == pytest.approx(2.0 - math.sqrt(3.0))
    assert rep.kappa_tilde == pytest.approx(2 * rep.kappa)
    assert rep.M_tilde > (4.0 + math.sqrt(12.0)) / 2.0
    assert rep.M1 == pytest.approx(1 + 2 * 1 + 1)
    assert np.isfinite(rep.M2)
    d = dataclasses.asdict(rep)
    assert d["c_star_star"] == rep.c_star_star
    assert d["sigma"] == pytest.approx(1.0 / 6.0)


def test_default_kappa_tilde_cap():
    p = Params(0.0, 1, 1, 1)
    assert default_kappa_tilde(p, 0.3) == pytest.approx(0.6)
    # near kappa = 1 the cap takes over
    assert default_kappa_tilde(p, 0.8) == pytest.approx(1.0)


def test_constants_report_minimal_speed_degrades():
    rep = constants_report(Params(-1.0), c=2.0)
    assert rep.kappa == 1.0
    assert math.isnan(rep.D_sub) and math.isnan(rep.kappa_tilde)
    assert math.isfinite(rep.M_barrier)


def test_c_star_ratio_general_exponents():
    # c*/sqrt(|chi|) approaches sqrt(m*gamma + gamma^2) for strong repulsion
    for m, g in ((1.0, 1.0), (2.0, 3.0), (3.0, 1.5)):
        v = c_star(Params(-1e6, m, m + g - 1.0, g))
        assert v / math.sqrt(1e6) == pytest.approx(
            math.sqrt(m * g + g * g), rel=1e-4)


def test_c_star_star_general_exponent_regressions():
    # frozen from an independent high-precision evaluation; exercises the
    # m >= 2 and 1 < m < 2 branches of the chain (the latter through the
    # c-free slope-to-value bound)
    cases = {
        (-0.05, 2.0, 2.0, 1.5): 4.411604565468254,
        (0.1, 1.5, 1.5, 1.0): 6.3632875110772,
        (-0.3, 3.0, 2.0, 2.0): 23.063774937417846,
    }
    for (chi, m, a, g), expected in cases.items():
        got = constants_report(Params(chi, m, a, g)).c_star_star
        assert got == pytest.approx(expected, rel=1e-13)


def test_barrier_constants_K_branches():
    # gamma*kappa = 1 and > 1 take the plateau-corrected forms
    p = Params(-1.0, 1.0, 1.0, 2.0)
    bc_eq = barrier_constants(p, 0.5, 0.75, M=2.0)
    pref = 1.0 * (0.75 + 0.5) + 1.0
    assert bc_eq.K == pytest.approx(pref * (2.0 ** 2.0 + 0.75), abs=1e-12)
    p3 = Params(-1.0, 1.0, 1.0, 3.0)
    gk = 3.0 * 0.5
    bc_gt = barrier_constants(p3, 0.5, 0.75, M=2.0)
    assert bc_gt.K == pytest.approx(
        pref * (2.0 ** 3.0 * (gk * gk - 1.0) + gk) / (gk * gk - 1.0), abs=1e-12)

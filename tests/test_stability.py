"""Weighted norms, decay-rate prediction, a-priori checks, uniqueness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chemowave import stability
from chemowave.cauchy import DT_MAX, march, solve_v
from chemowave.errors import DomainError, TruncationWarning
from chemowave.fields import Field, Grid
from chemowave.params import Params, kappa_of_speed, SIGMA, constants_report
from chemowave.stability import (apriori_checks, bump, default_eta,
                                 eta_window, predicted_lambda,
                                 run_stability, uniqueness_check,
                                 weighted_elliptic_check, weighted_norm)
from chemowave.waves import WaveProblem, WaveProfile, normalize_translation

# frozen from an independent high-precision evaluation of the constant chain
LAMBDA_CHI_M0001 = -0.8501688607606180
# int e^{x} e^{-2x^2} dx = sqrt(pi/2) e^{1/8}
GAUSS_WEIGHTED = 1.4201909759058431


def test_weighted_norm_zero_and_plain_l2():
    g = Grid.from_bounds(-20, 20, 0.01)
    u = Field(g, np.exp(-g.x ** 2))
    assert weighted_norm(u, u, 0.7) == 0.0
    bump = Field(g, u.values + ((g.x >= 0) & (g.x <= 1)).astype(float))
    assert weighted_norm(bump, u, 0.0) == pytest.approx(1.0, abs=2 * g.h)


def test_weighted_norm_gaussian_analytic():
    g = Grid.from_bounds(-30, 30, 0.005)
    u0 = Field(g, np.zeros(g.n))
    pert = Field(g, np.exp(-g.x ** 2))
    assert weighted_norm(pert, u0, 0.5) == pytest.approx(GAUSS_WEIGHTED, rel=1e-8)


def test_weighted_norm_truncation_warning():
    g = Grid.from_bounds(-5, 5, 0.01)
    u0 = Field(g, np.zeros(g.n))
    pert = Field(g, np.exp(-0.1 * g.x ** 2))
    with pytest.warns(TruncationWarning):
        weighted_norm(pert, u0, 0.9)


def test_predicted_lambda_quadratic_chi_zero():
    p = Params(0.0)
    assert predicted_lambda(p, 3.0, 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert predicted_lambda(p, 2.5, 0.8) == pytest.approx(-0.36, abs=1e-14)
    for c, eta in ((3.0, 0.6), (4.0, 1.3), (2.6, 0.9)):
        assert predicted_lambda(p, c, eta) == pytest.approx(
            eta * eta - c * eta + 1.0, abs=1e-14)


def test_predicted_lambda_regression_small_chi():
    lam = predicted_lambda(Params(-0.001), 3.0, 0.9)
    assert lam == pytest.approx(LAMBDA_CHI_M0001, rel=1e-13)


def test_predicted_lambda_window_error():
    p = Params(0.0)
    with pytest.raises(DomainError, match="outside the admissible window"):
        predicted_lambda(p, 3.0, 0.2)
    with pytest.raises(DomainError, match="no real roots"):
        predicted_lambda(Params(-0.5), 2.05, 0.8)


def test_eta_window_ordering():
    # the quadratic's roots bracket the admissible weights: kappa sits at
    # or left of kappa-, and for speeds comfortably above c** the interval
    # reaches past 1/(1+|chi|^sigma)
    for chi in (0.0, -0.01, -0.2, 0.1, 0.3):
        for margin in (0.5, 1.5):
            p = Params(chi)
            cc = constants_report(p).c_star_star
            c = cc + margin
            km, kp = eta_window(p, c)
            kappa = kappa_of_speed(c)
            hi = 1.0 / (1.0 + abs(chi) ** SIGMA)
            assert kappa <= km + 1e-12
            assert km < kp
            assert hi < kp
            mid = 0.5 * (max(km, kappa) + min(hi, kp))
            if max(km, kappa) < min(hi, kp):
                assert predicted_lambda(p, c, mid) < 0


def test_default_eta_midpoint():
    p = Params(0.0)
    assert default_eta(p, 3.0) == 0.5 * (kappa_of_speed(3.0) + 1.0)


@pytest.mark.parametrize("p", [Params(-0.01, 2.0, 1.5, 1.0),
                               Params(-0.01, 1.0, 1.0, 1.5),
                               Params(0.001, 2.0, 2.0, 1.0)])
def test_default_eta_lies_in_the_decay_window(p):
    # above c** the midpoint of (kappa, 1/(1+|chi|^sigma)) can fall below
    # kappa-; the intersection's midpoint is taken instead
    c = constants_report(p).c_star_star + 0.3
    eta = default_eta(p, c)
    km, kp = eta_window(p, c)
    lo = max(kappa_of_speed(c), km)
    hi = min(1.0 / (1.0 + abs(p.chi) ** SIGMA), kp)
    assert lo < eta < hi
    assert math.isfinite(predicted_lambda(p, c, eta))


def test_default_eta_refuses_disjoint_intervals():
    with pytest.raises(DomainError, match=r"weight interval \(0\.17.*"
                       r"decay window \(1\.6"):
        default_eta(Params(-0.1, 1.5, 1.0, 1.0), 5.93)


def test_perturb_spec_compact_support():
    x = np.linspace(-20, 20, 4001)
    b = bump(x)
    assert b.max() == pytest.approx(0.05)
    assert np.all(b[np.abs(x) > 8.0] == 0.0)


def test_run_stability_fisher(stab_fisher_profile):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rec = run_stability(stab_fisher_profile, 0.9, t_end=6.0)
    assert rec.lambda_pred == pytest.approx(-0.89, abs=1e-12)
    assert rec.passed
    W0 = rec.W[0]
    i5 = int(np.argmin(np.abs(rec.times - 5.0)))
    assert rec.W[i5] / W0 < 1e-4
    for i, t in enumerate(rec.times):
        if t >= 1.0:
            assert rec.W[i] <= 10.0 * W0 * math.exp(2 * rec.lambda_pred * t)
    assert rec.supdiff[-1] < 1e-3
    assert np.all(np.isfinite(rec.W))


def test_run_stability_step_count(stab_fisher_profile):
    # the `stability` subcommand's defaults: chi = 0, c = 3, eta midpoint,
    # t_end 20; the implicit frame advection lets dt reach DT_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rec = run_stability(stab_fisher_profile,
                            default_eta(Params(0.0), 3.0), t_end=20.0)
    assert rec.passed
    assert 0 < rec.stats.steps <= 300
    assert rec.stats.dt_max == DT_MAX
    assert rec.supdiff[-1] < 1e-3


def test_run_stability_records_truncation(stab_fisher_profile):
    # the first sample whose weighted integrand weighted_norm flags, if any
    eta = default_eta(Params(0.0), 3.0)
    early = run_stability(stab_fisher_profile, eta, t_end=0.5)
    assert early.truncated_from_t is None
    with pytest.warns(TruncationWarning):
        rec = run_stability(stab_fisher_profile, 0.9, t_end=2.0)
    assert rec.truncated_from_t in rec.times
    assert rec.truncated_from_t > 0.0


def test_run_stability_closes_v_at_the_profile_rate(stab_small_chi_profile,
                                                    monkeypatch):
    # the run steps at c_eff, but v leaves the grid at gamma kappa(c), the
    # rate the profile's own Newton residual closes it with
    prof = stab_small_chi_profile
    starts = []

    def spy(config, u0):
        for state in march(config, u0):
            starts.append((u0, state[2]))
            yield state

    monkeypatch.setattr(stability, "march", spy)
    run_stability(prof, 0.65, t_end=0.25)
    u0, v = starts[0]
    expected, _ = solve_v(prof.problem.params, u0.values, u0.grid,
                          tail_kappa=prof.problem.kappa)
    assert np.array_equal(v, expected)


def test_run_stability_eta_out_of_window(stab_fisher_profile):
    with pytest.raises(DomainError):
        run_stability(stab_fisher_profile, 0.2, t_end=1.0)


def test_apriori_checks_pass(fisher_profile, neg_profile):
    for prof in (fisher_profile, neg_profile):
        checks = apriori_checks(prof)
        assert all(c.status in ("pass", "not_applicable") for c in checks)
        assert sum(c.status == "pass" for c in checks) >= 5
        # its margin is the worse side's: at chi <= 0, m = gamma = alpha
        # = 1 the bracket is [-(|chi| + 1), |chi|] / (c - |chi|)
        Ux = np.gradient(prof.U.values, prof.U.grid.h)[1:-1]
        a, c = abs(prof.problem.params.chi), prof.problem.c
        bracket = [ch for ch in checks if "bracket" in ch.name][0]
        assert bracket.margin == max((-(a + 1) / (c - a) - Ux).max(),
                                     (Ux - a / (c - a)).max())


def test_apriori_checks_detect_spike(fisher_profile):
    prof = fisher_profile
    vals = prof.U.values.copy()
    i = int(round((5.0 - prof.U.grid.x0) / prof.U.grid.h))
    vals[i] += 0.5                       # hand-built spike
    spiked = replace(prof, U=Field(prof.U.grid, vals))
    checks = apriori_checks(spiked)
    bracket = [c for c in checks if "bracket" in c.name][0]
    assert bracket.status == "fail"
    assert abs(bracket.location - 5.0) < 0.2


def test_apriori_checks_close_v_with_wave_tails():
    # Profile cut off where U is still 1e-2.  On the whole line the tail
    # U = e^{-kx} gives v_x = -k e^{-kx}/(1-k^2), so at the cut the refined
    # bound e^{-kx}/(1-k^2) on |v_x| leaves the margin -U/(1+k); closing v
    # with constant tails instead would flatten v_x there.
    k = kappa_of_speed(3.0)
    g = Grid.from_bounds(-30.0, math.log(100.0) / k, 0.05)
    U = Field(g, np.minimum(1.0, np.exp(-k * g.x)))
    V = Field(g, np.zeros(g.n))          # must not be read
    prof = WaveProfile(U=U, V=V, problem=WaveProblem(Params(0.0), 3.0, g),
                       outer_iters=0, method="FixedPoint", c_eff=3.0)
    checks = {ch.name: ch for ch in apriori_checks(prof)}
    vx = checks["abs(v_x) refined exponential bound"]
    assert vx.location == pytest.approx(g.x1)
    assert vx.margin == pytest.approx(-U.values[-1] / (1.0 + k), rel=1e-3)
    v = checks["abs(v) <= M_chi^gamma"]
    assert v.margin == pytest.approx(0.0, abs=1e-12)     # v = 1 on the plateau


def test_uniqueness_check_basics(neg_profile):
    n1 = normalize_translation(neg_profile)
    assert uniqueness_check(n1, n1) == 0.0
    g = n1.U.grid
    for change in ({"params": Params(-0.5)}, {"c": 3.0},
                   {"grid": Grid(g.x0, g.h, g.n - 1)}):
        other = replace(n1, problem=replace(n1.problem, **change))
        with pytest.raises(DomainError, match="share a problem"):
            uniqueness_check(n1, other)


def test_weighted_elliptic_identical():
    g = Grid.from_bounds(-20, 20, 0.05)
    u = Field(g, 0.5 * np.exp(-g.x ** 2))
    rep = weighted_elliptic_check(u, u, eta=0.5, gamma=1.0, M=1.0)
    assert rep.lhs_v == 0.0 and rep.lhs_vx == 0.0 and rep.passed


def test_weighted_elliptic_randomized_gamma_one():
    g = Grid.from_bounds(-25, 25, 0.05)
    rng = np.random.default_rng(0)
    for _ in range(200):
        c1, c2 = rng.uniform(-6, 6, size=2)
        w1, w2 = rng.uniform(0.5, 3.0, size=2)
        a1, a2 = rng.uniform(0.05, 1.0, size=2)
        u1 = Field(g, a1 * np.exp(-((g.x - c1) / w1) ** 2))
        u2 = Field(g, a2 * np.exp(-((g.x - c2) / w2) ** 2))
        eta = rng.uniform(0.1, 0.9)
        rep = weighted_elliptic_check(u1, u2, eta=float(eta), gamma=1.0, M=1.0)
        assert rep.passed


def test_weighted_elliptic_gamma_two():
    g = Grid.from_bounds(-25, 25, 0.05)
    u1 = Field(g, 1.2 * np.exp(-(g.x + 1) ** 2))
    u2 = Field(g, 0.6 * np.exp(-((g.x - 2) / 1.5) ** 2))
    rep = weighted_elliptic_check(u1, u2, eta=0.5, gamma=2.0, M=1.5)
    assert rep.passed
    assert rep.lhs_v <= rep.rhs_v and rep.lhs_vx <= rep.rhs_vx


def test_weighted_elliptic_errors():
    g = Grid.from_bounds(-10, 10, 0.1)
    u = Field(g, np.exp(-g.x ** 2))
    with pytest.raises(DomainError):
        weighted_elliptic_check(u, u, eta=1.0, gamma=1.0, M=1.0)
    with pytest.raises(DomainError):
        weighted_elliptic_check(u, u, eta=0.5, gamma=1.0, M=0.5)
    # the difference is continued as a plateau, so it must vanish at the ends
    with pytest.raises(DomainError, match="vanish"):
        weighted_elliptic_check(Field(g, np.zeros(g.n)), Field(g, np.full(g.n, 0.5)),
                                eta=0.5, gamma=1.0, M=1.0)

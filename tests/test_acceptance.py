"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned in TOLERANCES below and echoed at the end of
the run so regressions are diffable.  Whole-line/t->infinity statements
are verified through these desk-scale property substitutes.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from chemowave.barriers import (certify, default_barrier_spec, eval_sub,
                                eval_super, residual_A)
from chemowave.cauchy import SimConfig, monitor_bounds, run
from chemowave.elliptic import solve_pair
from chemowave.fields import Field, Grid
from chemowave.params import Params, SIGMA, c_star, constants_report
from chemowave.speed import spreading_speed
from chemowave.stability import run_stability, uniqueness_check
from chemowave.waves import diagnose, normalize_translation

from conftest import BUILD_TIMES

TOLERANCES = {
    "1_c_star_exact": 0.0,
    "1_c_star_chi_m3_abs": 1e-12,
    "1_c_star_star_fisher_exact": 0.0,
    "1_order_chi_sixth_factor": 5.0,
    "1_runtime_s": 1.0,
    "2_exp_case_rel": 1e-8,
    "2_derivative_bound_abs": 1e-10,
    "2_runtime_s": 10.0,
    "3_eps_disc": "1e-6 + 20 h^2 max|W|",
    "3_contraction_order": (3.0, 5.0),
    "3_runtime_s": 120.0,
    "4_sup_bound_slack": 1e-8,
    "4_sup_late": 1.05,
    "4_pos_bound_slack": 0.05,
    "4_interior_dev": 0.02,
    "4_runtime_s": 300.0,
    "5_kappa_fit_rel": 0.02,
    "5_monotonicity": 1e-6,
    "5_sandwich": 1e-8,
    "5_limits_rel": 0.02,
    "5_envelope_slack": 1e-8,
    "5_runtime_s": 600.0,
    "6_rel_drop": 1e-4,
    "6_rel_drop_t5_slack": 10.0,
    "6_envelope_slack": 10.0,
    "6_supdiff": 1e-3,
    "6_runtime_s": 600.0,
    "7_uniqueness_sup": 1e-4,
    "7_runtime_s": 600.0,
    "8_speed_rel": 0.05,
    "8_runtime_s": 300.0,
}


def report(criterion, elapsed, budget, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s < {budget:.0f}s) {detail}")


def test_criterion_1_constants_regression():
    t0 = time.perf_counter()
    assert c_star(Params(0.0, 1, 1, 1)) == 2.0
    assert abs(c_star(Params(-3.0, 1, 1, 1))
               - (1 / math.sqrt(7) + math.sqrt(7))) < 1e-12
    assert constants_report(Params(0.0, 1, 1, 1)).c_star_star == 2.0
    ref = (constants_report(Params(1e-3, 1, 1, 1)).c_star_star - 2.0) / 1e-3 ** SIGMA
    for k in range(3, 10):
        chi = 10.0 ** (-k)
        gap = constants_report(Params(chi, 1, 1, 1)).c_star_star - 2.0
        assert 0.0 <= gap <= 5.0 * ref * chi ** SIGMA
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1.0, "constants regression incl. O(|chi|^{1/6}) growth")


def test_criterion_2_elliptic_exactness():
    t0 = time.perf_counter()
    g = Grid.from_bounds(-40.0, 40.0, 0.00025)
    psi, _ = solve_pair(np.exp(-0.5 * g.x), g, 0.5)
    # s = e^{-x/2}, the plateau on the left, right rate 1/2: with z = x - x0
    # and E = expm1(z / 2) / (1/2), Psi = e^{-x0/2} e^{-z} (2E + 5/2) / 3
    z = g.x - g.x[0]
    E = np.expm1(0.5 * z) / 0.5
    exact = np.exp(-0.5 * g.x[0]) / 3.0 * np.exp(-z) * (2.0 * E + 2.5)
    win = (g.x >= -20.0) & (g.x <= 20.0)
    rel = np.abs(psi[win] / exact[win] - 1.0).max()
    assert rel < 1e-8

    g2 = Grid.from_bounds(-40.0, 40.0, 0.05)
    rng_k = np.ones(41) / 41.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        vals = np.convolve(rng.uniform(size=g2.n), rng_k, mode="same")
        src = (1.0 + seed % 4) * vals
        p2, d2 = solve_pair(src, g2, 0.0)
        assert np.all(np.abs(d2) <= p2 + 1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, elapsed, 10.0,
           f"exp-kernel exact case rel err {rel:.2e}; 200 derivative bounds")


def test_criterion_3_barrier_certificates():
    t0 = time.perf_counter()
    neg = certify(Params(-1.0), 3.0)
    assert neg.passed, f"worst excess {neg.worst_excess} at {neg.worst_location}"
    pos = certify(Params(0.25), 2.5)
    assert pos.passed, f"worst excess {pos.worst_excess} at {pos.worst_location}"

    p = Params(-1.0)
    spec = default_barrier_spec(p, 3.0)

    def residual_on(h):
        gr = Grid.from_bounds(-20.0, 40.0, h)
        W = Field(gr, eval_super(spec, gr))
        return residual_A(W, W, p, 3.0), gr

    res_ref, gref = residual_on(0.005)
    E = {}
    for h in (0.08, 0.04, 0.02):
        res, gr = residual_on(h)
        stride = int(round(h / 0.005))
        xs = gr.interior().x
        i0 = int(round((xs[0] - gref.interior().x[0]) / 0.005))
        ref_vals = res_ref.values[i0::stride][:xs.size]
        mask = (xs > spec.kink + 1.0) & (xs < 35.0)
        E[h] = np.abs(res.values - ref_vals)[mask].max()
    r1, r2 = E[0.08] / E[0.04], E[0.04] / E[0.02]
    assert 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, elapsed, 120.0,
           f"2x200 randomized sign checks; contraction ratios {r1:.2f}, {r2:.2f}")


def test_criterion_4_cauchy_bounds():
    t0 = time.perf_counter()
    grid = Grid.from_bounds(-40.0, 40.0, 0.05)
    gauss2 = Field(grid, 2.0 * np.exp(-grid.x ** 2))

    p_neg = Params(-1.0)
    final, mon, _ = run(SimConfig(params=p_neg, grid=grid, t_end=50.0,
                                  output_every=1.0), gauss2)
    assert max(mon.sup_u) <= 2.0 + 1e-8
    assert final.u.max() <= 1.05
    assert monitor_bounds(final, p_neg, u0_sup=2.0) == []

    p_pos = Params(0.25)
    final2, _, _ = run(SimConfig(params=p_pos, grid=grid, t_end=50.0,
                                 output_every=1.0), gauss2)
    assert final2.u.max() <= (1.0 / 0.75) + 0.05

    strictly_pos = Field(grid, 0.2 + 1.8 * np.exp(-grid.x ** 2))
    final3, _, _ = run(SimConfig(params=p_pos, grid=grid, t_end=50.0,
                                 output_every=1.0), strictly_pos)
    interior = np.abs(grid.x) <= 0.8 * 40.0
    dev = np.abs(final3.u.values[interior] - 1.0).max()
    assert dev < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, elapsed, 300.0,
           f"sup bounds chi=-1 and chi=0.25; interior dev {dev:.2e}")


def test_criterion_5_wave_existence_decay(fisher_profile, neg_profile,
                                          pos_profile):
    t0 = time.perf_counter()
    fixture_cost = sum(BUILD_TIMES.get(k, 0.0) for k in
                       ("fisher_profile", "neg_profile", "pos_profile"))
    fp = fisher_profile
    fpd = diagnose(fp)
    assert abs(fpd.kappa_fit - fp.problem.kappa) / fp.problem.kappa < 0.02
    assert abs(fpd.left_limit - 1.0) < 0.02
    assert fpd.right_limit < 0.02

    npf = neg_profile
    npd = diagnose(npf)
    assert npd.monotonicity_violation < 1e-6
    grid = npf.U.grid
    spec = npf.barrier
    upper = eval_super(spec, grid)
    lower = eval_sub(spec, grid, clipped=True)
    assert float((lower - npf.U.values).max()) <= 1e-8
    assert float((npf.U.values - upper).max()) <= 1e-8
    assert npf.sandwich_violation <= 1e-8
    assert abs(npd.left_limit - 1.0) < 0.02
    assert npd.right_limit < 0.02

    pp = pos_profile
    bound = np.minimum((1.0 / 0.75) ** 1.0, np.exp(-pp.problem.kappa * pp.U.grid.x))
    assert float((pp.U.values - bound).max()) <= 1e-8
    assert abs(diagnose(pp).left_limit - 1.0) < 0.02
    elapsed = time.perf_counter() - t0 + fixture_cost
    assert elapsed < 600.0
    report(5, elapsed, 600.0,
           f"kappa_fit rel {abs(fpd.kappa_fit / fp.problem.kappa - 1):.2e}; "
           f"monotonicity {npd.monotonicity_violation:.1e}; "
           f"sandwich {npf.sandwich_violation:.1e}")


def test_criterion_6_stability(stab_fisher_profile, stab_small_chi_profile):
    t0 = time.perf_counter()
    fixture_cost = sum(BUILD_TIMES.get(k, 0.0) for k in
                       ("stab_fisher_profile", "stab_small_chi_profile"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = run_stability(stab_fisher_profile, 0.9, t_end=6.0)
    assert rec.lambda_pred == pytest.approx(0.81 - 2.7 + 1.0, abs=1e-12)
    W0 = rec.W[0]
    i5 = int(np.argmin(np.abs(rec.times - 5.0)))
    ratio5 = rec.W[i5] / W0
    assert ratio5 < 1e-4 * 10.0          # slack-adjusted threshold
    assert rec.passed                    # includes W(t_end) <= 1e-4 W(0)
    for i, t in enumerate(rec.times):
        if t >= 1.0:
            assert rec.W[i] <= 10.0 * W0 * math.exp(2 * rec.lambda_pred * t)
    assert rec.supdiff[-1] < 1e-3

    cc = constants_report(Params(-0.01)).c_star_star
    assert 3.0 > cc                      # derived threshold 2.2145...
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec2 = run_stability(stab_small_chi_profile, 0.65, t_end=20.0)
    assert rec2.passed
    assert rec2.supdiff[-1] < 1e-3
    elapsed = time.perf_counter() - t0 + fixture_cost
    assert elapsed < 600.0
    report(6, elapsed, 600.0,
           f"W(5)/W(0)={ratio5:.2e}; small-chi lambda={rec2.lambda_pred:.3f} "
           f"W drop {rec2.W[-1] / rec2.W[0]:.1e}")


def test_criterion_7_uniqueness(neg_profile, neg_relax_profile):
    t0 = time.perf_counter()
    fixture_cost = sum(BUILD_TIMES.get(k, 0.0) for k in
                       ("neg_profile", "neg_relax_profile"))
    n1 = normalize_translation(neg_profile)
    n2 = normalize_translation(neg_relax_profile)
    d = uniqueness_check(n1, n2)
    assert d < 1e-4
    elapsed = time.perf_counter() - t0 + fixture_cost
    assert elapsed < 600.0
    report(7, elapsed, 600.0, f"FixedPoint vs CoupledRelax sup diff {d:.2e}")


def test_criterion_8_spreading_speed():
    t0 = time.perf_counter()
    fitted = {}
    for chi in (0.0, 0.5):
        p = Params(chi)
        grid = Grid.from_bounds(-40.0, 150.0, 0.05)
        cfg = SimConfig(params=p, grid=grid, t_end=60.0, dt=0.02,
                        output_every=1.0)
        u0 = Field(grid, np.where(np.abs(grid.x) <= 1.0, 0.5, 0.0))
        track = spreading_speed(cfg, u0)
        fitted[chi] = track.fitted_speed
        assert abs(track.fitted_speed - 2.0) / 2.0 < 0.05
        assert track.fit_r2 > 0.999
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(8, elapsed, 600.0,
           f"speeds {fitted[0.0]:.4f} (chi=0), {fitted[0.5]:.4f} (chi=0.5)")


def test_tolerance_manifest_echo(capsys):
    print("ACCEPTANCE TOLERANCES: " + json.dumps(TOLERANCES, sort_keys=True))

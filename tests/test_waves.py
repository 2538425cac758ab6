"""Wave construction machinery: diagnostics, normalization, inner dynamics."""

import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemowave import cauchy, waves
from chemowave.cauchy import (DT_MAX, RELAX_DT_MAX, StepStats, advance_imex,
                              auto_dt, march, reaction_derivative,
                              solve_v, step_terms)
from chemowave.errors import (DomainError, NoConvergence, NormalizationError,
                              RegimeError, SpeedError, TruncationWarning,
                              WindowTooShort)
from chemowave.fields import Field, Grid
from chemowave.params import Params, c_star, chi_star
from chemowave.waves import (NEWTON_TOL, WaveProblem, WaveProfile, construct,
                             construct_fixed_point, construct_relax, diagnose,
                             fitted_frame_speed, newton_tolerance,
                             normalize_translation, settle)
from chemowave.barriers import default_barrier_spec, eval_super
from chemowave.stability import default_eta, run_stability


def synthetic_profile(grid, fn, c, params=Params(0.0)):
    problem = WaveProblem(params, c, grid)
    U = Field(grid, fn(grid.x))
    v, _ = solve_v(params, U.values, grid, tail_kappa=problem.kappa)
    return WaveProfile(U=U, V=Field(grid, v), problem=problem, outer_iters=0,
                       method="FixedPoint", c_eff=c)


def stepped(prof):
    """One centered step of prof with its own V, c_eff and tail rate."""
    config = prof.problem.stepper(prof.c_eff, 1.0, 1.0, pseudo_time=False)
    _, (_, un, _, _, dt, clamped, _) = itertools.islice(march(config, prof.U), 2)
    return un, dt, clamped


def test_diagnose_exact_exponential():
    g = Grid.from_bounds(-50, 60, 0.05)
    prof = synthetic_profile(g, lambda x: np.minimum(1.0, np.exp(-0.4 * x)),
                             c=0.4 + 1 / 0.4)
    d = diagnose(prof, kappa1=0.55)
    assert d.kappa_fit == pytest.approx(0.4, abs=1e-4)
    assert d.monotonicity_violation < 1e-12


def test_diagnose_refined_score_known_correction():
    # U = e^{-0.4x}(1 + e^{-0.2x}): the score at kappa1 = 0.55 decays
    # like e^{-0.05x}, so its log-slope is -0.05
    g = Grid.from_bounds(-50, 60, 0.05)
    prof = synthetic_profile(
        g, lambda x: np.minimum(1.0, np.exp(-0.4 * x) * (1 + np.exp(-0.2 * x))),
        c=0.4 + 1 / 0.4)
    d = diagnose(prof, kappa1=0.55)
    assert d.refined_trend_slope == pytest.approx(-0.05, abs=5e-3)
    assert np.all(np.diff(d.refined_score) < 0)


def test_diagnose_window_too_short():
    g = Grid.from_bounds(-10, 10, 0.1)
    with pytest.raises(WindowTooShort):
        diagnose(synthetic_profile(g, lambda x: np.full(x.size, 0.5), 2.9),
                 kappa1=0.55)


def test_normalize_translation_exact():
    g = Grid.from_bounds(-30, 60, 0.05)
    kappa = 0.4
    prof = synthetic_profile(g, lambda x: np.minimum(1.0, np.exp(-kappa * x)),
                             c=kappa + 1 / kappa)
    n1 = normalize_translation(prof)
    # crossing of e^{-kx} = 1/2 sits at ln 2 / k, so the shift moves it to 0
    i0 = int(round((0.0 - g.x0) / g.h))
    assert n1.U.values[i0] == pytest.approx(0.5, abs=1e-4)
    n2 = normalize_translation(n1)
    assert np.abs(n2.U.values - n1.U.values).max() < 1e-12


def test_normalize_translation_errors():
    g = Grid.from_bounds(-30, 30, 0.05)
    flat = synthetic_profile(g, lambda x: np.full(x.size, 0.1), c=2.9)
    with pytest.raises(NormalizationError):
        normalize_translation(flat)
    wiggly = synthetic_profile(
        g, lambda x: 0.5 + 0.4 * np.sin(0.5 * x), c=2.9)
    with pytest.raises(NormalizationError):
        normalize_translation(wiggly)


def test_construct_speed_and_regime_errors():
    g = Grid.from_bounds(-40, 40, 0.1)
    with pytest.raises(SpeedError):
        construct_fixed_point(WaveProblem(params=Params(-1.0), c=1.5, grid=g))
    with pytest.raises(SpeedError):
        construct_relax(WaveProblem(params=Params(-1.0), c=1.5, grid=g))
    with pytest.raises(RegimeError):
        construct_fixed_point(WaveProblem(params=Params(0.9), c=4.0, grid=g))
    with pytest.raises(DomainError, match="unknown method 'Picard'"):
        construct(WaveProblem(params=Params(-1.0), c=4.0, grid=g), "Picard")


@pytest.mark.parametrize("pseudo_time", [False, True],
                         ids=["accurate", "pseudo_time"])
def test_inner_relaxation_monotone_neg_chi(pseudo_time):
    # frozen-V relaxation from the super-solution decreases in time and
    # keeps the spatial monotonicity (repulsion regime), at the accurate
    # step and at the larger pseudo-time step alike
    p = Params(-1.0)
    c = 4.0
    g = Grid.from_bounds(-40, 40, 0.05)
    spec = default_barrier_spec(p, c)
    u = eval_super(spec, g)
    V, Vx = solve_v(p, u, g, tail_kappa=spec.kappa)
    c_eff = fitted_frame_speed(c, g.h)
    t = 0.0
    while t < 5.0:
        terms = step_terms(p, u, V, Vx)
        dt = auto_dt(p, u, terms, g.h, pseudo_time)
        un = advance_imex(p, u, terms, c_eff, dt, g, spec.kappa, "centered")
        un = np.maximum(un, 0.0)
        assert float((un - u).max()) <= 1e-8          # decreasing in t
        ux = (un[2:] - un[:-2]) / (2 * g.h)
        assert ux.max() <= 1e-8                        # decreasing in x
        u = un
        t += dt


def test_sandwich_during_construction(neg_profile):
    assert neg_profile.sandwich_violation <= 1e-8


def test_fixed_point_profile_fisher(fisher_profile):
    prof = fisher_profile
    assert prof.outer_iters <= 5         # Newton from the super-solution
    assert prof.stats == StepStats()     # and no time step
    assert prof.residual_history[-1] < NEWTON_TOL
    d = diagnose(prof)
    assert abs(d.kappa_fit / prof.problem.kappa - 1.0) < 0.02
    assert 0.98 <= d.left_limit <= 1.02
    assert d.right_limit < 1e-6
    assert d.monotonicity_violation < 1e-6


@pytest.mark.parametrize("fixture", ["neg_profile", "pos_profile",
                                     "fisher_profile"])
def test_profile_is_stepper_fixed_point(fixture, request):
    prof = request.getfixturevalue(fixture)
    un, dt, clamped = stepped(prof)
    assert clamped == 0
    assert float(np.abs(un - prof.U.values).max()) <= 1e-11 * dt


@pytest.mark.parametrize("chi, c", [(-1.0, 4.0), (0.25, 2.5)])
def test_fixed_point_fine_grid(chi, c):
    # at h = 0.01 the residual's round-off floor eps M / h^2 is about
    # 2e-12, above NEWTON_TOL: the stop rule scales with it, and one step
    # moves the profile by the same multiple of the stop rule as the
    # 1e-11 dt bound above on the h = 0.05 fixtures
    g = Grid.from_bounds(-20, 30, 0.01)
    prof = construct_fixed_point(WaveProblem(params=Params(chi), c=c, grid=g))
    tol = newton_tolerance(g.h, prof.barrier.M)
    assert tol > NEWTON_TOL
    assert prof.residual_history[-1] < tol
    un, dt, _ = stepped(prof)
    assert float(np.abs(un - prof.U.values).max()) <= 10.0 * tol * dt


def test_newton_tolerance_is_nominal_on_default_grids():
    assert newton_tolerance(0.05, 1.0) == NEWTON_TOL
    assert newton_tolerance(0.1, 2.0) == NEWTON_TOL
    assert newton_tolerance(0.01, 1.0) == pytest.approx(
        10.0 * np.finfo(float).eps / 1e-4)


def test_c_eff_shift(neg_profile, neg_relax_profile):
    assert neg_profile.c_eff_shift == (
        neg_profile.c_eff - fitted_frame_speed(4.0, 0.05))
    assert neg_relax_profile.c_eff_shift == 0.0


@settings(max_examples=40)
@given(chi=st.one_of(st.floats(-2.0, 0.0),
                     st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
       dc=st.floats(0.02, 0.5))
def test_newton_wave_inside_barriers(chi, dc):
    p = Params(chi)
    c = (c_star(p) if chi <= 0 else 2.0) + dc
    g = Grid.from_bounds(-40, 40, 0.1)
    prof = construct_fixed_point(WaveProblem(params=p, c=c, grid=g))
    u = prof.U.values
    assert prof.residual_history[-1] < NEWTON_TOL
    assert u.min() > 0.0
    assert float((u - eval_super(prof.barrier, g)).max()) <= 1e-8
    assert u[-1] * math.exp(prof.problem.kappa * g.x[-1]) == pytest.approx(
        1.0, abs=1e-12)
    if chi <= 0:
        assert np.diff(u).max() <= 1e-12


def test_discrete_uniqueness_from_three_starts(wave_grid, neg_profile):
    # criterion 7's wave (chi = -1, c = 4): the tail pin fixes the
    # translation, so Newton from a scaled super-solution and from a
    # shifted Fisher profile lands on the profile the construction finds
    problem = WaveProblem(params=Params(-1.0), c=4.0, grid=wave_grid)
    _, upper, lower, c_fit = waves._prepare(problem)
    tol = newton_tolerance(wave_grid.h, 1.0)
    fisher = construct_fixed_point(
        WaveProblem(params=Params(0.0), c=4.0, grid=wave_grid)).U.values
    shifted = np.interp(wave_grid.x - 3.0, wave_grid.x, fisher)
    for start in (0.9 * upper, shifted):
        u, c_eff, _ = waves._newton(problem, start, c_fit, tol)
        assert np.abs(u - neg_profile.U.values).max() < 1e-12
        assert abs(c_eff - neg_profile.c_eff) < 1e-12
    # the third start, the sub-solution (its plateau at d = 0.042 left of
    # x_plus), is outside the damped Newton's reach: no step lowers the
    # sup residual, about d (1 - d), so the line search gives up at once
    with pytest.raises(NoConvergence, match="line search failed"):
        waves._newton(problem, lower, c_fit, tol)


def test_newton_from_a_start_with_zeros_at_m_1():
    # max(0, e^{-kx} - 3 e^{-2kx}) is 0 on the left part of the grid; at
    # m = 1 the Jacobian's u^(m-2) term must not turn those zeros into NaN
    p, g = Params(-1.0), Grid.from_bounds(-40, 40, 0.1)
    problem = WaveProblem(params=p, c=4.0, grid=g)
    k = problem.kappa
    start = np.maximum(0.0, np.exp(-k * g.x) - 3.0 * np.exp(-2.0 * k * g.x))
    assert (start == 0.0).sum() > 400
    _, _, _, c_fit = waves._prepare(problem)
    F, ux, V, Vx = problem.residual(start, c_fit)
    step = waves._newton_step(problem, start, V, Vx, ux, F, c_fit)
    assert np.isfinite(step).all()
    tol = newton_tolerance(g.h, 1.0)
    u, c_eff, history = waves._newton(problem, start, c_fit, tol)
    assert history[-1] < tol
    # the tail pin, e^{-kappa 40} ~ 2e-5, fixes the translation here
    ref = construct_fixed_point(problem)
    assert np.abs(u - ref.U.values).max() < 1e-12
    assert abs(c_eff - ref.c_eff) < 1e-12


def _dense_newton_step(problem, u, c_eff):
    """Dense solve of the finite-difference Jacobian of the steady residual
    in (u[0..n-2], c_eff), v re-solved from u and u[n-1] held fixed."""
    def residual(y):
        return problem.residual(np.append(y[:-1], u[-1]), y[-1])[0]

    y = np.append(u[:-1], c_eff)
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        e = np.zeros(y.size)
        e[j] = 1e-6 * max(1.0, abs(y[j]))
        jac[:, j] = (residual(y + e) - residual(y - e)) / (2.0 * e[j])
    return np.linalg.solve(jac, -residual(y))


@settings(max_examples=25)
@given(positive=st.booleans(), frac=st.floats(0.0, 1.0),
       m=st.floats(1.0, 2.0), gamma=st.floats(1.0, 2.0),
       n=st.integers(8, 60), h=st.floats(0.05, 0.5),
       seed=st.integers(0, 2**32 - 1))
# chi = 0, where the step's terms carry no chemotactic ones, on every run
@example(positive=True, frac=0.0, m=1.5, gamma=1.5, n=40, h=0.2, seed=0)
def test_newton_step_is_the_dense_jacobian_solve(positive, frac, m, gamma, n,
                                                 h, seed):
    # both wave regimes: chi in [-2, 0] with alpha = 1, or chi in
    # [0, min{1/2, chi*}) with alpha = m + gamma - 1
    if positive:
        p = Params(frac * 0.99 * min(0.5, chi_star(m, gamma)), m,
                   m + gamma - 1.0, gamma)
        c = 2.5
    else:
        p = Params(-2.0 * frac, m, 1.0, gamma)
        c = c_star(p) + 0.5
    g = Grid(-0.4 * n * h, h, n)
    problem = WaveProblem(params=p, c=c, grid=g)
    # a rough super-solution: positive, tail e^{-kappa x}
    rng = np.random.default_rng(seed)
    u = (np.minimum(1.0, np.exp(-problem.kappa * g.x))
         * rng.uniform(0.9, 1.1, n))
    c_eff = fitted_frame_speed(c, h)
    F, ux, V, Vx = problem.residual(u, c_eff)
    got = waves._newton_step(problem, u, V, Vx, ux, F, c_eff)
    want = _dense_newton_step(problem, u, c_eff)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_singular_newton_solve_is_a_wave_failure(monkeypatch, tmp_path,
                                                 capsys):
    from chemowave.cli import main

    def singular(kl, ku, ab, b, **kwargs):
        return ab, np.zeros(b.shape[0], dtype=np.int32), b, 5

    monkeypatch.setattr(waves, "lapack", types.SimpleNamespace(dgbsv=singular))
    code = main(["wave", "--chi", "-1", "--c", "4", "--grid-left", "-20",
                 "--grid-right", "30", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("FAIL: Newton Jacobian solve")


def test_newton_budget_reports_history(monkeypatch):
    monkeypatch.setattr(waves, "MAX_NEWTON", 2)
    g = Grid.from_bounds(-40, 40, 0.1)
    with pytest.raises(NoConvergence) as info:
        construct_fixed_point(WaveProblem(params=Params(-1.0), c=4.0, grid=g))
    history = info.value.history
    assert len(history) == 3
    assert history[0] > history[1] > history[2] == info.value.residual


def test_relax_budget_reports_residual(monkeypatch):
    monkeypatch.setattr(waves, "MAX_INNER_STEPS", 10)
    g = Grid.from_bounds(-40, 40, 0.1)
    with pytest.raises(NoConvergence) as info:
        construct_relax(WaveProblem(params=Params(-1.0), c=4.0, grid=g))
    assert math.isfinite(info.value.residual)
    assert info.value.residual > waves.TOL_INNER


def test_relax_keeps_its_own_error_at_march_budget(monkeypatch):
    # with march's budget equal to the relaxation's, the horizon is not
    # refused and march is never asked for a step past it
    monkeypatch.setattr(cauchy, "MAX_INNER_STEPS", 10)
    monkeypatch.setattr(waves, "MAX_INNER_STEPS", 10)
    g = Grid.from_bounds(-40, 40, 0.1)
    with pytest.raises(NoConvergence, match="coupled relaxation failed"):
        construct_relax(WaveProblem(params=Params(-1.0), c=4.0, grid=g))


def test_relax_steps_are_not_capped_by_the_frame_speed(neg_relax_profile):
    # the frame advection is implicit: an explicit c u_x would cap dt at
    # 0.5 h / c_eff = 0.00625
    prof = neg_relax_profile
    assert 0 < prof.stats.steps <= 120
    assert prof.stats.dt_max > 0.5 * prof.U.grid.h / prof.c_eff
    assert 0.0 < prof.stats.dt_min <= prof.stats.dt_max <= RELAX_DT_MAX
    assert settle(prof).stats == prof.stats


def test_relax_steps_exceed_the_accuracy_bound(neg_relax_profile):
    # pseudo-time: a relaxation step is above the cap and the reaction
    # bound 0.1 / Rmax that a time-accurate run obeys
    prof = neg_relax_profile
    p, U = prof.problem.params, prof.U.values
    V, Vx = solve_v(p, U, prof.U.grid, prof.problem.kappa)
    rmax = float(np.abs(reaction_derivative(p, U, step_terms(p, U, V, Vx)))
                 .max())
    assert prof.stats.dt_max > max(DT_MAX, 0.1 / rmax)
    assert prof.stats.clamp_count == 0


def test_relax_stops_at_a_steady_state(neg_relax_profile):
    # the stop rule reads ||u_new - u|| / dt, which the implicit solve
    # damps more at a larger dt; the profile must still be steady
    prof = neg_relax_profile
    resid = prof.problem.residual(prof.U.values, prof.c_eff)[0]
    assert float(np.abs(resid).max()) < waves.TOL_INNER


def test_relax_ledger_counts_what_march_yields(monkeypatch):
    # march's clamp counts are relabelled (one node on every third step) so
    # that the ledger must read them; settle's polish keeps the ledger
    yields = []

    def relabelled(config, u0):
        for i, (*head, dt, _, sample) in enumerate(march(config, u0)):
            yields.append((dt, int(i % 3 == 1)))
            yield (*head, dt, yields[-1][1], sample)

    monkeypatch.setattr(waves, "march", relabelled)
    prof = construct_relax(WaveProblem(Params(0.0), 3.0,
                                       Grid.from_bounds(-30, 50, 0.1)))
    taken = yields[1:]                     # the initial state is no step
    assert prof.stats == StepStats(
        steps=len(taken), clamp_count=sum(c for _, c in taken),
        dt_min=min(dt for dt, _ in taken), dt_max=max(dt for dt, _ in taken))
    assert prof.stats.clamp_count > 0
    polished = settle(prof)
    assert polished.outer_iters > 0 and polished.stats == prof.stats


def test_relax_agrees_with_fixed_point(neg_profile, neg_relax_profile):
    n1 = normalize_translation(neg_profile)
    n2 = normalize_translation(neg_relax_profile)
    assert np.abs(n1.U.values - n2.U.values).max() < 1e-4


def test_profile_bounded_by_envelope(pos_profile):
    # positive-sensitivity profile obeys U < min{M_chi, e^{-kappa x}}
    prof = pos_profile
    x = prof.U.grid.x
    bound = np.minimum((1 / (1 - 0.25)) ** 1.0,
                       np.exp(-prof.problem.kappa * x))
    assert float((prof.U.values - bound).max()) <= 1e-8
    d = diagnose(prof)
    assert 0.98 <= d.left_limit <= 1.02
    assert d.right_limit < 1e-6


def test_settle_preserves_profile(stab_fisher_profile):
    prof = stab_fisher_profile
    assert settle(prof) is prof          # already below the stop rule
    assert abs(prof.c_eff - fitted_frame_speed(3.0, prof.U.grid.h)) < 1e-5
    d = diagnose(prof)
    assert d.monotonicity_violation < 1e-6
    assert 0.98 <= d.left_limit <= 1.02


def test_settle_makes_relax_profile_stationary(stability_grid,
                                              stab_fisher_profile):
    # a CoupledRelax profile stops at ||u_t|| < TOL_INNER and still drifts
    # at its fitted speed; settle's Newton polish makes it the stepper's
    # fixed point, the one the FixedPoint construction finds, and the
    # stability lab passes on it at the `stability` subcommand's defaults
    relax = construct_relax(WaveProblem(Params(0.0), 3.0, stability_grid))
    assert len(relax.residual_history) == 1      # the stop ||u_t||_inf
    assert relax.residual_history[0] < waves.TOL_INNER
    prof = settle(relax)
    assert prof.residual_history[0] == relax.residual_history[0]
    assert prof.residual_history[-1] < NEWTON_TOL
    un, dt, _ = stepped(prof)
    assert float(np.abs(un - prof.U.values).max()) <= 1e-11 * dt
    assert abs(prof.c_eff - stab_fisher_profile.c_eff) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rec = run_stability(prof, default_eta(Params(0.0), 3.0), t_end=20.0)
    assert rec.passed
    assert rec.supdiff[-1] < 1e-3


def test_general_exponent_wave_and_uniqueness():
    # repulsion regime with m=2, alpha=2, gamma=1.5 (alpha <= m+gamma-1):
    # monotone sandwiched profile, and the two construction routes agree
    p = Params(-1.0, 2.0, 2.0, 1.5)
    grid = Grid.from_bounds(-60, 60, 0.05)
    relax = construct_relax(WaveProblem(params=p, c=3.5, grid=grid))
    d = diagnose(relax)
    assert d.monotonicity_violation < 1e-6
    assert relax.sandwich_violation < 1e-8
    assert abs(d.kappa_fit / relax.problem.kappa - 1.0) < 0.02
    assert abs(d.left_limit - 1.0) < 0.02 and d.right_limit < 1e-6
    fp = construct_fixed_point(WaveProblem(params=p, c=3.5, grid=grid))
    assert fp.sandwich_violation < 1e-8
    from chemowave.stability import apriori_checks
    from oracles import uniqueness_check
    d = uniqueness_check(normalize_translation(relax), normalize_translation(fp))
    assert d < 1e-4
    checks = apriori_checks(relax)
    assert all(c.status in ("pass", "not_applicable") for c in checks)

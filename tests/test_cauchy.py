"""Time integrator: constant solutions, bounds, monotone structure, orders."""

import math
import types
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import solve_banded

from chemowave import cauchy
from chemowave.cauchy import (SimConfig, State, StepStats, StepTerms,
                              _ghosted, advance_imex, advective_velocity,
                              auto_dt, march, monitor_bounds,
                              reaction_derivative, reaction_source,
                              robin_rate, run, solve_v, steady_residual,
                              step_terms)
from chemowave.elliptic import solve_pair
from chemowave.errors import BlowupDetected, DomainError, StiffnessError
from chemowave.fields import Field, Grid
from chemowave.params import Params


def make_state(p, grid, values):
    u = Field(grid, values)
    v, _ = solve_v(p, u.values, grid, tail_kappa=0.0)
    return State(0.0, u, Field(grid, v))


def test_constant_one_is_steady():
    g = Grid.from_bounds(-20, 20, 0.1)
    for chi in (-1.0, 0.0, 0.25):
        p = Params(chi)
        cfg = SimConfig(params=p, grid=g, t_end=10.0, output_every=2.0)
        final, _, _ = run(cfg, Field(g, np.ones(g.n)))
        assert np.abs(final.u.values - 1.0).max() < 1e-8


def test_zero_stays_zero():
    g = Grid.from_bounds(-20, 20, 0.1)
    cfg = SimConfig(params=Params(-1.0), grid=g, t_end=5.0, output_every=1.0)
    final, _, _ = run(cfg, Field(g, np.zeros(g.n)))
    assert final.u.max() == 0.0


def test_single_step_refreshes_v():
    # a fixed dt equal to output_every makes every snapshot one step apart
    g = Grid.from_bounds(-20, 20, 0.1)
    p = Params(-1.0)
    cfg = SimConfig(params=p, grid=g, t_end=0.03, dt=0.01, output_every=0.01)
    _, _, snaps = run(cfg, Field(g, np.exp(-g.x ** 2)))
    assert len(snaps) == 4
    for s in snaps[1:]:
        assert s.t > 0
        v_expected, _ = solve_v(p, s.u.values, g, tail_kappa=0.0)
        assert np.abs(s.v.values - v_expected).max() == 0.0


@pytest.mark.parametrize("t_end, times", [
    (1.03, [0.0, 0.25, 0.5, 0.75, 1.0, 1.03]),
    (1.0, [0.0, 0.25, 0.5, 0.75, 1.0]),
])
def test_run_samples_output_times_and_end_once(t_end, times):
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(params=Params(-1.0), grid=g, t_end=t_end,
                    output_every=0.25)
    _, mon, snaps = run(cfg, Field(g, np.exp(-g.x ** 2)))
    assert mon.times == pytest.approx(times, abs=1e-12)
    assert [s.t for s in snaps] == mon.times


def test_self_convergence_fisher():
    # chi=0 Gaussian against a 4x-finer run (h and dt both refined)
    p = Params(0.0)
    g1 = Grid.from_bounds(-30, 30, 0.1)
    g2 = Grid.from_bounds(-30, 30, 0.025)
    f1, _, _ = run(SimConfig(params=p, grid=g1, t_end=5.0, dt=0.002,
                             output_every=5.0), Field(g1, np.exp(-g1.x ** 2)))
    f2, _, _ = run(SimConfig(params=p, grid=g2, t_end=5.0, dt=0.0005,
                             output_every=5.0), Field(g2, np.exp(-g2.x ** 2)))
    assert np.abs(f1.u.values - f2.u.values[::4]).max() < 1e-3


def test_order_dt_at_least_one():
    p = Params(0.0)
    g = Grid.from_bounds(-30, 30, 0.1)
    u0 = Field(g, np.exp(-g.x ** 2))
    ref, _, _ = run(SimConfig(params=p, grid=g, t_end=2.0, dt=0.002,
                              output_every=2.0), u0)
    errs = []
    for dt in (0.08, 0.04, 0.02):
        f, _, _ = run(SimConfig(params=p, grid=g, t_end=2.0, dt=dt,
                                output_every=2.0), u0)
        errs.append(np.abs(f.u.values - ref.u.values).max())
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8


def test_order_h_at_least_two_without_advection():
    p = Params(0.0)
    ref_grid = Grid.from_bounds(-30, 30, 0.025)
    fr, _, _ = run(SimConfig(params=p, grid=ref_grid, t_end=2.0, dt=0.002,
                             output_every=2.0),
                   Field(ref_grid, np.exp(-ref_grid.x ** 2)))
    errs = []
    for h in (0.4, 0.2, 0.1):
        g = Grid.from_bounds(-30, 30, h)
        f, _, _ = run(SimConfig(params=p, grid=g, t_end=2.0, dt=0.002,
                                output_every=2.0), Field(g, np.exp(-g.x ** 2)))
        stride = int(round(h / 0.025))
        errs.append(np.abs(f.u.values - fr.u.values[::stride]).max())
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_comparison_surrogate_neg_chi():
    p = Params(-1.0)
    g = Grid.from_bounds(-30, 30, 0.05)
    u0a = Field(g, 0.3 * np.exp(-g.x ** 2 / 4))
    u0b = Field(g, np.minimum(1.0, u0a.values + 0.4 * np.exp(-(g.x - 2) ** 2 / 8) + 0.1))
    _, _, sa = run(SimConfig(params=p, grid=g, t_end=5.0, output_every=1.0), u0a)
    _, _, sb = run(SimConfig(params=p, grid=g, t_end=5.0, output_every=1.0), u0b)
    for a, b in zip(sa, sb):
        assert float((a.u.values - b.u.values).max()) <= 1e-6


def test_deterministic_bitwise():
    p = Params(-0.5)
    g = Grid.from_bounds(-20, 20, 0.1)
    u0 = Field(g, 1.5 * np.exp(-g.x ** 2))
    outs = []
    for _ in range(2):
        final, mon, snaps = run(SimConfig(params=p, grid=g, t_end=3.0,
                                          output_every=1.0), u0)
        outs.append((final.u.values.tobytes(), tuple(mon.sup_u)))
    assert outs[0] == outs[1]


def test_monitor_bounds_cases():
    g = Grid.from_bounds(-20, 20, 0.1)
    p = Params(-1.0)
    s = make_state(p, g, np.minimum(2.0, 2.0 * np.exp(-g.x ** 2)))
    assert monitor_bounds(s, p, u0_sup=2.0) == []
    s_bad = make_state(p, g, 3.0 * s.u.values)
    viol = monitor_bounds(s_bad, p, u0_sup=2.0)
    assert len(viol) == 1 and "sup exceeds max{1, sup u0}" in viol[0]
    out = monitor_bounds(s, Params(0.9), u0_sup=2.0)
    assert len(out) == 1 and "not applicable" in out[0]
    rec = monitor_bounds(s, Params(0.25, 1, 3, 1), u0_sup=2.0)
    assert "no explicit bound" in rec[0]


def test_bound_chi_negative_short():
    p = Params(-1.0)
    g = Grid.from_bounds(-20, 20, 0.05)
    u0 = Field(g, 2.0 * np.exp(-g.x ** 2))
    final, mon, _ = run(SimConfig(params=p, grid=g, t_end=10.0,
                                  output_every=1.0), u0)
    assert max(mon.sup_u) <= 2.0 + 1e-8
    assert monitor_bounds(final, p, u0_sup=2.0) == []


@settings(max_examples=200)
@given(k=st.floats(0.0, 1.0), h=st.floats(0.01, 0.1))
def test_robin_ghost_continues_the_exponential_tail(k, h):
    g = Grid(-1.0, h, 64)
    ghost = _ghosted(np.exp(-k * g.x), h, robin_rate(k, h))[-1]
    assert ghost == pytest.approx(math.exp(-k * (g.x[-1] + h)), rel=1e-13)


@settings(max_examples=100)
@given(h=st.floats(0.01, 0.1), right=st.floats(0.0, 1.0),
       gamma=st.floats(1.0, 3.0))
def test_zero_tail_rate_is_the_plateau_closure(h, right, gamma):
    g = Grid(-5.0, h, 256)
    p = Params(0.0, gamma=gamma)
    u = 1.0 - (1.0 - right) * 0.5 * (1.0 + np.tanh(g.x))
    expected = solve_pair(np.power(u, gamma), g, 0.0)
    for got, want in zip(solve_v(p, u, g, tail_kappa=0.0), expected):
        assert np.array_equal(got, want)


@settings(max_examples=100)
@given(bad=st.one_of(st.floats(max_value=-5e-324),
                     st.sampled_from([math.inf, math.nan])))
def test_config_refuses_bad_tail_rate(bad):
    with pytest.raises(DomainError, match="tail_kappa"):
        SimConfig(params=Params(0.0), grid=Grid(-1.0, 0.1, 16), t_end=1.0,
                  tail_kappa=bad)


def test_stiffness_error():
    p = Params(0.0, 1, 2, 1)
    g = Grid.from_bounds(-10, 10, 0.1)
    u0 = Field(g, np.full(g.n, 1e8))
    with pytest.raises(StiffnessError):
        run(SimConfig(params=p, grid=g, t_end=1.0, output_every=1.0), u0)


@pytest.mark.parametrize("dt, refused", [
    (None, False), (0.1, False), (0.0999, True), (1e-9, True)])
def test_march_refuses_a_run_over_the_step_budget(monkeypatch, dt, refused):
    # 10 steps of dt (DT_MAX when automatic) reach t_end = 1, the budget
    monkeypatch.setattr(cauchy, "MAX_INNER_STEPS", 10)
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(params=Params(0.0), grid=g, t_end=1.0, dt=dt)
    steps = march(cfg, Field(g, np.ones(g.n)))
    if refused:
        with pytest.raises(DomainError,
                           match="--t-end 1 at --dt .* budget of 10"):
            next(steps)
    else:
        assert next(steps)[0] == 0.0


def test_march_accepts_the_relaxation_horizon():
    # CoupledRelax runs in pseudo-time to MAX_INNER_STEPS * RELAX_DT_MAX:
    # exactly on the budget, which the accurate step rule's cap would break
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(params=Params(0.0), grid=g, pseudo_time=True,
                    t_end=cauchy.MAX_INNER_STEPS * cauchy.RELAX_DT_MAX)
    assert next(march(cfg, Field(g, np.ones(g.n))))[0] == 0.0
    for over in (replace(cfg, t_end=math.nextafter(cfg.t_end, math.inf)),
                 replace(cfg, pseudo_time=False)):
        with pytest.raises(DomainError, match="budget"):
            next(march(over, Field(g, np.ones(g.n))))


def test_auto_dt_run_over_the_step_budget_is_a_stiffness_error(monkeypatch):
    # u = 2 holds the automatic dt near 0.1 / 3, so t_end 1 needs 30 steps
    monkeypatch.setattr(cauchy, "MAX_INNER_STEPS", 10)
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(params=Params(0.0), grid=g, t_end=1.0)
    steps = []
    with pytest.raises(StiffnessError, match="step budget exhausted"):
        for _, _, _, _, dt, _, _ in march(cfg, Field(g, np.full(g.n, 2.0))):
            steps.append(dt)
    assert len(steps) == 11            # the initial state and 10 steps


def test_blowup_detected():
    p = Params(0.0)
    g = Grid.from_bounds(-10, 10, 0.1)
    # the explicit logistic term u^2 of a huge state overflows; a fixed
    # dt skips the automatic step's stiffness floor
    cfg = SimConfig(params=p, grid=g, t_end=1.0, dt=0.01, output_every=1.0)
    with pytest.raises(BlowupDetected):
        run(cfg, Field(g, np.full(g.n, 1e200)))


def test_run_validates_inputs():
    p = Params(0.0)
    g = Grid.from_bounds(-10, 10, 0.1)
    other = Grid.from_bounds(-10, 10, 0.2)
    with pytest.raises(DomainError):
        run(SimConfig(params=p, grid=g, t_end=1.0), Field(other, np.zeros(other.n)))
    with pytest.raises(DomainError):
        run(SimConfig(params=p, grid=g, t_end=1.0), Field(g, -np.ones(g.n)))
    # non-finite settings are refused on construction; none is run
    for bad in ({"t_end": math.inf}, {"t_end": math.nan}, {"dt": math.nan},
                {"output_every": math.nan}, {"tail_kappa": math.inf}):
        with pytest.raises(DomainError, match="must be finite"):
            SimConfig(**{"params": p, "grid": g, "t_end": 1.0, **bad})


@settings(max_examples=50)
@given(h=st.floats(0.01, 1.0), peclet=st.floats(0.0, 3.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_config_refuses_cell_peclet_of_one(h, peclet, sign):
    # |c| h < 2 keeps the implicit frame advection's matrix an M-matrix
    c = sign * 2.0 * peclet / h
    g = Grid(-1.0, h, 16)
    if abs(c) * h < 2.0:
        SimConfig(params=Params(0.0), grid=g, t_end=1.0, frame_speed=c)
    else:
        with pytest.raises(DomainError, match="cell Peclet"):
            SimConfig(params=Params(0.0), grid=g, t_end=1.0, frame_speed=c)


def _clamping_run(t_end):
    # a fixed dt of 0.3 capped at each output time, and a peak of 8 whose
    # explicit logistic term drives 29 nodes below zero on the first step
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(params=Params(0.0), grid=g, t_end=t_end, dt=0.3,
                    output_every=1.0)
    return cfg, Field(g, 8.0 * np.exp(-g.x ** 2))


def test_clamp_counting_and_warning():
    # the warning reads the clamped share of steps x n node-steps: 29 of
    # 8 x 201 passes 0.1%, 29 of 240 x 201 does not
    _, short, _ = run(*_clamping_run(2.0))
    assert (short.stats.steps, short.stats.clamp_count) == (8, 29)
    assert short.warnings == ["clamp_count 29 exceeds 0.1% of node-steps"]
    _, long, _ = run(*_clamping_run(60.0))
    assert (long.stats.steps, long.stats.clamp_count) == (240, 29)
    assert long.warnings == []


def test_step_stats_equal_the_yields_of_march():
    cfg, u0 = _clamping_run(2.0)
    stats = StepStats()
    dts, clamped = [], 0
    for _, _, _, _, dt, n_clamped, _ in march(cfg, u0):
        stats.add(dt, n_clamped)
        clamped += n_clamped
        if dt:
            dts.append(dt)
    assert clamped > 0 and min(dts) < max(dts)
    assert stats == StepStats(steps=len(dts), clamp_count=clamped,
                              dt_min=min(dts), dt_max=max(dts))
    _, monitors, _ = run(cfg, u0)
    assert monitors.stats == stats


def test_auto_dt_obeys_both_bounds():
    rng = np.random.default_rng(12)
    g = Grid.from_bounds(-20, 20, 0.05)
    rules = ((False, 0.1, cauchy.DT_MAX),
             (True, cauchy.RELAX_REACTION, cauchy.RELAX_DT_MAX))
    for chi in (-3.0, -0.5, 0.4):
        p = Params(chi, 1.5, 1.5, 2.0)
        u = Field(g, 2.0 * np.convolve(rng.uniform(size=g.n),
                                       np.ones(31) / 31, mode="same"))
        v, vx = solve_v(p, u.values, g, tail_kappa=0.0)
        terms = step_terms(p, u.values, v, vx)
        rmax = float(np.abs(reaction_derivative(p, u.values, terms)).max())
        # the frame speed is advected implicitly: only the drift w - c
        # enters the CFL bound
        drift = advective_velocity(p, terms.um1, vx, 3.0) - 3.0
        for pseudo_time, reaction, cap in rules:
            dt = auto_dt(p, u.values, terms, g.h, pseudo_time)
            assert dt <= 0.5 * g.h / np.abs(drift).max() + 1e-15
            assert dt <= reaction / rmax + 1e-15
            assert dt <= cap


def test_accurate_step_rule_stats_are_pinned():
    # simulate, stability, speed and sweep keep the accuracy rule
    # 0.1 / Rmax; these are its steps on a small lab-frame run
    g = Grid.from_bounds(-20, 20, 0.1)
    u0 = Field(g, 2.0 * np.exp(-g.x**2))
    _, monitors, _ = run(SimConfig(Params(-1.0), g, t_end=2.0), u0)
    stats = monitors.stats
    assert (stats.steps, stats.clamp_count) == (42, 0)
    assert stats.dt_min == pytest.approx(0.01692198236477578, rel=1e-12)
    assert stats.dt_max == pytest.approx(0.06543374783027749, rel=1e-12)


def formula_terms(p, u, v, vx):
    """StepTerms term by term: every power by np.power, chi's terms kept
    at chi = 0, where they are zero."""
    um1 = np.power(u, p.m - 1.0)
    return StepTerms(np.power(u, p.alpha), um1, v - np.power(u, p.gamma),
                     advective_velocity(p, um1, vx, 0.0))


def formula_dt(p, u, v, vx, h, pseudo_time):
    """auto_dt from formula_terms: both bounds taken at every chi."""
    reaction, cap = ((cauchy.RELAX_REACTION, cauchy.RELAX_DT_MAX)
                     if pseudo_time else (0.1, cauchy.DT_MAX))
    terms = formula_terms(p, u, v, vx)
    vmax = float(np.abs(terms.drift).max())
    rmax = float(np.abs(reaction_derivative(p, u, terms)).max())
    dt = math.inf
    if vmax > 0:
        dt = min(dt, 0.5 * h / vmax)
    if rmax > 0:
        dt = min(dt, reaction / rmax)
    return min(dt, cap)


def banded_reference_step(p, u, v, vx, c, dt, grid, robin_kappa, scheme):
    """advance_imex from formula_terms, as a fresh solve_banded of
    I - dt (D_xx + c D_x).

    The (3, n) bands hold the centered frame advection; the explicit
    part upwinds or centers the drift w - c, at chi = 0 too.
    """
    h, n = grid.h, grid.n
    terms = formula_terms(p, u, v, vx)
    ue = _ghosted(u, h, robin_kappa)
    w = terms.drift
    if scheme == "upwind":
        ux = np.where(w > 0, (ue[2:] - ue[1:-1]) / h, (ue[1:-1] - ue[:-2]) / h)
    else:
        ux = (ue[2:] - ue[:-2]) / (2.0 * h)
    rhs = u + dt * (w * ux + reaction_source(p, u, terms))
    r = dt / h**2
    a = c * dt / (2.0 * h)
    ab = np.zeros((3, n))
    ab[0, 1:] = -r - a
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r + a
    ab[0, 1] = -2.0 * r
    ab[2, -2] = -2.0 * r
    ab[1, -1] = 1.0 + 2.0 * r * (1.0 + h * robin_kappa) + c * dt * robin_kappa
    return solve_banded((1, 1), ab, rhs)


EXPONENTS = st.sampled_from([1.0, 2.0, 2.7])
SPECIALS = st.lists(st.sampled_from([0.0, -0.0, 1.0, "u^gamma"]), max_size=4)


def random_state(n, gamma, specials, seed):
    """(u, v, v_x) drawn from seed, with exact 0.0, -0.0 and 1.0 nodes of u
    and v = u^gamma nodes among at least as many random ones."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.5, n)
    v, vx = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    nodes = rng.choice(n, size=len(specials), replace=False)
    for i, special in zip(nodes, specials):
        if special == "u^gamma":
            v[i] = np.power(u[i], gamma)
        else:
            u[i] = special
    return u, v, vx


@settings(max_examples=60)
@given(n=st.integers(8, 300), h=st.floats(0.01, 0.5),
       dts=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3),
       peclet=st.floats(-0.99, 0.99),
       pattern=st.lists(st.integers(0, 2), min_size=2, max_size=8),
       robin_kappa=st.floats(0.0, 3.0), chi=st.sampled_from([-1.0, 0.0, 0.5]),
       m=EXPONENTS, alpha=EXPONENTS, gamma=EXPONENTS, specials=SPECIALS,
       scheme=st.sampled_from(["upwind", "centered"]), seed=st.integers(0, 99))
def test_cached_factor_step_matches_banded_solve(n, h, dts, peclet, pattern,
                                                 robin_kappa, chi, m, alpha,
                                                 gamma, specials, scheme,
                                                 seed):
    # step i takes dt = dts[i % len(dts)] and frame speed c = cs[i % 2],
    # lab frame (c = 0) on even i: keys repeat and alternate, so steps
    # solve by gtsv, factor and hit the factor cache.  |c| h = 2 |peclet|
    # < 2.  Each step and its automatic dt read the shared StepTerms and
    # must give the bits of the term-by-term formulas.  u holds exact
    # 0.0, -0.0 and 1.0 nodes, and v = u^gamma nodes, among at least as
    # many random ones: at chi = 0 the terms drop zeros whose sign can
    # differ at a -0.0 node, which the solve reads only where all of u
    # is zero.
    cs = (0.0, 2.0 * peclet / h)
    g = Grid(-1.0, h, n)
    p = Params(chi, m, alpha, gamma)
    u, v, vx = random_state(n, gamma, specials, seed)
    calls, real = Counter(), cauchy.lapack

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(real, name)(*args, **kwargs)
        return call

    cauchy._factors.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cauchy, "lapack", types.SimpleNamespace(
            **{name: counted(name) for name in ("dgtsv", "dgttrf", "dgttrs")}))
        for i in pattern:
            dt, c = dts[i % len(dts)], cs[i % 2]
            terms = step_terms(p, u, v, vx)
            for pseudo_time in (False, True):
                assert (auto_dt(p, u, terms, h, pseudo_time)
                        == formula_dt(p, u, v, vx, h, pseudo_time))
            got = advance_imex(p, u, terms, c, dt, g, robin_kappa, scheme)
            want = banded_reference_step(p, u, v, vx, c, dt, g, robin_kappa,
                                         scheme)
            assert got.tobytes() == want.tobytes()
            u = np.maximum(got, 0.0)
    # at most three keys, so none leaves the cache: a key's first step is
    # one gtsv, its second factors it, and every later one reuses the factor
    uses = Counter((dts[i % len(dts)], cs[i % 2]) for i in pattern).values()
    assert calls["dgtsv"] == len(uses)
    assert calls["dgttrf"] == sum(k >= 2 for k in uses)
    assert calls["dgttrs"] == sum(k - 1 for k in uses)


@settings(max_examples=100)
@given(n=st.integers(8, 300), h=st.floats(0.01, 0.5), c=st.floats(-10.0, 10.0),
       robin_kappa=st.floats(0.0, 3.0), chi=st.sampled_from([-1.0, 0.0, 0.5]),
       m=EXPONENTS, alpha=EXPONENTS, gamma=EXPONENTS, specials=SPECIALS,
       seed=st.integers(0, 99))
def test_steady_residual_is_the_term_by_term_formula(n, h, c, robin_kappa,
                                                     chi, m, alpha, gamma,
                                                     specials, seed):
    # an oracle that shares no code with the frozen-v operator: the
    # centered step's parts, u_xx + w u_x + source, from formula_terms
    # (chi's terms kept at chi = 0, where they are zero; a zero's sign
    # may differ, which array_equal does not see)
    g = Grid(-1.0, h, n)
    p = Params(chi, m, alpha, gamma)
    u, v, vx = random_state(n, gamma, specials, seed)
    ue = _ghosted(u, h, robin_kappa)
    ux = (ue[2:] - ue[:-2]) / (2.0 * h)
    uxx = (ue[2:] - 2.0 * u + ue[:-2]) / h**2
    terms = formula_terms(p, u, v, vx)
    want = uxx + (c + terms.drift) * ux + reaction_source(p, u, terms)
    got, got_ux = steady_residual(p, u, v, vx, c, g, robin_kappa)
    assert np.array_equal(got, want) and np.array_equal(got_ux, ux)


@pytest.mark.parametrize("dt", [0.03, None])
def test_only_a_repeated_dt_is_factored(monkeypatch, dt):
    # a fixed dt is factored once; an automatic dt, new on most steps, is
    # factored only if it is taken twice, and never twice
    taken, factored = [], []
    step, real = cauchy.advance_imex, cauchy.lapack

    def stepped(p, u, terms, c, dt, *args):
        taken.append(dt)
        return step(p, u, terms, c, dt, *args)

    def dgttrf(*bands):
        factored.append(taken[-1])
        return real.dgttrf(*bands)

    monkeypatch.setattr(cauchy, "advance_imex", stepped)
    monkeypatch.setattr(cauchy, "lapack", types.SimpleNamespace(
        dgttrf=dgttrf, dgttrs=real.dgttrs, dgtsv=real.dgtsv))
    cauchy._factors.clear()
    g = Grid.from_bounds(-20, 20, 0.1)
    run(SimConfig(Params(-1.0), g, t_end=2.0, dt=dt, output_every=0.5),
        Field(g, 2.0 * np.exp(-g.x ** 2)))
    uses = Counter(taken)
    assert len(set(factored)) == len(factored)
    assert all(uses[d] >= 2 for d in factored)
    if dt is None:
        assert sum(k == 1 for k in uses.values()) > len(uses) // 2
    else:
        assert dt in factored


def test_chi_zero_solves_v_once_per_sample(monkeypatch):
    p = Params(0.0)
    g = Grid.from_bounds(-10, 10, 0.1)
    u0 = Field(g, np.exp(-g.x ** 2))
    cfg = SimConfig(params=p, grid=g, t_end=1.03, output_every=0.25)
    calls = []
    core = cauchy.solve_pair

    def counted(*args, **kwargs):
        calls.append(1)
        return core(*args, **kwargs)

    monkeypatch.setattr(cauchy, "solve_pair", counted)
    final, mon, snaps = run(cfg, u0)
    assert len(calls) == len(snaps) == 6
    steps = sum(1 for _ in march(cfg, u0)) - 1
    assert steps > len(snaps)
    monkeypatch.undo()

    # the same run term by term, with v refreshed after every step
    t, u, v = formula_march(cfg, u0)
    assert final.t == t
    assert final.u.values.tobytes() == u.tobytes()
    assert final.v.values.tobytes() == v.tobytes()


def formula_march(cfg, u0):
    """(t, u, v) at the end of march's run, stepped term by term: each
    step from formula_terms, v solved after every step."""
    p, g = cfg.params, cfg.grid
    robin_kappa = robin_rate(cfg.tail_kappa, g.h)
    u = u0.values
    v, vx = solve_v(p, u, g, cfg.tail_kappa)
    t, next_out = 0.0, cfg.output_every
    while t < cfg.t_end - 1e-12:
        dt = cfg.dt or formula_dt(p, u, v, vx, g.h, cfg.pseudo_time)
        dt = min(dt, next_out - t, cfg.t_end - t)
        u = banded_reference_step(p, u, v, vx, cfg.frame_speed, dt, g,
                                  robin_kappa, cfg.scheme)
        if u.min() < 0:
            u = np.maximum(u, 0.0)
        t += dt
        if t >= next_out - 1e-12:
            next_out += cfg.output_every
        v, vx = solve_v(p, u, g, cfg.tail_kappa)
    return t, u, v


@pytest.mark.parametrize("chi, exponents, dt, frame", [
    (-1.0, (1.0, 1.0, 1.0), None, None),
    (0.3, (2.0, 2.7, 2.0), None, None),
    (-0.5, (2.7, 1.0, 2.0), 0.02, None),
    (0.0, (2.0, 2.7, 2.7), None, None),
    (-1.0, (1.0, 1.0, 1.0), None, "pseudo_time"),
    (0.25, (1.0, 1.0, 1.0), None, "pseudo_time"),
    (0.0, (1.0, 2.0, 1.0), 0.05, "centered")])
def test_march_steps_its_formulas_term_by_term(chi, exponents, dt, frame):
    # march's shared StepTerms, power shortcuts and chi = 0 rule give the
    # bits of a run stepped term by term; frame runs step at c = 1.5 with
    # the centered scheme and a Robin right edge, as the wave lane does
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(Params(chi, *exponents), g, t_end=4.0, dt=dt)
    if frame:
        cfg = replace(cfg, frame_speed=1.5, tail_kappa=0.5,
                      scheme="centered", pseudo_time=frame == "pseudo_time")
    u0 = Field(g, 1.5 * np.exp(-g.x ** 2) + 0.2 * (g.x < 0))
    final, monitors, _ = run(cfg, u0)
    assert monitors.stats.steps > 10
    t, u, v = formula_march(cfg, u0)
    assert final.t == t
    assert final.u.values.tobytes() == u.tobytes()
    assert final.v.values.tobytes() == v.tobytes()


def test_chi_zero_march_yields_no_stale_v():
    g = Grid.from_bounds(-10, 10, 0.1)
    cfg = SimConfig(params=Params(0.0), grid=g, t_end=0.5, output_every=0.25)
    for t, u, v, vx, dt, _, sample in march(cfg, Field(g, np.exp(-g.x ** 2))):
        assert (v is None) == (vx is None) == (not sample)
        assert not u.flags.writeable


@pytest.mark.parametrize("chi", [0.0, -0.5])
def test_overflowing_u_gamma_is_a_domain_error(chi):
    # one huge fixed step lifts the constant state 1e-3 to about 1e6, whose
    # 60th power overflows; the step is no sample, so at chi = 0 v is not
    # solved there, and u^gamma is still checked
    g = Grid.from_bounds(-5, 5, 0.5)
    cfg = SimConfig(params=Params(chi, gamma=60.0), grid=g, t_end=1e10,
                    dt=1e9, output_every=1e10)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DomainError, match="u\\^gamma"):
            run(cfg, Field(g, np.full(g.n, 1e-3)))

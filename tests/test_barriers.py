"""Super/sub-solution evaluation and residual-sign certificates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemowave import barriers
from chemowave.barriers import (CERTIFY_GRID, BarrierSpec, certify,
                                default_barrier_spec, eps_disc, eval_sub,
                                eval_super, random_envelope)
from chemowave.cauchy import frozen_residual, frozen_terms, steady_residual
from chemowave.elliptic import solve_pair
from chemowave.errors import DomainError
from chemowave.fields import Field, Grid
from chemowave.params import (Params, RegimeTag, barrier_constants,
                              c_star, chi_star, classify_regime,
                              default_kappa_tilde, kappa_of_speed, M_chi,
                              require_speed_above)

from oracles import residual_A


def test_eval_super_values():
    spec = BarrierSpec(kappa=0.5, kappa_tilde=1.0, M=2.0, D=1.0, d=0.1)
    g = Grid.from_bounds(-10, 10, 0.05)
    W = eval_super(spec, g)
    kink = -math.log(2.0) / 0.5
    i = int(round((kink - g.x0) / g.h))
    assert W[i] == pytest.approx(2.0, rel=1e-6)
    i0 = int(round((0.0 - g.x0) / g.h))
    assert W[i0] == pytest.approx(1.0, abs=1e-14)
    i2 = int(round((2.0 - g.x0) / g.h))
    assert W[i2] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_eval_sub_geometry():
    spec = BarrierSpec(kappa=0.25, kappa_tilde=0.5, M=1.0, D=math.e, d=0.01)
    g = Grid.from_bounds(-5, 30, 0.01)
    W = eval_sub(spec, g)
    assert spec.x_minus == pytest.approx(4.0, abs=1e-14)
    i = int(round((spec.x_minus - g.x0) / g.h))
    assert abs(W[i]) < 1e-12
    # interior maximum at x_plus with vanishing centered derivative
    ip = int(round((spec.x_plus - g.x0) / g.h))
    assert W[ip] == pytest.approx(W.max(), abs=1e-8)

    def U(x):
        return math.exp(-spec.kappa * x) - spec.D * math.exp(-spec.kappa_tilde * x)

    hh = 1e-3
    assert abs(U(spec.x_plus + hh) - U(spec.x_plus - hh)) / (2 * hh) < 1e-8
    i8 = int(round((8.0 - g.x0) / g.h))
    assert W[i8] == pytest.approx(
        math.exp(-2.0) - math.e * math.exp(-4.0), abs=1e-12)
    clipped = eval_sub(spec, g, clipped=True)
    assert clipped[0] == pytest.approx(W[ip], rel=1e-6)
    assert np.all(clipped >= W - 1e-15)


def test_residual_super_negative_regime():
    # condition (i): the exponential cap is a super-solution right of the kink
    p = Params(-1.0)
    c = 3.0
    g = Grid.from_bounds(-20, 30, 0.02)
    spec = default_barrier_spec(p, c)
    W = Field(g, eval_super(spec, g))
    eps = eps_disc(g.h, W.max())
    for seed in (0, 1, 2):
        u = Field(g, random_envelope(spec, g, [seed])[0])
        res = residual_A(W, u, p, c)
        xi = res.grid.x
        mask = (xi >= spec.kink) & (np.abs(xi - spec.kink) > 3 * g.h)
        assert res.values[mask].max() <= eps


@settings(max_examples=60)
@given(n=st.integers(8, 2000), h=st.floats(0.005, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=3001, h=0.02, seed=0)        # CERTIFY_GRID: sigma 100, radius 400
@example(n=50, h=0.02, seed=1)          # radius 400 > n
@example(n=8, h=0.005, seed=2)          # radius 1600, 200 times n
@example(n=300, h=0.75, seed=3)         # the sigma = 4 floor
def test_random_envelope_smoothing_matches_ndimage(n, h, seed):
    # the smoothed noise, scaled into [0.2, 1], times the super-solution
    spec = BarrierSpec(kappa=0.5, kappa_tilde=1.0, M=2.0, D=1.0, d=0.1)
    g = Grid(-0.5 * (n - 1) * h, h, n)
    sup = eval_super(spec, g)
    u = random_envelope(spec, g, [seed])[0]
    assert np.all(0.2 * sup <= u) and np.all(u <= sup)


def test_residual_constant_super_and_sub():
    p = Params(-1.0)
    c = 3.0
    g = Grid.from_bounds(-20, 30, 0.02)
    spec = default_barrier_spec(p, c)
    u = Field(g, random_envelope(spec, g, [5])[0])
    Wm = Field(g, np.full(g.n, spec.M))
    res_m = residual_A(Wm, u, p, c)
    assert res_m.values.max() <= eps_disc(g.h, spec.M)
    Wd = Field(g, np.full(g.n, spec.d))
    res_d = residual_A(Wd, u, p, c)
    assert res_d.values.min() >= -eps_disc(g.h, spec.d)


def test_residual_sub_profile():
    p = Params(-1.0)
    c = 3.0
    g = Grid.from_bounds(-20, 40, 0.02)
    spec = default_barrier_spec(p, c)
    W = Field(g, np.maximum(eval_sub(spec, g), 0.0))
    u = Field(g, random_envelope(spec, g, [9])[0])
    res = residual_A(W, u, p, c)
    xi = res.grid.x
    mask = xi > spec.x_minus + 3 * g.h
    assert res.values[mask].min() >= -eps_disc(g.h, W.max())


def test_residual_fractional_power_guard():
    p = Params(-1.0, 1.5, 1.5, 1.0)
    g = Grid.from_bounds(-5, 5, 0.1)
    W = Field(g, np.linspace(-0.1, 1.0, g.n))
    u = Field(g, np.full(g.n, 0.5))
    with pytest.raises(DomainError, match="non-integer"):
        residual_A(W, u, p, 3.0)


def test_residual_grid_mismatch():
    p = Params(0.0)
    g1 = Grid.from_bounds(-5, 5, 0.1)
    g2 = Grid.from_bounds(-5, 5, 0.05)
    with pytest.raises(DomainError):
        residual_A(Field(g1, np.ones(g1.n)), Field(g2, np.ones(g2.n)), p, 3.0)


def test_certify_both_regimes_small():
    assert certify(Params(-1.0), 3.0).passed
    assert certify(Params(0.25), 2.5).passed
    assert certify(Params(0.0), 3.0).passed


def test_certify_fails_on_a_nan_excess(monkeypatch):
    # NaN compares false with everything: it must not pass as "not above 0"
    real = barriers.worst_residuals

    def one_nan(*args):
        worst = real(*args)
        worst[2][-5] = math.nan         # sub_profile, right of x_minus
        return worst

    monkeypatch.setattr(barriers, "worst_residuals", one_nan)
    rep = certify(Params(-1.0), 3.0)
    assert not rep.passed
    assert math.isnan(rep.checks["sub_profile"]["worst_excess"])
    assert math.isfinite(rep.worst_excess)
    assert rep.worst_check != "sub_profile"


def test_residual_discretization_contracts_quadratically():
    # fixed analytic W and u: the centered-difference residual converges
    # to the continuum residual at second order
    p = Params(-1.0)
    c = 3.0
    spec = default_barrier_spec(p, c)

    def residual_on(h):
        g = Grid.from_bounds(-20.0, 40.0, h)
        W = Field(g, eval_super(spec, g))
        return residual_A(W, W, p, c), g

    res_ref, gref = residual_on(0.005)
    E = {}
    for h in (0.08, 0.04):
        res, g = residual_on(h)
        stride = int(round(h / 0.005))
        xs = g.interior().x
        i0 = int(round((xs[0] - gref.interior().x[0]) / 0.005))
        ref_vals = res_ref.values[i0::stride][:xs.size]
        mask = (xs > spec.kink + 1.0) & (xs < 35.0)
        E[h] = np.abs(res.values - ref_vals)[mask].max()
    assert 3.0 <= E[0.08] / E[0.04] <= 5.0


def test_converged_profile_is_discrete_steady_state(neg_profile):
    # reinserting the computed wave into the operator leaves a residual
    # below the discrete slack
    prof = neg_profile
    res = residual_A(prof.U, prof.U, prof.problem.params, prof.problem.c)
    eps = eps_disc(prof.U.grid.h, prof.U.max())
    assert np.abs(res.values).max() < eps


def test_certify_general_exponents():
    # m = 2 exercises the general-exponent operator terms in both regimes
    assert certify(Params(0.3, 2.0, 2.0, 1.0), 2.5).passed
    assert certify(Params(-2.0, 2.0, 2.0, 1.5), 4.0).passed


def _certify_plan(spec, grid):
    """certify's four checks: (name, W, the interior nodes checked, eps,
    sign), with sign * A(W; u) <= eps required on those nodes."""
    xi = grid.interior().x
    Wsup = eval_super(spec, grid)
    Wsub = np.maximum(eval_sub(spec, grid), 0.0)
    everywhere = np.ones(xi.size, dtype=bool)
    return (
        ("super_exp", Wsup,
         (xi >= spec.kink) & (np.abs(xi - spec.kink) > 3.0 * grid.h),
         eps_disc(grid.h, Wsup.max()), +1),
        ("super_const", np.full(grid.n, float(spec.M)), everywhere,
         eps_disc(grid.h, spec.M), +1),
        ("sub_profile", Wsub, xi > spec.x_minus + 3.0 * grid.h,
         eps_disc(grid.h, max(Wsub.max(), 1e-3)), -1),
        ("sub_const", np.full(grid.n, spec.d), everywhere,
         eps_disc(grid.h, max(spec.d, 1e-3)), -1))


@pytest.mark.parametrize("params, c", [
    (Params(-1.0), 3.0), (Params(0.25), 2.5),
    (Params(-2.0, 2.0, 2.0, 1.5), 4.0)])
def test_worst_residuals_is_the_dense_greens_matrix_supremum(params, c):
    # the Green's matrix of the elliptic solve, one source row per node:
    # sign * A(W; u) at node i is base_i + sum_k coef_ik S_k, and its
    # supremum over 0 <= S <= u_max^gamma takes S_k wherever coef_ik > 0
    grid = Grid.from_bounds(-10.0, 10.0, 0.1)
    spec = default_barrier_spec(params, c)
    u_max = eval_super(spec, grid)
    G, Gx = solve_pair(np.eye(grid.n), grid,
                       params.gamma * kappa_of_speed(c))
    S = u_max ** params.gamma
    pairs = [(W, sign) for _, W, _, _, sign in _certify_plan(spec, grid)]
    got = barriers.worst_residuals(params, c, grid, u_max, pairs)
    zero = np.zeros(grid.n - 2)
    for (W, sign), worst in zip(pairs, got):
        terms = frozen_terms(params, W, grid.h)
        base = frozen_residual(terms, zero, zero, c)
        coef = sign * (frozen_residual(terms, G[:, 1:-1], Gx[:, 1:-1], c)
                       - base)
        want = sign * base + S @ np.maximum(coef, 0.0)
        assert np.abs(worst - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("params, c", [
    (Params(-1.0), 3.0), (Params(0.25), 2.5),
    (Params(0.3, 2.0, 2.0, 1.0), 2.5), (Params(-2.0, 2.0, 2.0, 1.5), 4.0),
    (Params(0.0), 3.0), (Params(0.0, 2.0, 2.0, 1.5), 3.0)])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 4))
def test_exact_certify_dominates_every_random_draw(params, c, seed):
    # every random admissible density's worst excess, check by check, is
    # at most the exact worst excess over the class that certify reports
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(params, c)
    exact = certify(params, c).checks
    V, Vx = barriers.solve_V(
        random_envelope(spec, grid, range(seed, seed + 4)), grid, params, c)
    for name, W, mask, eps, sign in _certify_plan(spec, grid):
        # one row per draw; at chi = 0, which reads no V, one row for all
        res = sign * frozen_residual(frozen_terms(params, W, grid.h),
                                     V[:, 1:-1], Vx[:, 1:-1], c)
        assert (res[..., mask].max() - eps
                <= exact[name]["worst_excess"] + 1e-12), name


def _certify_draw_by_draw(p, c, n_draws, seed):
    """The random-draw certificate, and each check's (excess, x) per draw,
    from one draw, one solve and one residual at a time."""
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(p, c)
    xi = grid.interior().x
    checks = []
    passed, worst, worst_loc, worst_name = True, -math.inf, math.nan, ""
    for k in range(n_draws):
        u = _one_envelope(spec, grid, seed + k)
        V, Vx = barriers.solve_V(u, grid, p, c)
        for name, W, mask, eps, sign in _certify_plan(spec, grid):
            barriers._pow_guard(W, p)
            res = steady_residual(p, W, V, Vx, c, grid, 0.0)[0][1:-1]
            vals = sign * res[mask]
            i = int(np.argmax(vals))
            excess, loc = float(vals[i] - eps), float(xi[mask][i])
            checks.append((name, excess, loc))
            passed = passed and excess <= 0
            if excess > worst:
                worst, worst_loc, worst_name = excess, loc, name
    return (passed, worst, worst_loc, worst_name), checks


@pytest.mark.parametrize("params, c", [
    (Params(-1.0), 3.0), (Params(0.25), 2.5),
    (Params(0.3, 2.0, 2.0, 1.0), 2.5), (Params(-2.0, 2.0, 2.0, 1.5), 4.0),
    (Params(0.0), 3.0), (Params(0.0, 2.0, 2.0, 1.5), 3.0)])
@pytest.mark.parametrize("n_draws", [1, 13])
def test_blocked_certify_is_the_draw_by_draw_report(params, c, n_draws):
    # a block of draws (random_envelope rows, one row-stacked solve, one
    # frozen residual) gives every bit of each check of each draw computed
    # one at a time; the exact certificate bounds every draw, and at
    # chi = 0, where the residual reads no V, it is the draw report itself
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(params, c)
    xi = grid.interior().x
    rep = certify(params, c)
    for seed in (0, 7):
        u = random_envelope(spec, grid, range(seed, seed + n_draws))
        V, Vx = barriers.solve_V(u, grid, params, c)
        per_check = []
        for name, W, mask, eps, sign in _certify_plan(spec, grid):
            res = sign * frozen_residual(frozen_terms(params, W, grid.h),
                                         V[:, 1:-1], Vx[:, 1:-1], c)
            vals = np.broadcast_to(res, (n_draws, xi.size))[:, mask]
            i = np.argmax(vals, axis=1)
            per_check.append([(name, float(v[k] - eps), float(xi[mask][k]))
                              for v, k in zip(vals, i)])
        blocked = [check for draw in zip(*per_check) for check in draw]
        report, want = _certify_draw_by_draw(params, c, n_draws, seed)
        assert ([(n, e.hex(), x.hex()) for n, e, x in blocked]
                == [(n, e.hex(), x.hex()) for n, e, x in want])
        for name, excess, _ in want:
            assert excess <= rep.checks[name]["worst_excess"] + 1e-12, name
        assert report[0] or not rep.passed
        if params.chi == 0:
            assert (rep.passed, rep.worst_excess.hex(),
                    rep.worst_location.hex(), rep.worst_check) == (
                report[0], report[1].hex(), report[2].hex(), report[3])


def _one_envelope(spec, grid, seed):
    """One draw's density, computed on its own as one 1-D row."""
    from scipy.ndimage import gaussian_filter1d

    raw = np.random.default_rng(seed).uniform(size=grid.n)
    smooth = gaussian_filter1d(raw, max(2.0 / grid.h, 4.0), mode="nearest")
    lo, hi = smooth.min(), smooth.max()
    r = (smooth - lo) / (hi - lo) if hi > lo else np.full(grid.n, 0.5)
    return eval_super(spec, grid) * (0.2 + 0.8 * r)


@st.composite
def wave_regime_speeds(draw):
    """(params, c) in a wave-construction regime, c above its threshold:
    chi <= 0 with alpha <= m + gamma - 1 and c > c_star, or
    0 < chi < min{1/2, chi*} with alpha = m + gamma - 1 and c > 2."""
    m, gamma = draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 4.0))
    if draw(st.booleans()):
        p = Params(draw(st.floats(-20.0, 0.0)), m,
                   draw(st.floats(1.0, m + gamma - 1.0)), gamma)
        threshold = c_star(p)
    else:
        chi = draw(st.floats(0.0, min(0.5, chi_star(m, gamma)),
                             exclude_min=True, exclude_max=True))
        p, threshold = Params(chi, m, m + gamma - 1.0, gamma), 2.0
    return p, threshold + draw(st.floats(1e-6, 5.0))


def _spec_or_error(build):
    try:
        return build()
    except DomainError as err:
        return str(err)


@settings(max_examples=200)
@given(wave_regime_speeds())
@example((Params(-1.0), 4.0))
@example((Params(0.25), 2.5))
def test_default_barrier_spec_takes_M_chi_in_the_wave_regimes(params_c):
    # the wave lane's sandwich takes the default spec, whose M must be
    # the a-priori sup bound M_chi of the waves it brackets, bit for bit
    p, c = params_c
    assert classify_regime(p) in (RegimeTag.NEG_CHI_ALPHA_LE,
                                  RegimeTag.POS_CHI_ALPHA_EQ)
    threshold = require_speed_above(p, c)

    def with_M_chi():
        kappa = kappa_of_speed(c)
        kt = default_kappa_tilde(p, kappa)
        bc = barrier_constants(p, kappa, kt, M=M_chi(p))
        return BarrierSpec(kappa=kappa, kappa_tilde=kt, M=M_chi(p),
                           D=bc.D_sub, d=bc.d_sub)

    got = _spec_or_error(lambda: default_barrier_spec(p, c))
    want = _spec_or_error(with_M_chi)
    if want == "D and d must be positive":
        # d_sub underflows next to the threshold: the error names the speed
        assert got.startswith(f"c = {c:.9g} is too close to its speed "
                              f"threshold {threshold:g}"), got
    else:
        assert got == want


@st.composite
def speeds_just_above_c_star(draw):
    """chi <= 0 with alpha <= m + gamma - 1, c 1 to 10^6 ulps above c*,
    log-uniformly: M_barrier(kappa(c)) rounds below 1 only within about
    150 ulps of c*."""
    m, gamma = draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 4.0))
    p = Params(draw(st.floats(-20.0, 0.0)), m,
               draw(st.floats(1.0, m + gamma - 1.0)), gamma)
    threshold = c_star(p)
    ulps = round(10.0 ** draw(st.floats(0.0, 6.0)))
    return p, threshold + ulps * math.ulp(threshold)


@settings(max_examples=300)
@given(st.one_of(wave_regime_speeds(), speeds_just_above_c_star()))
@example((Params(-1.29, 1.5, 1.0, 2.8), 5.041268389227329))
def test_default_barrier_spec_refuses_nothing_past_its_gate(params_c):
    # past require_speed_above the spec takes M = M_chi, and its one
    # refusal is d_sub underflowing next to the threshold the gate
    # returned.  M_barrier(kappa) >= 1 is no condition of its own: above
    # c* it fails only by rounding, as at the example, 1 ulp above c*,
    # where M_barrier = 1 - 9e-16 and the barriers exist
    p, c = params_c
    threshold = require_speed_above(p, c)
    try:
        spec = default_barrier_spec(p, c)
    except DomainError as err:
        assert str(err).startswith(
            f"c = {c:.9g} is too close to its speed threshold {threshold:g}"
            ": the sub-solution's d_sub underflows to 0"), err
    else:
        assert spec.M == M_chi(p)


def test_random_envelope_rows_are_their_one_seed_draws():
    spec = default_barrier_spec(Params(-1.0), 3.0)
    g = Grid.from_bounds(*CERTIFY_GRID)
    block = random_envelope(spec, g, range(5, 10))
    assert block.shape == (5, g.n)
    for row, seed in zip(block, range(5, 10)):
        assert np.array_equal(row, _one_envelope(spec, g, seed))


def test_random_envelope_flat_row_sits_mid_range(monkeypatch):
    # a row with nothing to scale is 0.5 of its range, its neighbours not
    import scipy.ndimage

    def one_flat_row(raw, sigma, axis, mode):
        raw = raw.copy()
        raw[0] = 0.3
        return raw

    monkeypatch.setattr(scipy.ndimage, "gaussian_filter1d", one_flat_row)
    spec = BarrierSpec(kappa=0.5, kappa_tilde=1.0, M=2.0, D=1.0, d=0.1)
    g = Grid.from_bounds(-5.0, 5.0, 0.1)
    sup = eval_super(spec, g)
    u = random_envelope(spec, g, [3, 4])
    assert np.array_equal(u[0], sup * (0.2 + 0.8 * 0.5))
    assert np.allclose([(u[1] / sup).min(), (u[1] / sup).max()], [0.2, 1.0])


def test_certify_peak_allocation_stays_bounded():
    # measured on numpy 2.4: one certificate, one elliptic solve of
    # 3,001 nodes and four checks, peaks at 0.55 MB of traced allocation
    # (the 200 random draws it replaced, 4 at a time, at 1.31 MB)
    certify(Params(-1.0), 3.0)
    tracemalloc.start()
    try:
        certify(Params(-1.0), 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.64 * 2**20

"""Super/sub-solution evaluation and residual-sign certificates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemowave import barriers
from chemowave.barriers import (CERTIFY_GRID, BarrierSpec, certify,
                                default_barrier_spec, eps_disc, eval_sub,
                                eval_super, random_envelope, residual_A)
from chemowave.cauchy import steady_residual
from chemowave.errors import DomainError
from chemowave.fields import Field, Grid
from chemowave.params import Params


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
    spec = default_barrier_spec(p, c, M=1.0)
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
    # ndimage is the oracle only; the package smooths by FFT
    from scipy.ndimage import gaussian_filter1d

    sigma = max(2.0 / h, 4.0)
    raw = np.random.default_rng(seed).uniform(size=n)
    ref = gaussian_filter1d(raw, sigma, mode="nearest")
    assert np.abs(barriers._gaussian_smooth(raw, sigma) - ref).max() <= 1e-14

    spec = BarrierSpec(kappa=0.5, kappa_tilde=1.0, M=2.0, D=1.0, d=0.1)
    g = Grid(-0.5 * (n - 1) * h, h, n)
    sup = eval_super(spec, g)
    u = random_envelope(spec, g, [seed])[0]
    assert np.all(0.2 * sup <= u) and np.all(u <= sup)


def test_residual_constant_super_and_sub():
    p = Params(-1.0)
    c = 3.0
    g = Grid.from_bounds(-20, 30, 0.02)
    spec = default_barrier_spec(p, c, M=1.0)
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
    spec = default_barrier_spec(p, c, M=1.0)
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
    rep = certify(Params(-1.0), 3.0, n_draws=20, seed=0)
    assert rep.passed
    rep2 = certify(Params(0.25), 2.5, n_draws=20, seed=100)
    assert rep2.passed


def test_certify_fails_on_a_nan_excess(monkeypatch):
    # NaN compares false with everything: it must not pass as "not above 0"
    real = barriers._sign_excess
    calls = []

    def nan_once(*args):
        calls.append(None)
        excess, loc = real(*args)
        if len(calls) == 3:             # sub_profile, first draw
            excess[0] = math.nan
        return excess, loc

    monkeypatch.setattr(barriers, "_sign_excess", nan_once)
    rep = certify(Params(-1.0), 3.0, n_draws=2, seed=0)
    assert len(calls) == 4              # one block, one call per check
    assert not rep.passed
    assert math.isfinite(rep.worst_excess)


def test_residual_discretization_contracts_quadratically():
    # fixed analytic W and u: the centered-difference residual converges
    # to the continuum residual at second order
    p = Params(-1.0)
    c = 3.0
    spec = default_barrier_spec(p, c, M=1.0)

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
    rep = certify(Params(0.3, 2.0, 2.0, 1.0), 2.5, n_draws=30, seed=7)
    assert rep.passed
    rep2 = certify(Params(-2.0, 2.0, 2.0, 1.5), 4.0, n_draws=30, seed=17)
    assert rep2.passed


@pytest.mark.parametrize("n_draws", [0, -5])
def test_certify_refuses_a_certificate_with_no_draws(n_draws):
    # no draw is a vacuous pass, not a certificate
    with pytest.raises(DomainError, match="at least one draw"):
        certify(Params(-1.0), 3.0, n_draws=n_draws)


def _one_envelope(spec, grid, seed):
    """One draw's density, computed on its own as one 1-D row."""
    raw = np.random.default_rng(seed).uniform(size=grid.n)
    radius, size, kernel = barriers._gaussian_spectrum(
        grid.n, max(2.0 / grid.h, 4.0))
    padded = np.pad(raw, radius, mode="edge")
    smooth = np.fft.irfft(np.fft.rfft(padded, size) * kernel,
                          size)[2 * radius:2 * radius + grid.n]
    lo, hi = smooth.min(), smooth.max()
    r = (smooth - lo) / (hi - lo) if hi > lo else np.full(grid.n, 0.5)
    return eval_super(spec, grid) * (0.2 + 0.8 * r)


def _certify_draw_by_draw(p, c, n_draws, seed):
    """certify's report, and each check's (excess, x) per draw, from one
    draw, one solve and one residual at a time."""
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(p, c)
    Wsup = eval_super(spec, grid)
    Wsub = np.maximum(eval_sub(spec, grid), 0.0)
    xi = grid.interior().x
    plans = (
        ("super_exp", Wsup,
         (xi >= spec.kink) & (np.abs(xi - spec.kink) > 3.0 * grid.h),
         eps_disc(grid.h, Wsup.max()), +1),
        ("super_const", np.full(grid.n, float(spec.M)), xi == xi,
         eps_disc(grid.h, spec.M), +1),
        ("sub_profile", Wsub, xi > spec.x_minus + 3.0 * grid.h,
         eps_disc(grid.h, max(Wsub.max(), 1e-3)), -1),
        ("sub_const", np.full(grid.n, spec.d), xi == xi,
         eps_disc(grid.h, max(spec.d, 1e-3)), -1),
    )
    checks = []
    passed, worst, worst_loc, worst_name = True, -math.inf, math.nan, ""
    for k in range(n_draws):
        u = _one_envelope(spec, grid, seed + k)
        assert np.array_equal(random_envelope(spec, grid, [seed + k])[0], u)
        V, Vx = barriers.solve_V(u, grid, p, c)
        for name, W, mask, eps, sign in plans:
            barriers._pow_guard(W, p)
            res = steady_residual(p, W, V, Vx, c, grid, 0.0)[0][1:-1]
            vals = sign * res[mask]
            i = int(np.argmax(vals))
            excess, loc = float(vals[i] - eps), float(xi[mask][i])
            checks.append((excess.hex(), loc.hex()))
            passed = passed and excess <= 0
            if excess > worst:
                worst, worst_loc, worst_name = excess, loc, name
    return (passed, worst.hex(), worst_loc.hex(), worst_name, n_draws), checks


@pytest.mark.parametrize("params, c", [
    (Params(-1.0), 3.0), (Params(0.25), 2.5),
    (Params(0.3, 2.0, 2.0, 1.0), 2.5), (Params(-2.0, 2.0, 2.0, 1.5), 4.0)])
@pytest.mark.parametrize("n_draws", [1, 13])
def test_blocked_certify_is_the_draw_by_draw_report(monkeypatch, params, c,
                                                     n_draws):
    # 13 draws end in a short block; every bit of the report, and of each
    # check of each draw, must match
    real = barriers._sign_excess
    blocks = []

    def recorded(*args):
        out = real(*args)
        blocks.append(out)
        return out

    monkeypatch.setattr(barriers, "_sign_excess", recorded)
    for seed in (0, 7):
        blocks.clear()
        rep = certify(params, c, n_draws=n_draws, seed=seed)
        checks = [(float(excess[k]).hex(), float(loc[k]).hex())
                  for b in range(0, len(blocks), 4)
                  for k in range(len(blocks[b][0]))
                  for excess, loc in blocks[b:b + 4]]
        report, want = _certify_draw_by_draw(params, c, n_draws, seed)
        assert checks == want
        assert (rep.passed, rep.worst_excess.hex(), rep.worst_location.hex(),
                rep.worst_check, rep.n_draws) == report


def test_random_envelope_rows_are_their_one_seed_draws():
    spec = default_barrier_spec(Params(-1.0), 3.0)
    g = Grid.from_bounds(*CERTIFY_GRID)
    block = random_envelope(spec, g, range(5, 10))
    assert block.shape == (5, g.n)
    for row, seed in zip(block, range(5, 10)):
        assert np.array_equal(row, _one_envelope(spec, g, seed))


def test_random_envelope_flat_row_sits_mid_range(monkeypatch):
    # a row with nothing to scale is 0.5 of its range, its neighbours not
    def one_flat_row(raw, sigma):
        raw = raw.copy()
        raw[0] = 0.3
        return raw

    monkeypatch.setattr(barriers, "_gaussian_smooth", one_flat_row)
    spec = BarrierSpec(kappa=0.5, kappa_tilde=1.0, M=2.0, D=1.0, d=0.1)
    g = Grid.from_bounds(-5.0, 5.0, 0.1)
    sup = eval_super(spec, g)
    u = random_envelope(spec, g, [3, 4])
    assert np.array_equal(u[0], sup * (0.2 + 0.8 * 0.5))
    assert np.allclose([(u[1] / sup).min(), (u[1] / sup).max()], [0.2, 1.0])


def test_certify_peak_allocation_stays_bounded():
    # measured on numpy 2.4: a block of DRAWS_PER_BLOCK = 4 draws peaks
    # at 1.31 MB of traced allocation (0.42 MB one draw at a time, 2.04 MB
    # at 8 draws); a larger block must be measured against the benchmark's
    # peak RSS before this bound moves
    certify(Params(-1.0), 3.0, n_draws=4)
    tracemalloc.start()
    try:
        certify(Params(-1.0), 3.0, n_draws=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.45 * 2**20

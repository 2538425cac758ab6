"""Super/sub-solution evaluation and residual-sign certificates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemowave import barriers
from chemowave.barriers import (BarrierSpec, certify, default_barrier_spec,
                                eps_disc, eval_sub, eval_super,
                                random_envelope, residual_A)
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
        u = Field(g, random_envelope(spec, g, seed))
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
    u = random_envelope(spec, g, seed)
    assert np.all(0.2 * sup <= u) and np.all(u <= sup)


def test_residual_constant_super_and_sub():
    p = Params(-1.0)
    c = 3.0
    g = Grid.from_bounds(-20, 30, 0.02)
    spec = default_barrier_spec(p, c, M=1.0)
    u = Field(g, random_envelope(spec, g, 5))
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
    u = Field(g, random_envelope(spec, g, 9))
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
        return (math.nan, 0.0) if len(calls) == 3 else real(*args)

    monkeypatch.setattr(barriers, "_sign_excess", nan_once)
    rep = certify(Params(-1.0), 3.0, n_draws=2, seed=0)
    assert len(calls) == 8
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

"""Exponential-kernel elliptic solves: exact cases, bounds, cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemowave.elliptic import psi_derivative, solve_fd, solve_pair, solve_psi
from chemowave.errors import DomainError
from chemowave.fields import Field, Grid


def smooth_nonneg(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=grid.n)
    k = np.ones(41) / 41.0
    return Field(grid, scale * np.convolve(raw, k, mode="same"))


def test_constant_source_unit_mass():
    g = Grid.from_bounds(-50, 50, 0.05)
    s = Field(g, np.ones(g.n))
    psi = solve_psi(s, 1.0, 1.0, 0.0, 0.0)
    assert np.abs(psi.values - 1.0).max() < 1e-10
    dpsi = psi_derivative(s, 1.0, 1.0, 0.0, 0.0)
    assert np.abs(dpsi.values).max() < 1e-10


def test_exponential_source_exact():
    # source e^{-x/2} reproduces (4/3) e^{-x/2}; interior relative error
    # follows the piecewise-linear reconstruction bound (kappa h)^2 / 12
    g = Grid.from_bounds(-40, 40, 0.0025)
    s = Field(g, np.exp(-0.5 * g.x))
    psi, dpsi = solve_pair(s, 1.0, 1.0, 0.5, 0.5)
    exact = (4.0 / 3.0) * np.exp(-0.5 * g.x)
    win = (g.x >= -20) & (g.x <= 20)
    rel = np.abs(psi.values[win] / exact[win] - 1.0).max()
    assert rel < 2e-7
    relp = np.abs(dpsi.values[win] / (-0.5 * psi.values[win]) - 1.0).max()
    assert relp < 1e-7


@settings(max_examples=60)
@given(a=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       C=st.floats(1e-3, 1e3), x0=st.floats(-5.0, 3.0))
def test_matching_tail_rates_are_exact_for_exponential_sources(a, C, x0):
    # s = C e^{-a x} continued at its own rate on both sides solves to
    # Psi = s / (1 - a^2), Psi' = -a Psi; h keeps (a h)^2 / 8 below 1e-8
    g = Grid(x0, 1e-4, 20001)
    s = Field(g, C * np.exp(-a * g.x))
    psi, dpsi = solve_pair(s, 1.0, 1.0, a, a)
    exact = s.values / (1.0 - a * a)
    assert np.abs(psi.values / exact - 1.0).max() < 1e-8
    assert np.abs(dpsi.values / psi.values + a).max() < 1e-8


def test_triangular_bump_green_function():
    # unit-mass hat at 0 behaves like the point-source kernel e^{-|x|}/2;
    # cross-checked against direct quadrature at 10x resolution
    h = 0.05
    g = Grid.from_bounds(-30, 30, h)
    vals = np.maximum(0.0, 1.0 - np.abs(g.x) / h) / h
    s = Field(g, vals)
    psi = solve_psi(s, 1.0, 1.0, 0.0, 0.0)
    for xq in (-5.0, -3.0, -1.5, 1.5, 3.0, 5.0):
        i = int(round((xq - g.x0) / h))
        expected = 0.5 * np.exp(-abs(g.x[i]))
        assert abs(psi.values[i] / expected - 1.0) < 2 * h * h
        yf = np.linspace(-h, h, 2001)
        sf = np.maximum(0.0, 1.0 - np.abs(yf) / h) / h
        quad = 0.5 * np.trapezoid(np.exp(-np.abs(g.x[i] - yf)) * sf, yf)
        assert abs(psi.values[i] / quad - 1.0) < 1e-6


def test_derivative_bound_every_node():
    g = Grid.from_bounds(-40, 40, 0.05)
    for seed in range(200):
        s = smooth_nonneg(g, seed, scale=1.0 + (seed % 5))
        lam = 1.0 + 0.5 * (seed % 3)
        psi, dpsi = solve_pair(s, lam, 1.0, 0.0, 0.0)
        assert np.all(np.abs(dpsi.values) <= np.sqrt(lam) * psi.values + 1e-10)


def test_derivative_matches_centered_difference():
    g = Grid.from_bounds(-30, 30, 0.02)
    s = Field(g, np.exp(-0.1 * g.x ** 2))
    psi, dpsi = solve_pair(s, 1.0, 1.0, 0.0, 0.0)
    cd = (psi.values[2:] - psi.values[:-2]) / (2 * g.h)
    assert np.abs(cd - dpsi.values[1:-1]).max() < 5 * g.h ** 2


def test_positivity_and_comparison():
    g = Grid.from_bounds(-30, 30, 0.05)
    for seed in range(30):
        s1 = smooth_nonneg(g, seed)
        bump = 0.3 * (1 + np.sin(0.2 * g.x) ** 2)
        s2 = Field(g, s1.values + bump)
        p1 = solve_psi(s1, 1.0, 1.0, 0.0, 0.0)
        p2 = solve_psi(s2, 1.0, 1.0, 0.0, 0.0)
        assert p1.min() >= 0.0
        assert np.all(p1.values <= p2.values + 1e-12)


def test_decay_envelope_bound():
    # 0 <= s <= min{M, e^{-kx}} implies Psi <= min{M, e^{-kx}/(1-k^2)};
    # sources drawn with a margin so their chords stay inside the envelope
    g = Grid.from_bounds(-30, 30, 0.05)
    rng = np.random.default_rng(11)
    for kappa, M in ((0.5, 1.0), (0.3, 2.0), (0.8, 1.5)):
        env = np.minimum(M, np.exp(-kappa * g.x))
        for _ in range(20):
            raw = rng.uniform(size=g.n)
            r = np.convolve(raw, np.ones(81) / 81.0, mode="same")
            s = Field(g, env * np.clip(r, 0.0, 0.9))
            psi = solve_psi(s, 1.0, 1.0, 0.0, kappa)
            bound = np.minimum(M, np.exp(-kappa * g.x) / (1.0 - kappa ** 2))
            assert np.all(psi.values <= bound + 1e-8)


def test_linearity():
    g = Grid.from_bounds(-20, 20, 0.05)
    s1 = smooth_nonneg(g, 1)
    s2 = smooth_nonneg(g, 2)
    a, b = 0.7, 2.3
    s3 = Field(g, a * s1.values + b * s2.values)
    p = solve_psi(s3, 1.0, 1.0, 0.0, 0.0)
    q = (a * solve_psi(s1, 1.0, 1.0, 0.0, 0.0).values
         + b * solve_psi(s2, 1.0, 1.0, 0.0, 0.0).values)
    assert np.abs(p.values - q).max() < 1e-12 * max(1.0, np.abs(q).max())


def test_domain_errors():
    g = Grid.from_bounds(-10, 10, 0.1)
    s = Field(g, np.exp(-0.5 * g.x))
    with pytest.raises(DomainError):
        solve_psi(s, 0.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        solve_psi(s, 1.0, -1.0, 0.5, 0.5)
    with pytest.raises(DomainError, match="lambda and mu"):
        solve_psi(s, float("nan"), 1.0, 0.5, 0.5)
    with pytest.raises(DomainError, match="lambda and mu"):
        solve_fd(s, float("nan"), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="right tail rate"):
        solve_psi(s, 1.0, 1.0, 0.5, -1.0)
    with pytest.raises(DomainError, match="left tail rate"):
        solve_psi(s, 1.0, 1.0, 1.5, 0.5)
    with pytest.raises(DomainError, match="left tail rate"):
        solve_psi(s, 1.0, 1.0, float("nan"), 0.5)
    with pytest.raises(DomainError, match="right tail rate"):
        solve_psi(s, 1.0, 1.0, 0.5, float("nan"))


def test_solve_fd_constant():
    g = Grid.from_bounds(-10, 10, 0.05)
    s = Field(g, np.ones(g.n))
    v = solve_fd(s, 1.0, 1.0, 1.0, 1.0)
    assert np.abs(v.values - 1.0).max() < 1e-12


def test_solve_fd_convergence_order():
    errs = {}
    for h in (0.02, 0.01):
        g = Grid.from_bounds(-10, 10, h)
        s = Field(g, np.exp(-0.5 * g.x))
        exact = (4.0 / 3.0) * np.exp(-0.5 * g.x)
        v = solve_fd(s, 1.0, 1.0, exact[0], exact[-1])
        errs[h] = np.abs(v.values - exact).max()
    ratio = errs[0.02] / errs[0.01]
    assert 3.6 <= ratio <= 4.4


def test_fd_kernel_mutual_oracle():
    g = Grid.from_bounds(-25, 25, 0.02)
    s = smooth_nonneg(g, 42)
    psi = solve_psi(s, 1.0, 1.0, 0.0, 0.0)
    v = solve_fd(s, 1.0, 1.0, float(psi.values[0]), float(psi.values[-1]))
    inner = (g.x > -20) & (g.x < 20)
    rel = (np.abs(v.values - psi.values)[inner]
           / np.maximum(np.abs(psi.values[inner]), 1e-12)).max()
    assert rel < 10 * g.h ** 2

"""Exponential-kernel elliptic solves: exact cases, bounds, cross-checks."""

import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemowave import cauchy, elliptic, waves
from chemowave.elliptic import psi_derivative, solve_fd, solve_pair, solve_psi
from chemowave.errors import DomainError
from chemowave.fields import Field, Grid
from chemowave.params import Params


def smooth_nonneg(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=grid.n)
    k = np.ones(41) / 41.0
    return scale * np.convolve(raw, k, mode="same")


def test_constant_source_unit_mass():
    g = Grid.from_bounds(-50, 50, 0.05)
    s = np.ones(g.n)
    psi = solve_psi(s, g, 1.0, 1.0, 0.0, 0.0)
    assert np.abs(psi - 1.0).max() < 1e-10
    dpsi = psi_derivative(s, g, 1.0, 1.0, 0.0, 0.0)
    assert np.abs(dpsi).max() < 1e-10


def test_exponential_source_exact():
    # source e^{-x/2} reproduces (4/3) e^{-x/2}; interior relative error
    # follows the piecewise-linear reconstruction bound (kappa h)^2 / 12
    g = Grid.from_bounds(-40, 40, 0.0025)
    s = np.exp(-0.5 * g.x)
    psi, dpsi = solve_pair(s, g, 1.0, 1.0, 0.5, 0.5)
    exact = (4.0 / 3.0) * np.exp(-0.5 * g.x)
    win = (g.x >= -20) & (g.x <= 20)
    rel = np.abs(psi[win] / exact[win] - 1.0).max()
    assert rel < 2e-7
    relp = np.abs(dpsi[win] / (-0.5 * psi[win]) - 1.0).max()
    assert relp < 1e-7


@settings(max_examples=60)
@given(a=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       C=st.floats(1e-3, 1e3), x0=st.floats(-5.0, 3.0))
def test_matching_tail_rates_are_exact_for_exponential_sources(a, C, x0):
    # s = C e^{-a x} continued at its own rate on both sides solves to
    # Psi = s / (1 - a^2), Psi' = -a Psi; h keeps (a h)^2 / 8 below 1e-8
    g = Grid(x0, 1e-4, 20001)
    s = C * np.exp(-a * g.x)
    psi, dpsi = solve_pair(s, g, 1.0, 1.0, a, a)
    exact = s / (1.0 - a * a)
    assert np.abs(psi / exact - 1.0).max() < 1e-8
    assert np.abs(dpsi / psi + a).max() < 1e-8


def test_triangular_bump_green_function():
    # unit-mass hat at 0 behaves like the point-source kernel e^{-|x|}/2;
    # cross-checked against direct quadrature at 10x resolution
    h = 0.05
    g = Grid.from_bounds(-30, 30, h)
    vals = np.maximum(0.0, 1.0 - np.abs(g.x) / h) / h
    psi = solve_psi(vals, g, 1.0, 1.0, 0.0, 0.0)
    for xq in (-5.0, -3.0, -1.5, 1.5, 3.0, 5.0):
        i = int(round((xq - g.x0) / h))
        expected = 0.5 * np.exp(-abs(g.x[i]))
        assert abs(psi[i] / expected - 1.0) < 2 * h * h
        yf = np.linspace(-h, h, 2001)
        sf = np.maximum(0.0, 1.0 - np.abs(yf) / h) / h
        quad = 0.5 * np.trapezoid(np.exp(-np.abs(g.x[i] - yf)) * sf, yf)
        assert abs(psi[i] / quad - 1.0) < 1e-6


def test_derivative_bound_every_node():
    g = Grid.from_bounds(-40, 40, 0.05)
    for seed in range(200):
        s = smooth_nonneg(g, seed, scale=1.0 + (seed % 5))
        lam = 1.0 + 0.5 * (seed % 3)
        psi, dpsi = solve_pair(s, g, lam, 1.0, 0.0, 0.0)
        assert np.all(np.abs(dpsi) <= np.sqrt(lam) * psi + 1e-10)


def test_derivative_matches_centered_difference():
    g = Grid.from_bounds(-30, 30, 0.02)
    psi, dpsi = solve_pair(np.exp(-0.1 * g.x ** 2), g, 1.0, 1.0, 0.0, 0.0)
    cd = (psi[2:] - psi[:-2]) / (2 * g.h)
    assert np.abs(cd - dpsi[1:-1]).max() < 5 * g.h ** 2


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
            s = env * np.clip(r, 0.0, 0.9)
            psi = solve_psi(s, g, 1.0, 1.0, 0.0, kappa)
            bound = np.minimum(M, np.exp(-kappa * g.x) / (1.0 - kappa ** 2))
            assert np.all(psi <= bound + 1e-8)


@st.composite
def elliptic_cases(draw):
    """(lam, mu, left_rate, right_rate, h, seed) across the admissible space:
    the left tail rate below sqrt(lam), the right one above -sqrt(lam)."""
    lam = draw(st.floats(0.1, 4.0))
    r = math.sqrt(lam)
    return (lam, draw(st.floats(0.1, 10.0)), draw(st.floats(-1.0, 0.95)) * r,
            draw(st.floats(-0.95, 1.0)) * r, draw(st.floats(0.02, 0.2)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100)
@given(case=elliptic_cases(), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@example(case=(1.0, 1.0, 0.0, 0.0, 0.125, 0), a=0.0, b=2.225073858507e-311)
@example(case=(1.0, 1.0, 0.0, 0.0, 0.125, 0), a=0.0,
         b=np.finfo(float).smallest_normal)
def test_linearity(case, a, b):
    # below the smallest normal float each rounding is an absolute error of
    # up to half a subnormal step, so the O(n) sweeps may lose a few steps
    # per node whatever the scale; above it the relative bound dominates
    lam, mu, left, right, h, seed = case
    g = Grid.from_bounds(-10.0, 10.0, h)
    rng = np.random.default_rng(seed)
    s1, s2 = rng.uniform(-1.0, 1.0, (2, g.n))
    p1, d1 = solve_pair(s1, g, lam, mu, left, right)
    p2, d2 = solve_pair(s2, g, lam, mu, left, right)
    p, d = solve_pair(a * s1 + b * s2, g, lam, mu, left, right)
    for got, u, w in ((p, p1, p2), (d, d1, d2)):
        scale = abs(a) * np.abs(u).max() + abs(b) * np.abs(w).max()
        assert np.abs(got - (a * u + b * w)).max() <= (
            1e-12 * scale + 4 * g.n * np.finfo(float).smallest_subnormal)


@settings(max_examples=100)
@given(case=elliptic_cases())
def test_positivity_and_comparison(case):
    # s >= 0 gives Psi >= 0, and s1 <= s2 gives Psi1 <= Psi2, for rough
    # sources too: the piecewise-linear reconstruction keeps the order
    lam, mu, left, right, h, seed = case
    g = Grid.from_bounds(-10.0, 10.0, h)
    rng = np.random.default_rng(seed)
    s1 = rng.uniform(0.0, 1.0, g.n) * rng.integers(0, 2, g.n)
    s2 = s1 + rng.uniform(0.0, 1.0, g.n) * rng.integers(0, 2, g.n)
    p1, _ = solve_pair(s1, g, lam, mu, left, right)
    p2, _ = solve_pair(s2, g, lam, mu, left, right)
    assert p1.min() >= 0.0
    assert np.all(p1 <= p2 + 1e-12 * np.abs(p2).max())


@settings(max_examples=60)
@given(case=elliptic_cases(),
       bumps=st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(0.5, 3.0),
                                st.floats(0.1, 5.0)), min_size=1, max_size=3))
def test_solve_pair_agrees_with_fd_to_second_order(case, bumps):
    # Gaussian sources; the finite-difference solve gets the kernel's
    # boundary values, so the two differ by their O(h^2) errors only
    lam, mu, left, right, h, _ = case
    cells = int(round(20.0 / h))
    errs = []
    for k in (1, 2):
        g = Grid(-10.0, h / k, k * cells + 1)
        s = Field(g, sum(amp * np.exp(-0.5 * ((g.x - c) / w) ** 2)
                         for c, w, amp in bumps))
        psi, _ = solve_pair(s.values, g, lam, mu, left, right)
        v = solve_fd(s, lam, mu, float(psi[0]), float(psi[-1]))
        errs.append(np.abs(v.values - psi).max())
    assert errs[0] <= h**2 * np.abs(psi).max()
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_domain_errors():
    g = Grid.from_bounds(-10, 10, 0.1)
    s = Field(g, np.exp(-0.5 * g.x))
    with pytest.raises(DomainError):
        solve_psi(s.values, g, 0.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        solve_psi(s.values, g, 1.0, -1.0, 0.5, 0.5)
    with pytest.raises(DomainError, match="lambda and mu"):
        solve_psi(s.values, g, float("nan"), 1.0, 0.5, 0.5)
    with pytest.raises(DomainError, match="lambda and mu"):
        solve_fd(s, float("nan"), 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="right tail rate"):
        solve_psi(s.values, g, 1.0, 1.0, 0.5, -1.0)
    with pytest.raises(DomainError, match="left tail rate"):
        solve_psi(s.values, g, 1.0, 1.0, 1.5, 0.5)
    with pytest.raises(DomainError, match="left tail rate"):
        solve_psi(s.values, g, 1.0, 1.0, float("nan"), 0.5)
    with pytest.raises(DomainError, match="right tail rate"):
        solve_psi(s.values, g, 1.0, 1.0, 0.5, float("nan"))


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
    psi = solve_psi(s, g, 1.0, 1.0, 0.0, 0.0)
    v = solve_fd(Field(g, s), 1.0, 1.0, float(psi[0]), float(psi[-1]))
    inner = (g.x > -20) & (g.x < 20)
    rel = (np.abs(v.values - psi)[inner]
           / np.maximum(np.abs(psi[inner]), 1e-12)).max()
    assert rel < 10 * g.h ** 2


@settings(max_examples=40)
@given(k=st.integers(1, 9), n=st.integers(8, 600), h=st.floats(0.005, 0.5),
       right_rate=st.sampled_from([0.0, 0.4, 2.5]),
       gamma=st.sampled_from([1.0, 1.5, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_row_stacked_solves_match_one_dimensional_calls(k, n, h, right_rate,
                                                         gamma, seed):
    # a (k, n) stack is k solves, each row bit for bit its own 1-D call
    g = Grid(-0.3 * (n - 1) * h, h, n)
    u = np.random.default_rng(seed).uniform(0.0, 2.0, size=(k, n))
    p = Params(0.0, gamma=gamma)
    for solve in (lambda s: solve_pair(s, g, 1.3, 0.7, 0.2, right_rate),
                  lambda s: cauchy.solve_v(p, s, g, right_rate)):
        stacked = solve(u)
        for i, row in enumerate(u):
            for got, want in zip(stacked, solve(row)):
                assert got.shape == (k, n)
                assert np.array_equal(got[i], want)


@pytest.mark.parametrize("bad, gamma", [(math.nan, 1.0), (math.inf, 1.0),
                                        (-1.0, 1.5), (1e200, 2.0)])
def test_a_non_finite_row_is_the_error_of_its_one_dimensional_call(bad,
                                                                    gamma):
    g = Grid.from_bounds(-5.0, 5.0, 0.1)
    p = Params(0.0, gamma=gamma)
    u = np.full((3, g.n), 0.5)
    u[1, 40] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DomainError) as one:
            cauchy.solve_v(p, u[1], g, 0.5)
        with pytest.raises(DomainError) as stacked:
            cauchy.solve_v(p, u, g, 0.5)
    assert str(stacked.value) == str(one.value)


def test_direct_filter_is_lfilter_bit_for_bit():
    # imported after the direct load, as a caller of both would
    from scipy.signal import lfilter
    assert elliptic._linear_filter.__name__ == "_linear_filter"
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 400, 4000):
        for E in rng.uniform(0.0, 1.0, 3):
            x = rng.standard_normal((2, n))
            got = elliptic._linear_filter(np.array([1.0]), np.array([1.0, -E]),
                                          x, -1)
            assert got.tobytes() == lfilter([1.0], [1.0, -E], x).tobytes()


def _no_extension(package, name):
    raise ImportError("no compiled extension")


@pytest.mark.parametrize("load", [
    pytest.param(_no_extension, id="extension-missing"),
    pytest.param(lambda package, name: types.SimpleNamespace(),
                 id="name-missing")])
def test_fallback_filter_gives_the_same_bits(monkeypatch, load):
    from scipy.signal import lfilter
    g = Grid.from_bounds(-20.0, 20.0, 0.05)
    s = np.random.default_rng(3).uniform(size=g.n)
    direct = solve_pair(s, g, 1.3, 0.7, 0.2, 0.4)
    monkeypatch.setattr(elliptic, "_load_extension", load)
    fallback = elliptic._resolve_linear_filter()
    assert fallback is lfilter
    monkeypatch.setattr(elliptic, "_linear_filter", fallback)
    for got, want in zip(solve_pair(s, g, 1.3, 0.7, 0.2, 0.4), direct):
        assert got.tobytes() == want.tobytes()


def _bands(n, seed, dominance):
    """Random tridiagonal bands; dominance below 2 lets pivoting run."""
    rng = np.random.default_rng(seed)
    sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1))
    diag = dominance * rng.uniform(-1.0, 1.0, n)
    return sub, diag, sup, rng.standard_normal(n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4001), seed=st.integers(0, 2**32 - 1),
       dominance=st.floats(0.0, 4.0))
@example(n=2, seed=0, dominance=0.0)
@example(n=4001, seed=1, dominance=0.1)
def test_tridiagonal_solve_is_solve_banded_bit_for_bit(n, seed, dominance):
    # imported here only: the package never imports scipy.linalg itself
    from scipy.linalg import solve_banded
    sub, diag, sup, rhs = _bands(n, seed, dominance)
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    try:
        want = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            elliptic.solve_tridiagonal(sub, diag, sup, rhs)
        return
    before = [a.copy() for a in (sub, diag, sup, rhs)]
    got = elliptic.solve_tridiagonal(sub, diag, sup, rhs)
    assert got.tobytes() == want.tobytes()
    for a, b in zip((sub, diag, sup, rhs), before):
        assert a.tobytes() == b.tobytes()      # nothing overwritten


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       which=st.integers(0, 3), at=st.floats(0.0, 1.0),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_tridiagonal_solve_refuses_non_finite_entries(n, seed, which, at, bad):
    args = list(_bands(n, seed, 4.0))
    args[which][min(int(at * args[which].size), args[which].size - 1)] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        elliptic.solve_tridiagonal(*args)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       at=st.floats(0.0, 1.0), dominance=st.floats(0.0, 4.0))
def test_tridiagonal_solve_refuses_a_singular_matrix(n, seed, at, dominance):
    # a zero column j: diag[j], sup[j-1] (row j-1) and sub[j] (row j+1)
    sub, diag, sup, rhs = _bands(n, seed, dominance)
    j = min(int(at * n), n - 1)
    diag[j] = 0.0
    if j > 0:
        sup[j - 1] = 0.0
    if j < n - 1:
        sub[j] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        elliptic.solve_tridiagonal(sub, diag, sup, rhs)


def test_solve_fd_is_the_banded_solve_bit_for_bit():
    from scipy.linalg import solve_banded
    g = Grid.from_bounds(-10.0, 10.0, 0.05)
    s = smooth_nonneg(g, 4)
    lam, mu, h = 1.3, 0.7, g.h
    ab = np.zeros((3, g.n))
    ab[0, 2:] = 1.0 / h**2
    ab[1, 1:-1] = -2.0 / h**2 - lam
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = 1.0 / h**2
    rhs = -mu * s
    rhs[0], rhs[-1] = 0.3, 0.1
    want = solve_banded((1, 1), ab, rhs)
    got = solve_fd(Field(g, s), lam, mu, 0.3, 0.1).values
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("load", [
    pytest.param(_no_extension, id="extension-missing"),
    pytest.param(lambda package, name: types.SimpleNamespace(
        dgttrf=elliptic.lapack.dgttrf, dgttrs=elliptic.lapack.dgttrs,
        dgbsv=elliptic.lapack.dgbsv), id="gtsv-missing"),
    pytest.param(lambda package, name: types.SimpleNamespace(
        dgttrf=elliptic.lapack.dgttrf, dgttrs=elliptic.lapack.dgttrs,
        dgtsv=elliptic.lapack.dgtsv), id="gbsv-missing")])
def test_fallback_lapack_gives_the_same_bits(monkeypatch, load):
    from scipy.linalg import lapack
    assert elliptic.lapack.__name__ == "scipy.linalg._flapack"
    g = Grid.from_bounds(-20.0, 20.0, 0.05)
    rng = np.random.default_rng(5)
    u, v, vx, ux, F = rng.uniform(size=(5, g.n))
    p = Params(-0.5, m=2.0)
    problem = waves.WaveProblem(p, 4.0, g)
    sub, diag, sup, rhs = _bands(g.n, 6, 0.5)
    terms = cauchy.step_terms(p, u, v, vx)

    def outputs():
        # a key's first step is one gtsv, its second a gttrs on the factor
        cauchy._factors.clear()
        return (*cauchy._diffusion_factor(g.n, g.h, 0.03, 0.4, 1.5),
                cauchy.advance_imex(p, u, terms, 1.5, 0.03, g, 0.4),
                cauchy.advance_imex(p, u, terms, 1.5, 0.03, g, 0.4),
                elliptic.solve_tridiagonal(sub, diag, sup, rhs),
                waves._newton_step(problem, u, v, vx, ux, F, 4.0))

    direct = outputs()
    monkeypatch.setattr(elliptic, "_load_extension", load)
    fallback = elliptic._resolve_lapack()
    assert fallback is lapack
    for module in (elliptic, cauchy, waves):
        monkeypatch.setattr(module, "lapack", fallback)
    try:
        got = outputs()
    finally:
        cauchy._factors.clear()
    assert len(got) == len(direct)
    for a, b in zip(got, direct):
        assert a.tobytes() == b.tobytes()

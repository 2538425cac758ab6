"""Explicit super/sub-solutions and the residual of the frozen-v operator.

For a comparison function W and a density u bounded by min{M, e^{-kx}},
the operator whose sign certifies barriers is

    A(W; u) = W'' + c W' - chi m W^(m-1) V' W'
              + W (1 - chi W^(m-1) V - (W^alpha - chi W^(m+gamma-1))),

with V the screened-Poisson solve of u^gamma and c = kappa + 1/kappa.
The super-solution is min{M, e^{-kx}} (nonpositive residual right of the
plateau kink), the sub-solution is e^{-kx} - D e^{-kt x} for D large
enough (nonnegative residual right of its zero x_minus), and small
constants d <= d_sub are sub-solutions everywhere.

A(W; u) is the moving-frame operator of the centered stepper: the
interior rows of `cauchy.steady_residual` at W with V frozen, to the bit.
Its factors that depend on W alone (W', W'', chi m W^(m-1), -chi W^m,
W^gamma and W (1 - W^alpha)) are computed once per barrier, and each
stack of (V, V') rows is evaluated against them.
Residuals use centered second-order differences, so a continuum sign
statement is certified only up to the discrete slack

    eps_disc = 1e-6 + 20 h^2 * max|W|,

and the 3 nodes nearest a kink or a sign change of W are skipped.

The barriers, the random densities and (V, V') are plain arrays on a
Grid, so `certify` builds no Field; `residual_A`, the paper's operator,
takes and returns Fields.

`certify` takes its random densities DRAWS_PER_BLOCK at a time: each
draw keeps its own generator, seed + k, and a block is smoothed by one
padded FFT pair, solved for (V, V') by one row-stacked elliptic call
and checked against each barrier as one array, on the nodes the check
reads.  Every row is bit for bit the draw taken alone, so the report
does not depend on the block.  Memory sets the block's size: 4 draws
remove most of the per-draw call overhead of one 3,001-node row and
peak at 1.3 MB of allocation (0.4 MB one draw at a time), which stays
under the resident peak of the stability lab run in the same process;
8 draws (2.0 MB) took about 7% less time but raised that process's
peak resident memory by about 1 MB.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cauchy import power, solve_v
from .errors import DomainError
from .fields import Field, Grid
from .params import (Params, RegimeTag, barrier_constants,
                     classify_regime, default_kappa_tilde, kappa_of_speed,
                     M_barrier, M_chi)


CERTIFY_GRID = (-30.0, 30.0, 0.02)      # (left, right, h)
DRAWS_PER_BLOCK = 4                     # random densities solved together


def eps_disc(h: float, w_scale: float) -> float:
    return 1e-6 + 20.0 * h * h * w_scale


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the explicit barriers for one (params, speed) pair."""

    kappa: float
    kappa_tilde: float
    M: float
    D: float
    d: float

    def __post_init__(self):
        if not (0 < self.kappa < self.kappa_tilde <= 1):
            raise DomainError("need 0 < kappa < kappa_tilde <= 1")
        if self.M < 1:
            raise DomainError("M must be >= 1")
        if self.D <= 0 or self.d <= 0:
            raise DomainError("D and d must be positive")

    @property
    def x_minus(self) -> float:
        return math.log(self.D) / (self.kappa_tilde - self.kappa)

    @property
    def x_plus(self) -> float:
        return math.log(self.kappa_tilde * self.D / self.kappa) / (self.kappa_tilde - self.kappa)

    @property
    def kink(self) -> float:
        """Abscissa where the super-solution leaves its plateau."""
        return -math.log(self.M) / self.kappa


def eval_super(spec: BarrierSpec, grid: Grid) -> np.ndarray:
    """min{M, e^{-kappa x}} sampled on the grid."""
    return np.minimum(spec.M, np.exp(-spec.kappa * grid.x))


def eval_sub(spec: BarrierSpec, grid: Grid,
             clipped: bool = False) -> np.ndarray:
    """e^{-kx} - D e^{-kt x}; clipped variant plateaus left of its maximum."""
    x = grid.x
    vals = np.exp(-spec.kappa * x) - spec.D * np.exp(-spec.kappa_tilde * x)
    if clipped:
        xp = spec.x_plus
        peak = math.exp(-spec.kappa * xp) - spec.D * math.exp(-spec.kappa_tilde * xp)
        vals = np.where(x <= xp, peak, vals)
    return vals


def _pow_guard(W: np.ndarray, p: Params) -> None:
    exps = (p.m - 1.0, p.alpha, p.m + p.gamma - 1.0)
    if W.min() < 0 and any(e != int(e) for e in exps):
        raise DomainError("W < 0 with a non-integer exponent (fractional power "
                          "of a negative value)")


def solve_V(u: np.ndarray, grid: Grid, params: Params,
            c: float) -> tuple[np.ndarray, np.ndarray]:
    """(V, V') of v'' - v + u^gamma = 0, closed at the wave's tail rate kappa(c).

    u runs along its last axis, so a (k, n) stack of densities is k solves.
    """
    return solve_v(params, u, grid, kappa_of_speed(c))


def _w_terms(W: np.ndarray, p: Params, h: float) -> tuple[np.ndarray, ...]:
    """The factors of A(W; u) that depend on W alone, at the interior nodes.

    (W', W'', chi m W^(m-1), -chi W^m, W^gamma, W (1 - W^alpha)), each
    with the operations of `cauchy.steady_residual`: the interior rows of
    its centered differences need no ghost node.
    """
    _pow_guard(W, p)
    Wi = W[1:-1]
    return ((W[2:] - W[:-2]) / (2.0 * h),
            (W[2:] - 2.0 * Wi + W[:-2]) / h**2,
            p.chi * p.m * power(Wi, p.m - 1.0),
            -p.chi * power(Wi, p.m),
            power(Wi, p.gamma),
            Wi * (1.0 - power(Wi, p.alpha)))


def _residual_rows(terms: tuple[np.ndarray, ...], V: np.ndarray,
                   Vx: np.ndarray, c: float) -> np.ndarray:
    """A(W; u) on the nodes of terms, one row per row of u's (V, V') there.

    The sums and products are `cauchy.steady_residual`'s, in its order.
    """
    Wx, Wxx, drift, source, Wg, logistic = terms
    return Wxx + (c - drift * Vx) * Wx + (source * (V - Wg) + logistic)


def residual_A(W: Field, u: Field, params: Params, c: float) -> Field:
    """A(W; u) with centered differences; first/last node excluded."""
    if W.grid != u.grid:
        raise DomainError("W and u must share a grid")
    if u.min() < 0:
        raise DomainError("u must be nonnegative")
    V, Vx = solve_V(u.values, u.grid, params, c)
    terms = _w_terms(W.values, params, W.grid.h)
    return Field(W.grid.interior(),
                 _residual_rows(terms, V[1:-1], Vx[1:-1], c))


@lru_cache(maxsize=8)
def _gaussian_spectrum(n: int, sigma: float) -> tuple[int, int, np.ndarray]:
    """(radius, FFT length, rfft of the kernel) for smoothing n nodes.

    The kernel is scipy.ndimage.gaussian_filter1d's: radius
    int(4 sigma + 0.5), weights exp(-x^2 / (2 sigma^2)) normalised by
    their sum.  The FFT length is the first power of two >= n + 2 radius,
    so the circular convolution of the padded data (n + 2 radius values)
    wraps nothing into the n nodes kept.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights /= weights.sum()
    size = 1 << (n + 2 * radius - 1).bit_length()
    spectrum = np.fft.rfft(weights, size)
    spectrum.flags.writeable = False
    return radius, size, spectrum


def _gaussian_smooth(raw: np.ndarray, sigma: float) -> np.ndarray:
    """gaussian_filter1d(raw, sigma, mode="nearest") along raw's last axis.

    One FFT convolution of every row, padded with its nearest edge value.
    """
    n = raw.shape[-1]
    radius, size, kernel = _gaussian_spectrum(n, sigma)
    spectrum = np.fft.rfft(
        np.pad(raw, [(0, 0)] * (raw.ndim - 1) + [(radius, radius)],
               mode="edge"), size)
    spectrum *= kernel
    return np.fft.irfft(spectrum, size)[..., 2 * radius:2 * radius + n]


def random_envelope(spec: BarrierSpec, grid: Grid,
                    seeds: Sequence[int]) -> np.ndarray:
    """Random admissible densities 0 <= u <= min{M, e^{-kx}}, one row per seed.

    Uniform noise, smoothed by a Gaussian of width max(2 / h, 4) nodes
    and scaled into [0.2, 1.0], multiplies the super-solution, covering
    the admissible class without adversarial roughness.  The smoothing is
    one FFT convolution of the noise padded with its nearest edge value,
    which is gaussian_filter1d(mode="nearest") to round-off.  Each row is
    drawn from its own generator: row k is bit for bit the density of
    seeds[k] alone.
    """
    raw = np.empty((len(seeds), grid.n))
    for row, s in zip(raw, seeds):
        row[:] = np.random.default_rng(s).uniform(size=grid.n)
    smooth = _gaussian_smooth(raw, max(2.0 / grid.h, 4.0))
    lo = smooth.min(axis=-1, keepdims=True)
    span = smooth.max(axis=-1, keepdims=True) - lo
    # (smooth - lo) / span, 0.5 on a flat row, scaled into [0.2, 1] in place
    varied = span > 0
    u = np.full(smooth.shape, 0.5)
    np.subtract(smooth, lo, out=u, where=varied)
    np.divide(u, span, out=u, where=varied)
    u *= 0.8
    u += 0.2
    u *= eval_super(spec, grid)
    return u


def default_barrier_spec(params: Params, c: float, M: float | None = None) -> BarrierSpec:
    """Barrier parameters for (params, c): regime-appropriate M, D_sub, d_sub."""
    kappa = kappa_of_speed(c)
    if M is None:
        if classify_regime(params) is RegimeTag.NEG_CHI_ALPHA_LE:
            M = min(1.0, M_barrier(params, kappa))
        else:
            M = max(1.0, M_chi(params))
    kt = default_kappa_tilde(params, kappa)
    bc = barrier_constants(params, kappa, kt, M=M)
    return BarrierSpec(kappa=kappa, kappa_tilde=kt, M=M, D=bc.D_sub, d=bc.d_sub)


@dataclass
class CertifyReport:
    passed: bool
    worst_excess: float
    worst_location: float
    worst_check: str
    n_draws: int


def _sign_excess(res: np.ndarray, xs: np.ndarray, eps: float,
                 sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Worst violation of sign*res <= eps in each row of res, and its node.

    The columns of res are the nodes xs; with none, every row reports
    (-inf, nan).
    """
    vals = sign * res
    if vals.shape[-1] == 0:
        return (np.full(len(vals), -math.inf), np.full(len(vals), math.nan))
    i = np.argmax(vals, axis=-1)
    return vals[np.arange(len(vals)), i] - eps, xs[i]


def certify(params: Params, c: float, n_draws: int = 200,
            seed: int = 0) -> CertifyReport:
    """Randomized residual-sign certificates for the explicit barriers.

    For each of n_draws admissible densities u: the super-solution
    residual must be <= eps_disc right of the plateau kink, the constant
    M residual <= eps_disc everywhere, the sub-solution residual
    >= -eps_disc right of x_minus, and the constant d residual
    >= -eps_disc everywhere, all on CERTIFY_GRID.  Draw k uses seed + k,
    so the seed must be nonnegative, and at least one draw is needed.
    The draws are taken DRAWS_PER_BLOCK at a time; the report is the one
    of the draws taken one by one, in order.
    """
    if seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {seed}")
    if n_draws < 1:
        raise DomainError(f"need at least one draw, got {n_draws}")
    p = params
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(p, c)

    Wsup = eval_super(spec, grid)
    Wsub = np.maximum(eval_sub(spec, grid), 0.0)
    Wm = np.full(grid.n, float(spec.M))
    Wd = np.full(grid.n, spec.d)

    # each check holds on the interior nodes from its first one on: right
    # of the kink, right of x_minus, or everywhere (xi increases)
    xi = grid.interior().x
    sup_from = np.count_nonzero(xi - spec.kink <= 3.0 * grid.h)
    sub_from = np.count_nonzero(xi <= spec.x_minus + 3.0 * grid.h)

    plans = [
        (name, _w_terms(W[lo:], p, grid.h), lo, eps, sign)
        for name, W, lo, eps, sign in (
            ("super_exp", Wsup, sup_from, eps_disc(grid.h, Wsup.max()), +1),
            ("super_const", Wm, 0, eps_disc(grid.h, spec.M), +1),
            ("sub_profile", Wsub, sub_from,
             eps_disc(grid.h, max(Wsub.max(), 1e-3)), -1),
            ("sub_const", Wd, 0, eps_disc(grid.h, max(spec.d, 1e-3)), -1),
        )
    ]

    passed = True
    worst = -math.inf
    worst_loc = math.nan
    worst_name = ""
    for start in range(0, n_draws, DRAWS_PER_BLOCK):
        seeds = range(seed + start,
                      seed + min(start + DRAWS_PER_BLOCK, n_draws))
        V, Vx = solve_V(random_envelope(spec, grid, seeds), grid, p, c)
        checks = []
        for name, terms, lo, eps, sign in plans:
            res = _residual_rows(terms, V[:, 1 + lo:-1], Vx[:, 1 + lo:-1], c)
            checks.append((name, *_sign_excess(res, xi[lo:], eps, sign)))
        for k in range(len(seeds)):
            for name, excesses, locs in checks:
                excess = float(excesses[k])
                passed = passed and excess <= 0     # a NaN excess fails
                if excess > worst:
                    worst, worst_loc, worst_name = excess, float(locs[k]), name
    return CertifyReport(passed=passed, worst_excess=worst,
                         worst_location=worst_loc, worst_check=worst_name,
                         n_draws=n_draws)

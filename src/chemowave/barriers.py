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
interior rows of `cauchy.steady_residual` at W with V frozen.
Residuals use centered second-order differences, so a continuum sign
statement is certified only up to the discrete slack

    eps_disc = 1e-6 + 20 h^2 * max|W|,

and the 3 nodes nearest a kink or a sign change of W are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import solve_v, steady_residual
from .errors import DomainError
from .fields import Field, Grid
from .params import (Params, RegimeTag, barrier_constants,
                     classify_regime, default_kappa_tilde, kappa_of_speed,
                     M_barrier, M_chi)


CERTIFY_GRID = (-30.0, 30.0, 0.02)      # (left, right, h)


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


def eval_super(spec: BarrierSpec, grid: Grid) -> Field:
    """min{M, e^{-kappa x}} sampled on the grid."""
    return Field(grid, np.minimum(spec.M, np.exp(-spec.kappa * grid.x)))


def eval_sub(spec: BarrierSpec, grid: Grid, clipped: bool = False) -> Field:
    """e^{-kx} - D e^{-kt x}; clipped variant plateaus left of its maximum."""
    x = grid.x
    vals = np.exp(-spec.kappa * x) - spec.D * np.exp(-spec.kappa_tilde * x)
    if clipped:
        xp = spec.x_plus
        peak = math.exp(-spec.kappa * xp) - spec.D * math.exp(-spec.kappa_tilde * xp)
        vals = np.where(x <= xp, peak, vals)
    return Field(grid, vals)


def _pow_guard(W: np.ndarray, p: Params) -> None:
    exps = (p.m - 1.0, p.alpha, p.m + p.gamma - 1.0)
    if W.min() < 0 and any(e != int(e) for e in exps):
        raise DomainError("W < 0 with a non-integer exponent (fractional power "
                          "of a negative value)")


def solve_V(u: Field, params: Params, c: float) -> tuple[Field, Field]:
    """(V, V') of v'' - v + u^gamma = 0, closed at the wave's tail rate kappa(c)."""
    return solve_v(params, u, tail_kappa=kappa_of_speed(c))


def _residual_given_V(W: Field, V: Field, Vx: Field, p: Params, c: float) -> Field:
    _pow_guard(W.values, p)
    res, _ = steady_residual(p, W.values, V.values, Vx.values, c, W.grid, 0.0)
    return Field(W.grid.interior(), res[1:-1])


def residual_A(W: Field, u: Field, params: Params, c: float) -> Field:
    """A(W; u) with centered differences; first/last node excluded."""
    if W.grid != u.grid:
        raise DomainError("W and u must share a grid")
    if u.min() < 0:
        raise DomainError("u must be nonnegative")
    V, Vx = solve_V(u, params, c)
    return _residual_given_V(W, V, Vx, params, c)


def random_envelope(spec: BarrierSpec, grid: Grid, seed: int) -> Field:
    """Random admissible density 0 <= u <= min{M, e^{-kx}}.

    Smoothed uniform noise scaled into [0.2, 1.0] multiplies the
    super-solution, covering the admissible class without adversarial
    roughness.
    """
    # imported here: only certify draws envelopes, and every CLI call
    # would otherwise pay for scipy.ndimage at start-up
    from scipy.ndimage import gaussian_filter1d

    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=grid.n)
    smooth = gaussian_filter1d(raw, sigma=max(2.0 / grid.h, 4.0), mode="nearest")
    lo, hi = smooth.min(), smooth.max()
    r = (smooth - lo) / (hi - lo) if hi > lo else np.full(grid.n, 0.5)
    env = 0.2 + 0.8 * r
    return Field(grid, eval_super(spec, grid).values * env)


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


def _sign_excess(res: Field, mask: np.ndarray, eps: float, sign: int):
    """Worst violation of sign*res <= eps on the masked nodes."""
    vals = sign * res.values[mask]
    if vals.size == 0:
        return -math.inf, math.nan
    i = int(np.argmax(vals))
    xs = res.grid.x[mask]
    return float(vals[i] - eps), float(xs[i])


def certify(params: Params, c: float, n_draws: int = 200,
            seed: int = 0) -> CertifyReport:
    """Randomized residual-sign certificates for the explicit barriers.

    For each of n_draws admissible densities u: the super-solution
    residual must be <= eps_disc right of the plateau kink, the constant
    M residual <= eps_disc everywhere, the sub-solution residual
    >= -eps_disc right of x_minus, and the constant d residual
    >= -eps_disc everywhere, all on CERTIFY_GRID.
    """
    p = params
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(p, c)

    Wsup = eval_super(spec, grid)
    Wsub_raw = eval_sub(spec, grid)
    Wsub = Wsub_raw.with_values(np.maximum(Wsub_raw.values, 0.0))
    Wm = Field(grid, np.full(grid.n, float(spec.M)))
    Wd = Field(grid, np.full(grid.n, spec.d))

    xi = grid.interior().x
    sup_mask = (xi >= spec.kink) & (np.abs(xi - spec.kink) > 3.0 * grid.h)
    sub_mask = xi > spec.x_minus + 3.0 * grid.h
    all_mask = np.ones_like(xi, dtype=bool)

    plans = (
        ("super_exp", Wsup, sup_mask, eps_disc(grid.h, Wsup.max()), +1),
        ("super_const", Wm, all_mask, eps_disc(grid.h, spec.M), +1),
        ("sub_profile", Wsub, sub_mask, eps_disc(grid.h, max(Wsub.max(), 1e-3)), -1),
        ("sub_const", Wd, all_mask, eps_disc(grid.h, max(spec.d, 1e-3)), -1),
    )

    passed = True
    worst = -math.inf
    worst_loc = math.nan
    worst_name = ""
    for k in range(n_draws):
        u = random_envelope(spec, grid, seed + k)
        V, Vx = solve_V(u, p, c)
        for name, W, mask, eps, sign in plans:
            res = _residual_given_V(W, V, Vx, p, c)
            excess, loc = _sign_excess(res, mask, eps, sign)
            passed = passed and excess <= 0     # a NaN excess fails
            if excess > worst:
                worst, worst_loc, worst_name = excess, loc, name
    return CertifyReport(passed=passed, worst_excess=worst,
                         worst_location=worst_loc, worst_check=worst_name,
                         n_draws=n_draws)

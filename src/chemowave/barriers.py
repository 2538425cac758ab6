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

A(W; u) is `cauchy`'s one frozen-v formula, which the Newton residual
`cauchy.steady_residual` evaluates too: the factors that depend on W
alone (`frozen_terms`) combined with (V, V') (`frozen_residual`).
Residuals use centered second-order differences, so a continuum sign
statement is certified only up to the discrete slack

    eps_disc = 1e-6 + 20 h^2 * max|W|,

and the 3 nodes nearest a kink or a sign change of W are skipped.

The barriers and (V, V') are plain arrays on a Grid, so `certify`, which
takes the worst case over the admissible class in closed form
(`worst_residuals`), builds no Field.  `random_envelope` draws members of
the class, smoothed by scipy.ndimage's Gaussian filter; no subcommand
calls it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cauchy import frozen_residual, frozen_terms, power, solve_v
from .elliptic import sweep_weights
from .errors import DomainError
from .fields import Grid
from .params import (Params, RegimeTag, barrier_constants, c_star,
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


def random_envelope(spec: BarrierSpec, grid: Grid,
                    seeds: Sequence[int]) -> np.ndarray:
    """Random admissible densities 0 <= u <= min{M, e^{-kx}}, one row per seed.

    Uniform noise, smoothed by a Gaussian of width max(2 / h, 4) nodes
    and scaled into [0.2, 1.0], multiplies the super-solution, covering
    the admissible class without adversarial roughness.  The smoothing is
    scipy.ndimage.gaussian_filter1d(mode="nearest") along each row, loaded
    here: no subcommand draws a density.  Each row is drawn from its own
    generator: row k is bit for bit the density of seeds[k] alone.
    """
    from scipy.ndimage import gaussian_filter1d

    raw = np.empty((len(seeds), grid.n))
    for row, s in zip(raw, seeds):
        row[:] = np.random.default_rng(s).uniform(size=grid.n)
    smooth = gaussian_filter1d(raw, max(2.0 / grid.h, 4.0), axis=-1,
                               mode="nearest")
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


def default_barrier_spec(params: Params, c: float) -> BarrierSpec:
    """Barrier parameters for (params, c): M = M_chi, D_sub and d_sub; for
    chi <= 0 and alpha <= m + gamma - 1, M_barrier(kappa) must reach M = 1,
    and next to the speed threshold d_sub must not underflow to 0."""
    kappa = kappa_of_speed(c)
    neg_chi = classify_regime(params) is RegimeTag.NEG_CHI_ALPHA_LE
    if neg_chi:
        largest = M_barrier(params, kappa)
        if largest < 1.0:
            raise DomainError(
                f"c = {c:g} is too slow for the super-solution: its largest "
                f"plateau M_barrier = {largest:.6g} is below 1")
    M = M_chi(params)
    kt = default_kappa_tilde(params, kappa)
    bc = barrier_constants(params, kappa, kt, M=M)
    if not bc.d_sub > 0.0:
        raise DomainError(
            f"c = {c:.9g} is too close to its speed threshold "
            f"{c_star(params) if neg_chi else 2.0:g}: the sub-solution's "
            f"d_sub underflows to 0 (D_sub = {bc.D_sub:.6g})")
    return BarrierSpec(kappa=kappa, kappa_tilde=kt, M=M, D=bc.D_sub, d=bc.d_sub)


@dataclass
class CertifyReport:
    passed: bool
    worst_excess: float
    worst_location: float
    worst_check: str
    checks: dict[str, dict[str, float]]   # each check's worst_excess, _location


def worst_residuals(params: Params, c: float, grid: Grid, u_max: np.ndarray,
                    barriers: Sequence[tuple[np.ndarray, int]]
                    ) -> list[np.ndarray]:
    """For each (W, sign): the largest sign * A(W; u) over the densities
    0 <= u <= u_max, at the interior nodes.

    A(W; u) = base + a V + b V' (a = source, b = -drift u_x), and
    `solve_pair` gives V = (L + R) / 2 and V' = (R - L) / 2 from sweeps L
    and R that weigh S = u^gamma left and right of each node i, and at i
    by lam and rho, with nonnegative weights.  So the sup takes S =
    u_max^gamma left of i if alpha = sign (a - b) / 2 > 0, right of i if
    beta = sign (a + b) / 2 > 0, at i if alpha lam + beta rho > 0, else 0:
    one solve of u_max, and none at chi = 0 (A reads no V).
    """
    p, h = params, grid.h
    if p.chi != 0.0:
        V, Vx = solve_V(u_max, grid, p, c)
        S = power(u_max[1:-1], p.gamma)
        _, (_, I1), (J0, J1) = sweep_weights(h)
        lam, rho = I1 / h, J0 - J1 / h
        # the sweeps of u_max^gamma without node i's own share
        left = (V - Vx)[1:-1] - lam * S
        right = (V + Vx)[1:-1] - rho * S
    worst = []
    for W, sign in barriers:
        _pow_guard(W, p)
        terms = frozen_terms(p, W, h)
        res = sign * frozen_residual(terms, 0.0, 0.0, c)
        if p.chi != 0.0:
            ux, _, _, drift, source, _ = terms
            alpha = 0.5 * sign * (source + drift * ux)
            beta = 0.5 * sign * (source - drift * ux)
            res += (np.maximum(alpha, 0.0) * left
                    + np.maximum(beta, 0.0) * right
                    + np.maximum(alpha * lam + beta * rho, 0.0) * S)
        worst.append(res)
    return worst


def _sign_excess(vals: np.ndarray, xs: np.ndarray,
                 eps: float) -> tuple[float, float]:
    """The largest vals - eps (a NaN if vals has one) and its node in xs."""
    if vals.size == 0:
        return -math.inf, math.nan
    i = int(np.argmax(vals))
    return float(vals[i] - eps), float(xs[i])


def certify(params: Params, c: float) -> CertifyReport:
    """Residual-sign certificates of the barriers on CERTIFY_GRID, exact
    over the admissible densities 0 <= u <= min{M, e^{-kx}}: the super-
    solution residual <= eps_disc right of the plateau kink, the constant
    M residual <= eps_disc, the sub-solution residual >= -eps_disc right
    of x_minus and the constant d residual >= -eps_disc."""
    grid = Grid.from_bounds(*CERTIFY_GRID)
    spec = default_barrier_spec(params, c)
    Wsup = eval_super(spec, grid)
    Wsub = np.maximum(eval_sub(spec, grid), 0.0)

    # each check holds on the interior nodes from its first one on: right
    # of the kink, right of x_minus, or everywhere (xi increases)
    xi = grid.interior().x
    sup_from = np.count_nonzero(xi - spec.kink <= 3.0 * grid.h)
    sub_from = np.count_nonzero(xi <= spec.x_minus + 3.0 * grid.h)
    plans = (
        ("super_exp", Wsup, sup_from, eps_disc(grid.h, Wsup.max()), +1),
        ("super_const", np.full(grid.n, float(spec.M)), 0,
         eps_disc(grid.h, spec.M), +1),
        ("sub_profile", Wsub, sub_from,
         eps_disc(grid.h, max(Wsub.max(), 1e-3)), -1),
        ("sub_const", np.full(grid.n, spec.d), 0,
         eps_disc(grid.h, max(spec.d, 1e-3)), -1))
    rows = worst_residuals(params, c, grid, Wsup,
                           [(W, sign) for _, W, _, _, sign in plans])
    passed, worst, worst_loc, worst_name = True, -math.inf, math.nan, ""
    checks = {}
    for (name, _, lo, eps, _), res in zip(plans, rows):
        excess, loc = _sign_excess(res[lo:], xi[lo:], eps)
        checks[name] = {"worst_excess": excess, "worst_location": loc}
        passed = passed and excess <= 0     # a NaN excess fails
        if excess > worst:
            worst, worst_loc, worst_name = excess, loc, name
    return CertifyReport(passed=passed, worst_excess=worst,
                         worst_location=worst_loc, worst_check=worst_name,
                         checks=checks)

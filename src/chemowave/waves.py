"""Traveling-wave profile construction and diagnostics.

Two routes to a stationary profile of the moving-frame system:

* FixedPoint: the outer map u -> U(.; u), where U(.; u) is the steady
  state of the frozen-v equation

      u_t = u_xx + c u_x - chi m u^(m-1) u_x V_x - chi u^m V
            + chi u^(m+gamma) + u (1 - u^alpha),      V = Psi(u^gamma),

  integrated from the super-solution min{M, e^{-kx}} until
  ||u_t||_inf < TOL_INNER; Picard-iterated until successive outer
  iterates agree to TOL_OUTER.

* CoupledRelax: direct relaxation of the fully coupled moving-frame
  system from the same initial condition, as an independent cross-check.

Profiles built here use centered advection: the wave targets (decay-rate
fits, barrier sandwiches at 1e-8) need the O(h^2) spatial accuracy, and
the cell Peclet number w*h/2 stays well below 1 in every admissible
regime, so centering is stable.  The lab-frame Cauchy lane keeps its
first-order upwinding independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .barriers import BarrierSpec, default_barrier_spec, eval_sub, eval_super
from .cauchy import _imex_step, solve_v
from .errors import (DomainError, NoConvergence, NormalizationError,
                     RegimeError, WindowTooShort)
from .fields import Field, Grid, level_crossings
from .params import (Params, RegimeTag, classify_regime, kappa_of_speed,
                     kappa1_default, M_chi, require_speed_above)

FIT_WINDOW = (1e-6, 1e-2)
MIN_WINDOW_LENGTH = 5.0
SCHEME = "centered"          # advection scheme of every wave-lane step
TOL_INNER = 1e-8             # steady state: ||u_t||_inf below this
TOL_OUTER = 1e-7             # outer Picard iterates agree to this
MAX_OUTER = 200
MAX_INNER_STEPS = 400_000
SETTLE_WINDOW = 10.0         # settle measures the front drift over this time
SETTLE_ROUNDS = 10
DRIFT_TOL = 2e-13


def fitted_frame_speed(c: float, h: float) -> float:
    """Frame speed adjusted so e^{-kappa x} is an exact discrete edge mode.

    The leading-edge linearization is u_xx + c u_x + u, whose decaying
    mode e^{-kappa x} is neutral in the continuum.  With the standard
    3-point Laplacian and centered advection the discrete symbol at
    kappa misses zero by O(h^2), which leaves a near-neutral transient
    that relaxes at that same O(h^2) rate and stalls steady-state
    detection far above TOL_INNER.  Fitting the advection coefficient,

        c_fit = h * (2 (cosh(kappa h) - 1) / h^2 + 1) / sinh(kappa h),

    zeroes the symbol at kappa exactly; c_fit = c + O(h^2).
    """
    kappa = kappa_of_speed(c)
    kh = kappa * h
    return ((2.0 * (math.cosh(kh) - 1.0)) / h**2 + 1.0) * h / math.sinh(kh)


def fitted_robin_kappa(c: float, h: float) -> float:
    """Robin coefficient making the centered ghost exact for e^{-kappa x}."""
    kappa = kappa_of_speed(c)
    return math.sinh(kappa * h) / h


@dataclass(frozen=True)
class WaveProblem:
    params: Params
    c: float
    grid: Grid
    method: str = "FixedPoint"        # "FixedPoint" | "CoupledRelax"

    def __post_init__(self):
        if self.method not in ("FixedPoint", "CoupledRelax"):
            raise DomainError(f"unknown method {self.method!r}")


@dataclass
class WaveProfile:
    U: Field
    V: Field
    c: float
    kappa: float
    kappa_fit: float
    left_limit: float
    right_limit: float
    monotonicity_violation: float
    outer_iters: int
    params: Params
    method: str
    c_eff: float                     # fitted frame speed actually stepped
    robin_kappa: float               # fitted Robin coefficient actually used
    sandwich_violation: float = math.nan
    barrier: BarrierSpec | None = None


@dataclass
class WaveDiagnostics:
    kappa: float
    kappa_fit: float
    kappa1: float
    window: tuple[float, float]
    refined_x: np.ndarray
    refined_score: np.ndarray
    refined_trend_slope: float
    monotonicity_violation: float
    left_limit: float
    right_limit: float


def _limits(u: np.ndarray) -> tuple[float, float]:
    k = max(3, u.size // 20)
    return float(u[:k].mean()), float(u[-k:].mean())


def _monotonicity_violation(U: Field) -> float:
    d = (U.values[2:] - U.values[:-2]) / (2.0 * U.grid.h)
    return float(max(0.0, d.max()))


def _prepare(problem: WaveProblem):
    """Shared setup of both constructions.

    Checks regime and speed, and returns the barrier sandwich spec, its
    upper and lower barriers on the grid, the fitted frame speed and the
    fitted Robin coefficient.
    """
    p = problem.params
    tag = classify_regime(p)
    if tag not in (RegimeTag.NEG_CHI_ALPHA_LE, RegimeTag.POS_CHI_ALPHA_EQ):
        raise RegimeError(f"wave construction unsupported in regime {tag.value}")
    require_speed_above(p, problem.c)
    grid = problem.grid
    spec = default_barrier_spec(p, problem.c, M=1.0 if p.chi <= 0 else M_chi(p))
    # keep the sub-barrier's zero comfortably inside the grid
    d_min = math.exp((spec.kappa_tilde - spec.kappa) * (grid.x0 + 5.0))
    if spec.D < d_min:
        spec = replace(spec, D=d_min)
    return (spec, eval_super(spec, grid).values,
            eval_sub(spec, grid, clipped=True).values,
            fitted_frame_speed(problem.c, grid.h),
            fitted_robin_kappa(problem.c, grid.h))


def _relax(problem: WaveProblem, u: np.ndarray, V: Field, Vx: Field,
           c_eff: float, robin_kappa: float, coupled: bool) -> np.ndarray:
    """Step from u until ||u_t||_inf < TOL_INNER.

    V is frozen, or with `coupled` refreshed from u after every step.
    """
    p, grid = problem.params, problem.grid
    resid = math.inf
    for _ in range(MAX_INNER_STEPS):
        un, dt, _ = _imex_step(p, u, V.values, Vx.values, c_eff, grid,
                               robin_kappa, SCHEME)
        resid = float(np.abs(un - u).max()) / dt
        u = un
        if coupled:
            V, Vx = solve_v(p, Field(grid, u), problem.c)
        if resid < TOL_INNER:
            return u
    kind = "coupled" if coupled else "inner"
    raise NoConvergence(f"{kind} relaxation failed to reach steady state",
                        residual=resid)


def construct_fixed_point(problem: WaveProblem) -> WaveProfile:
    """Outer Picard iteration on the frozen-v steady-state map."""
    p = problem.params
    grid = problem.grid
    spec, upper, lower, c_eff, rk = _prepare(problem)
    u_prev = upper
    damping = 1.0               # halved once the outer differences keep growing
    prev_diff = math.inf
    increases = 0
    sandwich = 0.0
    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        V, Vx = solve_v(p, Field(grid, u_prev), problem.c)
        u_new = _relax(problem, upper, V, Vx, c_eff, rk, coupled=False)
        if damping < 1.0:
            u_new = (1.0 - damping) * u_prev + damping * u_new
        diff = float(np.abs(u_new - u_prev).max())
        sandwich = max(sandwich,
                       float((lower - u_new).max()),
                       float((u_new - upper).max()))
        if diff > prev_diff:
            increases += 1
            if increases >= 2 and damping == 1.0:
                damping = 0.5
        else:
            increases = 0
        prev_diff = diff
        u_prev = u_new
        if diff < TOL_OUTER:
            break
    else:
        raise NoConvergence(
            f"outer iteration not converged after {MAX_OUTER} steps",
            residual=prev_diff)

    return _finish(problem, u_prev, outer, sandwich, spec, "FixedPoint",
                   c_eff, rk)


def construct_relax(problem: WaveProblem) -> WaveProfile:
    """Steady state of the coupled moving-frame system from the super-solution."""
    spec, upper, lower, c_eff, rk = _prepare(problem)
    V, Vx = solve_v(problem.params, Field(problem.grid, upper), problem.c)
    u = _relax(problem, upper, V, Vx, c_eff, rk, coupled=True)
    sandwich = max(float((lower - u).max()), float((u - upper).max()))
    return _finish(problem, u, 0, sandwich, spec, "CoupledRelax", c_eff, rk)


def construct(problem: WaveProblem) -> WaveProfile:
    if problem.method == "FixedPoint":
        return construct_fixed_point(problem)
    return construct_relax(problem)


def settle(profile: WaveProfile) -> WaveProfile:
    """Polish the profile into a machine-exact fixed point of the stepper.

    On a truncated grid the moving-frame system has no exact steady
    state: the boundary closure shifts the discrete front speed by
    O(u(x_right)), so the front drifts at a constant (tiny) rate and the
    sup-norm residual plateaus.  Experiments that weight the far tail by
    e^{2 eta x} (the stability lab) amplify that drift catastrophically.
    This routine measures the drift over windows of length SETTLE_WINDOW
    and trims the effective frame speed until the front is stationary to
    DRIFT_TOL, leaving a genuine fixed point up to round-off.
    """
    p = profile.params
    grid = profile.U.grid
    u = profile.U.values
    V, Vx = solve_v(p, profile.U, profile.c)
    c_eff = profile.c_eff
    level = 0.5 * (u.max() + u.min())
    for _ in range(SETTLE_ROUNDS):
        x_start = _single_crossing(grid.x, u, level)
        t = 0.0
        while t < SETTLE_WINDOW:
            u, dt, _ = _imex_step(p, u, V.values, Vx.values, c_eff, grid,
                                  profile.robin_kappa, SCHEME)
            V, Vx = solve_v(p, Field(grid, u), profile.c)
            t += dt
        drift = (_single_crossing(grid.x, u, level) - x_start) / t
        if abs(drift) < DRIFT_TOL:
            break
        c_eff += drift
    U = Field(grid, u)
    left, right = _limits(u)
    return replace(profile, U=U, V=V, left_limit=left, right_limit=right,
                   monotonicity_violation=_monotonicity_violation(U),
                   c_eff=c_eff)


def _finish(problem: WaveProblem, u: np.ndarray, outer: int, sandwich: float,
            spec: BarrierSpec, method: str, c_eff: float,
            robin_kappa: float) -> WaveProfile:
    p = problem.params
    grid = problem.grid
    U = Field(grid, u)
    V, _ = solve_v(p, U, problem.c)
    kappa = kappa_of_speed(problem.c)
    left, right = _limits(u)
    try:
        diag = diagnose_profile_field(U, kappa, kappa1_default(p, kappa))
        kappa_fit = diag.kappa_fit
    except WindowTooShort:
        kappa_fit = math.nan
    return WaveProfile(U=U, V=V, c=problem.c, kappa=kappa, kappa_fit=kappa_fit,
                       left_limit=left, right_limit=right,
                       monotonicity_violation=_monotonicity_violation(U),
                       outer_iters=outer, params=p, method=method,
                       c_eff=c_eff, robin_kappa=robin_kappa,
                       sandwich_violation=sandwich, barrier=spec)


def diagnose(profile: WaveProfile, kappa1: float | None = None) -> WaveDiagnostics:
    """Decay-rate fit, refined-decay score, monotonicity and limit readouts."""
    if kappa1 is None:
        kappa1 = kappa1_default(profile.params, profile.kappa)
    return diagnose_profile_field(profile.U, profile.kappa, kappa1)


def diagnose_profile_field(U: Field, kappa: float, kappa1: float) -> WaveDiagnostics:
    x = U.grid.x
    u = U.values
    lo, hi = FIT_WINDOW
    mask = (u >= lo) & (u <= hi)
    if not mask.any() or x[mask].max() - x[mask].min() < MIN_WINDOW_LENGTH:
        raise WindowTooShort("decay window shorter than 5 length units")
    xw, uw = x[mask], u[mask]
    slope = float(np.polyfit(xw, -np.log(uw), 1)[0])

    xr = xw[xw >= 0.5 * (xw.min() + xw.max())]
    ur = uw[xw >= 0.5 * (xw.min() + xw.max())]
    score = np.exp((kappa1 - kappa) * xr) * np.abs(ur * np.exp(kappa * xr) - 1.0)
    pos = score > 0
    if pos.sum() >= 2:
        trend = float(np.polyfit(xr[pos], np.log(score[pos]), 1)[0])
    else:
        trend = -math.inf
    left, right = _limits(u)
    return WaveDiagnostics(kappa=kappa, kappa_fit=slope, kappa1=kappa1,
                           window=(float(xw.min()), float(xw.max())),
                           refined_x=xr, refined_score=score,
                           refined_trend_slope=trend,
                           monotonicity_violation=_monotonicity_violation(U),
                           left_limit=left, right_limit=right)


def _single_crossing(x: np.ndarray, u: np.ndarray, level: float) -> float:
    # crossings within 2h of each other (round-off wiggles) count once
    crossings = sorted(set(round(float(cx), 12)
                           for cx in level_crossings(x, u, level)))
    merged = []
    for cx in crossings:
        if not merged or cx - merged[-1] > 2 * (x[1] - x[0]):
            merged.append(cx)
    if len(merged) == 0:
        raise NormalizationError(f"profile never crosses level {level}")
    if len(merged) > 1:
        raise NormalizationError(
            f"profile crosses level {level} {len(merged)} times")
    return merged[0]


def normalize_translation(profile: WaveProfile) -> WaveProfile:
    """Shift (by linear interpolation) so that U(0) = 1/2."""
    x = profile.U.grid.x
    shift = _single_crossing(x, profile.U.values, 0.5)
    if shift == 0.0:
        return profile
    Un = Field(profile.U.grid, np.interp(x + shift, x, profile.U.values))
    Vn = Field(profile.V.grid, np.interp(x + shift, x, profile.V.values))
    left, right = _limits(Un.values)
    return replace(profile, U=Un, V=Vn, left_limit=left, right_limit=right,
                   monotonicity_violation=_monotonicity_violation(Un))

"""Traveling-wave profile construction and diagnostics.

A WaveProblem (params, c, grid) owns the wave lane's discrete equations,
the centered IMEX step of the moving-frame system

    u_t = u_xx + c u_x - chi m u^(m-1) u_x V_x - chi u^m V
          + chi u^(m+gamma) + u (1 - u^alpha),      V = Psi(u^gamma)

closed at kappa(c): its steady form (`residual`) and its `stepper`.
`construct(problem, method)` solves them by one of two routes; the
WaveProfile carries its problem and records its route.

* FixedPoint: damped Newton on residual = 0, one banded solve of the
  exact Jacobian per step, from the super-solution min{M, e^{-kx}}.
  `_newton_step` assembles the whole Jacobian: the frozen-v rows with
  their ghost-node folds, the pinned column and the v coupling.
  The frame speed c_eff is an unknown (the freezing method of Beyn &
  Thuemmler) and the tail node is pinned to e^{-kappa x_R}, the
  amplitude the barriers fix (and the translation, where that value is
  well above round-off; see `_newton`).  The result is a fixed point of
  the stepper to round-off.

* CoupledRelax: direct relaxation of the fully coupled system from the
  same start, an independent cross-check.  It runs `cauchy.march` at
  the fitted frame speed and stops it once ||u_t||_inf < TOL_INNER,
  within MAX_INNER_STEPS steps (march's budget) and unless it stalls
  (||u_t||_inf not halved in STALL_STEPS steps).  It seeks no time
  accuracy, so it steps in pseudo-time (SimConfig.pseudo_time): the
  frame speed is advected implicitly, and only the chemotactic drift's
  CFL, the reaction's monotonicity bound RELAX_REACTION / Rmax and the
  cap RELAX_DT_MAX bound its dt.  Its steady state is residual = 0, a
  fixed point of the step at any dt.  StepStats count its steps.

Profiles built here use centered advection: the wave targets (decay-rate
fits, barrier sandwiches at 1e-8) need the O(h^2) spatial accuracy, and
the cell Peclet number w*h/2 stays well below 1 in every admissible
regime, so centering is stable.  The lab-frame Cauchy lane keeps its
first-order upwinding independently.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .barriers import BarrierSpec, default_barrier_spec, eval_sub, eval_super
from .cauchy import (MAX_INNER_STEPS, RELAX_DT_MAX, SimConfig, StepStats,
                     advective_velocity, march, power, reaction_derivative,
                     robin_rate, solve_v, steady_residual, step_terms)
from .elliptic import lapack, sweep_weights, tail_integrals
from .errors import (DomainError, NoConvergence, NormalizationError,
                     WindowTooShort)
from .fields import Field, Grid, level_crossings
from .params import Params, kappa_of_speed, kappa1_default

FIT_WINDOW = (1e-6, 1e-2)
MIN_WINDOW_LENGTH = 5.0
SCHEME = "centered"          # advection scheme of every wave-lane step
TOL_INNER = 1e-8             # CoupledRelax steady state: ||u_t||_inf below this
STALL_STEPS = 500            # ... which must halve within this many steps
NEWTON_TOL = 1e-12           # FixedPoint: sup of the steady residual below this
ROUNDOFF_FACTOR = 10.0       # ... or below this many times its round-off floor
MAX_NEWTON = 50
MIN_DAMPING = 2.0**-30       # Newton line search gives up below this step
BAND = 3                     # Newton Jacobian: diagonals either side of the main


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


def newton_tolerance(h: float, u_max: float) -> float:
    """Sup residual at which the FixedPoint Newton solve stops.

    The residual carries the 3-point u_xx, so one ulp of a node of size
    u_max moves it by about eps u_max / h^2 (2e-12 at h = 0.01, u = 1).
    The stop rule is NEWTON_TOL, raised to ROUNDOFF_FACTOR times that
    floor on grids fine enough for the floor to come near NEWTON_TOL.
    """
    floor = np.finfo(float).eps * u_max / h**2
    return max(NEWTON_TOL, ROUNDOFF_FACTOR * floor)


@dataclass(frozen=True)
class WaveProblem:
    """The centered step at speed c on grid, closed at kappa(c): u leaves
    the right edge at robin_rate(kappa, h), v as e^{-gamma kappa x}."""

    params: Params
    c: float
    grid: Grid

    @property
    def kappa(self) -> float:
        """Decay rate of the wave's right tail, kappa(c)."""
        return kappa_of_speed(self.c)

    def residual(self, u: np.ndarray, c_eff: float) -> tuple[np.ndarray, ...]:
        """(F, u_x, v, v_x): the steady residual at u in the frame c_eff,
        v solved from u."""
        v, vx = solve_v(self.params, u, self.grid, self.kappa)
        F, ux = steady_residual(self.params, u, v, vx, c_eff, self.grid,
                                robin_rate(self.kappa, self.grid.h))
        return F, ux, v, vx

    def stepper(self, c_eff: float, t_end: float, output_every: float,
                pseudo_time: bool) -> SimConfig:
        """The centered step in the frame c_eff, for march."""
        return SimConfig(self.params, self.grid, t_end=t_end,
                         frame_speed=c_eff, tail_kappa=self.kappa,
                         output_every=output_every, scheme=SCHEME,
                         pseudo_time=pseudo_time)


@dataclass
class WaveProfile:
    U: Field
    V: Field
    problem: WaveProblem
    outer_iters: int
    method: str                      # the route: "FixedPoint" | "CoupledRelax"
    c_eff: float                     # fitted frame speed actually stepped
    sandwich_violation: float = math.nan
    barrier: BarrierSpec | None = None
    residual_history: list[float] = field(default_factory=list)
    stats: StepStats = field(default_factory=StepStats)  # CoupledRelax only

    @property
    def c_eff_shift(self) -> float:
        """c_eff less the fitted frame speed it started from."""
        return self.c_eff - fitted_frame_speed(self.problem.c,
                                               self.problem.grid.h)


@dataclass
class WaveDiagnostics:
    kappa: float
    kappa_fit: float
    kappa1: float
    refined_score: np.ndarray
    refined_trend_slope: float
    monotonicity_violation: float
    left_limit: float
    right_limit: float


def _prepare(problem: WaveProblem):
    """Shared setup of both constructions.

    Takes the barrier sandwich spec, whose default_barrier_spec is the
    admissibility gate (regime and speed), checks the super-solution's
    decay window, and returns the spec, its upper and lower barriers on
    the grid and the fitted frame speed.
    """
    grid = problem.grid
    spec = default_barrier_spec(problem.params, problem.c)
    # keep the sub-barrier's zero comfortably inside the grid
    d_min = math.exp((spec.kappa_tilde - spec.kappa) * (grid.x0 + 5.0))
    if spec.D < d_min:
        spec = replace(spec, D=d_min)
    upper = eval_super(spec, grid)
    # the profile's tail follows the super-solution's e^{-kappa x}: a grid
    # with no room for the latter's decay window is refused before any solve
    _decay_window(grid.x, upper)
    return (spec, upper, eval_sub(spec, grid, clipped=True),
            fitted_frame_speed(problem.c, grid.h))


def _sandwich(u: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    return max(float((lower - u).max()), float((u - upper).max()))


def _newton_step(problem: WaveProblem, u: np.ndarray, v: np.ndarray,
                 vx: np.ndarray, ux: np.ndarray, F: np.ndarray,
                 c_eff: float) -> np.ndarray:
    """(dU[0..n-2], dc_eff) solving J step = -F with U[n-1] held fixed.

    This is the one place the Newton Jacobian is assembled: the
    frozen-v rows of the centered steady_residual with its ghost nodes
    folded in, the pinned column and the v coupling.  J is exact:
    v = (a + b) / 2 and v_x = (b - a) / 2 for solve_pair's sweeps a, b,
    recurrences from their tail integrals, so with (a_k, dU_k, b_k)
    interleaved as unknowns J is banded (BAND diagonals each side) and one
    LAPACK gbsv solves it.  The rows of the
    pinned column, dF/dc_eff = U_x, outside the band are a rank-1 border:
    Sherman-Morrison, as a second right-hand side on the same factor.
    """
    p, grid, kappa = problem.params, problem.grid, problem.kappa
    n, h = grid.n, grid.h
    E, (I0, I1), (J0, J1) = sweep_weights(h)
    ds = p.gamma * np.power(u, p.gamma - 1.0)            # d(u^gamma)/du
    ds[-1] = 0.0                                         # U[n-1] is pinned
    # J[i, j] sits at ab[o + i - j, j]; band[:, k, 0 | 1 | 2] holds the
    # columns of a_k, dU_k and b_k, and its rows are a's, F's and b's at k
    o = 2 * BAND
    ab = np.zeros((3 * BAND + 1, 3 * n))
    band = ab.reshape(-1, n, 3)
    # a_k - E a_{k-1} = cell (k-1, k), a_0 = T_L; b_k - E b_{k+1} = cell
    # (k, k+1), b_{n-1} = T_R, which the pin makes a constant
    band[o] = 1.0
    band[o + 3, :-1, 0] = band[o - 3, 1:, 2] = -E
    band[o + 2, :-1, 1] = -(I0 - I1 / h) * ds[:-1]
    band[o - 1, 1:, 1] = -(I1 / h) * ds[1:]
    band[o - 1, 0, 1] = -tail_integrals(ds, p.gamma * kappa)[0]
    band[o + 1, :-1, 1] = -(J0 - J1 / h) * ds[:-1]
    band[o - 2, 1:, 1] = -(J1 / h) * ds[1:]
    # F_k with v frozen: u_xx + w u_x + source; at chi = 0 it reads no v
    terms = step_terms(p, u, v, vx)
    w, dw_ux = np.full(n, c_eff), 0.0
    if terms.um1 is not None:
        w = advective_velocity(p, terms.um1, vx, c_eff)
        # dw/du is 0 at m = 1, where u^(m-2) would be inf at a zero node
        if p.m != 1.0:
            dw_ux = (-p.chi * p.m * (p.m - 1.0) * power(u, p.m - 2.0) * vx
                     * ux)
        dF_dv = -p.chi * power(u, p.m)
        dF_dvx = -p.chi * p.m * terms.um1 * ux
        band[o + 1, :, 0] = 0.5 * (dF_dv - dF_dvx)
        band[o - 1, :, 2] = 0.5 * (dF_dv + dF_dvx)
    left = 1.0 / h**2 - w / (2.0 * h)        # weight of u[k-1] in F_k
    right = 1.0 / h**2 + w / (2.0 * h)       # weight of u[k+1] in F_k
    band[o + 3, :-1, 1] = left[1:]
    band[o - 3, 1:, 1] = right[:-1]
    band[o, :, 1] = -2.0 / h**2 + dw_ux + reaction_derivative(p, u, terms)
    # ghost nodes fold into the edge rows: zero flux puts u[1] left of
    # u[0]; the Robin ghost right of u[n-1] is u[n-2] less a multiple of
    # u[n-1], whose column is pinned
    band[o - 3, 1, 1] += left[0]
    band[o + 3, -2, 1] += right[-1]
    # the pinned column is dF/dc_eff = U_x, in band for the last two rows
    band[o - 3, -1, 1], band[o, -1, 1] = ux[-2], ux[-1]
    rhs = np.zeros((n, 3, 2))
    rhs[:, 1, 0] = -F
    rhs[:-2, 1, 1] = ux[:-2]
    *_, x, info = lapack.dgbsv(BAND, BAND, ab, rhs.reshape(3 * n, 2),
                               overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise NoConvergence(f"Newton Jacobian solve failed (gbsv info={info})")
    step, border = x.reshape(n, 3, 2)[:, 1].T
    return step - border * (step[-1] / (1.0 + border[-1]))


def _newton(problem: WaveProblem, u: np.ndarray, c_eff: float, tol: float,
            visit: Callable[[np.ndarray], None] | None = None
            ) -> tuple[np.ndarray, float, list[float]]:
    """Damped Newton solve of the steady centered stepper from (u, c_eff).

    Unknowns are (u[0..n-2], c_eff); the tail u[n-1] is pinned to
    e^{-kappa x_R}, the barriers' tail amplitude.  The pin fixes the
    translation only where that value is well above the residual's
    round-off; at 2.6e-17 (chi = 0, c = 3 on [-100, 100]) a shifted start
    returns unchanged.  The line search halves a step until the iterate
    stays positive and the sup residual falls; the solve stops once that
    residual is below tol.  visit(u) sees the pinned start and every
    accepted iterate.  Returns the solution, its c_eff and the sup
    residual of each iterate, the start included.
    """
    u = u.copy()
    u[-1] = math.exp(-problem.kappa * problem.grid.x[-1])
    if visit is not None:
        visit(u)
    F, ux, v, vx = problem.residual(u, c_eff)
    history = [float(np.abs(F).max())]
    while history[-1] >= tol:
        if len(history) > MAX_NEWTON:
            raise NoConvergence(
                f"Newton not converged after {MAX_NEWTON} iterations",
                residual=history[-1], history=history)
        step = _newton_step(problem, u, v, vx, ux, F, c_eff)
        du = np.append(step[:-1], 0.0)
        lam = 1.0
        while True:
            u_try = u + lam * du
            if u_try.min() > 0.0:
                trial = problem.residual(u_try, c_eff + lam * step[-1])
                res = float(np.abs(trial[0]).max())
                if res < history[-1]:
                    break
            lam *= 0.5
            if lam < MIN_DAMPING:
                raise NoConvergence("Newton line search failed",
                                    residual=history[-1], history=history)
        u, c_eff = u_try, c_eff + lam * step[-1]
        F, ux, v, vx = trial
        history.append(res)
        if visit is not None:
            visit(u)
    return u, c_eff, history


def construct_fixed_point(problem: WaveProblem) -> WaveProfile:
    """Damped Newton solve of the steady centered stepper.

    Unknowns are (U[0..n-2], c_eff) with the tail U[n-1] pinned (see
    _newton); each step is one banded solve of the exact Jacobian (see
    _newton_step).  The solve starts from the super-solution at the
    fitted frame speed and stops once the sup residual is below
    newton_tolerance(h, M).
    """
    spec, upper, lower, c_eff = _prepare(problem)
    sandwich = []
    u, c_eff, history = _newton(
        problem, upper, c_eff,
        newton_tolerance(problem.grid.h, float(upper.max())),
        lambda w: sandwich.append(_sandwich(w, lower, upper)))
    return _finish(problem, u, len(history) - 1, max(sandwich), spec,
                   "FixedPoint", c_eff, history, StepStats())


def construct_relax(problem: WaveProblem) -> WaveProfile:
    """Steady state of the coupled moving-frame system from the super-solution.

    march steps in pseudo-time, each dt at most RELAX_DT_MAX, and runs
    to t_end = MAX_INNER_STEPS * RELAX_DT_MAX, so neither its output
    times nor its end cap a step before the step budget runs out.  That
    horizon sits exactly on march's own budget, so march accepts it and
    is never asked for a step past the budget: an exhausted budget is
    this function's NoConvergence.  So is a stall: ||u_t||_inf not
    halved over the last STALL_STEPS steps.
    """
    spec, upper, lower, c_eff = _prepare(problem)
    horizon = MAX_INNER_STEPS * RELAX_DT_MAX
    config = problem.stepper(c_eff, horizon, horizon, pseudo_time=True)
    u, resid, stats = upper, [], StepStats()
    for _, un, _, _, dt, clamped, _ in itertools.islice(
            march(config, Field(problem.grid, upper)), 1, MAX_INNER_STEPS + 1):
        resid.append(float(np.abs(un - u).max()) / dt)
        u = un
        stats.add(dt, clamped)
        if resid[-1] < TOL_INNER:
            return _finish(problem, u, 0, _sandwich(u, lower, upper), spec,
                           "CoupledRelax", c_eff, resid[-1:], stats)
        if len(resid) > STALL_STEPS and (
                resid[-1] > 0.5 * resid[-1 - STALL_STEPS]):
            raise NoConvergence(
                f"coupled relaxation stalled: ||u_t||_inf = {resid[-1]:.3e} "
                f"has not halved in {STALL_STEPS} steps", residual=resid[-1])
    raise NoConvergence("coupled relaxation failed to reach steady state",
                        residual=resid[-1])


def construct(problem: WaveProblem, method: str) -> WaveProfile:
    """The wave by the route method, "FixedPoint" or "CoupledRelax"."""
    if method == "FixedPoint":
        return construct_fixed_point(problem)
    if method == "CoupledRelax":
        return construct_relax(problem)
    raise DomainError(f"unknown method {method!r}")


def settle(profile: WaveProfile) -> WaveProfile:
    """Polish a profile into a fixed point of the stepper it is run with.

    On a truncated grid the boundary closure shifts the discrete front
    speed by O(u(x_right)), and the e^{2 eta x} weight of the stability
    lab amplifies any drift.  settle runs the FixedPoint Newton solve
    from the profile's own U and c_eff, tail pinned to e^{-kappa x_R}
    as in the construction.  A profile already below the stop rule
    (every FixedPoint profile) comes back unchanged; any other (a
    CoupledRelax one) is solved one step past the stop rule, its polish
    residuals added to residual_history and its iterations to outer_iters.
    Its StepStats are kept: the polish takes no time step.
    """
    problem = profile.problem
    u, c_eff, history = _newton(problem, profile.U.values, profile.c_eff,
                                newton_tolerance(problem.grid.h,
                                                 profile.barrier.M))
    if len(history) == 1:
        return profile
    # the step that met the stop rule can leave c_eff 4e-13 off, a drift
    # the weight makes visible; one more lands on the round-off floor,
    # unless the line search finds the floor already reached
    try:
        u, c_eff, last = _newton(problem, u, c_eff, history[-1])
        history += last[1:]
    except NoConvergence:
        pass
    return _finish(problem, u, profile.outer_iters + len(history) - 1,
                   profile.sandwich_violation, profile.barrier,
                   profile.method, c_eff, profile.residual_history + history,
                   profile.stats)


def _finish(problem: WaveProblem, u: np.ndarray, outer: int, sandwich: float,
            spec: BarrierSpec, method: str, c_eff: float,
            history: list[float], stats: StepStats) -> WaveProfile:
    grid = problem.grid
    v, _ = solve_v(problem.params, u, grid, problem.kappa)
    return WaveProfile(U=Field(grid, u), V=Field(grid, v), problem=problem,
                       outer_iters=outer, method=method, c_eff=c_eff,
                       sandwich_violation=sandwich, barrier=spec,
                       residual_history=list(history), stats=stats)


def _decay_window(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mask of the nodes with u in FIT_WINDOW; WindowTooShort unless they
    span at least MIN_WINDOW_LENGTH."""
    lo, hi = FIT_WINDOW
    mask = (u >= lo) & (u <= hi)
    if not mask.any() or x[mask].max() - x[mask].min() < MIN_WINDOW_LENGTH:
        raise WindowTooShort("decay window shorter than 5 length units")
    return mask


def diagnose(profile: WaveProfile, kappa1: float | None = None) -> WaveDiagnostics:
    """Decay-rate fit, refined-decay score, monotonicity and limit readouts."""
    kappa = profile.problem.kappa
    if kappa1 is None:
        kappa1 = kappa1_default(profile.problem.params, kappa)
    x = profile.U.grid.x
    u = profile.U.values
    mask = _decay_window(x, u)
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
    k = max(3, u.size // 20)
    du = (u[2:] - u[:-2]) / (2.0 * profile.U.grid.h)
    return WaveDiagnostics(kappa=kappa, kappa_fit=slope, kappa1=kappa1,
                           refined_score=score,
                           refined_trend_slope=trend,
                           monotonicity_violation=float(max(0.0, du.max())),
                           left_limit=float(u[:k].mean()),
                           right_limit=float(u[-k:].mean()))


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
    return replace(profile, U=Un, V=Vn)

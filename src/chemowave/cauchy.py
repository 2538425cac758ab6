"""Time integration of the parabolic equation, lab frame or moving frame.

The stepped equation (frame speed c, c = 0 for the lab frame) is

    u_t = u_xx + c u_x - chi (u^m v_x)_x + u (1 - u^alpha),
    0   = v_xx - v + u^gamma,

handled in the expanded, non-conservative form

    u_t = u_xx + w u_x - chi u^m (v - u^gamma) + u (1 - u^alpha),
    w   = c - chi m u^(m-1) v_x.

One IMEX step treats diffusion and the frame advection c u_x implicitly
(one tridiagonal solve of I - dt (D_xx + c D_x), D_x centered), the
chemotactic drift (w - c) u_x = -chi m u^(m-1) v_x u_x explicitly with
first-order upwinding on the sign of w - c (a centered variant exists
for the wave-construction lane), and the reaction and chemotaxis source
explicitly; negative nodes are then clamped to zero and counted.  In
the lab frame (c = 0) the matrix is I - dt D_xx and the explicit drift
is all of w.  `march` is the package's one stepping loop: it checks u0,
takes each clamped step, checks it is finite, refreshes v from the new
u and caps dt at output times and t_end.  It steps plain arrays and
builds no Field.  Its consumers count their steps in one StepStats:
`run` builds Fields at samples only, the stability lab reads arrays at
samples, CoupledRelax stops it at a steady state (or a stall) and the
spreading-speed run at a lost front.

`solve_v`, on plain arrays, is the model's one solve of 0 = v_xx - v
+ u^gamma: march, the wave lane, the barrier operator and the a-priori
checks all call it.

Three rules keep a step's work to what it reads, and change no bit of
the result (at chi = 0 a zero of the right-hand side may change sign at
a -0.0 node of u, which the solve reads only where all of u is zero).
A step evaluates each of its terms once: march builds one
StepTerms per step (u^alpha, u^(m-1), v - u^gamma and the drift w - c)
that auto_dt and advance_imex both read, and `power` skips the call at
the exponents 0 and 1, whose np.power is 1.0 and u to the bit.  At
chi = 0 the step reads v only through terms multiplied by chi, so its
StepTerms carry none of them: the step takes no u_x and no chemotactic
source, and march solves v only at samples (output times and the end)
and reuses the last v in between.  The implicit matrix depends only on
(n, h, dt, robin_kappa, c), and one dict caches it: the last four keys
stepped, each with its gttrf factor, or with None while it has been
stepped once.  A key not among them is solved by one LAPACK gtsv and
not factored; a key among them is factored on its second step and
solved by gttrs, which is gtsv's elimination bit for bit, and its
factor leaves the cache with it.  So a fixed-dt run factors its dt
once, and so does an automatic-dt run while its step sits at its cap,
DT_MAX or RELAX_DT_MAX; a step below the cap, whose dt is new on nearly
every step, costs one gtsv.

`frozen_terms` (the factors that depend on u alone) and `frozen_residual`
(their combination with each row of (v, v_x)) are the one formula of the
expanded right-hand side with v frozen.  The wave lane's Newton solve
drives `steady_residual`, that formula at u with the step's ghost nodes,
to zero; the barrier certificate combines each barrier's factors with
the (v, v_x) of its worst case.
Moving c u_x between the implicit and the explicit part does not move
that steady form, so a profile is a fixed point of the step at any dt.
One right-edge decay rate kappa (SimConfig.tail_kappa) closes u and v;
it is 0 in the lab frame and kappa(c) in the wave lane.
The automatic time step obeys

    dt <= min(0.5 h / max|w - c|, 0.1 / Rmax, DT_MAX)

with w - c the explicit chemotactic drift and Rmax the largest reaction
Jacobian magnitude, recomputed every step; the frame speed c, being
implicit, does not bound it.  It is bounded instead by |c| h < 2 (cell
Peclet number below 1), which keeps the implicit matrix an M-matrix.
0.1 / Rmax is a time-accuracy bound.  A run that seeks only a steady
state (SimConfig.pseudo_time, set by CoupledRelax alone) steps in
pseudo-time instead, under

    dt <= min(0.5 h / max|w - c|, RELAX_REACTION / Rmax, RELAX_DT_MAX),

the same drift CFL and a reaction bound that keeps explicit Euler on
the reaction monotone (dt Rmax <= 1; it is stable up to 2).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .elliptic import lapack, solve_pair
# not called here (a step solves with gtsv or gttrs); the package's tridiagonal
# solve stays bound under this name for perfbench's cauchy.tridiag probe
from .elliptic import solve_tridiagonal as solve_banded  # noqa: F401
from .errors import (BlowupDetected, DomainError, InternalError,
                     StepBudgetError, StiffnessError)
from .fields import Field, Grid, level_crossings
from .params import Params, RegimeTag, M_chi, classify_regime

DT_FLOOR = 1e-10
DT_MAX = 0.1                     # cap on the automatic time step
RELAX_REACTION = 0.8             # pseudo-time step: dt Rmax at most this
RELAX_DT_MAX = 0.4               # ... and dt at most this
MAX_INNER_STEPS = 400_000        # step budget of one march
LANDING_SLACK = 1e-12            # a step this near an output time lands on it
MONITOR_SLACK = 1e-6
FRONT_LEVEL = 0.5                # level whose rightmost crossing is the front


@dataclass(frozen=True)
class SimConfig:
    """One run's settings.

    The left edge is always zero flux.  u leaves the right edge as
    e^{-tail_kappa x} (Robin ghost node, robin_rate) and v as
    e^{-gamma tail_kappa x}; the lab's 0 means zero flux and a plateau.
    The implicit frame advection needs |frame_speed| h < 2.  pseudo_time
    selects the steady-state step rule of auto_dt, for a run whose time
    accuracy does not matter.
    """

    params: Params
    grid: Grid
    t_end: float
    frame_speed: float = 0.0
    dt: float | None = None          # None = automatic
    tail_kappa: float = 0.0
    output_every: float = 1.0
    scheme: str = "upwind"           # "upwind" | "centered"
    pseudo_time: bool = False        # automatic dt for a steady state only

    def __post_init__(self):
        for name in ("t_end", "output_every", "frame_speed", "dt",
                     "tail_kappa"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.t_end <= 0:
            raise DomainError("t_end must be > 0")
        if self.output_every <= 0:
            raise DomainError("output_every must be > 0")
        if self.dt is not None and self.dt <= 0:
            raise DomainError("dt must be > 0 or None for automatic")
        if self.tail_kappa < 0:
            raise DomainError("tail_kappa must be >= 0")
        if self.scheme not in ("upwind", "centered"):
            raise DomainError(f"unknown advection scheme {self.scheme!r}")
        if abs(self.frame_speed) * self.grid.h >= 2.0:
            # beyond cell Peclet 1 the implicit matrix's off-diagonals
            # change sign: it is no longer an M-matrix
            raise DomainError(
                f"|frame_speed| * h = {abs(self.frame_speed) * self.grid.h:.6g}"
                " must be < 2 (cell Peclet number below 1)")


@dataclass(frozen=True)
class State:
    t: float
    u: Field
    v: Field


@dataclass
class StepStats:
    """Ledger of one stepped run: its steps, their dt range, nodes clamped."""

    steps: int = 0
    clamp_count: int = 0
    dt_min: float = math.nan         # NaN until a step: min and max keep dt
    dt_max: float = math.nan

    def add(self, dt: float, clamped: int) -> None:
        """Count one yield of march; the initial state (dt 0) is no step."""
        self.clamp_count += clamped
        if dt:
            self.steps += 1
            self.dt_min = min(dt, self.dt_min)
            self.dt_max = max(dt, self.dt_max)


@dataclass
class Monitors:
    times: list = dc_field(default_factory=list)
    sup_u: list = dc_field(default_factory=list)
    inf_u: list = dc_field(default_factory=list)
    front_x: list = dc_field(default_factory=list)
    stats: StepStats = dc_field(default_factory=StepStats)
    warnings: list = dc_field(default_factory=list)

    def record(self, t: float, u: np.ndarray, x: np.ndarray):
        self.times.append(t)
        self.sup_u.append(float(u.max()))
        self.inf_u.append(float(u.min()))
        crossings = level_crossings(x, u, FRONT_LEVEL)
        self.front_x.append(float(crossings[-1]) if crossings.size else math.nan)


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise DomainError(f"{name} values must be finite")


def power(u: np.ndarray, e: float) -> np.ndarray | float:
    """np.power(u, e) bit for bit, with no call at e = 1 (u) or e = 0 (1.0)."""
    return u if e == 1.0 else 1.0 if e == 0.0 else np.power(u, e)


def solve_v(p: Params, u: np.ndarray, grid: Grid,
            tail_kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(v, v_x) for density values u; DomainError unless all are finite.

    u^gamma plateaus on the left and decays as e^{-gamma tail_kappa x}
    on the right (a plateau too at tail_kappa = 0).  u runs along its
    last axis: a (k, n) stack of densities is k solves in one call.
    """
    src = power(u, p.gamma)
    _require_finite(src, "u^gamma")
    v, vx = solve_pair(src, grid, p.gamma * tail_kappa)
    _require_finite(v, "v")
    _require_finite(vx, "v_x")
    return v, vx


def robin_rate(kappa: float, h: float) -> float:
    """Robin coefficient r of u_x = -r u whose ghost node is exact for e^{-kappa x}."""
    return math.sinh(kappa * h) / h


class StepTerms(NamedTuple):
    """The terms of the step at (u, v, v_x), each computed once.

    At chi = 0 the chemotactic ones (um1, gap and the drift w - c) are
    None: a step then reads no v, has no drift and no chemotactic source.
    """

    ua: np.ndarray                       # u^alpha
    um1: np.ndarray | float | None       # u^(m-1)
    gap: np.ndarray | None               # v - u^gamma
    drift: np.ndarray | None             # w - c = -chi m u^(m-1) v_x


def step_terms(p: Params, u: np.ndarray, v: np.ndarray | None,
               vx: np.ndarray | None) -> StepTerms:
    """The StepTerms at u; v and v_x are read only at chi != 0."""
    ua = power(u, p.alpha)
    if p.chi == 0.0:
        return StepTerms(ua, None, None, None)
    um1 = power(u, p.m - 1.0)
    return StepTerms(ua, um1, v - power(u, p.gamma),
                     advective_velocity(p, um1, vx, 0.0))


def advective_velocity(p: Params, um1: np.ndarray | float, vx: np.ndarray,
                       c: float) -> np.ndarray:
    """w = c - chi m u^(m-1) v_x, from um1 = u^(m-1)."""
    return c - p.chi * p.m * um1 * vx


def reaction_source(p: Params, u: np.ndarray, terms: StepTerms) -> np.ndarray:
    """-chi u^m (v - u^gamma) + u (1 - u^alpha); its last term at chi = 0."""
    logistic = u * (1.0 - terms.ua)
    if terms.gap is None:
        return logistic
    return -p.chi * power(u, p.m) * terms.gap + logistic


def reaction_derivative(p: Params, u: np.ndarray,
                        terms: StepTerms) -> np.ndarray:
    """d/du of reaction_source with v frozen."""
    logistic = 1.0 - (p.alpha + 1.0) * terms.ua
    if terms.gap is None:
        return logistic
    return logistic - p.chi * (p.m * terms.um1 * terms.gap
                               - p.gamma * power(u, p.m + p.gamma - 1.0))


def auto_dt(p: Params, u: np.ndarray, terms: StepTerms, h: float,
            pseudo_time: bool = False) -> float:
    """Automatic step at u: CFL on the drift w - c of terms, and the reaction bound.

    The frame speed c is advected implicitly, so it does not bound dt;
    at chi = 0 there is no drift and only the reaction bounds it.
    pseudo_time swaps the accuracy bound 0.1 / Rmax and cap DT_MAX for
    RELAX_REACTION / Rmax and RELAX_DT_MAX.
    """
    reaction, cap = ((RELAX_REACTION, RELAX_DT_MAX) if pseudo_time
                     else (0.1, DT_MAX))
    dt = math.inf
    if terms.drift is not None:
        vmax = float(np.abs(terms.drift).max())
        if vmax > 0:
            dt = 0.5 * h / vmax
    rmax = float(np.abs(reaction_derivative(p, u, terms)).max())
    if rmax > 0:
        dt = min(dt, reaction / rmax)
    return min(dt, cap)


def _ghosted(u: np.ndarray, h: float, robin_kappa: float) -> np.ndarray:
    """u with one ghost node per side: zero flux left, u_x = -robin_kappa u right."""
    return np.concatenate(([u[1]], u, [u[-2] - 2.0 * h * robin_kappa * u[-1]]))


def _diffusion_bands(n: int, h: float, dt: float, robin_kappa: float,
                     c: float) -> tuple[np.ndarray, ...]:
    """(sub, diag, sup) of the implicit matrix I - dt (D_xx + c D_x).

    D_x is centered.  Its ghost rows are zero flux on the left, where
    the frame term vanishes, and Robin on the right, where it adds
    c dt robin_kappa to the diagonal.  At c = 0 the matrix is I - dt D_xx
    to the bit.
    """
    r = dt / h**2
    a = c * dt / (2.0 * h)
    sub = np.full(n - 1, -r + a)
    sup = np.full(n - 1, -r - a)
    diag = np.full(n, 1.0 + 2.0 * r)
    sup[0] = -2.0 * r        # ghost rows: zero flux left, Robin right
    sub[-1] = -2.0 * r
    diag[-1] = 1.0 + 2.0 * r * (1.0 + h * robin_kappa) + c * dt * robin_kappa
    return sub, diag, sup


def _diffusion_factor(n: int, h: float, dt: float, robin_kappa: float,
                      c: float) -> tuple[np.ndarray, ...]:
    """LAPACK gttrf factor of the implicit matrix of _diffusion_bands.

    gttrs on this factor does gtsv's elimination, pivots included, bit
    for bit.  Its arrays are read-only: advance_imex keeps them in
    _factors.
    """
    *factor, info = lapack.dgttrf(*_diffusion_bands(n, h, dt, robin_kappa, c))
    if info != 0:
        raise InternalError(f"diffusion matrix factorization failed (info={info})")
    for a in factor:
        a.flags.writeable = False
    return tuple(factor)


# the last _RECENT_KEYS keys of implicit solves, least recent first, each
# with its _diffusion_factor, or None while it has been stepped once
_RECENT_KEYS = 4
_factors: dict[tuple, tuple[np.ndarray, ...] | None] = {}


def advance_imex(p: Params, u: np.ndarray, terms: StepTerms, c: float,
                 dt: float, grid: Grid, robin_kappa: float,
                 scheme: str = "upwind") -> np.ndarray:
    """One IMEX step of the expanded equation from u with its StepTerms.

    Solves (I - dt (D_xx + c D_x)) u_new = u + dt ((w - c) u_x + source):
    the frame advection is implicit and centered, the chemotactic drift
    w - c explicit.  Ghost nodes close the left edge with zero flux and
    the right edge with u_x = -robin_kappa u; at chi = 0 there is no
    drift, and no u_x is taken.  The implicit matrix is keyed on
    (n, h, dt, robin_kappa, c): a key that is not among the last
    _RECENT_KEYS keys stepped is solved by one gtsv and not factored; a
    recent key is factored once and solved by gttrs on the factor that
    _factors keeps with it.
    """
    h = grid.h
    n = grid.n
    # non-finite intermediates are caught below and reported as blow-up
    with np.errstate(invalid="ignore", over="ignore"):
        source = reaction_source(p, u, terms)
        w = terms.drift                             # w - c
        if w is not None:
            ue = _ghosted(u, h, robin_kappa)
            if scheme == "upwind":
                fwd = (ue[2:] - ue[1:-1]) / h
                bwd = (ue[1:-1] - ue[:-2]) / h
                ux = np.where(w > 0, fwd, bwd)
            else:
                ux = (ue[2:] - ue[:-2]) / (2.0 * h)
            source = w * ux + source
        rhs = u + dt * source
    if not np.isfinite(rhs).all():
        i = int(np.flatnonzero(~np.isfinite(rhs))[0])
        raise BlowupDetected(
            f"non-finite update at x={grid.x0 + i * h:.6g}",
            x=grid.x0 + i * h)

    key = (n, h, dt, robin_kappa, c)
    if key in _factors:
        factor = _factors.pop(key) or _diffusion_factor(*key)
        u_new, info = lapack.dgttrs(*factor, rhs, overwrite_b=True)
    else:
        factor = None
        if len(_factors) == _RECENT_KEYS:
            del _factors[next(iter(_factors))]
        *_, u_new, info = lapack.dgtsv(*_diffusion_bands(*key), rhs,
                                       overwrite_dl=True, overwrite_d=True,
                                       overwrite_du=True, overwrite_b=True)
    _factors[key] = factor
    if info != 0:
        raise InternalError(f"diffusion solve failed (info={info})")
    return u_new


def frozen_terms(p: Params, ue: np.ndarray, h: float) -> tuple:
    """The factors of the frozen-v operator that depend on u alone.

    At the interior nodes u of ue: u_x, u_xx (centered) and u (1 - u^alpha),
    and at chi != 0 also chi m u^(m-1), -chi u^m and u^gamma.
    """
    u = ue[1:-1]
    terms = ((ue[2:] - ue[:-2]) / (2.0 * h),
             (ue[2:] - 2.0 * u + ue[:-2]) / h**2,
             u * (1.0 - power(u, p.alpha)))
    if p.chi == 0.0:
        return terms
    return terms + (p.chi * p.m * power(u, p.m - 1.0), -p.chi * power(u, p.m),
                    power(u, p.gamma))


def frozen_residual(terms: tuple, v: np.ndarray, vx: np.ndarray,
                    c: float) -> np.ndarray:
    """The frozen-v operator at the nodes of terms, one row per row of v
    (at chi = 0, where it reads no v, one row)."""
    ux, uxx, logistic, *chemotactic = terms
    if not chemotactic:
        return uxx + c * ux + logistic
    drift, source, ug = chemotactic
    return uxx + (c - drift * vx) * ux + (source * (v - ug) + logistic)


def steady_residual(p: Params, u: np.ndarray, v: np.ndarray, vx: np.ndarray,
                    c: float, grid: Grid,
                    robin_kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(u_t, u_x): the frozen-v operator at u with the step's ghost nodes.

    A zero u_t is a fixed point of the centered advance_imex step with the
    same (v, v_x), c and robin_kappa, at any dt.
    """
    terms = frozen_terms(p, _ghosted(u, grid.h, robin_kappa), grid.h)
    return frozen_residual(terms, v, vx, c), terms[0]


def _check_finite(u: np.ndarray, t: float, grid: Grid) -> None:
    if not np.isfinite(u).all():
        i = int(np.flatnonzero(~np.isfinite(u))[0])
        raise BlowupDetected(
            f"non-finite state at t={t:.6g}, x={grid.x0 + i * grid.h:.6g}",
            t=t, x=grid.x0 + i * grid.h)


def march(config: SimConfig, u0: Field) -> Iterator[tuple]:
    """Step u0 to t_end: yields (t, u, v, v_x, dt, clamped, sample).

    The first yield is the initial state (dt 0); then one per clamped
    IMEX step.  u, v and v_x are read-only arrays.  dt is config.dt or
    automatic; it must clear DT_FLOOR before it is capped so that a step
    lands on every multiple of output_every and on t_end.  sample marks
    those landings and the final state.  A run whose least step count,
    t_end over dt or over the automatic cap (DT_MAX, or RELAX_DT_MAX
    under config.pseudo_time), is above MAX_INNER_STEPS is refused before
    its first step with StepBudgetError (a fixed dt below DT_FLOOR fails
    that step instead), and an automatic-dt run that needs more steps
    ends in StiffnessError.  Each step builds its StepTerms once, for
    auto_dt and advance_imex.  v is refreshed from the new u after every
    step, except at chi = 0: the step's terms then read no v, so v is
    solved at samples only and yielded as None (v_x too) in between;
    u^gamma is still checked.
    """
    p, grid = config.params, config.grid
    if u0.grid != grid:
        raise DomainError("u0 grid does not match config.grid")
    if u0.min() < 0:
        raise DomainError("u0 must be nonnegative")
    cap = RELAX_DT_MAX if config.pseudo_time else DT_MAX
    largest_dt = config.dt or cap
    least_steps = config.t_end / largest_dt
    # a fixed dt below DT_FLOOR is left to fail its first step
    if largest_dt >= DT_FLOOR and least_steps > MAX_INNER_STEPS:
        dt = f"{config.dt:g}" if config.dt else f"auto (at most {cap:g})"
        raise StepBudgetError(
            f"--t-end {config.t_end:g} at --dt {dt} needs at least "
            f"{least_steps:.3g} steps, over the budget of {MAX_INNER_STEPS:,}")

    robin_kappa = robin_rate(config.tail_kappa, grid.h)
    u = u0.values
    v, vx = solve_v(p, u, grid, config.tail_kappa)
    v.flags.writeable = vx.flags.writeable = False
    t = 0.0
    yield t, u, v, vx, 0.0, 0, True

    next_out = config.output_every
    steps = 0
    while t < config.t_end - LANDING_SLACK:
        terms = step_terms(p, u, v, vx)
        dt = config.dt
        if dt is None:
            if steps == MAX_INNER_STEPS:
                raise StiffnessError(
                    f"automatic dt took {steps:,} steps to t = {t:.6g} of "
                    f"t_end {config.t_end:g}: step budget exhausted")
            dt = auto_dt(p, u, terms, grid.h, config.pseudo_time)
        steps += 1
        if dt < DT_FLOOR:
            raise StiffnessError(f"dt underflow: {dt:.3e} < {DT_FLOOR:g}")
        dt = min(dt, next_out - t, config.t_end - t)
        u = advance_imex(p, u, terms, config.frame_speed, dt, grid,
                         robin_kappa, config.scheme)
        clamped = 0
        if u.min() < 0:
            clamped = int((u < 0).sum())
            u = np.maximum(u, 0.0)
        t += dt
        _check_finite(u, t, grid)
        u.flags.writeable = False
        sample = t >= next_out - LANDING_SLACK
        if sample:
            next_out = round(next_out / config.output_every + 1) * config.output_every
        sample = sample or t >= config.t_end - LANDING_SLACK
        # v is solved after a step that read it, and at samples
        if terms.gap is not None or sample:
            v, vx = solve_v(p, u, grid, config.tail_kappa)
            v.flags.writeable = vx.flags.writeable = False
            yield t, u, v, vx, dt, clamped, sample
        else:
            # u >= 0, so u^gamma is finite exactly when max(u)^gamma is
            _require_finite(power(u.max(), p.gamma), "u^gamma")
            yield t, u, None, None, dt, clamped, sample


def run(config: SimConfig, u0: Field) -> tuple[State, Monitors, list[State]]:
    """Integrate to t_end, recording monitors and snapshots at march's samples."""
    grid, x = config.grid, config.grid.x
    monitors, snapshots = Monitors(), []
    for t, u, v, _, dt, clamped, sample in march(config, u0):
        monitors.stats.add(dt, clamped)
        if sample:
            monitors.record(t, u, x)
            snapshots.append(State(t, Field(grid, u), Field(grid, v)))
    stats = monitors.stats
    if stats.clamp_count > 1e-3 * stats.steps * grid.n:
        monitors.warnings.append(
            f"clamp_count {stats.clamp_count} exceeds 0.1% of node-steps")
    return snapshots[-1], monitors, snapshots


def monitor_bounds(state: State, params: Params, u0_sup: float) -> list[str]:
    """Named violations of the sup bounds; empty when all tracked bounds hold.

    chi <= 0: sup u <= max{1, sup u0}.  In the positive regime with
    alpha = m+gamma-1 the ODE envelope gives sup u <= max{M_chi, sup u0}.
    For chi > 0 with alpha > m+gamma-1 boundedness has no explicit
    constant, so the monitor only records; outside all regimes it is
    disabled.
    """
    sup_u = state.u.max()
    if params.chi <= 0:
        bound = max(1.0, u0_sup)
        if sup_u > bound + MONITOR_SLACK:
            return [f"sup exceeds max{{1, sup u0}}: {sup_u:.6g} > {bound:.6g}"]
        return []
    tag = classify_regime(params)
    if tag is RegimeTag.POS_CHI_ALPHA_EQ:
        bound = max(M_chi(params), u0_sup)
        if sup_u > bound + MONITOR_SLACK:
            return [f"sup exceeds max{{M_chi, sup u0}}: {sup_u:.6g} > {bound:.6g}"]
        return []
    if tag is RegimeTag.POS_CHI_ALPHA_GT:
        return [f"not applicable: no explicit bound in this regime (sup_u={sup_u:.6g})"]
    return ["not applicable: parameters outside tracked regimes"]

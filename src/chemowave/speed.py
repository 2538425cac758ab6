"""Spreading-speed measurement from compactly supported initial data.

A lab-frame run is tracked through the rightmost crossing of the level
1/2; the asymptotic spreading speed is the slope of a linear
fit of front position against time over the last half of the run.  The
domain auto-extends once (with a warning) if the front comes within 10
length units of the right boundary.
"""

from __future__ import annotations

import math
import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cauchy import FRONT_LEVEL, SimConfig, run
from .errors import DomainError, NoFront
from .fields import Field, Grid, level_crossings
from .params import Params, c_star, constants_report

BOUNDARY_MARGIN = 10.0


@dataclass
class FrontTrack:
    level: float
    times: np.ndarray
    positions: np.ndarray
    fitted_speed: float
    fit_r2: float
    extended: bool = False


def front_position(u: Field, level: float) -> float:
    """Rightmost crossing abscissa of ``level`` by linear interpolation."""
    crossings = level_crossings(u.grid.x, u.values, level)
    if crossings.size == 0:
        raise NoFront(f"field never crosses level {level}")
    return float(crossings[-1])


def _fit(times: np.ndarray, positions: np.ndarray) -> tuple[float, float]:
    ok = np.isfinite(positions)
    t, pos = times[ok], positions[ok]
    if t.size < 3:
        raise NoFront("not enough tracked front positions for a fit")
    cut = t >= t.max() / 2.0
    t, pos = t[cut], pos[cut]
    slope, icept = np.polyfit(t, pos, 1)
    resid = pos - (slope * t + icept)
    ss_tot = float(((pos - pos.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def _extend_right(grid: Grid, u: np.ndarray, extra: float) -> tuple[Grid, np.ndarray]:
    n_add = int(math.ceil(extra / grid.h))
    g2 = Grid(grid.x0, grid.h, grid.n + n_add)
    return g2, np.concatenate([u, np.zeros(n_add)])


def spreading_speed(config: SimConfig, u0: Field) -> FrontTrack:
    """Track the front of a lab-frame run and fit its asymptotic speed.

    The run proceeds in chunks; whenever the front first comes within 10
    length units of the right boundary the grid is extended once, with a
    warning, by enough room for the remaining time.
    """
    if config.frame_speed != 0.0:
        raise DomainError("spreading speed is measured in the lab frame")
    if config.t_end < 40.0:
        raise DomainError("t_end must be >= 40 for a usable fit window")
    if u0.min() < 0 or u0.max() == 0.0:
        raise DomainError("u0 must be nonnegative and not identically zero")

    cfg = config
    u = u0
    times: list[float] = []
    positions: list[float] = []
    t0 = 0.0
    extended = False
    chunk = 2.0 * cfg.output_every
    while t0 < cfg.t_end - 1e-9:
        span = min(chunk, cfg.t_end - t0)
        final, monitors, _ = run(replace(cfg, t_end=span), u)
        skip = 1 if t0 > 0 else 0
        times.extend(t0 + t for t in monitors.times[skip:])
        positions.extend(monitors.front_x[skip:])
        t0 += final.t
        u = final.u
        last = positions[-1]
        if (not extended and np.isfinite(last)
                and last > cfg.grid.x1 - BOUNDARY_MARGIN
                and t0 < cfg.t_end - 1e-9):
            warnings.warn("front within 10 units of the right boundary; "
                          "extending the grid once")
            extra = 2.5 * (cfg.t_end - t0) + 2 * BOUNDARY_MARGIN
            g2, uv = _extend_right(cfg.grid, u.values, extra)
            cfg = replace(cfg, grid=g2)
            u = Field(g2, uv)
            extended = True

    t_arr = np.array(times)
    p_arr = np.array(positions)
    speed, r2 = _fit(t_arr, p_arr)
    return FrontTrack(level=FRONT_LEVEL, times=t_arr, positions=p_arr,
                      fitted_speed=speed, fit_r2=r2, extended=extended)


# ----------------------------------------------------------------------
# Parameter sweep
# ----------------------------------------------------------------------

SWEEP_HEADER = ("chi", "m", "alpha", "gamma", "c_fit", "r2", "c_star", "c_star_star")


def _sweep_one(args) -> tuple:
    chi, m, alpha, gamma, grid_args, t_end, dt = args
    cs = css = math.nan
    try:
        p = Params(chi, m, alpha, gamma)
        cs = c_star(p)
        css = constants_report(p).c_star_star
        grid = Grid(*grid_args)
        cfg = SimConfig(params=p, grid=grid, t_end=t_end, dt=dt,
                        output_every=1.0)
        u0 = Field(grid, np.where(np.abs(grid.x) <= 1.0, 0.5, 0.0))
        track = spreading_speed(cfg, u0)
        return (chi, m, alpha, gamma, track.fitted_speed, track.fit_r2, cs, css)
    except Exception as exc:            # per-row failures must not kill the sweep
        warnings.warn(f"sweep row (chi={chi}, m={m}, alpha={alpha}, "
                      f"gamma={gamma}) failed: {exc}")
        return (chi, m, alpha, gamma, math.nan, math.nan, cs, css)


def sweep_speeds(chis, ms, alphas, gammas, grid: Grid, t_end: float,
                 dt: float | None, jobs: int = 1) -> list[tuple]:
    """One row per (chi, m, alpha, gamma) in lexicographic order."""
    combos = [(chi, m, a, g, (grid.x0, grid.h, grid.n), t_end, dt)
              for chi, m, a, g in itertools.product(chis, ms, alphas, gammas)]
    if jobs > 1 and len(combos) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, combos))
    else:
        rows = [_sweep_one(c) for c in combos]
    return rows

"""Spreading-speed measurement from compactly supported initial data.

The run is one `cauchy.run` in the frame moving at FRAME_SPEED = 2, the
spreading speed at chi = 0.  A pulled front lags 2t by (3/2) ln t
(Bramson), so in that frame it barely moves and a fixed window holds
it: the front is the rightmost crossing of the level 1/2, tracked in
the frame and reported in the lab frame as front_x + 2 t.  The
asymptotic spreading speed is the slope of a linear fit of front
position against time over the last half of the run (t >= t_end / 2).
Every sample in that half must have a front at least BOUNDARY_MARGIN
inside both edges of the window; otherwise NoFront names the grid
flag to widen.
"""

from __future__ import annotations

import math
import itertools
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cauchy import FRONT_LEVEL, SimConfig, run
from .errors import DomainError, NoFront
from .fields import Field, Grid, level_crossings
from .params import Params, c_star, constants_report

FRAME_SPEED = 2.0
BOUNDARY_MARGIN = 10.0


@dataclass
class FrontTrack:
    level: float
    times: np.ndarray
    positions: np.ndarray            # lab frame
    fitted_speed: float
    fit_r2: float


def compact_datum(grid: Grid) -> Field:
    """The compact initial datum of every speed run: 1/2 on |x| <= 1, else 0."""
    return Field(grid, np.where(np.abs(grid.x) <= 1.0, 0.5, 0.0))


def front_position(u: Field, level: float) -> float:
    """Rightmost crossing abscissa of ``level`` by linear interpolation."""
    crossings = level_crossings(u.grid.x, u.values, level)
    if crossings.size == 0:
        raise NoFront(f"field never crosses level {level}")
    return float(crossings[-1])


def _fit(times: np.ndarray, positions: np.ndarray) -> tuple[float, float]:
    slope, icept = np.polyfit(times, positions, 1)
    resid = positions - (slope * times + icept)
    ss_tot = float(((positions - positions.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def spreading_speed(config: SimConfig, u0: Field) -> FrontTrack:
    """Track the front of a lab-frame problem and fit its asymptotic speed.

    config is a lab-frame configuration; it is run in the frame moving
    at FRAME_SPEED.  NoFront if a sample of the fit half has no front
    or one within BOUNDARY_MARGIN of an edge of the window.
    """
    if config.frame_speed != 0.0:
        raise DomainError("spreading speed is measured in the lab frame")
    if config.t_end < 40.0:
        raise DomainError("t_end must be >= 40 for a usable fit window")
    if u0.min() < 0 or u0.max() == 0.0:
        raise DomainError("u0 must be nonnegative and not identically zero")

    grid = config.grid
    _, monitors, _ = run(replace(config, frame_speed=FRAME_SPEED), u0)
    times, frame_x = np.array(monitors.times), np.array(monitors.front_x)
    fit = times >= times[-1] / 2.0
    if fit.sum() < 3:
        raise NoFront("not enough tracked front positions for a fit")
    for t, x, inf_u in zip(times[fit], frame_x[fit], np.array(monitors.inf_u)[fit]):
        # u above the level everywhere: the front has left on the right
        side = ("right" if x > grid.x1 - BOUNDARY_MARGIN or inf_u > FRONT_LEVEL
                else None if x >= grid.x0 + BOUNDARY_MARGIN else "left")
        if side:
            raise NoFront(
                f"front lost or within {BOUNDARY_MARGIN:g} of the {side} edge "
                f"of the co-moving window at t = {t:g}; widen it with --grid-{side}")
    positions = frame_x + FRAME_SPEED * times
    speed, r2 = _fit(times[fit], positions[fit])
    return FrontTrack(level=FRONT_LEVEL, times=times, positions=positions,
                      fitted_speed=speed, fit_r2=r2)


# ----------------------------------------------------------------------
# Parameter sweep
# ----------------------------------------------------------------------

SWEEP_HEADER = ("chi", "m", "alpha", "gamma", "c_fit", "r2", "c_star", "c_star_star")


def _sweep_one(config: SimConfig, combo: tuple) -> tuple[tuple, str | None]:
    """(row, None), or (row with NaN c_fit and r2, why the run failed)."""
    cs = css = math.nan
    try:
        p = Params(*combo)
        cs = c_star(p)
        css = constants_report(p).c_star_star
        track = spreading_speed(replace(config, params=p),
                                compact_datum(config.grid))
        return (*combo, track.fitted_speed, track.fit_r2, cs, css), None
    except Exception as exc:            # per-row failures must not kill the sweep
        where = ", ".join(f"{k}={v}" for k, v in zip(SWEEP_HEADER, combo))
        return (*combo, math.nan, math.nan, cs, css), f"sweep row ({where}) failed: {exc}"


def sweep_speeds(chis, ms, alphas, gammas, config: SimConfig,
                 jobs: int = 1) -> list[tuple]:
    """One row per (chi, m, alpha, gamma) in lexicographic order, each a
    run of config with those params from the compact datum; a failed row
    has NaN c_fit and r2 and is warned about in the calling process."""
    combos = list(itertools.product(chis, ms, alphas, gammas))
    # no row depends on the worker that runs it, so the cap keeps every bit
    workers = min(jobs, len(combos), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a serial sweep, and every other CLI call, would
        # otherwise pay for multiprocessing at start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, itertools.repeat(config),
                                    combos))
    else:
        results = [_sweep_one(config, combo) for combo in combos]
    for _, failure in results:
        if failure is not None:
            warnings.warn(failure, stacklevel=2)
    return [row for row, _ in results]

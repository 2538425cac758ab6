"""Spreading-speed measurement from compactly supported initial data.

The run is one `cauchy.march` in the frame moving at FRAME_SPEED = 2,
the spreading speed at chi = 0.  A pulled front lags 2t by (3/2) ln t
(Bramson), so in that frame it barely moves and a fixed window holds
it: the front is the rightmost crossing of the level 1/2, tracked in
the frame and reported in the lab frame as front_x + 2 t.  The
asymptotic spreading speed is the slope of a linear fit of front
position against time over the last half of the run (t >= t_end / 2
less march's LANDING_SLACK, so round-off in t drops no sample).
Every sample in that half must have a front at least BOUNDARY_MARGIN
inside both edges of the window; the first that has not stops the run
with NoFront, which names the grid flag to widen.  A sweep makes one
run per distinct set of parameters that the run reads: rows at chi = 0
that differ only in m and gamma share theirs.
"""

from __future__ import annotations

import math
import itertools
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cauchy import (FRONT_LEVEL, LANDING_SLACK, Monitors, SimConfig,
                     StepStats, march)
from .errors import DomainError, NoFront
from .fields import Field, Grid, level_crossings
from .params import Params, c_star, constants_report

FRAME_SPEED = 2.0
BOUNDARY_MARGIN = 10.0


@dataclass
class FrontTrack:
    times: np.ndarray
    positions: np.ndarray            # lab frame
    fitted_speed: float
    fit_r2: float
    stats: StepStats                 # time steps of the run


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
    at FRAME_SPEED.  NoFront at the first sample of the fit half with no
    front or one within BOUNDARY_MARGIN of an edge of the window.
    """
    if config.frame_speed != 0.0:
        raise DomainError("spreading speed is measured in the lab frame")
    if config.t_end < 40.0:
        raise DomainError("t_end must be >= 40 for a usable fit window")
    if u0.min() < 0 or u0.max() == 0.0:
        raise DomainError("u0 must be nonnegative and not identically zero")

    grid, nodes = config.grid, config.grid.x
    fit_from = config.t_end / 2.0 - LANDING_SLACK
    monitors = Monitors()
    for t, u, _, _, dt, clamped, sample in march(
            replace(config, frame_speed=FRAME_SPEED), u0):
        monitors.stats.add(dt, clamped)
        if not sample:
            continue
        monitors.record(t, u, nodes)
        x, inf_u = monitors.front_x[-1], monitors.inf_u[-1]
        # u above the level everywhere: the front has left on the right
        side = ("right" if x > grid.x1 - BOUNDARY_MARGIN or inf_u > FRONT_LEVEL
                else None if x >= grid.x0 + BOUNDARY_MARGIN else "left")
        if side and t >= fit_from:
            raise NoFront(
                f"front lost or within {BOUNDARY_MARGIN:g} of the {side} edge "
                f"of the co-moving window at t = {t:g}; widen it with --grid-{side}")
    times, frame_x = np.array(monitors.times), np.array(monitors.front_x)
    fit = times >= fit_from
    if fit.sum() < 3:
        raise NoFront("not enough tracked front positions for a fit")
    positions = frame_x + FRAME_SPEED * times
    speed, r2 = _fit(times[fit], positions[fit])
    return FrontTrack(times=times, positions=positions, fitted_speed=speed,
                      fit_r2=r2, stats=monitors.stats)


# ----------------------------------------------------------------------
# Parameter sweep
# ----------------------------------------------------------------------

SWEEP_HEADER = ("chi", "m", "alpha", "gamma", "c_fit", "r2", "c_star", "c_star_star")


class SweepRows(list):
    """sweep_speeds' rows, and in `runs` the number of runs they took."""

    def __init__(self, rows, runs: int):
        super().__init__(rows)
        self.runs = runs


def _run_key(combo: tuple) -> tuple:
    """What the run of a (chi, m, alpha, gamma) row reads of its parameters.

    At chi = 0 every term that carries m or gamma is multiplied by chi,
    so rows that differ only in m and gamma are one run.  Sharing it
    skips no check: from the compact datum u stays <= max(1, sup u0) = 1
    (max u - 1 over every step of the default run is -4.5e-7), so
    march's check that u^gamma is finite passes for every gamma alike.
    """
    chi, _, alpha, _ = combo
    return (0.0, alpha) if chi == 0.0 else combo


def _sweep_group(config: SimConfig, combos: list) -> tuple[list, bool]:
    """Rows of combos that share one run, and whether that run was made.

    Each row is validated on its own and comes as (row, None), or as
    (row with NaN c_fit and r2, why it failed); the run takes the params
    of the first row that validates.
    """
    heads, run_config = [], None
    for combo in combos:
        cs = css = math.nan
        try:
            p = Params(*combo)
            cs = c_star(p)
            css = constants_report(p).c_star_star
        except Exception as exc:        # per-row failures must not kill the sweep
            heads.append((combo, cs, css, str(exc)))
            continue
        heads.append((combo, cs, css, None))
        if run_config is None:
            run_config = replace(config, params=p)
    fit, run_failure = (math.nan, math.nan), None
    if run_config is not None:
        try:
            track = spreading_speed(run_config, compact_datum(config.grid))
            fit = (track.fitted_speed, track.fit_r2)
        except Exception as exc:
            run_failure = str(exc)
    results = []
    for combo, cs, css, failure in heads:
        if failure is None:
            failure = run_failure
        if failure is None:
            results.append(((*combo, *fit, cs, css), None))
            continue
        where = ", ".join(f"{k}={v}" for k, v in zip(SWEEP_HEADER, combo))
        results.append(((*combo, math.nan, math.nan, cs, css),
                        f"sweep row ({where}) failed: {failure}"))
    return results, run_config is not None


def sweep_speeds(chis, ms, alphas, gammas, config: SimConfig,
                 jobs: int = 1) -> SweepRows:
    """One row per (chi, m, alpha, gamma) in lexicographic order, each a
    run of config with those params from the compact datum.  Rows with
    one _run_key share their run, and `runs` counts the runs made.  A
    failed row has NaN c_fit and r2 and is warned about in the calling
    process."""
    combos = list(itertools.product(chis, ms, alphas, gammas))
    groups: dict[tuple, list[int]] = {}
    for i, combo in enumerate(combos):
        groups.setdefault(_run_key(combo), []).append(i)
    tasks = [[combos[i] for i in group] for group in groups.values()]
    # no run depends on the worker that makes it, so the cap keeps every bit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a serial sweep, and every other CLI call, would
        # otherwise pay for multiprocessing at start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_group, itertools.repeat(config),
                                 tasks))
    else:
        done = [_sweep_group(config, task) for task in tasks]
    results = [None] * len(combos)
    for group, (group_results, _) in zip(groups.values(), done):
        for i, result in zip(group, group_results):
            results[i] = result
    for _, failure in results:
        if failure is not None:
            warnings.warn(failure, stacklevel=2)
    return SweepRows([row for row, _ in results],
                     runs=sum(ran for _, ran in done))

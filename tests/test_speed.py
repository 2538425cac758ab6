"""Front tracking and spreading-speed measurement."""

import concurrent.futures
import functools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from chemowave import speed
from chemowave.cauchy import Monitors, SimConfig
from chemowave.errors import DomainError, NoFront
from chemowave.fields import Field, Grid, level_crossings
from chemowave.params import Params, c_star, constants_report
from chemowave.speed import (SWEEP_HEADER, front_position, spreading_speed,
                             sweep_speeds)


def test_front_position_examples():
    g = Grid.from_bounds(-10, 20, 0.001)
    u = Field(g, np.minimum(1.0, np.exp(-0.5 * (g.x - 3.0))))
    assert front_position(u, 0.5) == pytest.approx(3.0 + 2.0 * math.log(2.0),
                                                   abs=1e-6)
    flat = Field(g, np.full(g.n, 0.1))
    with pytest.raises(NoFront):
        front_position(flat, 0.5)
    step = Field(g, (g.x < 5.0).astype(float))
    assert abs(front_position(step, 0.5) - 5.0) <= g.h


def test_front_position_rightmost():
    g = Grid.from_bounds(-10, 10, 0.01)
    u = Field(g, 0.8 * np.exp(-((g.x + 5) / 1.5) ** 2)
              + 0.8 * np.exp(-((g.x - 5) / 1.5) ** 2))
    pos = front_position(u, 0.5)
    assert 5.0 < pos < 7.0


def test_level_crossings_match_scalar_loop():
    # exact node hits count once at the node; strict sign changes are
    # interpolated with the same arithmetic as a per-interval loop
    x = np.linspace(-2.0, 2.0, 41)
    u = np.array([0.5 if k in (3, 4, 20) else 0.5 + math.sin(3.0 * xi)
                  for k, xi in enumerate(x)])
    d = u - 0.5
    ref = [float(x[i]) for i in range(x.size) if d[i] == 0.0]
    ref += [float(x[i] + (x[i + 1] - x[i]) * d[i] / (d[i] - d[i + 1]))
            for i in range(x.size - 1) if d[i] * d[i + 1] < 0.0]
    got = level_crossings(x, u, 0.5)
    assert got.tolist() == sorted(ref)
    assert level_crossings(x, np.zeros(x.size), 0.5).size == 0


def test_spreading_speed_preconditions():
    p = Params(0.0)
    g = Grid.from_bounds(-20, 60, 0.1)
    u0 = Field(g, np.where(np.abs(g.x) < 1, 0.5, 0.0))
    with pytest.raises(DomainError):
        spreading_speed(SimConfig(params=p, grid=g, t_end=10.0), u0)
    cfg = SimConfig(params=p, grid=g, t_end=40.0, frame_speed=3.0)
    with pytest.raises(DomainError):
        spreading_speed(cfg, u0)
    with pytest.raises(DomainError):
        spreading_speed(SimConfig(params=p, grid=g, t_end=40.0),
                        Field(g, np.zeros(g.n)))


def test_spreading_speed_translation_invariance():
    p = Params(0.0)
    speeds = []
    for shift in (0.0, 10.0):
        g = Grid.from_bounds(-30, 140, 0.1)
        cfg = SimConfig(params=p, grid=g, t_end=40.0, dt=0.02, output_every=1.0)
        u0 = Field(g, np.where(np.abs(g.x - shift) <= 1.0, 0.5, 0.0))
        speeds.append(spreading_speed(cfg, u0).fitted_speed)
    assert abs(speeds[0] - speeds[1]) < 1e-3


@functools.lru_cache(maxsize=None)
def _track(chi: float, left: float = -40.0, right: float = 40.0):
    g = Grid.from_bounds(left, right, 0.05)
    cfg = SimConfig(params=Params(chi), grid=g, t_end=60.0, dt=0.02,
                    output_every=1.0)
    return spreading_speed(cfg, Field(g, np.where(np.abs(g.x) <= 1.0, 0.5, 0.0)))


def test_spreading_speed_front_leaving_window_raises():
    # chi = -12 outruns the speed-2 frame: its front comes within the
    # margin of the right edge of the default window in the fit half
    with pytest.raises(NoFront, match="--grid-right"):
        _track(-12.0)
    # chi = -8 is faster than 2 too, but its frame front peaks near 24
    assert _track(-8.0).fitted_speed > 2.0


def test_spreading_speed_front_near_left_edge_raises():
    # the chi = 0 front lags the frame by ~(3/2) ln t and sits near
    # x = -8 in the fit half, inside the margin of a window from -15
    with pytest.raises(NoFront, match="--grid-left"):
        _track(0.0, left=-15.0)


@pytest.mark.parametrize("chi", [0.0, 0.5])
def test_bramson_corrected_speed_is_two(chi):
    # a pulled front sits at 2t - (3/2) ln t + O(1) (Bramson); the plain
    # fit reads ~1.966 either way, the corrected one sees a 0.5% error
    track = _track(chi)
    t = track.times
    cut = (t >= 30.0) & (t <= 60.0)
    c = np.polyfit(t[cut], track.positions[cut] + 1.5 * np.log(t[cut]), 1)[0]
    assert abs(c - 2.0) < 0.01


def test_fitted_speed_independent_of_window():
    # the default [-40, 40], then a narrower and a wider window
    speeds = [_track(0.0).fitted_speed] + [
        _track(0.0, left, right).fitted_speed
        for left, right in ((-20.0, 40.0), (-40.0, 60.0))]
    assert max(speeds) - min(speeds) < 1e-4


def test_speed_converges_from_below_in_h():
    p = Params(0.0)
    speeds = {}
    for h in (0.1, 0.05, 0.025):
        g = Grid.from_bounds(-30, 140, h)
        cfg = SimConfig(params=p, grid=g, t_end=45.0, dt=0.02, output_every=1.0)
        u0 = Field(g, np.where(np.abs(g.x) <= 1.0, 0.5, 0.0))
        speeds[h] = spreading_speed(cfg, u0).fitted_speed
    for h, v in speeds.items():
        assert v < 2.0
    assert speeds[0.025] >= speeds[0.1] - 1e-3


def _sweep_config():
    # params are replaced row by row
    return SimConfig(params=Params(0.0), grid=Grid.from_bounds(-30, 120, 0.1),
                     t_end=40.0, dt=0.05, output_every=1.0)


@pytest.mark.parametrize("t30", [30.0, 29.999999999999446],
                         ids=["landed-exactly", "accumulated-short"])
def test_fit_half_does_not_rest_on_round_off(monkeypatch, t30):
    # march's t = 30 sample is 30.0 at dt 0.01 or auto, and
    # 29.999999999999446 at dt 0.02: either way it opens the fit half
    times = np.arange(61.0)
    times[30] = t30
    lag = -1.5 * np.log1p(times)            # Bramson's lag behind the frame
    monitors = Monitors(times=list(times), front_x=list(lag),
                        inf_u=[0.0] * times.size)
    monkeypatch.setattr(speed, "run", lambda config, u0: (None, monitors, []))
    g = Grid.from_bounds(-40, 40, 0.05)
    track = spreading_speed(SimConfig(Params(0.0), g, t_end=60.0),
                            speed.compact_datum(g))
    want, _ = speed._fit(np.arange(30.0, 61.0), np.arange(30.0, 61.0) * 2.0
                         - 1.5 * np.log1p(np.arange(30.0, 61.0)))
    assert track.fitted_speed == pytest.approx(want, abs=1e-12)


def test_sweep_rows_lexicographic():
    rows = sweep_speeds([0.0, 0.5], [1.0], [1.0], [1.0, 2.0], _sweep_config())
    assert len(rows) == 4
    keys = [(r[0], r[1], r[2], r[3]) for r in rows]
    assert keys == sorted(keys)
    assert len(SWEEP_HEADER) == len(rows[0])
    chi0 = rows[0]
    assert chi0[4] == pytest.approx(2.0, rel=0.06)   # c_fit
    assert chi0[6] == 2.0                            # c_star at chi=0


def test_sweep_empty():
    assert sweep_speeds([], [1.0], [1.0], [1.0], _sweep_config()) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_failed_row_logged(jobs):
    # m = 0.5 is refused row by row; the warnings reach the calling
    # process also from pool workers
    with pytest.warns(UserWarning, match="failed") as caught:
        rows = sweep_speeds([0.0, 0.25], [0.5], [1.0], [1.0], _sweep_config(),
                            jobs=jobs)
    assert len([w for w in caught if "sweep row" in str(w.message)]) == 2
    assert len(rows) == 2 and rows.runs == 0
    assert all(math.isnan(row[4]) and math.isnan(row[5]) for row in rows)


def _auto_sweep_config():
    # a narrower window that still holds every row's front, automatic dt
    return replace(_sweep_config(), grid=Grid.from_bounds(-30, 30, 0.1),
                   dt=None)


def test_sweep_parallel_jobs_match_serial():
    # the two chi = 0 rows share one run, in the pool as in process
    config = _auto_sweep_config()
    axes = ([0.0, -0.5], [1.0], [1.0], [1.0, 2.0])
    serial = sweep_speeds(*axes, config, jobs=1)
    parallel = sweep_speeds(*axes, config, jobs=2)
    assert serial == parallel
    assert serial.runs == parallel.runs == 3


@pytest.mark.parametrize("axes, runs", [
    (([0.0, 0.5], [1.0], [1.0], [1.0, 2.0]), 3),
    (([0.0], [1.0, 2.0], [1.0, 2.0], [3.0]), 2),
], ids=["chi-gamma", "chi0-m-alpha-gamma"])
def test_sweep_rows_equal_their_own_runs(axes, runs):
    # rows at chi = 0 that differ only in m and gamma share one run; each
    # still equals the run of its own params, bit for bit
    config = _auto_sweep_config()
    rows = sweep_speeds(*axes, config)
    assert rows.runs == runs
    for row in rows:
        p = Params(*row[:4])
        track = spreading_speed(replace(config, params=p),
                                speed.compact_datum(config.grid))
        assert row == (*row[:4], track.fitted_speed, track.fit_r2,
                       c_star(p), constants_report(p).c_star_star)


def test_sweep_shared_run_keeps_each_row_check():
    # the m = 0.5 row shares its run key with the m = 1 row, is listed
    # first, and still fails alone; the run takes the valid row's params
    with pytest.warns(UserWarning, match="sweep row") as caught:
        rows = sweep_speeds([0.0], [0.5, 1.0], [1.0], [1.0],
                            _auto_sweep_config())
    failed = [str(w.message) for w in caught if "sweep row" in str(w.message)]
    assert len(failed) == 1 and "m=0.5" in failed[0]
    assert math.isnan(rows[0][4]) and math.isnan(rows[0][5])
    assert rows[1][4] == pytest.approx(2.0, rel=0.06)
    assert rows.runs == 1


def test_sweep_caps_the_worker_pool(monkeypatch):
    # a recording stand-in for the pool: no process starts
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def sweep():
        # m = 0.5 rows are refused at once, so the runs cost nothing
        with pytest.warns(UserWarning, match="sweep row"):
            return sweep_speeds([0.0, 0.25], [0.5], [1.0], [1.0],
                                _sweep_config(), jobs=5000)

    # sweep_speeds imports the pool class only when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert len(sweep()) == 2
    assert asked == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sweep()
    assert asked == [2]         # no known CPU count: the rows run in process

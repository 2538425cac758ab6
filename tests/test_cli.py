"""CLI: config parsing, dispatch, exit codes, deterministic outputs."""

import hashlib
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import time
import warnings
from importlib.metadata import version
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chemowave
from chemowave import barriers, waves
from chemowave.cauchy import DT_MAX, RELAX_DT_MAX, SimConfig
from chemowave.cli import (DEFAULTS, _NUMERIC, SUBCOMMANDS, _flag, emit_plot,
                           main, parse_config)
from chemowave.errors import DomainError
from chemowave.fields import Grid
from chemowave.params import Params
from chemowave.speed import compact_datum, spreading_speed, sweep_speeds
from chemowave.waves import NEWTON_TOL, fitted_frame_speed


def run_cli(args, monkeypatch=None, env=None):
    return main(args)


def test_parse_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("chi=-1\n# a comment\nt_end = 5\n")
    cfg = parse_config(str(cfg_file), {"chi": "0"})
    assert cfg["chi"] == 0.0          # flag overrides file
    assert cfg["t_end"] == 5.0        # file overrides default
    assert cfg["m"] == 1.0            # default


def test_parse_config_empty_file_gives_defaults(tmp_path):
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text("")
    cfg = parse_config(str(cfg_file), {})
    assert cfg["chi"] == 0.0 and cfg["c"] == 3.0 and cfg["dt"] is None


def test_parse_config_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("speed=3\n")
    with pytest.raises(DomainError, match="unknown config key 'speed'"):
        parse_config(str(bad_key), {})
    bad_num = tmp_path / "num.cfg"
    bad_num.write_text("chi=abc\n")
    with pytest.raises(DomainError, match="chi"):
        parse_config(str(bad_num), {})
    with pytest.raises(DomainError, match="unknown method"):
        parse_config(None, {"method": "Sorcery"})
    # non-finite values would make a run spin forever or blow up later
    for key, val in (("t_end", "inf"), ("chi", "nan"), ("grid.h", "-inf"),
                     ("c", "1e400"), ("dt", "nan"), ("eta", "inf")):
        match = f"non-finite number for key '{key}'"
        with pytest.raises(DomainError, match=match):
            parse_config(None, {key: val})


@settings(max_examples=300)
@given(key=st.sampled_from(_NUMERIC + ("dt", "eta")), text=st.text())
def test_parse_config_numeric_key_is_finite_or_refused(key, text):
    try:
        value = parse_config(None, {key: text})[key]
    except DomainError:
        return
    if value is None:                    # "auto" for dt and eta
        assert key in ("dt", "eta")
    else:
        assert isinstance(value, float) and math.isfinite(value)


# each subcommand's own defaults: (grid.left, grid.right, t_end, dt)
TABLE_DEFAULTS = {"stability": (-60.0, 45.0, 20.0, None),
                  "speed": (-40.0, 40.0, 60.0, None),
                  "sweep": (-40.0, 40.0, 60.0, None)}


@pytest.mark.parametrize("subcommand", sorted(TABLE_DEFAULTS))
def test_subcommand_defaults_layer_under_file_and_flags(tmp_path, subcommand):
    left, right, t_end, dt = TABLE_DEFAULTS[subcommand]
    cfg = parse_config(None, {}, subcommand)
    assert (cfg["grid.left"], cfg["grid.right"], cfg["t_end"],
            cfg["dt"]) == (left, right, t_end, dt)
    assert cfg["grid.h"] == 0.05 and cfg["c"] == 3.0      # from DEFAULTS
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("grid.left=-30\nt_end=45\n")
    cfg = parse_config(str(cfg_file), {"t_end": "41"}, subcommand)
    assert cfg["grid.left"] == -30.0      # file overrides the table
    assert cfg["t_end"] == 41.0           # flag overrides the file
    assert cfg["grid.right"] == right     # table where neither sets it
    assert parse_config(None, {"dt": "auto"}, subcommand)["dt"] is None


@pytest.mark.filterwarnings("ignore::chemowave.errors.TruncationWarning")
@pytest.mark.parametrize("subcommand", sorted(TABLE_DEFAULTS))
def test_manifest_records_the_subcommand_defaults(tmp_path, subcommand):
    out = tmp_path / subcommand
    assert main([subcommand, "--out-dir", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["grid.left"], config["grid.right"], config["t_end"],
            config["dt"]) == TABLE_DEFAULTS[subcommand]


def test_help_prints_each_subcommand_default(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "stability: grid.left=-60, grid.right=45, t_end=20" in text
    for name in ("speed", "sweep"):
        assert f"{name}: grid.left=-40, grid.right=40, t_end=60" in text
    assert "dt=0.02" not in text


def test_oversized_grid_exits_1(tmp_path, capsys):
    # (right - left) / h overflows to inf: refused before any array exists
    out = tmp_path / "sim"
    assert main(["simulate", "--grid-h", "5e-324", "--out-dir", str(out)]) == 1
    assert "non-finite node count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["certify", "--c", "1e9"], "c = 1e+09 too large"),
    (["constants", "--c", "1e10"], "c = 1e+10 too large"),
    (["constants", "--gamma", "1e308"], "bD_chain overflows"),
    (["wave", "--gamma", "1e308"], "c_star overflows"),
    (["stability", "--gamma", "1e200"], "c_star overflows"),
    (["certify", "--chi", "0", "--c", "2.000001"],
     "c = 2.000001 is too close to its speed threshold 2: the "
     "sub-solution's d_sub underflows to 0"),
    (["wave", "--chi", "0", "--c", "2.00005"],
     "c = 2.00005 is too close to its speed threshold 2: the "
     "sub-solution's d_sub underflows to 0"),
], ids=["certify-c", "constants-c", "constants-gamma", "wave-gamma",
        "stability-gamma", "certify-threshold",
        "wave-threshold"])
def test_a_constant_out_of_float_range_exits_1(tmp_path, capsys, argv,
                                               message):
    # kappa(c) cancels to 0 from c ~ 1.34e8; Python's float ** raises
    # OverflowError once gamma^2 passes 1.8e308; and next to the speed
    # threshold the sub-solution's d_sub underflows to 0
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, code, line", [
    (["--chi", "-1", "--c", "2.2"], 2,
     "FAIL: c below c_star: need c > 2.3094, got 2.2"),
    (["--chi", "0", "--c", "1.5"], 2,
     "FAIL: c below c_star: need c > 2, got 1.5"),
    (["--chi", "0", "--m", "2", "--c", "2.3"], 2,
     "FAIL: c below c_star: need c > 2.5, got 2.3"),
    (["--chi", "0.9", "--c", "3"], 1,
     "error: parameters outside the wave-construction regimes "
     "(chi=0.9, m=1.0, alpha=1.0, gamma=1.0)"),
    (["--chi", "0.3", "--alpha", "2", "--c", "3"], 1,
     "error: parameters outside the wave-construction regimes "
     "(chi=0.3, m=1.0, alpha=2.0, gamma=1.0)"),
], ids=["below-c_star", "chi0-below-2", "chi0-m2-below-c_star",
        "no-regime", "pos-chi-alpha-gt"])
def test_wave_stability_and_certify_refuse_alike(tmp_path, capsys, argv,
                                                 code, line):
    # one admissibility gate, default_barrier_spec's: the wave lane and
    # certify refuse the same inputs with the same exit code and line,
    # before any output directory exists
    for subcommand in ("wave", "stability", "certify"):
        out = tmp_path / subcommand
        assert main([subcommand, *argv, "--out-dir", str(out)]) == code
        assert capsys.readouterr().err == line + "\n", subcommand
        assert not out.exists()


def test_env_overrides_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEMOWAVE_OUT", str(tmp_path / "envout"))
    cfg = parse_config(None, {"out_dir": "flagout"})
    assert cfg["out_dir"].endswith("envout")


def test_constants_subcommand(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(["constants", "--chi", "0", "--m", "1", "--alpha", "1",
                 "--gamma", "1", "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "constants.json").read_text())
    assert payload["c_star"] == 2.0
    assert payload["c_star_star"] == 2.0
    assert (out / "manifest.json").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed["c_star"] == 2.0


def test_manifest_records_the_subcommand_and_the_versions(tmp_path):
    # the versions as the installed distributions record them
    for argv in (["constants"], ["certify", "--chi", "-1", "--c", "3"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {key: manifest[key] for key in (
            "subcommand", "python", "numpy", "scipy")} == {
            "subcommand": argv[0], "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}
        assert "subcommand" not in manifest["config"]


def test_manifest_does_not_depend_on_out_dir(tmp_path):
    blobs = []
    for name in ("a", os.path.join("deeper", "b")):
        out = tmp_path / name
        assert main(["constants", "--chi", "-1", "--out-dir", str(out)]) == 0
        blobs.append((out / "manifest.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert b"out_dir" not in blobs[0]


def test_wave_below_speed_exits_2(tmp_path, capsys):
    code = main(["wave", "--chi", "-1", "--c", "1.5",
                 "--out-dir", str(tmp_path / "w")])
    assert code == 2
    assert "c below c_star" in capsys.readouterr().err


def test_wave_newton_budget_exhausted_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(waves, "MAX_NEWTON", 1)
    code = main(["wave", "--chi", "-1", "--c", "4", "--grid-left", "-40",
                 "--grid-right", "40", "--grid-h", "0.1",
                 "--out-dir", str(tmp_path / "w")])
    assert code == 2
    assert capsys.readouterr().err.startswith("FAIL: Newton not converged")


def test_wave_relax_budget_exhausted_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(waves, "MAX_INNER_STEPS", 10)
    code = main(["wave", "--chi", "-1", "--c", "4", "--grid-left", "-40",
                 "--grid-right", "40", "--grid-h", "0.1",
                 "--method", "CoupledRelax", "--out-dir", str(tmp_path / "w")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "FAIL: coupled relaxation failed")


def test_wave_relax_stall_exits_2_early(tmp_path, capsys):
    # on [-20, 30] ||u_t|| stalls near 5e-5: the stall rule ends the
    # relaxation after 537 steps, not at the 400,000-step budget
    t0 = time.perf_counter()
    code = main(["wave", "--chi", "-1", "--c", "4", "--grid-left", "-20",
                 "--grid-right", "30", "--method", "CoupledRelax",
                 "--out-dir", str(tmp_path)])
    assert code == 2 and time.perf_counter() - t0 < 2.0
    assert "FAIL: coupled relaxation stalled" in capsys.readouterr().err


@pytest.mark.parametrize("left, right, message", [
    ("-20", "8", "decay window shorter"),      # tail cut above 1e-2
    ("5", "60", "never crosses level 0.5"),    # front left of the grid
])
def test_wave_unusable_grid_exits_1(tmp_path, capsys, left, right, message):
    code = main(["wave", "--chi", "0", "--c", "3", "--grid-left", left,
                 "--grid-right", right, "--out-dir", str(tmp_path / "w")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_wave_relax_refuses_short_grid_up_front(tmp_path, capsys):
    # the super-solution has no decay window on [-20, 8], so CoupledRelax
    # exits 1 like FixedPoint instead of spending its step budget
    t0 = time.perf_counter()
    code = main(["wave", "--chi", "0", "--c", "3", "--grid-left", "-20",
                 "--grid-right", "8", "--method", "CoupledRelax",
                 "--out-dir", str(tmp_path / "w")])
    assert code == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decay window shorter" in err


def test_wave_relax_above_cell_peclet_limit_exits_1(tmp_path, capsys):
    # c = 3 on h = 0.8 steps at the fitted frame speed 2.96: c h >= 2,
    # where the implicit frame advection's matrix is no M-matrix
    code = main(["wave", "--chi", "0", "--c", "3", "--grid-h", "0.8",
                 "--method", "CoupledRelax", "--out-dir", str(tmp_path / "w")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cell Peclet" in err
    assert "Traceback" not in err
    assert not (tmp_path / "w" / "profile.csv").exists()


def test_stability_without_front_exits_1(tmp_path, capsys):
    # the same grid as wave's "never crosses" case: the profile is no front
    code = main(["stability", "--chi", "0", "--c", "3", "--grid-left", "5",
                 "--grid-right", "60", "--t-end", "1",
                 "--out-dir", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "never crosses level 0.5" in err
    assert not (tmp_path / "s" / "decay.csv").exists()


def test_unknown_subcommand_exits_64(capsys):
    assert main(["transmogrify"]) == 64


def test_unknown_flag_exits_64(capsys):
    assert main(["constants", "--warp", "9"]) == 64


def test_malformed_values_list_exits_64(tmp_path, capsys):
    code = main(["sweep", "--chi-values", "0,abc", "--out-dir",
                 str(tmp_path / "sw")])
    assert code == 64
    assert "--chi-values" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_refuses_jobs_below_one(tmp_path, capsys, jobs):
    code = main(["sweep", "--jobs", jobs, "--out-dir", str(tmp_path / "sw")])
    assert code == 64
    assert capsys.readouterr().err.startswith("usage: --jobs")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("argv, advice", [
    (["simulate", "--t-end", "1e300", "--grid-left", "-20", "--grid-right",
      "20"], "shorten --t-end or raise --dt"),
    (["simulate", "--dt", "1e-9", "--grid-left", "-20", "--grid-right",
      "20"], "shorten --t-end or raise --dt"),
    (["speed", "--t-end", "1e12"], "shorten --t-end or raise --dt"),
    # stability takes no fixed dt, so only --t-end can help
    (["stability", "--t-end", "1e12"], "shorten --t-end"),
], ids=["huge-t-end", "tiny-dt", "speed", "stability"])
def test_run_over_the_step_budget_is_refused_up_front(tmp_path, capsys, argv,
                                                      advice):
    # each would step for hours, or forever, without the up-front check
    t0 = time.perf_counter()
    code = main(argv + ["--out-dir", str(tmp_path / "run")])
    assert time.perf_counter() - t0 < 10.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --t-end ") and "--dt" in err
    assert err.endswith(f"budget of 400,000: {advice}\n")


def test_dt_underflow_exits_2(tmp_path, capsys):
    # a fixed dt below the stepper's floor fails on the first step
    code = main(["simulate", "--dt", "1e-12", "--grid-left", "-10",
                 "--grid-right", "10", "--grid-h", "0.1", "--t-end", "1",
                 "--out-dir", str(tmp_path / "sim")])
    assert code == 2
    assert capsys.readouterr().err.startswith("FAIL: dt underflow")


def test_certify_subcommand(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(["certify", "--chi", "-1", "--c", "3",
                 "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "certify.json").read_text())
    assert payload["passed"] is True
    checks = payload["checks"]
    assert sorted(checks) == ["sub_const", "sub_profile", "super_const",
                              "super_exp"]
    assert all(set(check) == {"worst_excess", "worst_location"}
               and check["worst_excess"] <= 0 for check in checks.values())
    worst = checks[payload["worst_check"]]
    assert (worst["worst_excess"], worst["worst_location"]) == (
        payload["worst_excess"], payload["worst_location"])


def test_certify_refuses_a_negative_seed(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew an envelope")

    monkeypatch.setattr(barriers, "random_envelope", no_draw)
    out = tmp_path / "cert"
    code = main(["certify", "--chi", "-1", "--c", "3", "--seed", "-1",
                 "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not (out / "certify.json").exists()


# Tiny runs of five subcommands and the sha256 of every CSV they write
# (certify, at chi = -1 and at chi = 0, writes only its certify.json
# record), pinned so that a change
# meant to keep the numbers keeps every byte.  Recorded with numpy 2.4.6
# and scipy 1.17.1: other builds of libm or LAPACK may round differently.
GOLDEN_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
GOLDEN_RUNS = {
    "wave": ("wave", "--chi", "-1", "--m", "2", "--gamma", "1.5", "--c", "5",
             "--grid-left", "-30", "--grid-right", "30", "--grid-h", "0.1"),
    "simulate": ("simulate", "--chi", "-1", "--grid-left", "-20",
                 "--grid-right", "20", "--grid-h", "0.1", "--t-end", "2"),
    "stability": ("stability", "--chi", "0", "--c", "3", "--grid-left",
                  "-40", "--grid-right", "30", "--grid-h", "0.1",
                  "--t-end", "10"),
    "certify": ("certify", "--chi", "-1", "--c", "3", "--seed", "0"),
    "certify_chi0": ("certify", "--chi", "0", "--c", "3", "--seed", "0"),
    "sweep": ("sweep", "--chi-values", "0,0.5", "--gamma-values", "1,2",
              "--grid-h", "0.2", "--t-end", "40", "--jobs", "1"),
}
GOLDEN_SHA256 = {
    "wave/profile.csv":
        "09af4962c6d2456c60bbeebd5d8b92915a2045009b3aafd51b7291f4c099cf1f",
    "simulate/monitors.csv":
        "d432697cb28bc04cdbd3cd5e5614495932d69fa67560e6e74aff54829d645238",
    "simulate/snap_t0.csv":
        "59c8e3af2880b6b29a08b5e2ff182c9ac17ad82e6ebd6fb1dce9614bd327ed55",
    "simulate/snap_t1.csv":
        "c1725cc90f2218ded1bbd25b6ae80c79f7cac263f9a8d3577087aa19e818d953",
    "simulate/snap_t2.csv":
        "6de6ec5493c6b58435522c79e9fecea065d6bb0e6cb66f82ed41645dc3a4f469",
    "stability/decay.csv":
        "0361f984f2a5fc82a984b0c5c8953b9c27f483bac18a7adcec1365837b606d88",
    "certify/certify.json":
        "a1b5c8f9925d2535f0088b9fa93b37405ac6a628a2d49bbfab9b4e146a687abf",
    "certify_chi0/certify.json":
        "c97e04ee5030d26c95dd5785834d54e9bf7a6e8570e996016459b09fe86ce9a8",
    "sweep/speeds.csv":
        "056be2f0f140e005894ca6d8cdb2cd81ddc0f789577d34acb84f5eed42fa8afa",
}


@pytest.mark.filterwarnings("ignore::chemowave.errors.TruncationWarning")
def test_outputs_keep_their_bytes(tmp_path):
    installed = {name: version(name) for name in GOLDEN_VERSIONS}
    if installed != GOLDEN_VERSIONS:
        pytest.skip(f"digests recorded with {GOLDEN_VERSIONS}, not "
                    f"{installed}: the last digit may round differently")
    got = {}
    for name, argv in GOLDEN_RUNS.items():
        out = tmp_path / name
        assert main([*argv, "--out-dir", str(out)]) == 0
        for path in sorted(out.iterdir()):
            if path.suffix == ".csv" or path.name == "certify.json":
                got[f"{name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256


def test_simulate_deterministic_bytes(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("grid.left=-10\ngrid.right=10\ngrid.h=0.1\nt_end=2\nchi=-0.5\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        blob = b"".join(sorted((out / f).read_bytes()
                               for f in os.listdir(out)
                               if f.endswith(".csv")))
        outs.append(blob)
    assert outs[0] == outs[1]
    files = os.listdir(tmp_path / "a")
    assert "monitors.csv" in files and "manifest.json" in files
    assert any(f.startswith("snap_t") and f.endswith(".csv") for f in files)


def test_snapshot_csv_format(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("grid.left=-10\ngrid.right=10\ngrid.h=0.1\nt_end=1\n")
    out = tmp_path / "fmt"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    text = (out / "snap_t0.csv").read_bytes()
    lines = text.split(b"\n")
    assert lines[0] == b"x,u,v"
    assert b"\r" not in text


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--chi-values", "", "--out-dir", str(out),
                 "--chi", "0"])
    assert code == 0
    # empty --chi-values falls back to the scalar chi: a single row
    rows = (out / "speeds.csv").read_text().splitlines()
    assert rows[0] == "chi,m,alpha,gamma,c_fit,r2,c_star,c_star_star"
    assert len(rows) == 2 and rows[1].startswith("0,1,1,1,")


def test_sweep_runs_the_flagged_grid_and_times(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--chi-values", "0", "--grid-left", "-30",
                 "--grid-right", "120", "--grid-h", "0.1", "--t-end", "40",
                 "--dt", "0.05", "--out-dir", str(out)])
    assert code == 0
    config = SimConfig(params=Params(0.0), grid=Grid.from_bounds(-30, 120, 0.1),
                       t_end=40.0, dt=0.05, output_every=1.0)
    row = sweep_speeds([0.0], [1.0], [1.0], [1.0], config)[0]
    written = (out / "speeds.csv").read_text().splitlines()[1]
    assert written == ",".join("%.15g" % v for v in row)
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["grid.left"], config["grid.right"], config["grid.h"],
            config["t_end"], config["dt"]) == (-30.0, 120.0, 0.1, 40.0, 0.05)


def test_speed_explicit_auto_dt_runs_automatic_step(tmp_path):
    # --dt auto writes the bytes of the default, which is the automatic
    # step; speed.json records the run's steps and their dt range, as
    # wave's diagnostics.json does
    grid = ["--grid-left", "-30", "--grid-right", "120", "--grid-h", "0.1",
            "--t-end", "40"]
    out, default = tmp_path / "sp", tmp_path / "default"
    assert main(["speed", "--dt", "auto", *grid, "--out-dir", str(out)]) == 0
    assert main(["speed", *grid, "--out-dir", str(default)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["dt"] is None
    files = sorted(os.listdir(out))
    assert files == sorted(os.listdir(default))
    for name in files:
        assert (out / name).read_bytes() == (default / name).read_bytes()
    grid = Grid.from_bounds(-30, 120, 0.1)
    track = spreading_speed(
        SimConfig(params=Params(0.0), grid=grid, t_end=40.0, output_every=1.0),
        compact_datum(grid))
    written = json.loads((out / "speed.json").read_text())
    assert written["fitted_speed"] == track.fitted_speed
    assert written["r2"] == track.fit_r2
    assert written["steps"] == track.stats.steps >= 40.0 / DT_MAX
    assert 0.0 < written["dt_min"] <= written["dt_max"] == DT_MAX


def test_sweep_manifest_counts_its_distinct_runs(tmp_path):
    # at chi = 0 the run reads no gamma: two rows, one run
    out = tmp_path / "sw"
    assert main(["sweep", "--chi-values", "0", "--gamma-values", "1,2",
                 "--grid-left", "-30", "--grid-right", "120", "--grid-h",
                 "0.1", "--t-end", "40", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["rows"], manifest["runs"]) == (2, 1)
    rows = [line.split(",") for line in
            (out / "speeds.csv").read_text().splitlines()[1:]]
    assert rows[0][4:6] == rows[1][4:6]


def test_speed_front_leaving_window_exits_1(tmp_path, capsys):
    # chi = -12 outruns the speed-2 frame on the default [-40, 40]; its
    # chemotactic drift holds the automatic dt to 0.008 on average (5,244
    # steps to the failing t = 43 sample, 1.5 s), so the run takes a
    # fixed one
    code = main(["speed", "--chi", "-12", "--dt", "0.02",
                 "--out-dir", str(tmp_path / "sp")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--grid-right" in err
    assert not (tmp_path / "sp").exists()


@pytest.mark.parametrize("subcommand", ["speed", "sweep"])
def test_speed_and_sweep_refuse_dt_zero(tmp_path, capsys, subcommand):
    code = main([subcommand, "--dt", "0", "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "dt must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("subcommand", ["wave", "stability"])
def test_wave_and_stability_refuse_a_fixed_dt(tmp_path, capsys, monkeypatch,
                                              subcommand, via):
    # neither steps at a fixed dt: refused before any solve, while
    # --dt auto reaches the wave construction
    import chemowave.cli

    class Built(Exception):
        pass

    def build(cfg):
        raise Built

    monkeypatch.setattr(chemowave.cli, "_build_wave", build)
    out = ["--out-dir", str(tmp_path / "o")]
    if via == "flag":
        argv = [subcommand, "--dt", "0.05"]
    else:
        (tmp_path / "run.cfg").write_text("dt = 0.05\n")
        argv = [subcommand, "--config", str(tmp_path / "run.cfg")]
    assert main(argv + out) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: --dt: ") and subcommand in err
    assert not (tmp_path / "o").exists()
    with pytest.raises(Built):
        main([subcommand, "--dt", "auto"] + out)


@pytest.mark.parametrize("argv, flags", [
    (["certify", "--chi", "-1", "--c", "3", "--dt", "0.05", "--t-end", "7",
      "--grid-h", "0.3", "--method", "CoupledRelax"],
     "--grid-h, --dt, --t-end, --method"),
    (["constants", "--dt", "0.05", "--eta", "3"], "--dt, --eta"),
    (["wave", "--t-end", "5", "--seed", "1"], "--t-end, --seed"),
    (["simulate", "--c", "4", "--jobs", "2"], "--c, --jobs"),
    (["speed", "--gamma-values", "1,2"], "--gamma-values"),
], ids=["certify", "constants", "wave", "simulate", "speed"])
def test_a_flag_the_subcommand_never_reads_exits_64(tmp_path, capsys, argv,
                                                    flags):
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {flags}: {argv[0]} never reads ")
    assert not out.exists()


def test_a_config_key_the_subcommand_never_reads_is_accepted(tmp_path):
    # one file can serve several subcommands
    (tmp_path / "run.cfg").write_text("dt = 0.05\neta = 3\nt_end = 7\n")
    out = tmp_path / "c"
    assert main(["constants", "--config", str(tmp_path / "run.cfg"),
                 "--out-dir", str(out)]) == 0
    assert json.loads((out / "constants.json").read_text())["c_star"] == 2.0


# a base run per subcommand, each under 0.1 s (certify, which has no
# size flag, about 0.08 s on a 2 vCPU Xeon); the fuzz values below give
# no smaller h, wider grid, longer t_end or CoupledRelax than these
FUZZ_BASE = {
    "constants": ["constants"],
    "simulate": ["simulate", "--grid-left", "-5", "--grid-right", "5",
                 "--grid-h", "0.1", "--t-end", "0.5"],
    "wave": ["wave", "--chi", "-1", "--c", "4", "--grid-left", "-20",
             "--grid-right", "30", "--grid-h", "0.1"],
    "stability": ["stability", "--grid-left", "-20", "--grid-right", "20",
                  "--grid-h", "0.1", "--t-end", "0.5"],
    "speed": ["speed", "--grid-h", "0.5", "--t-end", "40"],
    "sweep": ["sweep", "--grid-h", "0.5", "--t-end", "40"],
    "certify": ["certify", "--chi", "-1", "--c", "3"],
}


@st.composite
def one_bad_flag(draw) -> list[str]:
    """A base run with one flag it reads set to a hostile value."""
    name = draw(st.sampled_from(sorted(FUZZ_BASE)))
    sub = SUBCOMMANDS[name]
    flag = draw(st.sampled_from([_flag(key) for key in (
        *sub.reads, *sub.auto_only, "config", "out_dir")]))
    value = draw(st.sampled_from(["nan", "inf", "-inf", "", "abc", "1e400",
                                  "1e308", "1e10", "-1", "0"]))
    return FUZZ_BASE[name] + ["--out-dir", "out", flag, value]


@settings(max_examples=150)
@given(argv=one_bad_flag())
def test_one_bad_flag_value_ends_in_a_documented_exit_code(tmp_path_factory,
                                                           argv):
    # relative paths (a value given to --out-dir or --config) stay in tmp
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.chdir(tmp_path_factory.mktemp("fuzz"))
        mp.delenv("CHEMOWAVE_OUT", raising=False)
        warnings.simplefilter("ignore")
        assert main(argv) in (0, 1, 2, 64)


def test_every_benchmark_argv_passes_the_flag_rule(tmp_path, monkeypatch):
    # the handlers are stood in for: only the flags and the config are checked
    import chemowave.cli
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for dataclass
    spec.loader.exec_module(workloads)
    ran = []
    for name, sub in chemowave.cli.SUBCOMMANDS.items():
        monkeypatch.setitem(chemowave.cli.SUBCOMMANDS, name, sub._replace(
            handler=lambda cfg, *args, name=name: ran.append(name) or 0))
    argvs = {task.argv for workload in workloads.NAMES for seed in (0, 1)
             for task in workloads.build(workload, seed).tasks}
    for argv in sorted(argvs):
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 0, argv
    assert sorted(set(ran)) == ["certify", "simulate", "stability", "sweep",
                                "wave"]


def test_emit_plot_errors(tmp_path):
    # emit_plot is a lookup and a write: an unknown kind is refused before
    # anything is written, and a known kind does not read its CSV
    with pytest.raises(KeyError, match="hologram"):
        emit_plot(str(tmp_path), "hologram")
    assert list(tmp_path.iterdir()) == []
    for kind, csv_name in [("profile", "profile.csv"),
                           ("log-decay", "profile.csv"),
                           ("stability", "decay.csv")]:
        assert emit_plot(str(tmp_path), kind) is None
        script = (tmp_path / f"plot_{kind.replace('-', '_')}.py").read_text()
        assert f'np.loadtxt("{csv_name}"' in script
    assert "semilog" in (tmp_path / "plot_stability.py").read_text()
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "plot_log_decay.py", "plot_profile.py", "plot_stability.py"]


def test_wave_subcommand_end_to_end(tmp_path):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text("chi=0\nc=3\ngrid.left=-60\ngrid.right=60\ngrid.h=0.05\n")
    out = tmp_path / "wave"
    assert main(["wave", "--config", str(cfg), "--out-dir", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert abs(diag["kappa_fit"] - diag["kappa"]) / diag["kappa"] < 0.02
    assert diag["monotonicity_violation"] < 1e-6
    history = diag["residual_history"]
    assert len(history) == diag["outer_iters"] + 1
    assert history[-1] < NEWTON_TOL
    assert diag["c_eff_shift"] == pytest.approx(
        diag["c_eff"] - fitted_frame_speed(3.0, 0.05), abs=1e-15)
    # FixedPoint takes no time step
    assert diag["steps"] == 0
    assert diag["dt_min"] is None and diag["dt_max"] is None
    assert (out / "profile.csv").exists()
    assert (out / "plot_profile.py").exists()
    assert (out / "plot_log_decay.py").exists()


@pytest.mark.filterwarnings("ignore::chemowave.errors.TruncationWarning")
def test_stability_subcommand_end_to_end(tmp_path):
    out = tmp_path / "stab"
    code = main(["stability", "--chi", "0", "--c", "3", "--eta", "0.9",
                 "--t-end", "6", "--out-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "stability.json").read_text())
    assert payload["passed"] is True
    assert 0.0 < payload["truncated_from_t"] <= 6.0
    assert payload["lambda_pred"] == pytest.approx(-0.89, abs=1e-12)
    assert payload["steps"] > 0
    assert (out / "decay.csv").exists()
    assert "semilog" in (out / "plot_stability.py").read_text()


@pytest.mark.filterwarnings("ignore::chemowave.errors.TruncationWarning")
def test_stability_manifest_records_the_default_t_end(tmp_path):
    out = tmp_path / "stab"
    code = main(["stability", "--chi", "0", "--c", "3", "--grid-h", "0.1",
                 "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())["config"]
    last_t = (out / "decay.csv").read_text().splitlines()[-1].split(",")[0]
    assert manifest["t_end"] == float(last_t) == 20.0


def test_wave_subcommand_coupled_relax(tmp_path):
    out = tmp_path / "relax"
    code = main(["wave", "--chi", "0", "--c", "3", "--method", "CoupledRelax",
                 "--grid-left", "-60", "--grid-right", "60",
                 "--out-dir", str(out)])
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["method"] == "CoupledRelax"
    assert diag["monotonicity_violation"] < 1e-6
    assert diag["steps"] > 0
    assert 0.0 < diag["dt_min"] <= diag["dt_max"] <= RELAX_DT_MAX


def test_import_leaves_heavy_scipy_packages_unloaded(tmp_path):
    # a fresh interpreter: the test session may have imported these already.
    # LAPACK and the IIR filter load as bare compiled extensions, which
    # also serve the Newton solve; certify draws no random density, so
    # neither ndimage nor numpy's FFT loads; a serial sweep starts no
    # process pool
    script = textwrap.dedent("""
        import json, os, sys
        import chemowave.cli
        heavy = ("scipy.signal", "scipy.stats", "scipy.linalg",
                 "scipy.sparse.linalg", "scipy.ndimage", "scipy._lib._util",
                 "numpy.f2py", "numpy.testing", "numpy.fft",
                 "concurrent.futures.process")
        loaded = {"import": [m for m in heavy if m in sys.modules]}
        codes = []
        for name, argv in (
                ("certify", ["certify", "--chi", "-1", "--c", "3"]),
                ("simulate", ["simulate", "--grid-left", "-10",
                              "--grid-right", "10", "--grid-h", "0.1",
                              "--t-end", "1"]),
                ("relax", ["wave", "--chi", "0", "--c", "3",
                           "--grid-left", "-60", "--grid-right", "60",
                           "--method", "CoupledRelax"]),
                ("wave", ["wave", "--chi", "-1", "--c", "4",
                          "--grid-left", "-20", "--grid-right", "30"])):
            codes.append(chemowave.cli.main(
                argv + ["--out-dir", os.path.join(sys.argv[1], name)]))
            loaded[name] = [m for m in heavy if m in sys.modules]
        print(json.dumps({"codes": codes, "loaded": loaded}))
        """)
    src = str(Path(chemowave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    loaded = report["loaded"]
    for name in ("import", "certify", "simulate", "relax", "wave"):
        assert loaded[name] == [], name


LEDGER = {"steps", "clamp_count", "dt_min", "dt_max"}
MANIFEST = {"artifact", "version", "python", "numpy", "scipy", "subcommand",
            "config"}
_SMALL = ["--grid-left", "-30", "--grid-right", "50", "--grid-h", "0.1"]
_WAVE_KEYS = {"c", "c_eff", "c_eff_shift", "kappa", "kappa1", "kappa_fit",
              "left_limit", "method", "monotonicity_violation",
              "outer_iters", "refined_trend_slope", "residual_history",
              "right_limit", "sandwich_violation", *LEDGER}
# subcommand: (argv, top-level keys of each JSON file it writes, the file
# holding its step ledger or None)
JSON_KEYS = {
    "constants": (["constants"], {
        "constants.json": {
            "D_dprime", "D_prime", "D_sub", "K", "M1", "M2", "M_barrier",
            "M_chi", "M_dprime", "M_prime", "M_tilde", "M_tprime", "alpha",
            "b1", "b2", "b3", "b4", "c", "c1", "c2", "c3", "c_star",
            "c_star_star", "chi", "chi_star", "d_sub", "gamma", "kappa",
            "kappa1", "kappa_tilde", "m", "sigma", "x_minus", "x_plus"},
        "manifest.json": MANIFEST}, None),
    "simulate": (["simulate", "--grid-left", "-10", "--grid-right", "10",
                  "--grid-h", "0.1", "--t-end", "1"], {
        "manifest.json": {*MANIFEST, "violations", "warnings", *LEDGER}},
        "manifest.json"),
    "wave-FixedPoint": (["wave", "--chi", "-1", "--c", "4", "--grid-left",
                         "-20", "--grid-right", "30"], {
        "diagnostics.json": _WAVE_KEYS, "manifest.json": MANIFEST},
        "diagnostics.json"),
    "wave-CoupledRelax": (["wave", *_SMALL, "--method", "CoupledRelax"], {
        "diagnostics.json": _WAVE_KEYS, "manifest.json": MANIFEST},
        "diagnostics.json"),
    "stability": (["stability", "--chi", "0", "--c", "3", "--eta", "0.9",
                   "--t-end", "6"], {
        "stability.json": {"W0", "W_end", "envelope_slack", "eta",
                           "kappa_minus", "kappa_plus", "lambda_pred",
                           "passed", "rel_drop", "supdiff_end",
                           "truncated_from_t", *LEDGER},
        "manifest.json": {*MANIFEST, "tolerances"}}, "stability.json"),
    "speed": (["speed", "--grid-left", "-30", "--grid-right", "30",
               "--grid-h", "0.1", "--t-end", "40"], {
        "speed.json": {"fitted_speed", "level", "r2", *LEDGER},
        "manifest.json": MANIFEST}, "speed.json"),
    "sweep": (["sweep", "--grid-left", "-30", "--grid-right", "30",
               "--grid-h", "0.1", "--t-end", "40"], {
        "manifest.json": {*MANIFEST, "rows", "runs"}}, None),
    "certify": (["certify", "--chi", "-1", "--c", "3"], {
        "certify.json": {"checks", "passed", "worst_check", "worst_excess",
                         "worst_location"},
        "manifest.json": MANIFEST}, None),
}


@pytest.mark.filterwarnings("ignore::chemowave.errors.TruncationWarning")
@pytest.mark.parametrize("name", JSON_KEYS)
def test_every_json_key_set_is_pinned(tmp_path, name):
    # a key dropped or renamed fails here; every stepped run writes its
    # steps, their dt range and its clamped nodes, and the FixedPoint
    # wave, which takes no time step, writes an empty ledger
    argv, files, ledger = JSON_KEYS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    written = {path.name: json.loads(path.read_text())
               for path in out.glob("*.json")}
    assert {fname: set(keys) for fname, keys in written.items()} == files
    config = written["manifest.json"]["config"]
    assert set(config) == set(DEFAULTS) - {"out_dir"}
    if ledger is None:
        return
    stats = {key: written[ledger][key] for key in LEDGER}
    if name == "wave-FixedPoint":
        assert stats == {"steps": 0, "clamp_count": 0, "dt_min": None,
                         "dt_max": None}
    else:
        # CoupledRelax steps in pseudo-time, under its own cap
        cap = RELAX_DT_MAX if name == "wave-CoupledRelax" else DT_MAX
        assert stats["steps"] > 0 and stats["clamp_count"] == 0
        assert 0.0 < stats["dt_min"] <= stats["dt_max"] <= cap

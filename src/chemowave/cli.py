"""Command-line entry point.

Subcommands: constants, simulate, wave, stability, speed, sweep, certify.
Run settings are layered DEFAULTS < the subcommand's entry in
SUBCOMMANDS < a flat key=value config file (# comments) < flags < the
CHEMOWAVE_OUT environment variable (out_dir only).  A flag the
subcommand never reads is a usage error; a config file key is not, so
that one file can serve several subcommands.  Exit codes: 0 success, 1
error, 2 a PASS/FAIL experiment or a solve failed (including "speed
below threshold", non-convergence, blow-up and time-step underflow), 64
usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import io as cw_io
from .cauchy import FRONT_LEVEL, SimConfig, monitor_bounds, run
from .errors import (BlowupDetected, DomainError, NoConvergence, NoFront,
                     NormalizationError, RegimeError, SpeedError,
                     StepBudgetError, StiffnessError, WindowTooShort)
from .fields import Field, Grid
from .params import Params, constants_report
from .speed import (SWEEP_HEADER, compact_datum, spreading_speed,
                    sweep_speeds)
from .stability import (ENVELOPE_SLACK, REL_DROP, default_eta, eta_window,
                        run_stability)
from .waves import (WaveProblem, construct, diagnose, normalize_translation,
                    settle)
from .barriers import certify

DEFAULTS = {
    "chi": "0", "m": "1", "alpha": "1", "gamma": "1",
    "c": "3", "grid.left": "-100", "grid.right": "100", "grid.h": "0.05",
    "dt": "auto", "t_end": "50", "method": "FixedPoint", "eta": "auto",
    "seed": "0", "out_dir": "out",
}
_NUMERIC = ("chi", "m", "alpha", "gamma", "c", "grid.left", "grid.right",
            "grid.h", "t_end")
_SWEEP_KEYS = ("chi", "m", "alpha", "gamma")    # each has a --KEY-values list


def _number(key: str, text: str) -> float:
    """Finite float parsed from text; anything else is a DomainError."""
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"malformed number for key {key!r}: {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"non-finite number for key {key!r}: {text!r}")
    return value


def parse_config(path: str | None, overrides: dict[str, str],
                 subcommand: str | None = None) -> dict:
    """DEFAULTS <- subcommand defaults <- file <- flags <- CHEMOWAVE_OUT.

    Unknown keys and bad numbers are rejected.  The subcommand is kept
    under "subcommand" for the manifest.
    """
    raw = dict(DEFAULTS)
    if subcommand is not None:
        raw.update(SUBCOMMANDS[subcommand].defaults)
    file_values = cw_io.read_config_file(path) if path is not None else {}
    for layer in (file_values, overrides):
        for key, val in layer.items():
            if key not in DEFAULTS:
                raise DomainError(f"unknown config key {key!r}")
            if val is not None:
                raw[key] = val
    if os.environ.get("CHEMOWAVE_OUT"):
        raw["out_dir"] = os.environ["CHEMOWAVE_OUT"]

    cfg: dict = {}
    for key in _NUMERIC:
        cfg[key] = _number(key, raw[key])
    for key in ("dt", "eta"):
        auto = raw[key] in ("auto", "", "none")
        cfg[key] = None if auto else _number(key, raw[key])
    try:
        cfg["seed"] = int(raw["seed"])
    except ValueError:
        raise DomainError(f"malformed number for key 'seed': {raw['seed']!r}")
    if raw["method"] not in ("FixedPoint", "CoupledRelax"):
        raise DomainError(f"unknown method {raw['method']!r}")
    cfg["method"] = raw["method"]
    cfg["out_dir"] = raw["out_dir"]
    cfg["subcommand"] = subcommand
    return cfg


def _params(cfg: dict) -> Params:
    return Params(cfg["chi"], cfg["m"], cfg["alpha"], cfg["gamma"])


def _grid(cfg: dict) -> Grid:
    return Grid.from_bounds(cfg["grid.left"], cfg["grid.right"], cfg["grid.h"])


def _sim_config(cfg: dict, output_every: float) -> SimConfig:
    return SimConfig(params=_params(cfg), grid=_grid(cfg), t_end=cfg["t_end"],
                     dt=cfg["dt"], output_every=output_every)


def _manifest(cfg: dict, extra: dict | None = None) -> None:
    # out_dir is where the manifest lives; echoing it would tie the bytes
    # to the checkout
    payload = {k: cfg[k] for k in sorted(cfg)
               if k not in ("out_dir", "subcommand")}
    cw_io.write_manifest(cfg["out_dir"], payload,
                         {"subcommand": cfg["subcommand"], **(extra or {})})


def cmd_constants(cfg: dict) -> int:
    rep = constants_report(_params(cfg), c=cfg.get("c"))
    payload = rep.as_dict()
    os.makedirs(cfg["out_dir"], exist_ok=True)
    cw_io.write_json(os.path.join(cfg["out_dir"], "constants.json"), payload)
    _manifest(cfg)
    print(json.dumps(cw_io.jsonable(payload), indent=2, sort_keys=True,
                     allow_nan=False))
    return 0


def cmd_simulate(cfg: dict) -> int:
    sim = _sim_config(cfg, output_every=max(cfg["t_end"] / 50.0, 1.0))
    grid = sim.grid
    u0 = Field(grid, 2.0 * np.exp(-grid.x ** 2))
    final, monitors, snapshots = run(sim, u0)
    cw_io.write_run_outputs(cfg["out_dir"], snapshots, monitors)
    violations = monitor_bounds(final, sim.params, u0_sup=u0.max())
    _manifest(cfg, {"violations": violations, "warnings": monitors.warnings,
                    **asdict(monitors.stats)})
    for v in violations:
        print(v)
    return 0


def _build_wave(cfg: dict):
    return construct(WaveProblem(_params(cfg), cfg["c"], _grid(cfg)),
                     cfg["method"])


def cmd_wave(cfg: dict) -> int:
    profile = _build_wave(cfg)
    profile = normalize_translation(profile)
    diag = diagnose(profile)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    cw_io.write_profile_csv(os.path.join(out, "profile.csv"), profile)
    payload = {
        "c": profile.problem.c, "kappa": profile.problem.kappa,
        "kappa_fit": diag.kappa_fit,
        "kappa1": diag.kappa1, "left_limit": diag.left_limit,
        "right_limit": diag.right_limit,
        "monotonicity_violation": diag.monotonicity_violation,
        "sandwich_violation": profile.sandwich_violation,
        "outer_iters": profile.outer_iters, "method": profile.method,
        "refined_trend_slope": diag.refined_trend_slope,
        "residual_history": profile.residual_history, "c_eff": profile.c_eff,
        "c_eff_shift": profile.c_eff_shift, **asdict(profile.stats),
    }
    cw_io.write_json(os.path.join(out, "diagnostics.json"), payload)
    _manifest(cfg)
    emit_plot(out, "profile")
    emit_plot(out, "log-decay")
    return 0


def cmd_stability(cfg: dict) -> int:
    # polish the profile into a machine-exact fixed point first
    profile = settle(_build_wave(cfg))
    problem = profile.problem
    # NormalizationError unless the profile is a front (one crossing of 1/2)
    normalize_translation(profile)
    eta = (cfg["eta"] if cfg["eta"] is not None
           else default_eta(problem.params, problem.c))
    record = run_stability(profile, eta, t_end=cfg["t_end"])
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    cw_io.write_decay_csv(os.path.join(out, "decay.csv"), record)
    km, kp = eta_window(problem.params, problem.c)
    tolerances = {"rel_drop": REL_DROP, "envelope_slack": ENVELOPE_SLACK}
    payload = {"lambda_pred": record.lambda_pred, "eta": record.eta,
               "kappa_minus": km, "kappa_plus": kp,
               "passed": record.passed, **tolerances,
               "W0": float(record.W[0]), "W_end": float(record.W[-1]),
               "supdiff_end": float(record.supdiff[-1]),
               "truncated_from_t": record.truncated_from_t,
               **asdict(record.stats)}
    cw_io.write_json(os.path.join(out, "stability.json"), payload)
    _manifest(cfg, {"tolerances": tolerances})
    emit_plot(out, "stability")
    print(f"stability {'PASS' if record.passed else 'FAIL'}: "
          f"W(t_end)/W(0) = {record.W[-1] / record.W[0]:.3e}, "
          f"lambda_pred = {record.lambda_pred:.4f}")
    return 0 if record.passed else 2


def cmd_speed(cfg: dict) -> int:
    sim = _sim_config(cfg, output_every=1.0)
    track = spreading_speed(sim, compact_datum(sim.grid))
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    cw_io.write_csv(os.path.join(out, "front.csv"), ("t", "x_front"),
                    (track.times, track.positions))
    cw_io.write_json(os.path.join(out, "speed.json"),
                     {"fitted_speed": track.fitted_speed, "r2": track.fit_r2,
                      "level": FRONT_LEVEL, **asdict(track.stats)})
    _manifest(cfg)
    print(f"fitted_speed = {track.fitted_speed:.4f} (r2 = {track.fit_r2:.6f})")
    return 0


def cmd_sweep(cfg: dict, values: dict[str, list[float]], jobs: int) -> int:
    axes = [values.get(key) or [cfg[key]] for key in _SWEEP_KEYS]
    rows = sweep_speeds(*axes, _sim_config(cfg, output_every=1.0), jobs)
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    cw_io.write_csv(os.path.join(out, "speeds.csv"), SWEEP_HEADER,
                    zip(*rows))
    _manifest(cfg, {"rows": len(rows), "runs": rows.runs})
    return 0


def cmd_certify(cfg: dict) -> int:
    p = _params(cfg)
    # the certificate is exact and reads no seed; --seed stays because
    # perfbench passes it
    if cfg["seed"] < 0:
        raise DomainError(f"--seed must be nonnegative, got {cfg['seed']}")
    report = certify(p, cfg["c"])
    _manifest(cfg)
    cw_io.write_json(os.path.join(cfg["out_dir"], "certify.json"),
                     asdict(report))
    print(f"certify {'PASS' if report.passed else 'FAIL'}: worst excess "
          f"{report.worst_excess:.3e} at x = {report.worst_location:.3f} "
          f"({report.worst_check})")
    return 0 if report.passed else 2


# The window of the frame moving at speed 2, where a pulled front lags the
# frame by about (3/2) ln t: [-40, 40] holds it up to t_end 60.  The frame
# advection is implicit, so the automatic dt of a row is a reproducible
# function of its parameters (DT_MAX on almost every step); a fixed --dt
# is still honoured.
_CO_MOVING = {"grid.left": "-40", "grid.right": "40", "t_end": "60"}

_MODEL = ("chi", "m", "alpha", "gamma")
_GRID = ("grid.left", "grid.right", "grid.h")


class Subcommand(NamedTuple):
    handler: Callable
    defaults: dict          # the run settings it layers over DEFAULTS
    reads: tuple            # keys of its flags (--config, --out-dir aside)
    # keys it reads only as "auto": a number for one, from a flag or the
    # config file, is a usage error
    auto_only: tuple = ()


SUBCOMMANDS = {
    "constants": Subcommand(cmd_constants, {}, (*_MODEL, "c")),
    "simulate": Subcommand(cmd_simulate, {}, (*_MODEL, *_GRID, "t_end",
                                              "dt")),
    # Newton takes no time step; CoupledRelax steps in pseudo-time, at the
    # automatic dt of a steady-state relaxation
    "wave": Subcommand(cmd_wave, {}, (*_MODEL, "c", *_GRID, "method"),
                       ("dt",)),
    # the stability norm weights the far tail by e^{2 eta x}; a right edge
    # at 45 keeps the round-off there out of it
    "stability": Subcommand(cmd_stability,
                            {"grid.left": "-60", "grid.right": "45",
                             "t_end": "20"},
                            (*_MODEL, "c", *_GRID, "method", "eta", "t_end"),
                            ("dt",)),
    "speed": Subcommand(cmd_speed, _CO_MOVING, (*_MODEL, *_GRID, "t_end",
                                                "dt")),
    "sweep": Subcommand(cmd_sweep, _CO_MOVING,
                        (*_MODEL, *_GRID, "t_end", "dt", "jobs",
                         *(f"{key}_values" for key in _SWEEP_KEYS))),
    "certify": Subcommand(cmd_certify, {}, (*_MODEL, "c", "seed")),
}


def _flag(key: str) -> str:
    return "--" + key.replace(".", "-").replace("_", "-")


def emit_plot(out_dir: str, kind: str) -> str:
    """Write a deterministic matplotlib script referencing the CSV outputs."""
    sources = {
        "profile": ("profile.csv", PLOT_PROFILE),
        "log-decay": ("profile.csv", PLOT_LOGDECAY),
        "stability": ("decay.csv", PLOT_STABILITY),
    }
    if kind not in sources:
        raise DomainError(f"unknown plot kind {kind!r}")
    csv_name, template = sources[kind]
    csv_path = os.path.join(out_dir, csv_name)
    if not os.path.exists(csv_path):
        raise DomainError(f"missing CSV for plot: {csv_path}")
    with open(csv_path) as fh:
        if len(fh.readlines()) <= 1:
            raise DomainError(f"no data in {csv_path}")
    path = os.path.join(out_dir, f"plot_{kind.replace('-', '_')}.py")
    with open(path, "w", newline="\n") as fh:
        fh.write(template.format(csv=csv_name))
    return path


PLOT_PROFILE = '''"""Plot the wave profile (U, V against x)."""
import numpy as np
import matplotlib.pyplot as plt

x, U, V = np.loadtxt("{csv}", delimiter=",", skiprows=1, unpack=True)
fig, ax = plt.subplots()
ax.plot(x, U, label="U")
ax.plot(x, V, label="V", linestyle="--")
ax.set_xlabel("x")
ax.legend()
fig.savefig("profile.png", dpi=150)
'''

PLOT_LOGDECAY = '''"""Plot -log U against x to expose the exponential decay rate."""
import numpy as np
import matplotlib.pyplot as plt

x, U, V = np.loadtxt("{csv}", delimiter=",", skiprows=1, unpack=True)
mask = (U > 0) & (U < 0.5)
fig, ax = plt.subplots()
ax.plot(x[mask], -np.log(U[mask]))
ax.set_xlabel("x")
ax.set_ylabel("-log U")
fig.savefig("log_decay.png", dpi=150)
'''

PLOT_STABILITY = '''"""Semilog plot of the weighted norm W(t) with its predicted envelope."""
import json
import numpy as np
import matplotlib.pyplot as plt

t, W, supdiff = np.loadtxt("{csv}", delimiter=",", skiprows=1, unpack=True)
with open("stability.json") as fh:
    meta = json.load(fh)
fig, ax = plt.subplots()
ax.semilogy(t, W, label="W(t)")
lam = meta["lambda_pred"]
ax.semilogy(t, meta["envelope_slack"] * W[0] * np.exp(2 * lam * t),
            linestyle="--", label="envelope")
ax.set_xlabel("t")
ax.legend()
fig.savefig("stability.png", dpi=150)
'''


def build_parser() -> argparse.ArgumentParser:
    subcommand_defaults = "; ".join(
        f"{name}: " + ", ".join(f"{k}={v}" for k, v in sub.defaults.items())
        for name, sub in SUBCOMMANDS.items() if sub.defaults)
    ap = argparse.ArgumentParser(
        prog="chemowave",
        description="1D chemotaxis front toolkit: constants, Cauchy runs, "
                    "traveling waves, stability, spreading speeds, barrier "
                    "certificates.",
        epilog="Config keys (key=value file or flags): "
               + ", ".join(f"{k} (default {v})" for k, v in DEFAULTS.items())
               + f". Subcommand defaults, over those: {subcommand_defaults}"
               + ". Precedence: defaults < subcommand defaults < --config "
                 "file < flags < CHEMOWAVE_OUT (out_dir). A flag the "
                 "subcommand never reads exits 64.")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", help="flat key=value config file")
    for key, default in DEFAULTS.items():
        ap.add_argument(_flag(key), dest=key, default=None, metavar="V",
                        help=f"default {default}")
    ap.add_argument("--jobs", type=int, default=None,
                    help="sweep worker count (default 1)")
    for key in _SWEEP_KEYS:
        ap.add_argument(f"--{key}-values", dest=f"{key}_values", default=None,
                        metavar="LIST", help=f"comma list of {key} for sweep")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 64
    overrides = {k: getattr(ns, k) for k in DEFAULTS}
    sub = SUBCOMMANDS[ns.subcommand]
    unread = [_flag(key) for key, value in vars(ns).items()
              if value is not None and key not in sub.reads + sub.auto_only
              and key not in ("subcommand", "config", "out_dir")]
    if unread:
        them = "them" if len(unread) > 1 else "it"
        print(f"usage: {', '.join(unread)}: {ns.subcommand} never reads "
              f"{them}; drop {them}", file=sys.stderr)
        return 64
    jobs = 1 if ns.jobs is None else ns.jobs
    if jobs < 1:
        print(f"usage: --jobs: must be >= 1, got {jobs}", file=sys.stderr)
        return 64
    values = {}
    for key in _SWEEP_KEYS:
        raw = getattr(ns, f"{key}_values")
        if raw:
            try:
                values[key] = [_number(f"{key}_values", tok)
                               for tok in raw.split(",") if tok.strip()]
            except DomainError as exc:
                print(f"usage: --{key}-values: {exc}", file=sys.stderr)
                return 64
    try:
        cfg = parse_config(ns.config, overrides, ns.subcommand)
        for key in sub.auto_only:
            if cfg[key] is not None:
                print(f"usage: {_flag(key)}: {ns.subcommand} takes no fixed "
                      f"{key}, got {cfg[key]:g}; drop it or give "
                      f"{_flag(key)} auto", file=sys.stderr)
                return 64
        sweep_args = (values, jobs) if ns.subcommand == "sweep" else ()
        return sub.handler(cfg, *sweep_args)
    except (SpeedError, NoConvergence, BlowupDetected, StiffnessError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    except StepBudgetError as exc:
        advice = "shorten --t-end" + (" or raise --dt" if "dt" in sub.reads
                                      else "")
        print(f"error: {exc}: {advice}", file=sys.stderr)
        return 1
    except (DomainError, RegimeError, NoFront, NormalizationError,
            WindowTooShort, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

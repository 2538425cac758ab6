"""CSV/JSON persistence: 15 significant digits, LF endings, deterministic.

Every CSV is a header line and equal-length float columns, each value as
"%.15g" writes it (nan, inf and -0 included).  A CSV body is one
%-format of a row format whose first column is already written out; the
last row format is kept, so a run's snapshots, which share their x
column, format it once.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache

import numpy as np

from .errors import DomainError


@lru_cache(maxsize=1)
def _row_format(k: int, first: bytes) -> str:
    """Body format: each value of the first column, then k "%.15g" slots."""
    rest = ",%.15g" * k + "\n"
    return "".join(["%.15g" % x + rest
                    for x in np.frombuffer(first).tolist()])


def write_csv(path: str, header, columns) -> None:
    """Header line, then one line per row of the equal-length float columns.

    The values are converted to Python floats once and written by one
    %-format against _row_format, keyed on the first column's bytes (so
    0.0 and -0.0 are different keys).
    """
    first, *rest = (np.asarray(col, dtype=float) for col in columns)
    body = _row_format(len(rest), first.tobytes())
    if rest:
        body %= tuple(np.column_stack(rest).ravel().tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def write_profile_csv(path: str, profile) -> None:
    write_csv(path, ("x", "U", "V"),
              (profile.U.x, profile.U.values, profile.V.values))


def write_snapshot_csv(out_dir: str, state) -> str:
    path = os.path.join(out_dir, f"snap_t{state.t:g}.csv")
    write_csv(path, ("x", "u", "v"),
              (state.u.x, state.u.values, state.v.values))
    return path


def write_monitors_csv(path: str, monitors) -> None:
    write_csv(path, ("t", "sup_u", "inf_u", "front_x"),
              (monitors.times, monitors.sup_u, monitors.inf_u,
               monitors.front_x))


def write_decay_csv(path: str, record) -> None:
    write_csv(path, ("t", "W", "supdiff"),
              (record.times, record.W, record.supdiff))


def write_run_outputs(out_dir: str, snapshots, monitors) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for s in snapshots:
        write_snapshot_csv(out_dir, s)
    write_monitors_csv(os.path.join(out_dir, "monitors.csv"), monitors)


def jsonable(value):
    """Recursively replace NaN/inf floats with None for strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_manifest(out_dir: str, config: dict, extra: dict | None = None) -> None:
    from . import __version__
    os.makedirs(out_dir, exist_ok=True)
    payload = {"artifact": "chemowave", "version": __version__,
               "config": config}
    if extra:
        payload.update(extra)
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {body!r}")
            key, value = body.split("=", 1)
            out[key.strip()] = value.strip()
    return out

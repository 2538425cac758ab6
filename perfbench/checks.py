"""Correctness checks on the files each task writes, and CSV digests.

Thresholds come from `tests/test_acceptance.py::TOLERANCES`, imported,
so the benchmark and the acceptance suite cannot drift apart.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

# criterion 8 asserts r2 > 0.999 inline; TOLERANCES has no entry for it
SWEEP_MIN_R2 = 0.999


def load_tolerances(root: str) -> dict:
    for sub in ("tests", "src"):
        path = os.path.join(root, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    from test_acceptance import TOLERANCES
    return TOLERANCES


def csv_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV under out_dir, keyed by relative path."""
    digests = {}
    for dirpath, _, files in os.walk(out_dir):
        for fname in files:
            if fname.endswith(".csv"):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, out_dir)] = hashlib.sha256(
                        fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def _json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _column(path, name):
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _check_wave_fp(out, tol):
    d = _json(out, "diagnostics.json")
    lim = tol["5_limits_rel"]
    problems = []
    if not d["sandwich_violation"] <= tol["5_sandwich"]:
        problems.append(f"sandwich {d['sandwich_violation']}")
    if not d["monotonicity_violation"] < tol["5_monotonicity"]:
        problems.append(f"monotonicity {d['monotonicity_violation']}")
    if not abs(d["left_limit"] - 1.0) < lim:
        problems.append(f"left limit {d['left_limit']}")
    if not abs(d["right_limit"]) < lim:
        problems.append(f"right limit {d['right_limit']}")
    return problems


def _check_stability(out, tol):
    s = _json(out, "stability.json")
    problems = [] if s["passed"] else ["stability FAIL"]
    if not s["supdiff_end"] < tol["6_supdiff"]:
        problems.append(f"supdiff_end {s['supdiff_end']}")
    return problems


def _check_certify(out, tol):
    return [] if _json(out, "certify.json")["passed"] else ["certify FAIL"]


def _check_simulate(out, tol):
    violations = _json(out, "manifest.json")["violations"]
    return [f"violations {violations}"] if violations else []


def _check_sweep(out, tol):
    with open(os.path.join(out, "speeds.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if len(rows) == 4 else [f"{len(rows)} rows, expected 4"]
    for row in rows:
        c_fit, r2 = float(row["c_fit"]), float(row["r2"])
        if not (math.isfinite(c_fit)
                and abs(c_fit - 2.0) / 2.0 < tol["8_speed_rel"]
                and r2 > SWEEP_MIN_R2):
            problems.append(f"row chi={row['chi']} gamma={row['gamma']}: "
                            f"c_fit={c_fit} r2={r2}")
    return problems


CHECKS = {
    "wave_fp": _check_wave_fp,
    "wave_relax": lambda out, tol: [],
    "stability": _check_stability,
    "certify_neg": _check_certify,
    "certify_pos": _check_certify,
    "simulate": _check_simulate,
    "sweep": _check_sweep,
}


def task_problems(task_name: str, out: str, rc, tol: dict) -> list[str]:
    """Reasons the task failed; empty when its outputs pass."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return CHECKS[task_name](out, tol)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def uniqueness_problems(out_fp: str, out_relax: str, tol: dict) -> list[str]:
    """Criterion 7: the two normalized wave profiles agree in sup norm."""
    try:
        u1 = _column(os.path.join(out_fp, "profile.csv"), "U")
        u2 = _column(os.path.join(out_relax, "profile.csv"), "U")
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable profile: {exc}"]
    if len(u1) != len(u2):
        return [f"profile lengths differ: {len(u1)} vs {len(u2)}"]
    sup = max(abs(a - b) for a, b in zip(u1, u2))
    limit = tol["7_uniqueness_sup"]
    return [] if sup < limit else [f"uniqueness sup diff {sup} >= {limit}"]

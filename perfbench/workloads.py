"""The benchmark's workloads: which CLI tasks each one runs, and why.

Every workload is a closed loop: one fresh interpreter imports
`chemowave.cli` and calls `main(argv)` for each task in order, the next
task starting only when the previous one has returned.  A workload's
tasks form one round.  The first round runs whole; further rounds leave
out any task whose longest run so far would end past the measuring
time, so the end of a run fills with more samples of the short tasks.

The seed only perturbs inputs whose work is known to stay within a few
percent of the nominal case; seed 0 gives the nominal values:

* the `wave` speed c is drawn from [3.95, 4.05] (c = 3.93 takes 61,159
  FixedPoint steps and c = 4.08 takes 62,857, against 61,940 at c = 4);
* the `simulate` chi is drawn from [-1.05, -0.95];
* certify's `--seed` is the seed itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Task:
    """One CLI call. `metric` names the per-subcommand time it feeds."""

    name: str          # selects the output checks; a task may repeat
    metric: str        # wave_fp_s, wave_relax_s, stability_s, ...
    slot: str          # end-to-end slot: task1_s or task2_s
    argv: tuple        # CLI arguments without --out-dir
    cap_s: float       # wall-time cap; a task that hits it has failed


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple       # one round, in order


WAVE_GRID = ("--grid-left", "-100", "--grid-right", "100", "--grid-h", "0.05")


def jitter(seed: int) -> dict:
    """Seed-derived inputs; seed 0 gives the nominal values."""
    if seed == 0:
        return {"c": 4.0, "sim_chi": -1.0, "certify_seed": 0}
    rng = random.Random(seed)
    return {"c": round(rng.uniform(3.95, 4.05), 6),
            "sim_chi": round(rng.uniform(-1.05, -0.95), 6),
            "certify_seed": seed % 2**31}


def build(name: str, seed: int) -> Workload:
    j = jitter(seed)
    c = repr(j["c"])
    if name == "wave":
        # The relaxation-bound path: FixedPoint spends ~62k IMEX steps in
        # 21 outer iterations (advance_imex ~75% of its time, the
        # tridiagonal solve ~45%, auto_dt ~20%) and makes only 22 elliptic
        # solves; it is what a Newton wave solver or hot-loop fixes would
        # speed up, and it almost bypasses `elliptic` and `io`.
        # CoupledRelax (3.3k steps, elliptic ~35%) is criterion 7's
        # independent construction.  The grid is not narrowed: on
        # [-50, 50] the FixedPoint inner relaxation never converges.
        # CoupledRelax (~2 s) runs twice on either side of FixedPoint
        # (~20 s): a single 2 s sample swings with the machine's speed,
        # and the repeats must reproduce each other byte for byte.  Each
        # CoupledRelax profile is compared with the FixedPoint one once
        # that exists.
        relax = Task("wave_relax", "wave_relax_s", "task2_s",
                     ("wave", "--chi", "-1", "--c", c, *WAVE_GRID,
                      "--method", "CoupledRelax"), 6.0)
        return Workload(name, (
            relax, relax,
            Task("wave_fp", "wave_fp_s", "task1_s",
                 ("wave", "--chi", "-1", "--c", c, *WAVE_GRID), 75.0),
            relax, relax,
        ))
    if name == "verify":
        # The coupled moving-frame path: settle and run_stability refresh
        # v through `elliptic` with exponential tails on every step
        # (tens of thousands of Field builds), and certify does the
        # barriers residual-sign work.
        s = str(j["certify_seed"])
        return Workload(name, (
            Task("stability", "stability_s", "task1_s",
                 ("stability", "--chi", "0", "--c", "3", "--grid-left", "-60",
                  "--grid-right", "45", "--grid-h", "0.05", "--t-end", "20"),
                 40.0),
            Task("certify_neg", "certify_s", "task2_s",
                 ("certify", "--chi", "-1", "--c", "3", "--seed", s), 15.0),
            Task("certify_pos", "certify_s", "task2_s",
                 ("certify", "--chi", "0.25", "--c", "2.5", "--seed", s),
                 15.0),
        ))
    if name == "lab":
        # The only write-heavy workload (simulate writes 52 CSVs, ~9 MB,
        # most of its time) and the only one with the lab-frame upwind
        # scheme, constant-tail v solves and spreading-speed fits.
        # The sweep runs its four rows in one process (--jobs 1): with
        # --jobs 2 its two pool workers fill both cores of a 2-core
        # machine, so any other activity on either core stalls the
        # whole sweep, and its time spread past a 24% bound between
        # runs of the same code; in one process every call is also
        # traced.  A round is one simulate (2 s) and one sweep (8 s),
        # short enough for three rounds in a run before simulate fills
        # the rest.
        return Workload(name, (
            Task("simulate", "simulate_s", "task1_s",
                 ("simulate", "--chi", repr(j["sim_chi"]), *WAVE_GRID,
                  "--t-end", "50"), 15.0),
            Task("sweep", "sweep_s", "task2_s",
                 ("sweep", "--chi-values", "0,0.5", "--gamma-values", "1,2",
                  "--jobs", "1"), 40.0),
        ))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("wave", "verify", "lab")

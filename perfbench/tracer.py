"""Outside-in tracing of the chemowave layers.

The package is not instrumented.  Instead, `Tracer.install` replaces each
traced public function with a wrapper that records a span (kind, start,
end, parent) and then calls the original.  Modules bind names at import
(`waves.advance_imex`, `cli.construct`, `stability.run`, ...), so every
module attribute that *is* the original function is replaced, not only
the defining one; otherwise calls through those bindings would go
uncounted.  `restore` puts every original back.

Spans are kept in compact arrays until the run ends; `summarize` turns
them into the per-layer metrics.  Calls made inside the process pool of
`sweep --jobs N` (N > 1) run in other processes and are not captured;
the `lab` workload's sweep runs with --jobs 1, so its `spreading_speed`
calls and their `cauchy.run` chunks are traced in the worker itself.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import chemowave.fields

LAYERS = ("cauchy", "elliptic", "waves", "stability", "barriers", "speed",
          "io", "fields")


def _add(key, amount):
    def hook(counters, args, kwargs, result):
        counters[key] = counters.get(key, 0) + amount(args, kwargs, result)
    return hook


def _io_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _sweep_rows(counters, args, kwargs, result):
    counters["speed.rows"] = counters.get("speed.rows", 0) + len(result)
    counters["speed.rows_ok"] = counters.get("speed.rows_ok", 0) + sum(
        1 for row in result if row[4] == row[4])          # c_fit is not NaN


# (span kind, module, attribute, patch every binding?, after-return hook)
PROBES = (
    ("cauchy.run", "chemowave.cauchy", "run", True, None),
    ("cauchy.solve_v", "chemowave.cauchy", "solve_v", True, None),
    ("cauchy.auto_dt", "chemowave.cauchy", "auto_dt", True, None),
    ("cauchy.advance_imex", "chemowave.cauchy", "advance_imex", True,
     _add("cauchy.node_steps", lambda a, k, r: len(r))),
    # the banded solve called by advance_imex; elliptic's own binding of
    # solve_banded (the finite-difference cross-check) stays untraced
    ("cauchy.tridiag", "chemowave.cauchy", "solve_banded", False, None),
    ("cauchy.monitor_bounds", "chemowave.cauchy", "monitor_bounds", True,
     None),
    ("elliptic.solve_pair", "chemowave.elliptic", "solve_pair", True, None),
    ("elliptic.solve_psi", "chemowave.elliptic", "solve_psi", True, None),
    ("elliptic.psi_derivative", "chemowave.elliptic", "psi_derivative", True,
     None),
    ("waves.construct", "chemowave.waves", "construct", True,
     _add("waves.outer_iters", lambda a, k, r: r.outer_iters)),
    ("waves.construct_fixed_point", "chemowave.waves",
     "construct_fixed_point", True,
     _add("waves.fp_outer_iters", lambda a, k, r: r.outer_iters)),
    ("waves.construct_relax", "chemowave.waves", "construct_relax", True,
     None),
    ("waves.settle", "chemowave.waves", "settle", True, None),
    ("waves.normalize_translation", "chemowave.waves",
     "normalize_translation", True, None),
    ("waves.diagnose", "chemowave.waves", "diagnose", True, None),
    ("stability.run_stability", "chemowave.stability", "run_stability", True,
     None),
    ("stability.weighted_norm", "chemowave.stability", "weighted_norm", True,
     None),
    ("barriers.certify", "chemowave.barriers", "certify", True, None),
    ("barriers.solve_V", "chemowave.barriers", "solve_V", True, None),
    ("barriers.random_envelope", "chemowave.barriers", "random_envelope",
     True, None),
    ("barriers.eval_super", "chemowave.barriers", "eval_super", True, None),
    ("barriers.eval_sub", "chemowave.barriers", "eval_sub", True, None),
    ("speed.spreading_speed", "chemowave.speed", "spreading_speed", True,
     None),
    ("speed.sweep_speeds", "chemowave.speed", "sweep_speeds", True,
     _sweep_rows),
    ("speed.front_position", "chemowave.speed", "front_position", True, None),
    ("io.write_csv", "chemowave.io", "write_csv", True,
     _add("io.bytes", _io_bytes)),
    ("io.write_json", "chemowave.io", "write_json", True,
     _add("io.bytes", _io_bytes)),
    ("io.write_manifest", "chemowave.io", "write_manifest", True, None),
    ("io.write_profile_csv", "chemowave.io", "write_profile_csv", True, None),
    ("io.write_snapshot_csv", "chemowave.io", "write_snapshot_csv", True,
     None),
    ("io.write_monitors_csv", "chemowave.io", "write_monitors_csv", True,
     None),
    ("io.write_decay_csv", "chemowave.io", "write_decay_csv", True, None),
    ("io.write_run_outputs", "chemowave.io", "write_run_outputs", True, None),
)
# Every Field construction copies its values and checks them for
# finiteness; the class is shared, so patching it once covers all callers.
FIELD_PROBE = "fields.Field"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "chemowave"
                                  or name.startswith("chemowave."))]


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}    # id -> wrapper, kept alive

    def _wrap(self, name, fn, after):
        kid = len(self.kinds)
        self.kinds.append(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            kind.append(kid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        self._wrappers[id(traced)] = traced
        return traced

    def install(self) -> None:
        modules = _package_modules()
        for name, modname, attr, everywhere, after in PROBES:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, after)
            owners = modules if everywhere else [sys.modules[modname]]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        field_cls = chemowave.fields.Field
        original = field_cls.__post_init__
        self._patches.append((field_cls, "__post_init__", original))
        field_cls.__post_init__ = self._wrap(FIELD_PROBE, original, None)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        owners = _package_modules() + [chemowave.fields.Field]
        return not any(id(v) in self._wrappers
                       for owner in owners for v in vars(owner).values())

    def summarize(self, task_s: float) -> dict[str, float]:
        """Per-layer metrics; `task_s` is the summed time of the traced tasks."""
        n = len(self.start)
        kinds = self.kinds
        name = [kinds[k] for k in self.kind]
        parent = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]

        total: dict[str, float] = dict.fromkeys(kinds, 0)
        calls: dict[str, int] = dict.fromkeys(kinds, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        root_ns = io_outer_ns = 0
        # flags[f][i]: span i runs inside a span of kind f
        flags = {f: [False] * n for f in ("waves.construct_fixed_point",
                                           "waves.settle")}
        fp_steps = settle_steps = run_chunks = 0
        for i in range(n):
            nm, p = name[i], parent[i]
            total[nm] += dur[i]
            calls[nm] += 1
            self_ns[nm.split(".", 1)[0]] += dur[i] - covered[i]
            if p < 0:
                root_ns += dur[i]
            if nm.startswith("io.") and (p < 0
                                         or not name[p].startswith("io.")):
                io_outer_ns += dur[i]
            for f, flag in flags.items():
                flag[i] = nm == f or (p >= 0 and flag[p])
            if nm == "cauchy.run" and p >= 0 and (
                    name[p] == "speed.spreading_speed"):
                run_chunks += 1
            if nm == "cauchy.advance_imex":
                fp_steps += flags["waves.construct_fixed_point"][i]
                settle_steps += flags["waves.settle"][i]

        s = 1e-9
        c = self.counters
        steps = calls["cauchy.advance_imex"]
        pairs = calls["elliptic.solve_pair"]
        fp_outer = c.get("waves.fp_outer_iters", 0)
        rows = c.get("speed.rows", 0)
        out = {
            "cli.self_s": task_s - root_ns * s,
            "cauchy.steps": steps,
            "cauchy.node_steps": c.get("cauchy.node_steps", 0),
            "cauchy.advance_imex_s": total["cauchy.advance_imex"] * s,
            "cauchy.tridiag_s": total["cauchy.tridiag"] * s,
            "cauchy.auto_dt_s": total["cauchy.auto_dt"] * s,
            "cauchy.step_us": (total["cauchy.advance_imex"] / steps * 1e-3
                               if steps else 0.0),
            "cauchy.run_calls": calls["cauchy.run"],
            "cauchy.run_s": total["cauchy.run"] * s,
            "cauchy.solve_v_calls": calls["cauchy.solve_v"],
            "cauchy.solve_v_s": total["cauchy.solve_v"] * s,
            "elliptic.solve_pair_calls": pairs,
            "elliptic.solve_pair_s": total["elliptic.solve_pair"] * s,
            "elliptic.solve_pair_us": (total["elliptic.solve_pair"] / pairs
                                       * 1e-3 if pairs else 0.0),
            "waves.construct_s": total["waves.construct"] * s,
            "waves.outer_iters": c.get("waves.outer_iters", 0),
            "waves.steps_per_outer": fp_steps / fp_outer if fp_outer else 0.0,
            "waves.settle_s": total["waves.settle"] * s,
            "waves.settle_steps": settle_steps,
            "stability.run_stability_s": total["stability.run_stability"] * s,
            "barriers.certify_s": total["barriers.certify"] * s,
            "barriers.solve_V_calls": calls["barriers.solve_V"],
            "barriers.solve_V_s": total["barriers.solve_V"] * s,
            "barriers.random_envelope_s": total["barriers.random_envelope"] * s,
            "speed.spreading_speed_s": total["speed.spreading_speed"] * s,
            "speed.run_chunks": run_chunks,
            "speed.sweep_s": total["speed.sweep_speeds"] * s,
            "speed.rows_ok_ratio": c.get("speed.rows_ok", 0) / rows if rows
            else 0.0,
            "io.write_s": io_outer_ns * s,
            "io.files": calls["io.write_csv"] + calls["io.write_json"],
            "io.bytes": c.get("io.bytes", 0),
            "fields.field_builds": calls[FIELD_PROBE],
            "trace.spans": n,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] * s
        return out

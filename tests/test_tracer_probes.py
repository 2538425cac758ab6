"""The benchmark tracer patches package functions by name; keep them resolvable."""

import importlib
import importlib.util
import json
from pathlib import Path

import chemowave.fields

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_probe_resolves():
    tracer = _load_tracer()
    missing = [f"{modname}.{attr}"
               for _, modname, attr, _, _ in tracer.PROBES
               if not callable(getattr(importlib.import_module(modname),
                                       attr, None))]
    assert missing == []
    assert callable(chemowave.fields.Field.__post_init__)


def test_tracer_counts_a_small_wave_and_simulate(tmp_path):
    # a renamed function or a changed signature breaks here, not in a
    # benchmark run
    import chemowave.cli
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        codes = [chemowave.cli.main(argv + ["--out-dir", str(tmp_path / name)])
                 for name, argv in (
                     ("wave", ["wave", "--chi", "-1", "--c", "4",
                               "--grid-left", "-20", "--grid-right", "30"]),
                     ("sim", ["simulate", "--grid-left", "-10",
                              "--grid-right", "10", "--grid-h", "0.1",
                              "--t-end", "1"]))]
    finally:
        restored = tracer.restore()
    assert codes == [0, 0]
    assert restored
    layers = tracer.summarize(1.0)
    # the wave's elliptic solves are cauchy.solve_v calls
    for key in ("cauchy.steps", "waves.outer_iters", "cauchy.solve_v_calls"):
        assert layers[key] > 0, key


def test_tracer_counts_every_v_solve_of_march(tmp_path):
    # march takes one auto_dt and one advance_imex per automatic-dt step;
    # at chi != 0 it solves v at the start and after every step, at
    # chi = 0 at its samples only (t = 0 and t = 1 here), each through
    # cauchy.solve_v and so elliptic.solve_pair
    import chemowave.cli
    for chi, every_step in (("-1", True), ("0", False)):
        out = tmp_path / chi
        tracer = _load_tracer().Tracer()
        tracer.install()
        try:
            code = chemowave.cli.main(
                ["simulate", "--chi", chi, "--grid-left", "-10",
                 "--grid-right", "10", "--grid-h", "0.1", "--t-end", "1",
                 "--out-dir", str(out)])
        finally:
            restored = tracer.restore()
        assert code == 0
        assert restored
        steps = json.loads((out / "manifest.json").read_text())["steps"]
        layers = tracer.summarize(1.0)
        auto_dt_calls, tridiag_calls = (
            sum(tracer.kinds[k] == kind for k in tracer.kind)
            for kind in ("cauchy.auto_dt", "cauchy.tridiag"))
        assert steps > 2
        assert layers["cauchy.steps"] == auto_dt_calls == steps
        # each step's implicit solve is cauchy.solve_banded
        assert tridiag_calls == steps
        assert layers["cauchy.tridiag_s"] > 0
        solves = steps + 1 if every_step else 2
        assert layers["cauchy.solve_v_calls"] == solves
        assert layers["elliptic.solve_pair_calls"] == solves


def test_tracer_counts_one_weighted_norm_per_stability_sample(tmp_path):
    # run_stability takes W at each sample through stability.weighted_norm
    import chemowave.cli
    out = tmp_path / "stab"
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = chemowave.cli.main(
            ["stability", "--grid-left", "-30", "--grid-right", "30",
             "--grid-h", "0.1", "--t-end", "2", "--out-dir", str(out)])
    finally:
        restored = tracer.restore()
    assert code == 2               # t_end = 2 is too short for the drop
    assert restored
    rows = len((out / "decay.csv").read_text().splitlines()) - 1
    norms = sum(tracer.kinds[k] == "stability.weighted_norm"
                for k in tracer.kind)
    assert rows > 2
    assert norms == rows

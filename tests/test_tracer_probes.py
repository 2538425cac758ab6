"""The benchmark tracer patches package functions by name; keep them resolvable."""

import importlib
import importlib.util
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

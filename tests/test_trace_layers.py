"""The benchmark's per-layer tracer wraps engine functions by name; a
renamed function would make its layer read 0 instead of failing."""

import importlib
import importlib.util
from pathlib import Path

TRACE_JOB = Path(__file__).resolve().parents[1] / "perfbench" / "trace_job.py"


def test_every_traced_layer_resolves_to_a_flagcoh_callable():
    spec = importlib.util.spec_from_file_location("trace_job", TRACE_JOB)
    trace_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_job)
    assert trace_job.LAYERS
    for layer, module, attr in trace_job.LAYERS:
        assert module.startswith("flagcoh."), layer
        func = getattr(importlib.import_module(module), attr, None)
        assert callable(func), "%s: %s.%s is gone" % (layer, module, attr)

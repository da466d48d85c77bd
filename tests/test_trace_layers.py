"""Names that outside code looks up: the benchmark's per-layer tracer
wraps engine functions by name, so a renamed function would make its layer
read 0 instead of failing; and every name in ``flagcoh.__all__`` must
still exist, so a deleted export does not linger there."""

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


def test_every_public_name_resolves():
    flagcoh = importlib.import_module("flagcoh")
    missing = [name for name in flagcoh.__all__ if not hasattr(flagcoh, name)]
    assert not missing, "stale names in flagcoh.__all__: %s" % missing

"""Names that outside code looks up: the benchmark's per-layer tracer
wraps engine functions by name, so a renamed function would make its layer
read 0 instead of failing; a pair loop or a one-shot fold that bypasses a
traced layer would read 0 too; and every name in ``flagcoh.__all__`` must
still exist, so a deleted export does not linger there."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from flagcoh.flagvar import FlagShape, dual, tensor
from flagcoh.kapranov import enumerate_collection

ROOT = Path(__file__).resolve().parents[1]
TRACE_JOB = ROOT / "perfbench" / "trace_job.py"


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


def _trace(tmp_path, *args, code=0):
    """Run one CLI job under the tracer, which must exit with ``code``: its
    JSON output and its layers."""
    stats_path = tmp_path / "stats.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACE_JOB), str(stats_path)] + list(args) + ["--format", "json"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return json.loads(proc.stdout), json.loads(stats_path.read_text())["layers"]


def test_traced_pair_loop_counts_every_pair(tmp_path):
    out, layers = _trace(tmp_path, "check-strong", "--n", "3", "--dims", "1")
    assert out["overall"] == "confirmed"
    # P^2 has three members, so nine ordered pairs
    assert layers["cohomology.ext_best"]["calls"] == 9
    assert layers["kapranov.classify"]["calls"] == 9
    # the pair memo is keyed without the product, which is built only once
    # per distinct key: fewer products than ordered pairs
    assert layers["flagvar.tensor"]["calls"] < layers["cohomology.ext_best"]["calls"]
    assert layers["flagvar.dual"]["calls"] < layers["cohomology.ext_best"]["calls"]
    # the pair memo runs the stepwise route once per distinct product, and
    # no pair check runs the one-shot route
    members = enumerate_collection(FlagShape(3, (1,))).members
    products = {tensor(dual(a), b) for a in members for b in members}
    assert layers["cohomology.one_shot"]["calls"] == 0
    assert layers["cohomology.stepwise"]["calls"] == len(products)


def test_traced_sigma_pair_check_never_runs_the_one_shot_route(tmp_path):
    # sigma F(1,3;4) has 25 distinct products where stepwise is only a
    # bound; the pair check keeps that bound and does not fold them one-shot
    out, layers = _trace(tmp_path, "twist-check", "--n", "4", "--dims", "1,3", "--sigma", code=1)
    assert out["status"] == "refuted"
    assert layers["cohomology.stepwise"]["calls"] > layers["cohomology.stepwise"]["exact"] > 0
    assert layers["cohomology.one_shot"]["calls"] == 0


def test_traced_one_shot_fold_runs_in_expand_monomial(tmp_path):
    expr = {
        "flag": {"n": 3, "dims": [1, 2]},
        "terms": [{"mult": 1, "factors": [{"slot": "quot", "index": 1, "weight": [1, 0]}]}],
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    out, layers = _trace(tmp_path, "cohom", "--expr", str(path))
    assert out["grade"] == "exact"
    assert layers["cohomology.one_shot"]["calls"] == 1
    # the one-shot fold runs inside the traced flagvar._expand_monomial
    assert layers["flagvar.expand_monomial"]["calls"] > 0

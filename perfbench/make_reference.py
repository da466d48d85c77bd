"""Regenerate the soundness gate's references from the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the repository root.  Writes perfbench/reference/WORKLOAD.json
for every input variant the workload can produce, plus its smoke-size
inputs.  An output that fails the gate's reference-free checks is refused.
Only regenerate a reference when a change is meant to alter answers, and
say why in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import workloads
from run import REFERENCE, WORK, Runner, write_inputs


def _variants(workload: str) -> list:
    """(reference key, seed, smoke) for every distinct input variant."""
    seeds = range(workloads.TORIC_VARIANTS) if workload == "toric-grid" else [0]
    keys = [(workloads.variant_key(workload, s, False), s, False) for s in seeds]
    return keys + [("smoke", 0, True)]


def reference(workload: str) -> dict:
    variants = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        for key, seed, smoke in _variants(workload):
            jobs = workloads.jobs(workload, seed, smoke)
            write_inputs(jobs, tmp)
            results = Runner(tmp, time.monotonic() + 3600, None).run_all(jobs)
            for res in results:
                print("%s [%s] %s: exit %s" % (workload, key, res.name, res.exit_code), flush=True)
                if res.failed:
                    raise SystemExit("%s: %s" % (res.name, "; ".join(res.problems)))
            variants[key] = {res.name: res.summary for res in results}
    return {"workload": workload, "variants": variants}


def main(argv) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        ref = reference(workload)
        path = REFERENCE / ("%s.json" % workload)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's reduced-size self-test: every workload runs traced and
untraced through the soundness gate, and every declared metric is printed.
It takes about ten seconds."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert lines and lines[-1] == "smoke: passed", proc.stdout
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            where = "smoke %-24s " % ("%s --trace %d" % (workload["name"], trace))
            assert where + "ok" in lines, (where, proc.stdout)

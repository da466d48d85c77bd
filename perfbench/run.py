"""flagcoh benchmark: run one workload as flagcoh CLI jobs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Every job runs in a fresh interpreter with
cold caches, one at a time, against the package under ``src/``.  With
``--trace 0`` the workload's jobs are repeated for about S seconds, each
sharing one CPU with the yardstick in ``calibrate.py``, and the end-to-end
times are each job's median time over the yardstick's CPU time per round,
in seconds of a host on which a round takes CAL_ROUND_S.  With ``--trace 1``
the jobs run once plainly and once under ``trace_job.py``, and the
per-layer metrics come from the traced pass.  Every output passes the
soundness gate in ``gate.py``; a job that crashes, times out, exits with a
code its report does not explain, or fails the gate counts as failed, and
the command then exits 1.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload at a reduced size, traced and untraced,
and checks that every metric BENCHMARK.json names is printed with its unit
and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import re
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads
from calibrate import Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

SETUP_STARTS = 4  # per repetition, so the starts spread over the run
CAL_ROUND_S = 0.001  # one yardstick round on an unloaded 2.1 GHz Xeon vCPU, roughly
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 160.0  # a run must end within 180 s, gate checks included
JOB_MEMORY_BYTES = 2 << 30  # address-space cap, so a runaway job fails instead of OOM

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# layer -> the statistics reported for it; see trace_job.LAYERS
LAYER_STATS = (
    ("schur.lr_raw", ("calls", "self_s", "cache_hit_ratio", "cache_entries")),
    ("schur.tensor_schur", ("calls", "self_s")),
    ("flagvar.split_partition", ("calls", "self_s", "cache_hit_ratio")),
    ("flagvar.make_monomial", ("calls", "self_s")),
    ("flagvar.tensor", ("calls", "self_s")),
    ("flagvar.dual", ("calls", "self_s")),
    ("flagvar.minimal_base", ("calls", "self_s")),
    ("flagvar.expand_monomial", ("calls", "self_s", "cache_hit_ratio")),
    ("cohomology.one_shot", ("calls", "self_s")),
    ("cohomology.stepwise", ("calls", "self_s", "exact_ratio")),
    ("cohomology.ext_best", ("calls", "total_s", "fallback_ratio")),
    ("weights.bbw_resolve", ("calls", "self_s")),
    ("kapranov.classify", ("calls", "self_s")),
    ("twists.sigma_pullback", ("self_s",)),
    ("toric.line_bundle", ("calls", "self_s")),
    ("toric.orbit_check", ("self_s",)),
    ("cli.emit", ("self_s",)),
)


def _stat_unit(stat: str) -> str:
    if stat in ("calls", "cache_entries"):
        return "count"
    return "s" if stat.endswith("_s") else "ratio"


# Workload-level figures from the traced run.  The two ratios can read 0,
# so they cannot be bounded end-to-end metrics.
RUN_STATS = (
    ("kapranov.verdicts.confirmed", "count"),
    ("kapranov.verdicts.refuted", "count"),
    ("kapranov.verdicts.inconclusive", "count"),
    ("cli.output_bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_self_share", "ratio"),
    ("uncertified_ratio", "ratio"),
    ("failed_ratio", "ratio"),
)


def per_layer_metrics() -> list:
    out = []
    for layer, stats in LAYER_STATS:
        out += [("%s.%s" % (layer, stat), _stat_unit(stat)) for stat in stats]
    return out + list(RUN_STATS)


@dataclasses.dataclass
class JobResult:
    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    problems: list = dataclasses.field(default_factory=list)
    sha256: str = ""
    output_bytes: int = 0
    answers: int = 0
    uncertified: int = 0
    verdicts: dict = dataclasses.field(default_factory=dict)
    euler: str = ""  # digest of a cohom job's Euler character
    summary: dict | None = None  # the output's reference entry, without a reference
    cal: tuple = ()  # (rounds, CPU s) of the yardstick while the job ran
    stats: dict | None = None  # traced jobs only

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def job_env() -> dict:
    """The environment of every job: the caller's, minus its Python settings.

    Bytecode is cached under WORK, as an installed package would have it,
    whatever the caller's PYTHONDONTWRITEBYTECODE says.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


def _prepare_job(cpu: int | None):
    """Cap the job's memory, and pin it to ``cpu`` unless that is None."""
    resource.setrlimit(resource.RLIMIT_AS, (JOB_MEMORY_BYTES, JOB_MEMORY_BYTES))
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


class Runner:
    """Runs jobs in fresh interpreters, times them and gates their output.

    ``refs`` maps job names to reference entries.  With ``refs=None`` only
    the reference-free checks run, and each result carries its output's
    summary instead, which is how references are made.  With a
    ``yardstick``, each job shares its CPU with it.
    """

    def __init__(self, tmp: Path, deadline: float, refs: dict | None, yardstick=None):
        self.tmp = tmp
        self.deadline = deadline
        self.refs = refs
        self.env = job_env()
        self.yardstick = yardstick
        self.passed: dict = {}  # (job, exit code, sha256) -> gated JobResult

    def command(self, job, traced: bool) -> list:
        args = job.argv(self.tmp)
        if traced:
            return [sys.executable, str(HERE / "trace_job.py"), str(self.tmp / "stats.json"), *args]
        return [sys.executable, "-m", "flagcoh.cli", *args]

    def run(self, job, traced: bool = False) -> JobResult:
        res = JobResult(job.name)
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            res.problems.append("not started: the run's %.0f s budget is spent" % RUN_BUDGET_S)
            return res
        out_path, err_path = self.tmp / "out.json", self.tmp / "err.txt"
        stats_path = self.tmp / "stats.json"
        stats_path.unlink(missing_ok=True)
        shared = self.yardstick is not None
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if shared:
                self.yardstick.start()
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.command(job, traced),
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=ROOT,
                preexec_fn=lambda: _prepare_job(self.yardstick.cpu if shared else None),
            )
            status, usage, timed_out = _wait(proc, timeout)
            res.wall_s = time.perf_counter() - start
            if shared:
                res.cal = self.yardstick.stop()
        res.cpu_s = usage.ru_utime + usage.ru_stime
        res.rss_mb = usage.ru_maxrss / 1024.0
        res.exit_code = os.waitstatus_to_exitcode(status)
        if timed_out:
            res.problems.append("timed out after %.0f s and was killed" % timeout)
            return res
        if res.exit_code not in (0, 1, 2):
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            res.problems.append("exit code %d: %s" % (res.exit_code, " | ".join(tail)))
            return res
        raw = out_path.read_bytes()
        res.sha256 = hashlib.sha256(raw).hexdigest()
        res.output_bytes = len(raw)
        if traced:
            res.stats = json.loads(stats_path.read_text())
        key = (job.name, res.exit_code, res.sha256)
        if key in self.passed:  # byte-identical to an output already gated
            return dataclasses.replace(
                self.passed[key], wall_s=res.wall_s, cpu_s=res.cpu_s,
                rss_mb=res.rss_mb, stats=res.stats, cal=res.cal, problems=[],
            )
        try:
            data = json.loads(raw)
        except ValueError as exc:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            res.problems.append("output is not JSON (%s): %s" % (exc, " | ".join(tail)))
            return res
        try:
            ref = None if self.refs is None else self.refs[job.name]
            res.problems += gate.check(job.kind, data, res.exit_code, ref)
            if ref is None:
                res.summary = gate.summarize(job.kind, data)
            res.answers, res.uncertified = gate.answers(job.kind, data)
            if job.kind == "pairs":
                for p in data["pairs"]:
                    res.verdicts[p["status"]] = res.verdicts.get(p["status"], 0) + 1
            if job.kind == "cohom":
                res.euler = gate.digest(data["euler"])
        except (KeyError, TypeError, ValueError) as exc:
            res.problems.append("output does not have the expected shape: %r" % exc)
        if not res.problems:
            self.passed[key] = res
        return res

    def run_all(self, jobs, traced: bool = False) -> list:
        results = [self.run(job, traced) for job in jobs]
        # one-shot and stepwise must agree on the Euler character of each input
        groups: dict = {}
        for job, res in zip(jobs, results):
            if job.kind == "cohom" and not res.failed:
                groups.setdefault(tuple(job.files), []).append(res)
        for group in groups.values():
            if len({res.euler for res in group}) > 1:
                for res in group:
                    res.problems.append("one-shot and stepwise Euler characters differ")
        return results


def _wait(proc, timeout: float):
    """Wait for ``proc``, killing it after ``timeout`` seconds.

    Returns (wait status, its resource usage, whether it was killed).
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage, not ready


def check_import(env: dict):
    """Check that jobs import flagcoh from ``src/``.

    This first start also caches the bytecode, as an installed package
    would have it, so that no timed start compiles.
    """
    probe = "import flagcoh.cli, sys; sys.stdout.write(flagcoh.cli.__file__)"
    found = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    if found.returncode != 0 or Path(found.stdout).resolve() != SRC / "flagcoh" / "cli.py":
        raise SystemExit(
            "perfbench: cannot import flagcoh.cli from %s: %s"
            % (SRC, found.stderr.strip().splitlines()[-1:] or found.stdout)
        )


def setup_times(env: dict, starts: int) -> list:
    """Seconds for a fresh interpreter to import flagcoh.cli, ``starts`` times."""
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import flagcoh.cli"], env=env, check=True, timeout=60
        )
        times.append(time.perf_counter() - start)
    return times


def write_inputs(jobs, folder: Path):
    for job in jobs:
        for name, obj in job.files.items():
            (folder / name).write_text(json.dumps(obj))


def load_reference(workload: str, key: str) -> dict:
    refs = json.loads((REFERENCE / ("%s.json" % workload)).read_text())
    if key not in refs["variants"]:
        raise SystemExit("perfbench: no reference for %s variant %s" % (workload, key))
    return refs["variants"][key]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (result object, report lines)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    jobs = workloads.jobs(workload, seed, smoke)
    refs = load_reference(workload, workloads.variant_key(workload, seed, smoke))
    WORK.mkdir(exist_ok=True)
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=WORK)))
        write_inputs(jobs, tmp)
        env = job_env()
        check_import(env)
        if trace:
            runner = Runner(tmp, deadline, refs)
            plain = runner.run_all(jobs)
            traced = runner.run_all(jobs, traced=True)
            results = plain + traced
            metrics, missing = _layer_metrics(plain, traced)
        else:
            yardstick = Yardstick(max(os.sched_getaffinity(0)), env)
            stack.callback(yardstick.close)
            runner = Runner(tmp, deadline, refs, yardstick)
            setup, reps = [], []
            begin = time.monotonic()
            while True:
                rep_start = time.monotonic()
                setup += setup_times(env, SETUP_STARTS)
                reps.append(runner.run_all(jobs))
                now = time.monotonic()
                if any(r.failed for r in reps[-1]) or now - begin + (now - rep_start) > seconds:
                    break
            results = [r for rep in reps for r in rep]
            metrics = _end_to_end_metrics(setup, reps)
            raw = _raw_times(reps)
    failed = [r for r in results if r.failed]
    lines = ["workload %s seed %d (inputs %s), %s" % (
        workload, seed, workloads.variant_key(workload, seed, smoke), "traced" if trace else "untraced")]
    lines += ["job %-34s exit %s  %8.3f s  sha256 %s" % (r.name, r.exit_code, r.wall_s, r.sha256[:16])
              for r in results]
    lines += ["FAILED %s: %s" % (r.name, "; ".join(r.problems)) for r in failed]
    if trace:
        lines += ["trace: %s has no entry point in flagcoh; its metrics read 0" % layer
                  for layer in missing]
    lines += [_line(name, value, unit, n) for name, (value, unit, n) in metrics.items()]
    if not trace:  # not bounded, since they can read 0; see RUN_STATS
        lines.append(raw)
        answers = sum(r.answers for r in results[: len(jobs)])
        uncertified = sum(r.uncertified for r in results[: len(jobs)])
        lines.append(_line("uncertified_ratio", _ratio(uncertified, answers), "ratio", len(jobs))
                     + "  (%d of %d answers)" % (uncertified, answers))
        lines.append(_line("failed_ratio", len(failed) / len(results), "ratio", len(results))
                     + "  (%d of %d jobs)" % (len(failed), len(results)))
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _n) in metrics.items()},
    }
    return result, lines


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _line(name, value, unit, n) -> str:
    return "%-40s %-22r %-6s n=%d" % (name, value, unit, n)


def _round_s(res) -> float:
    """The yardstick's CPU seconds per round while ``res`` ran."""
    rounds, cpu = res.cal
    return cpu / max(rounds, 1)


def _end_to_end_metrics(setup: list, reps: list) -> dict:
    """Times are each job's median time in yardstick rounds, summed over the
    jobs and scaled back to seconds by CAL_ROUND_S.

    ``cpu_s`` counts the job's CPU time.  ``wall_s`` counts its elapsed time
    less the yardstick's CPU time in the same span, which is the job's CPU
    time plus any time the CPU gave to neither.
    """
    n = len(reps)
    per_job = list(zip(*reps))

    def scaled(job, seconds):
        return CAL_ROUND_S * statistics.median(seconds(r) / _round_s(r) for r in job)

    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (sum(scaled(job, lambda r: r.wall_s - r.cal[1]) for job in per_job), "s", n),
        "cpu_s": (sum(scaled(job, lambda r: r.cpu_s) for job in per_job), "s", n),
        "peak_rss_mb": (max(r.rss_mb for rep in reps for r in rep), "MB", n),
    }


def _raw_times(reps: list) -> str:
    """Unscaled figures, printed for reference only."""
    per_job = list(zip(*reps))
    fastest = sum(min(r.cpu_s for r in job) for job in per_job)
    round_s = statistics.median(_round_s(r) for rep in reps for r in rep)
    return "raw: fastest CPU time summed over jobs %.3f s; median yardstick round %.3f ms (reference %.3f ms)" % (
        fastest, 1000 * round_s, 1000 * CAL_ROUND_S)


def _layer_metrics(plain: list, traced: list):
    """(per-layer metrics, layers whose entry point the tracer did not find)."""
    n = len(traced)
    totals: dict = {}
    for res in traced:
        for layer, st in (res.stats or {"layers": {}})["layers"].items():
            acc = totals.setdefault(layer, {})
            for key, value in st.items():
                if key in ("entries", "sites"):  # per process
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    missing = sorted(layer for layer, st in totals.items() if not st["sites"])

    out = {}
    for layer, stats in LAYER_STATS:
        st = totals.get(layer, {})
        calls = st.get("calls", 0)
        values = {
            "calls": calls,
            "self_s": st.get("self_s", 0.0),
            "total_s": st.get("total_s", 0.0),
            "cache_hit_ratio": _ratio(st.get("hits", 0), st.get("hits", 0) + st.get("misses", 0)),
            "cache_entries": st.get("entries", 0),
            "exact_ratio": _ratio(st.get("exact", 0), calls),
            "fallback_ratio": _ratio(st.get("fallback", 0), calls),
        }
        for stat in stats:
            out["%s.%s" % (layer, stat)] = (values[stat], _stat_unit(stat), n)
    verdicts: dict = {}
    for res in traced:
        for status, count in res.verdicts.items():
            verdicts[status] = verdicts.get(status, 0) + count
    traced_wall = sum(r.wall_s for r in traced)
    self_total = sum(st.get("self_s", 0.0) for st in totals.values())
    results = plain + traced
    answers = sum(r.answers for r in plain)
    values = {
        "kapranov.verdicts.confirmed": verdicts.get("confirmed", 0),
        "kapranov.verdicts.refuted": verdicts.get("refuted", 0),
        "kapranov.verdicts.inconclusive": verdicts.get("inconclusive", 0),
        "cli.output_bytes": sum(r.output_bytes for r in traced),
        "trace.overhead_ratio": _ratio(traced_wall, sum(r.wall_s for r in plain)),
        "trace.layer_self_share": _ratio(self_total, traced_wall),
        "uncertified_ratio": _ratio(sum(r.uncertified for r in plain), answers),
        "failed_ratio": _ratio(sum(r.failed for r in results), len(results)),
    }
    for name, unit in RUN_STATS:
        out[name] = (values[name], unit, len(results) if name == "failed_ratio" else n)
    return out, missing


def smoke() -> int:
    """Reduced-size run of every workload, traced and untraced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    if declared[0] != list(END_TO_END) or declared[1] != per_layer_metrics():
        problems.append("BENCHMARK.json metrics differ from the ones run.py reports")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, lines = measure(workload, 0, 1, bool(trace), smoke=True)
            where = "%s --trace %d" % (workload, trace)
            if not result["correct"]:
                problems.append("%s: %d of %d jobs failed" % (where, result["failed"], result["attempted"]))
                problems += [line for line in lines if line.startswith("FAILED")]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            for name, unit in declared[trace]:
                pattern = r"%s\s+\S+\s+%s\s+n=[1-9]\d*\b" % (re.escape(name), re.escape(unit))
                if not any(re.match(pattern, line) for line in lines):
                    problems.append("%s: %s is not printed with unit %s and a sample count" % (where, name, unit))
                if result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append("%s: %s missing from the result object" % (where, name))
            print("smoke %-24s %s" % (where, "ok" if result["correct"] else "FAILED"), flush=True)
    for line in problems:
        print("smoke: " + line)
    print("smoke: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size self-test")
    args = parser.parse_args(argv)
    if not (SRC / "flagcoh" / "cli.py").is_file():
        print("perfbench: no flagcoh package at %s; run from the repository root" % SRC, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Soundness gate: checks a job's output against a compact reference.

A byte digest of the whole output would also reject a change that turns
an inconclusive pair into a decided one, which is exactly what later work
aims for.  So the reference keeps only what must not change:

* every pair's Euler character (exact at every grade), by row digest;
* the status of every pair that was ``confirmed`` or ``refuted``;
* every outcome that was ``exact``, by row digest over those pairs;
* for toric-grid, whose answers are all exact, the whole output.

Reference-free checks run on every output: a confirmed pair has no bound
in its forbidden degrees and its Euler character equals its Hom
character, a refuted pair carries a witness, the report's status is the
worst pair status, and the exit code matches that status.  The whole
output's sha256 is recorded too, as information only.
"""

from __future__ import annotations

import hashlib
import json

STATUS_CODE = {"confirmed": "c", "refuted": "r", "inconclusive": "i"}
GRADE_CODE = {"exact": "x", "e1bound": "b", "euler_only": "e"}
_EXIT = {"confirmed": 0, "refuted": 1, "inconclusive": 2}
_RANK = {"confirmed": 0, "inconclusive": 1, "refuted": 2}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pairs(data) -> list:
    return sorted(data["pairs"], key=lambda p: (p["i"], p["j"]))


def _row_digests(pairs, value, mask=None) -> list:
    rows: dict = {}
    for k, p in enumerate(pairs):
        if mask is None or mask[k]:
            rows.setdefault(p["i"], []).append(value(p))
    return [digest(rows.get(i, [])) for i in sorted({p["i"] for p in pairs})]


def _report_status(data) -> str:
    return data["overall"] if "overall" in data else data["status"]


def summarize(kind: str, data) -> dict:
    """The reference entry for one job's parsed output."""
    if kind == "pairs":
        pairs = _pairs(data)
        grades = "".join(GRADE_CODE[p["outcome"]["grade"]] for p in pairs)
        return {
            "pairs": len(pairs),
            "status": "".join(STATUS_CODE[p["status"]] for p in pairs),
            "grades": grades,
            "euler_rows": _row_digests(pairs, lambda p: p["outcome"]["euler"]),
            "exact_rows": _row_digests(
                pairs, lambda p: p["outcome"], [g == "x" for g in grades]
            ),
        }
    if kind == "cohom":
        return {
            "grade": data["grade"],
            "euler": digest(data["euler"]),
            "outcome": digest(data),
        }
    if kind == "toric":
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    raise ValueError("unknown job kind %r" % kind)


def _terms(character) -> dict:
    return {tuple(t["weight"]): t["mult"] for t in character}


def _check_pair(p) -> str | None:
    where = "pair (%d, %d)" % (p["i"], p["j"])
    if p["status"] not in STATUS_CODE:
        return "%s: unknown status %r" % (where, p["status"])
    outcome = p["outcome"]
    if p["status"] == "confirmed":
        forbidden = [
            d
            for d, cs in outcome["by_degree"].items()
            if cs and (p["requirement"] == "total" or int(d) > 0)
        ]
        if forbidden:
            return "%s: confirmed with a bound in degrees %s" % (where, forbidden)
        if _terms(outcome["euler"]) != _terms(p["hom"]):
            return "%s: confirmed but Euler character != Hom character" % where
    if p["status"] == "refuted" and not p.get("witness"):
        return "%s: refuted without a witness" % where
    return None


def check(kind: str, data, exit_code: int, ref: dict | None) -> list:
    """Problems with one job's output; empty when it passes.

    ``ref`` is the job's reference entry, or None to run only the
    reference-free checks.
    """
    if kind == "pairs":
        return _check_pairs(data, exit_code, ref)
    if kind == "cohom":
        problems = [] if exit_code == 0 else ["exit code %d, expected 0" % exit_code]
        if data["grade"] not in GRADE_CODE:
            problems.append("unknown grade %r" % data["grade"])
        if ref is not None:
            got = summarize(kind, data)
            if got["euler"] != ref["euler"]:
                problems.append("Euler character differs from the reference")
            if ref["grade"] == "exact" and got["outcome"] != ref["outcome"]:
                problems.append("exact outcome differs from the reference")
        return problems
    if kind == "toric":
        ok = data["status"] == "confirmed" and data.get("orbits", {}).get(
            "orbit_closed", True
        )
        problems = []
        if exit_code != (0 if ok else 1):
            problems.append("exit code %d does not match the report" % exit_code)
        if ref is not None and summarize(kind, data) != ref:
            problems.append("output differs from the reference")
        return problems
    raise ValueError("unknown job kind %r" % kind)


def _check_pairs(data, exit_code, ref) -> list:
    pairs = _pairs(data)
    problems = [msg for msg in map(_check_pair, pairs) if msg]
    worst = max((p["status"] for p in pairs), key=_RANK.get, default="confirmed")
    status = _report_status(data)
    if status != worst:
        problems.append("report status %r, worst pair status %r" % (status, worst))
    if exit_code != _EXIT.get(status):
        problems.append("exit code %d does not match status %r" % (exit_code, status))
    if ref is None:
        return problems
    if len(pairs) != ref["pairs"]:
        return problems + ["%d pairs, reference has %d" % (len(pairs), ref["pairs"])]
    changed = [
        (p["i"], p["j"])
        for p, code in zip(pairs, ref["status"])
        if code in "cr" and STATUS_CODE.get(p["status"]) != code
    ]
    if changed:
        problems.append("%d decided pairs changed status, first %s" % (len(changed), changed[0]))
    rows = _row_digests(pairs, lambda p: p["outcome"]["euler"])
    bad = [i for i, (a, b) in enumerate(zip(rows, ref["euler_rows"])) if a != b]
    if bad:
        problems.append("Euler characters differ in rows %s" % bad[:10])
    mask = [g == "x" for g in ref["grades"]]
    rows = _row_digests(pairs, lambda p: p["outcome"], mask)
    bad = [i for i, (a, b) in enumerate(zip(rows, ref["exact_rows"])) if a != b]
    if bad:
        problems.append("exact outcomes differ in rows %s" % bad[:10])
    return problems


def answers(kind: str, data) -> tuple:
    """(answers attempted, answers not certified) in one job's output."""
    if kind == "pairs":
        pairs = data["pairs"]
        return len(pairs), sum(p["status"] == "inconclusive" for p in pairs)
    if kind == "cohom":
        return 1, int(data["grade"] != "exact")
    if kind == "toric":
        n = len(data["grid"])
        return n * (n - 1), 0
    raise ValueError("unknown job kind %r" % kind)

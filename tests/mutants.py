"""Mutation harness: each mutant is one deliberate fault in ``src/flagcoh``
that the named test files must catch.

Usage: python tests/mutants.py [NAME ...]

Run from anywhere; it needs only the standard library and the test
dependencies.  The tests, the sources and the benchmark are copied to a
temporary folder once.  The named test files are first run unmutated and
must pass there.  Then each mutant in turn replaces its old text (which
must occur exactly once) with its new text in that copy, runs its test
files one after another with pytest, stopping at the first failure, and
puts the old text back.  A mutant is killed when some run fails.  Nothing
runs in parallel.  The exit code is 0 when every mutant selected is
killed and 1 otherwise; with NAMEs only those mutants run.  A full run
takes about a minute, so it is not part of the tier-1 suite;
``tests/test_mutants.py`` only checks that every old text is still in the
source exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # test files, relative to the repository root; one must fail


MUTANTS = (
    Mutant(
        "dropped LR multiplicity",
        "src/flagcoh/flagvar.py",
        "grown[new] = grown.get(new, 0) + m * c",
        "grown[new] = grown.get(new, 0) + m",
        ("tests/test_flagvar.py",),
    ),
    Mutant(
        "fold that never merges",
        "src/flagcoh/flagvar.py",
        "if any(ws[lo:hi]) and any(vs[lo:hi]):",
        "if False:",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        "flipped degree shift in _lower_pieces",
        "src/flagcoh/cohomology.py",
        "acc[d + shift, w] = acc.get((d + shift, w), 0) + c * mult",
        "acc[d - shift, w] = acc.get((d - shift, w), 0) + c * mult",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "_pair_key leaves out an interval",
        "src/flagcoh/flagvar.py",
        "for span in sorted(us.keys() | vs.keys()):",
        "for span in sorted(us.keys() | vs.keys())[1:]:",
        ("tests/test_flagvar.py",),
    ),
    Mutant(
        "dropped det(E)^v twist in toric",
        "src/flagcoh/toric.py",
        "twist = tuple(-sum(s[c] for s in bundle) for c in range(len(bundle[0])))",
        "twist = (0,) * len(bundle[0])",
        ("tests/test_toric.py",),
    ),
    Mutant(
        "readers accept unknown keys",
        "src/flagcoh/weights.py",
        "unknown = sorted(set(obj) - set(keys) - set(optional))",
        "unknown = []",
        ("tests/test_schur.py",),
    ),
    Mutant(
        "no Euler comparison in twists._reading",
        "src/flagcoh/twists.py",
        "if ext_outcome.euler != refined.euler:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "split kept without its shape",
        "src/flagcoh/cohomology.py",
        "_memo(table.splits, (shape, w), _flat_factor",
        "_memo(table.splits, w, _flat_factor",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        "one table shared by every call",
        "src/flagcoh/cohomology.py",
        "    def __init__(self):\n"
        "        self.pieces, self.bbw, self.splits, self.pairs = {}, {}, {}, {}",
        "    def __init__(self, shared=({}, {}, {}, {})):\n"
        "        self.pieces, self.bbw, self.splits, self.pairs = shared",
        ("tests/test_kapranov.py",),
    ),
)


def _pytest(copy: Path, test: str) -> bool:
    """Whether the test file ``test`` passes in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode == 0


def run(mutants) -> bool:
    """Apply each mutant in turn to one temporary copy; print one line per
    mutant and whether it was killed.  True when every one was."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="flagcoh-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for test in sorted({t for m in mutants for t in m.tests}):
            if not _pytest(copy, test):
                print("unmutated %s fails: fix it first" % test)
                return False
        all_killed = True
        for m in mutants:
            path = copy / m.file
            source = path.read_text()
            if source.count(m.old) != 1:
                raise SystemExit("%s: old text occurs %d times" % (m.name, source.count(m.old)))
            start = time.perf_counter()
            path.write_text(source.replace(m.old, m.new))
            try:
                killer = next((t for t in m.tests if not _pytest(copy, t)), None)
            finally:
                path.write_text(source)
            all_killed = all_killed and killer is not None
            verdict = "SURVIVED" if killer is None else "killed by %s" % killer
            print("%-40s %s (%.0f s)" % (m.name, verdict, time.perf_counter() - start), flush=True)
    return all_killed


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit("unknown mutant %s" % ", ".join(sorted(unknown)))
    return 0 if run(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

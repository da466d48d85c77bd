"""Mutation harness: each mutant is one deliberate fault in ``src/flagcoh``
that the named tests must catch.

Usage: python tests/mutants.py [NAME ...]

Run from anywhere; it needs only the standard library and the test
dependencies.  The tests, the sources, the benchmark and the README
(whose library example a test runs) are copied to a temporary folder
once.  A named test is a test file, or one test in it as pytest names
it (``file::test``) where that test alone must catch the mutant.  The
named tests are first run unmutated and must pass there.  Then each
mutant in turn replaces its old text (which must occur exactly once)
with its new text in that copy, runs its tests one after another with
pytest, stopping at the first failure, and puts the old
text back.  A mutant is killed when some run fails.  Nothing runs in
parallel.  The exit code is 0 when every mutant selected is killed and 1
otherwise; with NAMEs only those mutants run.  A full run takes about a
minute, so it is not part of the tier-1 suite; ``tests/test_mutants.py``
only checks that every old text is still in the source exactly once.
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
    tests: tuple  # test files (or file::test), relative to the repository root; one must fail


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
        ("tests/test_toric.py::test_hirzebruch_euler_matches_riemann_roch",),
    ),
    Mutant(
        "readers accept unknown keys",
        "src/flagcoh/weights.py",
        "unknown = sorted(set(obj) - set(keys) - set(optional))",
        "unknown = []",
        ("tests/test_cli.py",),
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
    Mutant(
        "split loses the empty kappa",
        "src/flagcoh/flagvar.py",
        "    for kappa in subs:",
        "    for kappa in subs[1:]:",
        ("tests/test_flagvar.py",),
    ),
    Mutant(
        "ext takes the one-shot route",
        "src/flagcoh/cli.py",
        "    outcome = ext_groups_best(a, b)\n",
        "    from .flagvar import dual, tensor\n\n    outcome = cohomology(tensor(dual(a), b))\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "grid failure degrees stay ints",
        "src/flagcoh/toric.py",
        "cohomology={str(d): dim for d, dim",
        "cohomology={d: dim for d, dim",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "twist-check drops --sigma",
        "src/flagcoh/cli.py",
        "report = check_T2(t, sigma=args.sigma)",
        "report = check_T2(t)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "counterexample status ignores established",
        "src/flagcoh/twists.py",
        "return REFUTED if self.established else INCONCLUSIVE",
        "return REFUTED",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "closed stdout reported as input error",
        "src/flagcoh/cli.py",
        "code, text = EX_IOERR, None",
        "code, text = EX_DATAERR, None",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "sigma_pullback keeps the weights",
        "src/flagcoh/flagvar.py",
        "lambda span, w: (image[span], dual_weight(w))",
        "lambda span, w: (image[span], w)",
        ("tests/test_cohomology.py::test_sigma_preserves_outcomes",),
    ),
    Mutant(
        "outcome accepts any grade",
        "src/flagcoh/cohomology.py",
        "if grade not in (EXACT, E1_BOUND):",
        "if False:",
        ("tests/test_cohomology.py::test_euler_only_outcome",),
    ),
    Mutant(
        "character sum keeps the last term",
        "src/flagcoh/cohomology.py",
        "acc[w] = acc.get(w, 0) + c * mult",
        "acc[w] = c * mult",
        ("tests/test_cohomology.py",),
    ),
    Mutant(
        "stderr write unsuppressed",
        "src/flagcoh/cli.py",
        "        except OSError:  # a closed stderr leaves the code as it is\n",
        "        except ValueError:  # a closed stderr leaves the code as it is\n",
        ("tests/test_cli.py::test_closed_stderr_keeps_the_exit_code",),
    ),
    Mutant(
        "tower generators not validated",
        "src/flagcoh/toric.py",
        "        _validate_generators(self, _generators(self))\n",
        "",
        ("tests/test_cli.py::test_tower_with_a_bad_permutation_is_an_input_error",),
    ),
    Mutant(
        "outcome by_degree writable",
        "src/flagcoh/cohomology.py",
        'init(self, "by_degree", MappingProxyType(dict(by_degree or {})))',
        'init(self, "by_degree", dict(by_degree or {}))',
        ("tests/test_cohomology.py::test_shared_outcome_is_immutable",),
    ),
    Mutant(
        "pair format with two keys swapped",
        "src/flagcoh/cli.py",
        r"""'{\n      "hom": %s,\n      "i": %d,\n      "j": %d,""",
        r"""'{\n      "hom": %s,\n      "j": %d,\n      "i": %d,""",
        ("tests/test_cli.py::test_every_pair_text_is_its_json_dumps",),
    ),
    Mutant(
        "shared outcome text kept at the wrong indent",
        "src/flagcoh/cli.py",
        "                kept[key] = texts\n",
        '                kept[key] = texts[0], texts[1].replace("\\n", "\\n  ")\n',
        ("tests/test_cli.py::test_pairs_sharing_an_outcome_render_identically",),
    ),
    Mutant(
        "shared outcome text given to the next pair",
        "src/flagcoh/cli.py",
        "texts = kept.get(key) if holders",
        "texts = next(iter(kept.values()), None) if holders",
        ("tests/test_cli.py::test_every_pair_text_is_its_json_dumps",),
    ),
    Mutant(
        "shared outcome text kept after its last pair",
        "src/flagcoh/cli.py",
        "else kept.pop(key, None)",
        "else kept.get(key)",
        ("tests/test_cli.py::test_only_shared_outcomes_are_kept_and_rendered_once",),
    ),
    Mutant(
        "dual convention in toric",
        "src/flagcoh/toric.py",
        "sign, shift, n = 1, 0, t",
        "sign, shift, n = -1, 0, t",
        ("tests/test_toric.py::test_hirzebruch_every_degree_matches_the_fan",),
    ),
    Mutant(
        "SchurMonomial skips the weakly-decreasing check",
        "src/flagcoh/flagvar.py",
        "            if not is_weakly_decreasing(w):\n"
        '                raise ValueError("weight %r not weakly decreasing" % (w,))\n',
        "",
        ("tests/test_cli.py::test_unsorted_lone_weight_is_an_input_error_on_every_path",),
    ),
    Mutant(
        "FlagShape equality ignores dims",
        "src/flagcoh/flagvar.py",
        '_fields = ("n", "dims")',
        '_fields = ("n", "n")',
        ("tests/test_flagvar.py::test_value_types_compare_hash_and_print_by_value",),
    ),
    Mutant(
        "value fields read only the first",
        "src/flagcoh/weights.py",
        "attrgetter(*cls._fields)",
        "attrgetter(*cls._fields[:1])",
        ("tests/test_values.py::test_changing_any_one_field_breaks_equality",),
    ),
    Mutant(
        "diagonal skips the Hom = k rule",
        "src/flagcoh/kapranov.py",
        "_check_pairs(c.members, TOTAL, simple=True)",
        "_check_pairs(c.members, TOTAL)",
        ("tests/test_kapranov.py::test_a_diagonal_pair_with_hom_bigger_than_k_is_refuted",),
    ),
    Mutant(
        "derived witness ignores the Hom = k case",
        "src/flagcoh/kapranov.py",
        "return _classify(self.outcome, self.requirement, self.simple)[1]",
        "return classify_vanishing(self.outcome, self.requirement)[1]",
        ("tests/test_kapranov.py::test_every_verdict_follows_from_its_outcome",),
    ),
    Mutant(
        "character sum iterates its pairs",
        "src/flagcoh/schur.py",
        "__iter__ = None",
        "def __iter__(self):\n        return iter(self.items())",
        ("tests/test_schur.py::test_a_character_sum_is_read_by_weight_or_by_items_only",),
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
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
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

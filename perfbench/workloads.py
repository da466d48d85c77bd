"""Workload definitions: the flagcoh CLI jobs each workload runs.

A job is one ``flagcoh`` invocation plus the JSON input files it reads.
Inputs are generated here from the workload seed; the program under test
only ever sees the generated files.  Why each workload exists, and which
layers it stresses, is written down in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("kapranov-strong", "large-weight", "twist-sigma", "toric-grid")

# toric-grid draws its seeded towers from a fixed pool, so that every seed
# has a committed reference answer; variant 0 is the named default tower.
TORIC_VARIANTS = 8


@dataclass
class Job:
    name: str
    args: list  # flagcoh arguments; "{name}" stands for the path of files[name]
    files: dict = field(default_factory=dict)  # file name -> JSON-able object
    kind: str = "pairs"  # "pairs", "cohom" or "toric": how its output is read

    def argv(self, folder) -> list:
        """The flagcoh arguments, with input files read from ``folder``."""
        out = []
        for arg in self.args:
            for name in self.files:
                arg = arg.replace("{%s}" % name, str(folder / name))
            out.append(arg)
        return out + ["--format", "json"]


def variant_key(workload: str, seed: int, smoke: bool) -> str:
    """The reference key of the inputs a (workload, seed) pair produces."""
    if smoke:
        return "smoke"
    if workload == "toric-grid":
        return str(seed % TORIC_VARIANTS)
    return "0"  # the other workloads' inputs are fixed by name


def jobs(workload: str, seed: int, smoke: bool = False) -> list:
    if workload == "kapranov-strong":
        n, dims = (4, "1,2,3") if smoke else (5, "1,2,3,4")
        return [
            Job(
                "check-strong F(%s;%d)" % (dims, n),
                ["check-strong", "--n", str(n), "--dims", dims],
            )
        ]
    if workload == "large-weight":
        return _large_weight((6,) if smoke else (8, 10, 12))
    if workload == "twist-sigma":
        shapes = (
            [(3, "1,2"), (4, "1,3")]
            if smoke
            else [(5, "2,3"), (4, "1,2,3"), (5, "1,4")]
        )
        return [
            Job(
                "twist-check --sigma F(%s;%d)" % (dims, n),
                ["twist-check", "--n", str(n), "--dims", dims, "--sigma"],
            )
            for n, dims in shapes
        ]
    if workload == "toric-grid":
        return [_toric(variant_key(workload, seed, smoke))]
    raise ValueError("unknown workload %r" % workload)


def _large_weight(ks) -> list:
    """E_k = S^(k,k/2,3,0) Q_1 (x) S^(0,0,-1,-k) W_2 on F(2,4;6), one-shot
    and stepwise."""
    out = []
    for k in ks:
        expr = {
            "flag": {"n": 6, "dims": [2, 4]},
            "terms": [
                {
                    "mult": 1,
                    "factors": [
                        {"slot": "quot", "index": 1, "weight": [k, k // 2, 3, 0]},
                        {"slot": "sub", "index": 2, "weight": [0, 0, -1, -k]},
                    ],
                }
            ],
        }
        files = {"expr_k%d.json" % k: expr}
        path = "{expr_k%d.json}" % k
        out.append(Job("cohom k=%d" % k, ["cohom", "--expr", path], files, "cohom"))
        out.append(
            Job(
                "cohom --stepwise k=%d" % k,
                ["cohom", "--expr", path, "--stepwise"],
                files,
                "cohom",
            )
        )
    return out


def _toric(key: str) -> Job:
    """Base P^r; level 1 is two copies of P(O(t_1)+...+O(t_4)) swapped by
    the permutation [1,0]; level 2 is P(O(a_1,0,0)+O(a_2,0,0)+O(a_3,1,1)).

    The default (variant 0, also the smoke tower's twists) is t = (0,1,2,3),
    a = (0,1,0).  Other variants draw t and a at random.  Only twists along
    the base coordinate vary: those change the answer but not the number of
    pushforward terms, so every variant does the same work.  The fiber
    twists (0,0),(0,0),(1,1) stay fixed, which also keeps the swap a
    symmetry of the tower.
    """
    if key in ("0", "smoke"):
        t, a = [0, 1, 2, 3], [0, 1, 0]
    else:
        rng = random.Random(int(key))
        t = [rng.randint(0, 3) for _ in range(4)]
        a = [rng.randint(0, 3) for _ in range(3)]
    base_dim = 1 if key == "smoke" else 4
    rank1 = 2 if key == "smoke" else 4
    bundle1 = [[x] for x in t[:rank1]]
    tower = {
        "base_dim": base_dim,
        "levels": [
            {"bundles": [bundle1, bundle1], "perms": [[1, 0]]},
            {
                "bundles": [[[a[0], 0, 0], [a[1], 0, 0], [a[2], 1, 1]]],
                "perms": [],
            },
        ],
    }
    return Job(
        "toric-check tower=%s" % key,
        ["toric-check", "--tower", "{tower.json}"],
        {"tower.json": tower},
        "toric",
    )

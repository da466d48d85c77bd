"""Line-bundle cohomology on towers of projective bundles over P^r0.

A tower is P(E_m) -> ... -> P(E_1) -> P^{r_0} where each level is a fiber
product of projectivized split bundles, every summand twist nonnegative.
Since every bundle involved is a sum of line bundles, all pushforwards
stay split and cohomology is computed exactly, dimension by dimension.

Pushforward convention for p: P(E) -> X with rank E = e (the quotient
convention, consistent with the trivial-bundle oracle P(O^(r+1)) = P^r x X
and with relative Serre duality):

* p_* O(t) = Sym^t(E)                for t >= 0,
* Rp_* O(t) = 0                      for -e < t < 0,
* R^(e-1) p_* O(t) = Sym^(-t-e)(E^v) (x) det(E)^v   for t <= -e.

This is the convention under which the [-r_i, 0] grid is strong
exceptional (checked explicitly on Hirzebruch surfaces); the grid is
ordered lexicographically with the topmost level's coordinates most
significant and the base least.

A grid pair's answer depends only on the difference of its two line
bundles, so ``check_grid_collection`` computes each distinct difference
once.  Pushforward terms are carried as aggregated multiplicities
{(lower multidegree, cohomological degree): mult}: Sym^n of a split bundle
is one count per distinct summed multidegree, and equal terms are summed
after every factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .kapranov import CONFIRMED, EXIT_CODE, REFUTED
from .weights import InputError, strict_int


@dataclass(frozen=True)
class Level:
    """One stage of the tower: m parallel projectivized split bundles of a
    common rank, given by their summand multidegrees over the stage below,
    plus permutation generators on the m factors."""

    bundles: tuple  # tuple[bundle]; bundle = tuple[multidegree]; multidegree = tuple[int]
    perms: tuple = ()

    @property
    def m(self) -> int:
        return len(self.bundles)

    @property
    def rank(self) -> int:
        return len(self.bundles[0])

    @property
    def fiber_dim(self) -> int:
        return self.rank - 1


@dataclass(frozen=True)
class TowerSpec:
    base_dim: int
    levels: tuple

    def __post_init__(self):
        if self.base_dim < 0:
            raise ValueError("base dimension must be >= 0")
        below = self.base_picard
        for li, level in enumerate(self.levels):
            if not level.bundles:
                raise ValueError("level %d has no bundles" % li)
            for bundle in level.bundles:
                if len(bundle) != level.rank:
                    raise ValueError("level %d bundles must share one rank" % li)
                if level.rank < 1:
                    raise ValueError("bundle rank must be >= 1")
                for md in bundle:
                    if len(md) != below:
                        raise ValueError(
                            "level %d multidegrees must have length %d" % (li, below)
                        )
                    if any(x < 0 for x in md):
                        raise ValueError("summand twists must be nonnegative")
            for perm in level.perms:
                if sorted(perm) != list(range(level.m)):
                    raise ValueError("bad permutation %r at level %d" % (perm, li))
            below += level.m

    @property
    def base_picard(self) -> int:
        # P^0 contributes nothing to the Picard lattice
        return 1 if self.base_dim > 0 else 0

    @property
    def picard_rank(self) -> int:
        return self.base_picard + sum(level.m for level in self.levels)

    def grid_ranges(self):
        """Per-coordinate ranges [-r, 0] of the exceptional grid."""
        ranges = []
        if self.base_dim > 0:
            ranges.append(self.base_dim)
        for level in self.levels:
            ranges.extend([level.fiber_dim] * level.m)
        return ranges

    def grid(self):
        """The candidate collection, ordered lexicographically with the
        topmost level most significant (ascending)."""
        axes = [range(-r, 1) for r in self.grid_ranges()]
        return sorted(
            (tuple(d) for d in itertools.product(*axes)),
            key=lambda d: tuple(reversed(d)),
        )

    def to_json(self):
        return {
            "base_dim": self.base_dim,
            "levels": [
                {
                    "bundles": [[list(md) for md in b] for b in level.bundles],
                    "perms": [list(p) for p in level.perms],
                }
                for level in self.levels
            ],
        }

    @classmethod
    def from_json(cls, data):
        levels = tuple(
            Level(
                bundles=tuple(
                    tuple(tuple(map(strict_int, md)) for md in b) for b in lv["bundles"]
                ),
                perms=tuple(tuple(map(strict_int, p)) for p in lv.get("perms", [])),
            )
            for lv in data["levels"]
        )
        return cls(strict_int(data["base_dim"]), levels)


def _proj_cohomology(r: int, t: int) -> dict:
    """H^*(P^r, O(t)) dimensions."""
    if t >= 0:
        return {0: comb(t + r, r)}
    if t >= -r:
        return {}
    return {r: comb(-t - 1, r)}


def _sym_offsets(bundle, n: int) -> dict:
    """Sym^n of a split bundle as {summed multidegree: count}: one entry
    per distinct multidegree, however many multisets of summands give it."""
    width = len(bundle[0])
    out: dict = {}
    for pick in itertools.combinations_with_replacement(bundle, n):
        md = tuple(sum(s[c] for s in pick) for c in range(width))
        out[md] = out.get(md, 0) + 1
    return out


def _push_factor(terms: dict, bundle, t: int) -> dict:
    """Push one projective-bundle factor: ``terms`` maps (lower
    multidegree, cohomological degree) to a multiplicity; the factor twist
    t is fixed, the lower multidegree absorbs the split Sym pieces.  The
    three cases of the convention differ only in sign, shift and twist."""
    e = len(bundle)
    if -e < t < 0:
        return {}
    if t >= 0:
        # Sym^t(E) = (+) O(sum of t summand twists)
        sign, shift, n = 1, 0, t
        twist = (0,) * len(bundle[0])
    else:
        # Sym^(-t-e)(E^v) (x) det(E)^v in relative degree e-1
        sign, shift, n = -1, e - 1, -t - e
        twist = tuple(-sum(s[c] for s in bundle) for c in range(len(bundle[0])))
    sym = _sym_offsets(bundle, n)
    out: dict = {}
    for (md, cd), mult in terms.items():
        for off, count in sym.items():
            key = (
                tuple(x + w + sign * o for x, w, o in zip(md, twist, off)),
                cd + shift,
            )
            out[key] = out.get(key, 0) + mult * count
    return out


def line_bundle_cohomology(tower: TowerSpec, d) -> dict:
    """H^*(tower, O(d)) as a map {degree: dimension}, computed exactly by
    pushing down one projective-bundle factor at a time.  The multidegree
    must be integers; floats and booleans raise ``InputError``."""
    d = tuple(strict_int(x) for x in d)
    if len(d) != tower.picard_rank:
        raise ValueError(
            "multidegree length %d, expected %d" % (len(d), tower.picard_rank)
        )
    terms = {(d, 0): 1}
    hi = tower.picard_rank
    for level in reversed(tower.levels):
        lo = hi - level.m
        new_terms: dict = {}
        for (md, cd), mult in terms.items():
            pieces = {(md[:lo], cd): mult}
            for k in range(level.m):
                pieces = _push_factor(pieces, level.bundles[k], md[lo + k])
                if not pieces:
                    break
            for key, m in pieces.items():
                new_terms[key] = new_terms.get(key, 0) + m
        terms = new_terms
        hi = lo
    out: dict[int, int] = {}
    for (md, cd), mult in terms.items():
        if tower.base_dim > 0:
            base = _proj_cohomology(tower.base_dim, md[0])
        else:
            base = {0: 1}
        for deg, dim in base.items():
            out[cd + deg] = out.get(cd + deg, 0) + mult * dim
    return {deg: dim for deg, dim in sorted(out.items()) if dim}


@dataclass
class GridReport:
    tower: TowerSpec
    grid: list
    status: str = CONFIRMED
    failures: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.status]

    def to_json(self):
        return {
            "tower": self.tower.to_json(),
            "grid": [list(d) for d in self.grid],
            "status": self.status,
            "failures": self.failures,
        }


def check_grid_collection(tower: TowerSpec) -> GridReport:
    """Strong exceptionality of the lex-ordered grid of line bundles.

    Every computation here is exact, so verdicts are two-valued: for
    a < b (lex) the difference must have no higher cohomology, for a > b
    no cohomology at all, and Hom(O(a), O(a)) = k automatically.

    A pair's answer is H^*(O(b - a)), so each distinct difference is
    computed once; the memo lives for this call only and holds at most
    prod(2 r_i + 1) entries, one per point of the box of differences.
    """
    grid = tower.grid()
    report = GridReport(tower, grid)
    memo: dict = {}
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            if i == j:
                continue
            diff = tuple(y - x for x, y in zip(a, b))
            coh = memo.get(diff)
            if coh is None:
                coh = memo[diff] = line_bundle_cohomology(tower, diff)
            bad = {deg: dim for deg, dim in coh.items() if i > j or deg > 0}
            if bad:
                report.status = REFUTED
                report.failures.append(
                    {"i": i, "j": j, "difference": list(diff), "cohomology": bad}
                )
    return report


def _group_elements(tower: TowerSpec):
    """All elements of the per-level permutation group (one permutation per
    level), generated by the level generators."""
    identity = tuple(tuple(range(level.m)) for level in tower.levels)
    gens = []
    for li, level in enumerate(tower.levels):
        for p in level.perms:
            g = list(identity)
            g[li] = tuple(p)
            gens.append(tuple(g))
    elements = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(
                tuple(cp[gp[k]] for k in range(len(gp))) for cp, gp in zip(cur, g)
            )
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    return sorted(elements)


def _apply_element(tower: TowerSpec, g, d):
    out = list(d)
    lo = tower.base_picard
    for level, perm in zip(tower.levels, g):
        block = out[lo : lo + level.m]
        out[lo : lo + level.m] = [block[perm[k]] for k in range(level.m)]
        lo += level.m
    return tuple(out)


def _validate_generators(tower: TowerSpec):
    """Each generator must map every level's bundle list to itself: the
    bundle at the image position, with lower coordinates permuted the same
    way, must equal the source bundle (as a multiset of summands)."""
    for g in _group_elements(tower):
        for level, perm in zip(tower.levels, g):
            for k in range(level.m):
                src = sorted(
                    _apply_element(tower, g, md + (0,) * (tower.picard_rank - len(md)))[
                        : len(md)
                    ]
                    for md in level.bundles[k]
                )
                dst = sorted(level.bundles[perm[k]])
                if src != dst:
                    raise InputError(
                        "permutation does not preserve the level structure"
                    )


def galois_orbit_check(tower: TowerSpec) -> dict:
    """Orbit partition of the grid under the factor-permutation group.

    Closure needs no test: every coordinate of one level ranges over the
    same [-r, 0], and an element only permutes coordinates within a level,
    so once ``_validate_generators`` passes every orbit stays in the grid.
    ``orbit_closed`` is reported as that constant.
    """
    _validate_generators(tower)
    elements = _group_elements(tower)
    seen = set()
    classes = []
    for d in tower.grid():
        if d in seen:
            continue
        orb = sorted({_apply_element(tower, g, d) for g in elements})
        seen.update(orb)
        classes.append(orb)
    return {
        "orbit_closed": True,
        "orbit_classes": [[list(x) for x in orb] for orb in classes],
    }

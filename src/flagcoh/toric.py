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

Pushing O(md) down one level only translates the lower multidegree by
offsets that depend on the level's twists alone.  So cohomology comes
from a table built for one call: each level is pushed once per distinct
tuple of its twists, from the zero lower multidegree, to aggregated
multiplicities {(lower offset, degree shift): mult} (Sym^n of a split
bundle is one count per distinct summed multidegree, and equal terms are
summed after every factor), and each stage below the top keeps its
answers per multidegree in its own memo.  The memos live as long as the
table; nothing is kept between calls.  A grid pair's answer depends only
on the difference of its two line bundles, so ``check_grid_collection``
builds one table and resolves each distinct difference once.

The Galois group permutes the factors within each level.  It is given by
per-level generators, written as permutations of the Picard coordinates,
and never enumerated: ``TowerSpec`` rejects generators that do not preserve
the level structure when the tower is built, before any grid work, and
``galois_orbit_check`` takes each orbit as the closure of a grid point
under them.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add, mul, sub

from .kapranov import CONFIRMED, REFUTED
from .weights import (
    InputError,
    _check_keys,
    _Frozen,
    _ints,
    _json_list,
    _Value,
    strict_int,
)


class Level(_Frozen):
    """One stage of the tower: m parallel projectivized split bundles of a
    common rank, given by their summand multidegrees over the stage below,
    plus permutation generators on the m factors.  Immutable."""

    __slots__ = _fields = ("bundles", "perms")

    def __init__(self, bundles: tuple, perms: tuple = ()):
        # bundles: tuple[bundle]; bundle = tuple[multidegree]; multidegree = tuple[int]
        object.__setattr__(self, "bundles", bundles)
        object.__setattr__(self, "perms", perms)

    @property
    def m(self) -> int:
        return len(self.bundles)

    @property
    def rank(self) -> int:
        return len(self.bundles[0])

    @property
    def fiber_dim(self) -> int:
        return self.rank - 1


class TowerSpec(_Frozen):
    """A tower over P^base_dim with its ``levels``, bottom first.
    Immutable; it is validated when it is built."""

    __slots__ = _fields = ("base_dim", "levels")

    def __init__(self, base_dim: int, levels: tuple):
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "levels", levels)
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
        _validate_generators(self, _generators(self))

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
        """Read a tower; an unknown key, or ``levels``, ``bundles``,
        ``perms`` or one of their entries that is not a JSON list, is an
        input error, never ignored or coerced."""
        _check_keys(data, ("base_dim", "levels"), "tower")
        levels = []
        for lv in _json_list(data["levels"], "levels"):
            _check_keys(lv, ("bundles",), "level", optional=("perms",))
            bundles = tuple(
                tuple(_ints(md, "a multidegree") for md in _json_list(b, "a bundle"))
                for b in _json_list(lv["bundles"], "bundles")
            )
            perms = tuple(
                _ints(p, "a permutation") for p in _json_list(lv.get("perms", []), "perms")
            )
            levels.append(Level(bundles, perms))
        return cls(strict_int(data["base_dim"]), tuple(levels))


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


def _push_level(level: Level, twists: tuple, width: int) -> dict:
    """Push O(twists) down one level from the zero multidegree of the
    stage below, one factor at a time: {(lower offset, degree shift):
    mult}.  Every push only translates, so O(md, twists) over a lower
    multidegree md pushes to the same terms moved by md."""
    terms = {((0,) * width, 0): 1}
    for bundle, t in zip(level.bundles, twists):
        terms = _push_factor(terms, bundle, t)
        if not terms:
            break
    return terms


class _CohomologyTable:
    """H^*(O(md)) on a tower, one stage at a time.  Stage 0 is the base
    and stage k adds level k; H on stage k is the sum over the terms of
    the level push of mult x H on stage k - 1 at the moved multidegree,
    every degree shifted.  Each level push is kept per distinct twist
    tuple and each stage's answers per multidegree, for the life of the
    table; the top stage's answers are not kept, so a caller that asks
    again keeps its own.  Answers are tuples ((degree, dimension), ...):
    most are empty or one degree, and a tuple holds them in a fraction of
    a dict's memory."""

    def __init__(self, tower: TowerSpec):
        self.tower = tower
        self._widths = [tower.base_picard]  # Picard rank of each stage
        for level in tower.levels:
            self._widths.append(self._widths[-1] + level.m)
        self._pushes = [{} for _ in tower.levels]
        self._memos = [{} for _ in tower.levels]  # stages 0 .. top - 1

    def top(self, md: tuple) -> tuple:
        """H^*(tower, O(md)), in increasing degree."""
        return tuple(sorted(self._compute(len(self.tower.levels), md).items()))

    def _stage(self, k: int, md: tuple) -> tuple:
        memo = self._memos[k]
        coh = memo.get(md)
        if coh is None:
            coh = memo[md] = tuple(self._compute(k, md).items())
        return coh

    def _compute(self, k: int, md: tuple) -> dict:
        if k == 0:
            r = self.tower.base_dim
            return _proj_cohomology(r, md[0]) if r > 0 else {0: 1}
        width = self._widths[k - 1]
        twists = md[width:]
        pushes = self._pushes[k - 1]
        push = pushes.get(twists)
        if push is None:
            push = pushes[twists] = _push_level(self.tower.levels[k - 1], twists, width)
        low = md[:width]
        out: dict = {}
        for (off, shift), mult in push.items():
            for deg, dim in self._stage(k - 1, tuple(map(add, low, off))):
                out[deg + shift] = out.get(deg + shift, 0) + mult * dim
        return out


def line_bundle_cohomology(tower: TowerSpec, d) -> dict:
    """H^*(tower, O(d)) as a map {degree: dimension}, computed exactly by
    pushing down one level at a time.  The multidegree must be integers;
    floats and booleans raise ``InputError``."""
    d = tuple(strict_int(x) for x in d)
    if len(d) != tower.picard_rank:
        raise ValueError(
            "multidegree length %d, expected %d" % (len(d), tower.picard_rank)
        )
    return dict(_CohomologyTable(tower).top(d))


class GridReport(_Value):
    _fields = ("tower", "grid", "failures")

    def __init__(self, tower: TowerSpec, grid: list, failures: list | None = None):
        self.tower = tower
        self.grid = grid
        self.failures = [] if failures is None else failures

    @property
    def status(self) -> str:
        # every answer is exact, so a failure refutes and none confirms
        return REFUTED if self.failures else CONFIRMED

    def to_json(self):
        return {
            "tower": self.tower.to_json(),
            "grid": [list(d) for d in self.grid],
            "status": self.status,
            "failures": [
                dict(f, cohomology={str(d): dim for d, dim in f["cohomology"].items()})
                for f in self.failures
            ],
        }


def check_grid_collection(tower: TowerSpec) -> GridReport:
    """Strong exceptionality of the lex-ordered grid of line bundles.

    Every computation here is exact, so verdicts are two-valued: for
    a < b (lex) the difference must have no higher cohomology, for a > b
    no cohomology at all, and Hom(O(a), O(a)) = k automatically.

    A pair's answer is H^*(O(b - a)).  One cohomology table serves the
    whole call, and its per-stage memos die with it.  Each grid point
    gets a mixed-radix code with strides prod(2 r_c + 1): the grid lies
    in the box prod [-r_c, 0], so every coordinate of b - a lies in
    [-r_c, r_c] and code(b) - code(a) names b - a alone.  The pair memo is
    keyed by that integer and holds the one copy of each answer, one per
    point of the box of differences; the difference itself is built only
    to resolve a new key or to report a failure.
    """
    grid = tower.grid()
    report = GridReport(tower, grid)
    strides, stride = [], 1
    for r in tower.grid_ranges():
        strides.append(stride)
        stride *= 2 * r + 1
    codes = [sum(map(mul, a, strides)) for a in grid]
    table = _CohomologyTable(tower)
    memo: dict = {}
    for i, (a, code_a) in enumerate(zip(grid, codes)):
        for j, code_b in enumerate(codes):
            if i == j:
                continue
            coh = memo.get(code_b - code_a)
            if coh is None:
                coh = memo[code_b - code_a] = table.top(tuple(map(sub, grid[j], a)))
            # coh is in increasing degree, so coh[-1][0] is its top degree
            if coh and (i > j or coh[-1][0] > 0):
                report.failures.append(
                    {
                        "i": i,
                        "j": j,
                        "difference": list(map(sub, grid[j], a)),
                        "cohomology": {deg: dim for deg, dim in coh if i > j or deg > 0},
                    }
                )
    return report


def _generators(tower: TowerSpec) -> list:
    """Each level generator as a permutation g of the Picard coordinates,
    acting by d -> (d[g[0]], d[g[1]], ...)."""
    gens = []
    lo = tower.base_picard
    for level in tower.levels:
        for perm in level.perms:
            g = list(range(tower.picard_rank))
            g[lo : lo + level.m] = [lo + k for k in perm]
            gens.append(tuple(g))
        lo += level.m
    return gens


def _validate_generators(tower: TowerSpec, gens: list):
    """Run by ``TowerSpec``'s constructor.  Each generator g must map every
    level's bundle list to itself: bundle k, with its lower coordinates
    moved by g, must equal bundle g(k) as a multiset of summands.  A
    generator moves one level, so this says that the bundles of that level
    agree along the permutation and that every higher bundle is invariant
    under the coordinate move; both are closed under composition, so every
    group element passes too."""
    for g in gens:
        lo = tower.base_picard
        for level in tower.levels:
            for k in range(level.m):
                src = sorted(tuple(md[c] for c in g[: len(md)]) for md in level.bundles[k])
                if src != sorted(level.bundles[g[lo + k] - lo]):
                    raise InputError("permutation does not preserve the level structure")
            lo += level.m


def galois_orbit_check(tower: TowerSpec) -> dict:
    """Orbit partition of the grid under the factor-permutation group: the
    orbit of a grid point is its closure under the level generators.

    Closure needs no test: every coordinate of one level ranges over the
    same [-r, 0], an element only permutes coordinates within a level, and
    the ``TowerSpec`` constructor has already rejected generators that do
    not preserve the level structure, so every orbit stays in the grid.
    ``orbit_closed`` is reported as that constant.
    """
    gens = _generators(tower)
    seen = set()
    classes = []
    for d in tower.grid():
        if d in seen:
            continue
        orb = {d}
        frontier = [d]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple(x[c] for c in g)
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        seen |= orb
        classes.append(sorted(orb))
    return {
        "orbit_closed": True,
        "orbit_classes": [[list(x) for x in orb] for orb in classes],
    }

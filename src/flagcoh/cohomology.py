"""The cohomology engine.

Two routes are provided for H^*(F, E):

* ``cohomology`` expands E into block-graded pieces in one shot and
  resolves each piece by Borel-Bott-Weil.  When the nonzero degrees of a
  monomial's filtration pieces are pairwise non-adjacent no spectral
  sequence differential can exist and the answer is exact; otherwise the
  result is an upper bound (the E1 page) while the Euler character is
  exact regardless.

* ``cohomology_stepwise`` pushes forward one relative Grassmann bundle at
  a time, deferring filtration splits as long as possible.  It often
  certifies exact vanishing where the one-shot route only yields a bound.

``certify`` is the one place where the two routes are combined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .flagvar import (
    BLOCK,
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    GradedMonomial,
    SchurMonomial,
    Slot,
    _expand_monomial,
    _split_weight,
    dual,
    minimal_base,
    tensor,
)
from .schur import CharacterSum, pad, tensor_character
from .weights import bbw_resolve, dual_weight

EXACT = "exact"
E1_BOUND = "e1bound"
EULER_ONLY = "euler_only"


@dataclass
class CohomologyOutcome:
    """Per-degree character sums with a certainty grade.

    ``euler`` is always the exact alternating sum; ``by_degree`` is the
    true cohomology when ``grade`` is exact and an upper bound otherwise.
    """

    rank: int
    grade: str
    by_degree: dict = field(default_factory=dict)
    euler: CharacterSum = None

    def __post_init__(self):
        if self.euler is None:
            self.euler = self._alternating_sum()

    def _alternating_sum(self) -> CharacterSum:
        out = CharacterSum(self.rank)
        for t, cs in self.by_degree.items():
            out = out + cs.scale((-1) ** t)
        return out

    def degrees(self):
        return sorted(t for t, cs in self.by_degree.items() if cs)

    def character(self, degree: int) -> CharacterSum:
        return self.by_degree.get(degree, CharacterSum(self.rank))

    def dimension(self, degree: int) -> int:
        return self.character(degree).dimension()

    def is_zero(self) -> bool:
        return not any(self.by_degree.values())

    def to_json(self):
        return {
            "grade": self.grade,
            "by_degree": {
                str(t): cs.to_json() for t, cs in sorted(self.by_degree.items()) if cs
            },
            "euler": self.euler.to_json(),
        }

    @classmethod
    def euler_only(cls, euler: CharacterSum) -> "CohomologyOutcome":
        return cls(rank=euler.rank, grade=EULER_ONLY, by_degree={}, euler=euler)


def _bbw_blocks(weights) -> tuple | None:
    """Borel-Bott-Weil for Sigma^w_1 (x) ... (x) Sigma^w_k of the consecutive
    quotients of a full filtration of V: ``None`` (vanishes) or
    (degree, dominant GL(V) weight w) meaning H^degree = Sigma^w(V)."""
    chi = []
    for w in weights:
        chi.extend(dual_weight(w))
    res = bbw_resolve(tuple(chi))
    if res.singular:
        return None
    return res.degree, dual_weight(res.dominant)


def cohomology_graded(gm: GradedMonomial, shape: FlagShape):
    """Resolve one block-graded monomial: ``None`` (vanishes) or
    (degree, dominant GL(V) weight w) meaning H^degree = Sigma^w(V)."""
    if gm.shape != shape:
        raise ValueError("graded monomial does not live on the given shape")
    return _bbw_blocks(gm.block_weights)


@lru_cache(maxsize=None)
def _monomial_pieces_graded(mono: SchurMonomial) -> tuple:
    """One-shot pieces of a monomial: ((degree, weight, mult), ...) plus a
    flag telling whether more than one filtration piece was involved."""
    shape = mono.shape
    expansion = _expand_monomial(mono)
    pieces = []
    for gm, c in expansion:
        res = cohomology_graded(gm, shape)
        if res is not None:
            pieces.append((res[0], res[1], c))
    return tuple(pieces), len(expansion) > 1


def _run(e: BundleExpr, reduce: bool, route) -> CohomologyOutcome:
    """Sum a per-monomial route's pieces over ``e``.  The answer is exact
    unless some monomial needed a filtration and has pieces in adjacent
    degrees, where a spectral sequence differential might cancel them."""
    if reduce:
        _shape, e = minimal_base(e)
    rank = e.shape.n
    by_degree: dict[int, CharacterSum] = {}
    exact = True
    for mono, mult in e.monomials():
        pieces, filtered = route(mono)
        degrees = {d for d, _w, _c in pieces}
        if filtered and any(d + 1 in degrees for d in degrees):
            exact = False
        for d, w, c in pieces:
            by_degree.setdefault(d, CharacterSum(rank))
            by_degree[d].add_term(w, c * mult)
    by_degree = {d: cs for d, cs in by_degree.items() if cs}
    return CohomologyOutcome(rank=rank, grade=EXACT if exact else E1_BOUND, by_degree=by_degree)


def cohomology(e: BundleExpr, reduce: bool = True) -> CohomologyOutcome:
    """H^*(F, e) by one-shot graded expansion and Borel-Bott-Weil."""
    return _run(e, reduce, _monomial_pieces_graded)


# ---------------------------------------------------------------------------
# stepwise pushforward down the tower of relative Grassmann bundles


def _factor_map(mono: SchurMonomial) -> dict:
    return {slot: tuple(w) for slot, w in mono.factors}


@lru_cache(maxsize=None)
def _monomial_pieces_stepwise(mono: SchurMonomial) -> tuple:
    """Stepwise pieces of a monomial: pushes along
    F(d_1,...) -> F(d_2,...) -> ... -> Spec k, expanding V/W_{d_1} into
    its filtration only when that level is integrated out."""
    shape = mono.shape
    n = shape.n
    if shape.s == 0:
        fm = _factor_map(mono)
        w = fm.get(Slot(BLOCK, 1), pad((), n))
        return ((0, tuple(w), 1),), False

    filtration_used = False
    # state: (shape, factors frozenset of (slot, weight), degree, mult)
    states = [(shape, _factor_map(mono), 0, 1)]
    final = {}

    while states:
        cur_shape, factors, degree, mult = states.pop()
        t = cur_shape.s
        sizes = cur_shape.blocks()
        e2 = cur_shape.dims[1] if t >= 2 else n

        # expand any factor on Quot(1): a genuine filtration split
        q1 = Slot(QUOT, 1)
        if t >= 2 and q1 in factors:
            w = factors.pop(q1)
            ranks = tuple(sizes[1:])
            pieces = _split_weight(w, ranks)
            if len(pieces) > 1:
                filtration_used = True
            for ws, c in pieces:
                new_factors = dict(factors)
                for j, piece in enumerate(ws):
                    if any(x != 0 for x in piece):
                        slot = Slot(QUOT, t) if j == len(ws) - 1 else Slot(BLOCK, j + 2)
                        _merge_factor(new_factors, slot, piece, slot.rank(cur_shape))
                # re-queue with Quot(1) resolved; multiple merge keys handled below
                for nf, cm in _explode(new_factors):
                    states.append((cur_shape, nf, degree, mult * c * cm))
            continue

        alpha = factors.pop(Slot(SUB, 1), pad((), sizes[0]))
        beta_slot = Slot(QUOT, 1) if t == 1 else Slot(BLOCK, 2)
        beta = factors.pop(beta_slot, pad((), e2 - sizes[0]))
        res = _bbw_blocks((alpha, beta))
        if res is None:
            continue
        step_degree, new_weight = res

        if t == 1:
            if factors:
                raise AssertionError("unconsumed factors at the last level")
            key = (degree + step_degree, new_weight)
            final[key] = final.get(key, 0) + mult
            continue

        new_shape = FlagShape(n, cur_shape.dims[1:])
        new_factors: dict[Slot, tuple] = {}
        for slot, w in factors.items():
            if slot.kind == SUB:
                new_slot = Slot(SUB, slot.index - 1)
            elif slot.kind == QUOT:
                new_slot = Slot(QUOT, slot.index - 1)
            else:
                new_slot = Slot(BLOCK, slot.index - 1)
                if new_slot.index == new_shape.s + 1:
                    new_slot = Slot(QUOT, new_shape.s)
            new_factors[new_slot] = w
        _merge_factor(new_factors, Slot(SUB, 1), new_weight, e2)
        for nf, cm in _explode(new_factors):
            states.append((new_shape, nf, degree + step_degree, mult * cm))

    pieces = tuple(
        sorted((d, w, c) for (d, w), c in final.items() if c)
    )
    return pieces, filtration_used


def _merge_factor(factors: dict, slot, weight: tuple, rank: int):
    """Tensor a weight into a factor dict; values may become CharacterSums."""
    if all(x == 0 for x in weight):
        return
    if slot in factors:
        prev = factors[slot]
        if not isinstance(prev, CharacterSum):
            prev = CharacterSum(rank, {prev: 1})
        factors[slot] = tensor_character(prev, weight)
    else:
        factors[slot] = weight


def _explode(factors: dict):
    """Resolve CharacterSum-valued entries into plain-weight factor dicts,
    yielding (factors, multiplicity) pairs."""
    sum_slots = [s for s, v in factors.items() if isinstance(v, CharacterSum)]
    if not sum_slots:
        yield {s: w for s, w in factors.items() if any(x != 0 for x in w)}, 1
        return
    slot = sum_slots[0]
    cs = factors[slot]
    for w, m in cs.items():
        nxt = dict(factors)
        if any(x != 0 for x in w):
            nxt[slot] = w
        else:
            nxt.pop(slot)
        for f2, m2 in _explode(nxt):
            yield f2, m * m2


def cohomology_stepwise(e: BundleExpr, reduce: bool = True) -> CohomologyOutcome:
    """H^*(F, e) by level-by-level relative pushforward."""
    return _run(e, reduce, _monomial_pieces_stepwise)


def certify(e: BundleExpr) -> CohomologyOutcome:
    """H^*(F, e) by the best route: the one-shot answer when it is exact,
    else the stepwise answer when that is exact, else the one-shot E1
    bound.  Both routes compute the Euler character exactly, so an exact
    stepwise answer whose Euler character differs is an engine fault."""
    outcome = cohomology(e)
    if outcome.grade == EXACT:
        return outcome
    refined = cohomology_stepwise(e)
    if refined.grade != EXACT:
        return outcome
    if refined.euler != outcome.euler:
        raise RuntimeError("routes disagree on the Euler character of %s" % e)
    return refined


# ---------------------------------------------------------------------------
# derived functors of Hom


def ext_groups(a: BundleExpr, b: BundleExpr) -> CohomologyOutcome:
    """Ext^*(a, b) = H^*(F, a^v (x) b) for locally free a, b, one-shot."""
    return cohomology(tensor(dual(a), b))


def ext_groups_best(a: BundleExpr, b: BundleExpr) -> CohomologyOutcome:
    """Ext^*(a, b) = H^*(F, a^v (x) b) by ``certify``."""
    return certify(tensor(dual(a), b))


def euler_characteristic(e: BundleExpr) -> CharacterSum:
    """The virtual character sum_t (-1)^t H^t; exact for every grade."""
    return cohomology(e).euler

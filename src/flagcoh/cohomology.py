"""The cohomology engine.

Two routes are provided for H^*(F, E):

* ``cohomology`` expands E into block-graded pieces in one shot and
  resolves each piece by Borel-Bott-Weil.  A piece is a monomial on the
  blocks of the flag, read off by ``block_weights``.  When the nonzero
  degrees of a monomial's filtration pieces are pairwise non-adjacent no
  spectral sequence differential can exist and the answer is exact;
  otherwise the result is an upper bound (the E1 page) while the Euler
  character is exact regardless.

* ``cohomology_stepwise`` pushes forward one relative Grassmann bundle at
  a time, deferring filtration splits as long as possible.  It splits a
  factor with the same ``_graded_factor`` as the one-shot route and merges
  with ``make_monomial``.  It handles one level of the tower per call and
  caches its pieces per monomial, so a state reached along several
  branches is computed once.  It often certifies exact vanishing where the
  one-shot route only yields a bound.

``certify`` is the one place where the two routes are combined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .flagvar import (
    BundleExpr,
    FlagShape,
    SchurMonomial,
    _expand_monomial,
    _forget_steps,
    _graded_factor,
    block_weights,
    dual,
    make_monomial,
    minimal_base,
    tensor,
)
from .schur import CharacterSum, pad
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
            for w, m in cs.items():
                out.add_term(w, (-1) ** t * m)
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


def cohomology_graded(gm: SchurMonomial, shape: FlagShape):
    """Resolve one monomial on the blocks of ``shape``: ``None`` (vanishes)
    or (degree, dominant GL(V) weight w) meaning H^degree = Sigma^w(V)."""
    if gm.shape != shape:
        raise ValueError("graded monomial does not live on the given shape")
    return _bbw_blocks(block_weights(gm))


@lru_cache(maxsize=None)
def _monomial_pieces_graded(mono: SchurMonomial) -> tuple:
    """One-shot pieces of a monomial: ((degree, weight, mult), ...) plus a
    flag telling whether more than one filtration piece was involved."""
    expansion = _expand_monomial(mono)
    pieces = []
    for gm, c in expansion:
        res = _bbw_blocks(block_weights(gm))
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
    for mono, mult in e.terms.items():
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


def _lower_pieces(terms, shift: int, filtered: bool) -> tuple:
    """Sum the stepwise pieces of the (monomial, mult) pairs ``terms``,
    ``shift`` degrees up; ``filtered`` is or-ed with theirs."""
    acc: dict = {}
    for mono, mult in terms:
        pieces, below = _monomial_pieces_stepwise(mono)
        filtered = filtered or below
        for d, w, c in pieces:
            acc[d + shift, w] = acc.get((d + shift, w), 0) + c * mult
    return tuple(sorted((d, w, c) for (d, w), c in acc.items() if c)), filtered


@lru_cache(maxsize=None)
def _monomial_pieces_stepwise(mono: SchurMonomial) -> tuple:
    """Stepwise pieces of a monomial, ((degree, weight, mult), ...) plus the
    filtration flag, one level of the tower per call.

    A factor on V/W_{d_1} is first split into its filtration pieces on the
    blocks above d_1.  Otherwise F(d_1, d_2, ...) -> F(d_2, ...) is the
    Grassmann bundle Gr(d_1, W_{d_2}) (W_{d_2} = V when s = 1);
    Borel-Bott-Weil on its fibre turns the factors on W_{d_1} and
    W_{d_2}/W_{d_1} into one weight on W_{d_2}, and the rest of the
    monomial is relabelled onto the base."""
    shape = mono.shape
    if shape.s == 0:
        w = mono.factors[0][1] if mono.factors else pad((), shape.n)
        return ((0, w, 1),), False
    factors = dict(mono.factors)
    sizes = shape.blocks()
    q1 = shape.slot(1, shape.s + 1)
    if shape.s >= 2 and q1 in factors:
        split = _graded_factor(shape, q1, factors.pop(q1))
        terms = tensor(make_monomial(shape, factors.items()), split).terms.items()
        return _lower_pieces(terms, 0, len(split.terms) > 1)
    alpha = factors.pop(shape.slot(0, 1), pad((), sizes[0]))
    beta = factors.pop(shape.slot(1, 2), pad((), sizes[1]))
    res = _bbw_blocks((alpha, beta))
    if res is None:
        return (), False
    degree, weight = res
    if shape.s == 1:
        return ((degree, weight, 1),), False
    lower, factor = _forget_steps(shape, shape.dims[1:])
    pushed = make_monomial(
        lower, [factor(slot, w) for slot, w in factors.items()] + [(lower.slot(0, 1), weight)]
    )
    return _lower_pieces(pushed.terms.items(), degree, False)


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

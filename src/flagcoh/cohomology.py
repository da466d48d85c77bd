"""The cohomology engine.

Two routes are provided for H^*(F, E):

* ``cohomology`` expands E into block-graded pieces in one shot and
  resolves each piece by Borel-Bott-Weil.  A piece is a flat weight
  vector, the weights of the blocks of the flag concatenated, and the
  fold never builds a monomial.  Two pieces multiply by adding their
  vectors, which is exact because Littlewood-Richardson at GL_1 is
  addition and a zero block keeps the other side's weight; only a block
  of rank >= 2 where both vectors are nonzero is merged by
  Littlewood-Richardson.  When the nonzero degrees of a monomial's
  filtration pieces are pairwise non-adjacent no spectral sequence
  differential can exist and the answer is exact; otherwise the result
  is an upper bound (the E1 page) while the Euler character is exact
  regardless.

* ``cohomology_stepwise`` pushes forward one relative Grassmann bundle at
  a time, deferring filtration splits as long as possible.  It splits the
  factor on V/W_{d_1}, the interval (1, s+1), with the same
  ``_flat_factor`` as the one-shot route, and cuts each flat piece into
  monomials on the block intervals with ``_flat_monomial``.  The push onto
  the base merges the fibre's BBW weight into the relabelled factors with
  ``flagvar._merge_factors``; both steps pass {factors: multiplicity}
  dicts of canonical factor tuples, and below the top no ``BundleExpr``
  and no ``SchurMonomial`` is built.  It handles one level of the tower
  per call.  It often certifies exact vanishing where the one-shot route
  only yields a bound.

Both routes end in ``weights._bbw_flat``, the package's one
Borel-Bott-Weil, on a flat piece and its block sizes: the one-shot route
passes the flag's blocks, the stepwise route the two blocks of one
Grassmann fibre.  A graded piece has one form everywhere: its flat
vector.

Both routes work on the factors' intervals (lo, hi) as ``flagvar``
stores them; no slot is spelled inside the engine.

``cohomology`` serves ``cohom``, ``--euler-only`` and the counterexample
readings; ``cohomology_stepwise`` serves ``ext`` and every pair check
through ``ext_groups_best``.  Wherever stepwise is only a bound, its
bound is at most the one-shot bound, weight by weight, on every pair
product measured, so neither ``ext`` nor a pair check runs the one-shot
fold.

The stepwise route keeps what it computes in a ``_Table`` made for one
top-level call and dropped when the call returns: the pieces of each
monomial, keyed by its shape and factor tuple, so a state reached along
several branches or pairs is pushed once, the fibre's Borel-Bott-Weil
per (flat piece, sizes), the split of each factor on V/W_{d_1} per
(shape, weight) and the pair outcomes.  The
one-shot route keeps nothing: its pieces rarely repeat.  A pair loop
passes one table to ``ext_groups_best`` for all its pairs, whose outcomes
it keys by the product a^v (x) b, so each distinct product is resolved
once.  For a pair of single monomials the key (``flagvar._pair_key``) is
built interval by interval: the shape and, for each interval, the cached
Littlewood-Richardson product of a's dual weight with b's weight.  No
monomial is built for such a key, and when the key is new the product is
built from it, one Littlewood-Richardson term per interval
(``flagvar._pair_product``), without a ``tensor``.  Any other pair is
keyed by the product itself.
An outcome is graded ``EXACT`` or ``E1_BOUND``, never anything else,
and is immutable once built.  Each of its character sums is built once,
from pieces summed in a plain dict, and has no mutator.  Its JSON is a
fresh value on every call, so no caller can change what another pair
that shares the outcome prints; the CLI renders an outcome that two or
more pairs share once per report.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .flagvar import (
    BundleExpr,
    SchurMonomial,
    _expand_monomial,
    _flat_factor,
    _flat_monomial,
    _forget_steps,
    _merge_factors,
    _pair_key,
    _pair_product,
    dual,
    minimal_base,
    tensor,
)
from .schur import CharacterSum, pad
from .weights import _bbw_flat, _Frozen

EXACT = "exact"
E1_BOUND = "e1bound"


class CohomologyOutcome(_Frozen):
    """Per-degree character sums with a certainty grade, ``EXACT`` or
    ``E1_BOUND``; any other grade raises ValueError.

    ``euler`` is always the exact alternating sum; ``by_degree`` is the
    true cohomology when ``grade`` is exact and an upper bound otherwise.
    Pairs of a check with equal products share one outcome, so it is
    immutable: assigning to it raises AttributeError, ``by_degree`` is a
    read-only view of the outcome's own copy of the mapping it was given,
    and its character sums have no mutator.  ``to_json`` builds a new
    value on every call, which its caller may change.
    """

    __slots__ = _fields = ("rank", "grade", "by_degree", "euler")
    __hash__ = None  # by_degree is a mapping

    def __init__(
        self,
        rank: int,
        grade: str,
        by_degree: Mapping | None = None,
        euler: CharacterSum | None = None,
    ):
        if grade not in (EXACT, E1_BOUND):
            raise ValueError("grade %r is neither %r nor %r" % (grade, EXACT, E1_BOUND))
        init = object.__setattr__
        init(self, "rank", rank)
        init(self, "grade", grade)
        init(self, "by_degree", MappingProxyType(dict(by_degree or {})))
        init(self, "euler", self._alternating_sum() if euler is None else euler)

    def __reduce__(self):  # a mapping view does not pickle
        return CohomologyOutcome, (self.rank, self.grade, dict(self.by_degree), self.euler)

    def _alternating_sum(self) -> CharacterSum:
        terms: dict = {}
        for t, cs in self.by_degree.items():
            for w, m in cs.items():
                terms[w] = terms.get(w, 0) + (-1) ** t * m
        return CharacterSum(self.rank, terms)

    def degrees(self):
        return sorted(t for t, cs in self.by_degree.items() if cs)

    def character(self, degree: int) -> CharacterSum:
        return self.by_degree.get(degree, CharacterSum(self.rank))

    def dimension(self, degree: int) -> int:
        return self.character(degree).dimension()

    def to_json(self):
        by_degree = {str(t): cs.to_json() for t, cs in sorted(self.by_degree.items()) if cs}
        return {"grade": self.grade, "by_degree": by_degree, "euler": self.euler.to_json()}


def _monomial_pieces_graded(mono: SchurMonomial) -> tuple:
    """One-shot pieces of a monomial: ((degree, weight, mult), ...) plus a
    flag telling whether more than one filtration piece was involved."""
    expansion = _expand_monomial(mono)
    sizes = mono.shape.blocks()
    pieces = []
    for flat, c in expansion:
        res = _bbw_flat(flat, sizes)
        if res is not None:
            pieces.append((res[0], res[1], c))
    return tuple(pieces), len(expansion) > 1


def _run(e: BundleExpr, route) -> CohomologyOutcome:
    """Sum a per-monomial route's pieces over ``e`` on its minimal base,
    into one plain dict per degree, and build each degree's CharacterSum
    once.  The answer is exact unless some monomial needed a filtration
    and has pieces in adjacent degrees, where a spectral sequence
    differential might cancel them."""
    _shape, e = minimal_base(e)
    rank = e.shape.n
    terms: dict[int, dict] = {}
    exact = True
    for mono, mult in e.terms.items():
        pieces, filtered = route(mono)
        degrees = {d for d, _w, _c in pieces}
        if filtered and any(d + 1 in degrees for d in degrees):
            exact = False
        for d, w, c in pieces:
            acc = terms.setdefault(d, {})
            acc[w] = acc.get(w, 0) + c * mult
    by_degree = {d: cs for d, acc in terms.items() if (cs := CharacterSum(rank, acc))}
    return CohomologyOutcome(rank=rank, grade=EXACT if exact else E1_BOUND, by_degree=by_degree)


def cohomology(e: BundleExpr) -> CohomologyOutcome:
    """H^*(F, e) by one-shot graded expansion and Borel-Bott-Weil."""
    return _run(e, _monomial_pieces_graded)


# ---------------------------------------------------------------------------
# stepwise pushforward down the tower of relative Grassmann bundles


class _Table:
    """What the stepwise route computes during one top-level call:
    ``pieces`` per monomial, keyed by (shape, factors), the fibre's
    Borel-Bott-Weil (``bbw``) per (flat piece, sizes), the ``splits`` of a
    factor on V/W_{d_1} per (shape, weight) and the ``pairs``' outcomes
    per product key.  A call
    that is given no table makes its own, and nothing outlives the call
    that made it."""

    def __init__(self):
        self.pieces, self.bbw, self.splits, self.pairs = {}, {}, {}, {}


# what ``_memo`` reads for a missing key; a kept value may be None
_MISSING = object()


def _memo(memo: dict, key, compute, *args):
    """``memo[key]``, set to ``compute(*args)`` on a miss; a hit is one
    lookup."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute(*args)
    return value


def _lower_pieces(shape, terms, shift: int, filtered: bool, table: _Table) -> tuple:
    """Sum the stepwise pieces of the (factors, mult) pairs ``terms`` on
    ``shape``, ``shift`` degrees up; ``filtered`` is or-ed with theirs."""
    acc: dict = {}
    for factors, mult in terms:
        pieces, below = _memo(
            table.pieces, (shape, factors), _monomial_pieces_stepwise, shape, factors, table
        )
        filtered = filtered or below
        for d, w, c in pieces:
            acc[d + shift, w] = acc.get((d + shift, w), 0) + c * mult
    return tuple((d, w, c) for (d, w), c in acc.items() if c), filtered


def _monomial_pieces_stepwise(shape, factors: tuple, table: _Table) -> tuple:
    """Stepwise pieces of the monomial with the canonical ``factors`` on
    ``shape``, ((degree, weight, mult), ...) plus the filtration flag, one
    level of the tower per call.  No monomial is built: the factors stay
    a tuple of (interval, weight) pairs.

    A factor on V/W_{d_1} is first split into its filtration pieces on the
    blocks above d_1.  Otherwise F(d_1, d_2, ...) -> F(d_2, ...) is the
    Grassmann bundle Gr(d_1, W_{d_2}) (W_{d_2} = V when s = 1);
    Borel-Bott-Weil on its fibre turns the factors on W_{d_1} and
    W_{d_2}/W_{d_1} into one weight on W_{d_2}, and the rest of the
    monomial is relabelled onto the base.  What the lower levels compute
    is kept in ``table``."""
    if shape.s == 0:
        w = factors[0][1] if factors else pad((), shape.n)
        return ((0, w, 1),), False
    by_span = dict(factors)
    sizes = shape.blocks()
    q1 = (1, shape.s + 1)
    if shape.s >= 2 and q1 in by_span:
        w = by_span.pop(q1)
        split = _memo(table.splits, (shape, w), _flat_factor, shape, q1, w)
        rest = list(by_span.items())
        terms = [
            (piece, c * m)
            for flat, c in split
            for piece, m in _flat_monomial(shape, flat, rest).items()
        ]
        return _lower_pieces(shape, terms, 0, len(split) > 1, table)
    alpha = by_span.pop((0, 1), pad((), sizes[0]))
    beta = by_span.pop((1, 2), pad((), sizes[1]))
    key = alpha + beta, sizes[:2]
    res = _memo(table.bbw, key, _bbw_flat, *key)
    if res is None:
        return (), False
    degree, weight = res
    if shape.s == 1:
        return ((degree, weight, 1),), False
    lower, factor = _forget_steps(shape, shape.dims[1:])
    pushed = [factor(span, w) for span, w in by_span.items()] + [((0, 1), weight)]
    return _lower_pieces(lower, _merge_factors(pushed).items(), degree, False, table)


def cohomology_stepwise(e: BundleExpr, table: _Table | None = None) -> CohomologyOutcome:
    """H^*(F, e) by level-by-level relative pushforward, keeping what it
    computes in ``table``, a fresh one when None."""
    table = _Table() if table is None else table

    def route(mono):
        key = mono.shape, mono.factors
        return _memo(table.pieces, key, _monomial_pieces_stepwise, mono.shape, mono.factors, table)

    return _run(e, route)


# ---------------------------------------------------------------------------
# derived functors of Hom


def ext_groups_best(a: BundleExpr, b: BundleExpr, table: _Table | None = None) -> CohomologyOutcome:
    """Ext^*(a, b) = H^*(F, a^v (x) b) by the stepwise route, exact or an
    E1 bound.

    The product is keyed, and the outcome is kept in ``table`` (a fresh
    one when None) under its key, so a pair loop that passes one table
    resolves an equal product once.  For single monomials the key
    (``flagvar._pair_key``) is built without a monomial: the shape, the
    product of their multiplicities and, interval by interval, the cached
    Littlewood-Richardson product of a's dual weight with b's, leaving out
    an interval whose product is the zero weight alone; on a miss the
    product is built from the key (``flagvar._pair_product``).  A sum or
    the zero expression is keyed by the product a^v (x) b itself, built
    once."""
    table = _Table() if table is None else table
    key = _pair_key(a, b)
    if key is None:
        key = tensor(dual(a), b)
    outcome = table.pairs.get(key)
    if outcome is None:
        product = key if isinstance(key, BundleExpr) else _pair_product(key)
        outcome = table.pairs[key] = cohomology_stepwise(product, table)
    return outcome


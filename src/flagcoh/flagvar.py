"""Flag shapes and formal bundle expressions.

A bundle expression is a nonnegative integer combination of monomials,
each a tensor product of rational Schur functors applied to tautological
bundles of a fixed flag shape.  A factor sits on an interval (lo, hi), the
bundle W_{d_hi}/W_{d_lo} of the flag 0 = d_0 < d_1 < ... < d_s < d_(s+1) = n:
subbundles W_{d_i} ((0, i), spelled ``sub``), quotients V/W_{d_i} ((i, s+1),
``quot``) and consecutive quotients W_{d_j}/W_{d_(j-1)} ((j-1, j),
``block``).  A ``Slot`` is only the spelling of an interval at the input
and output: ``make_monomial`` and ``BundleExpr.from_json`` read a slot to
its interval through the shape's table, and ``__str__`` and ``to_json``
spell each interval back by its canonical slot (Block(1) is Sub(1) and
Block(s+1) is Quot(s)).  Every map inside the engine works on intervals.
Everything is immutable and hashable so results can be
cached aggressively.  Shapes, slots and monomials compute their hash once;
it is valid only in the process that made them, so they are not pickled.

A graded piece of the filtration by the flag has one form inside the
engine, a flat vector: one n-tuple that concatenates one weight per
consecutive quotient, zero where the piece has no factor.
``_flat_factor`` splits one factor into such pieces for both routes and
keeps nothing: the stepwise route keeps its splits in its per-call table,
and ``_split_partition`` keeps the branching.  The one-shot fold
``_expand_monomial`` multiplies them by coordinatewise addition;
Littlewood-Richardson runs only on a block of rank >= 2 where both pieces
are nonzero.
``_flat_monomial`` is the one cut of a flat piece into factors on the
block intervals (j, j+1), for the stepwise route in ``cohomology`` and
for ``graded_expansion``.  Block tuples are the form only at the
boundary: ``block_weights`` and ``cohomology.cohomology_graded``.

A product is what the merge returns.  ``_merge_factors`` and its grow
step ``_grow_factors`` turn (interval, weight) factors into
{SchurMonomial: multiplicity}, and are the engine's one step from factor
tuples to monomials: ``tensor``, ``_pair_product``, ``_flat_monomial``
and the stepwise route in ``cohomology`` call them directly.
``make_monomial`` is the builder for input only (``BundleExpr.from_json``,
the Kapranov enumeration, the counterexample families): it reads each
place, checks each weight's length and calls ``_merge_factors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable

from .schur import _lr_raw, _strip_zeros, _tensor_terms, pad, schur_dim
from .weights import _check_keys, _ints, _json_list, dual_weight, is_weakly_decreasing, strict_int


@dataclass(frozen=True)
class FlagShape:
    """F(d_1, ..., d_s; V) with dim V = n.  ``dims=()`` is a point.

    Its slot table maps every valid slot to its interval (lo, hi), one
    shared tuple per interval (``interval``), and every slot interval back
    to its one spelling (``slot``)."""

    n: int
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        prev = 0
        for d in self.dims:
            if not prev < d < self.n:
                raise ValueError("dims must satisfy 0 < d_1 < ... < d_s < n")
            prev = d
        ds = (0,) + self.dims + (self.n,)
        s = len(self.dims)
        spellings = [(Slot(SUB, i), (0, i)) for i in range(1, s + 1)]
        spellings += [(Slot(QUOT, i), (i, s + 1)) for i in range(1, s + 1)]
        spellings += [(Slot(BLOCK, j), (j - 1, j)) for j in range(1, s + 2)]
        slots: dict = {}
        for slot, span in spellings:  # the first spelling is the canonical one
            slots.setdefault(span, slot)
        intervals = {span: span for span in slots}
        object.__setattr__(self, "_bounds", ds)
        object.__setattr__(self, "_intervals", intervals)
        object.__setattr__(self, "_spans", {slot: intervals[span] for slot, span in spellings})
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_blocks", tuple(b - a for a, b in zip(ds, ds[1:])))
        # each block interval (j, j+1) with the slice of a flat vector it holds
        cuts = tuple((intervals[j, j + 1], ds[j], ds[j + 1]) for j in range(s + 1))
        object.__setattr__(self, "_cuts", cuts)
        object.__setattr__(self, "_hash", hash((self.n, self.dims)))

    def __hash__(self):
        return self._hash

    @property
    def s(self) -> int:
        return len(self.dims)

    def blocks(self) -> tuple:
        """Sizes of the consecutive quotients; a composition of n."""
        return self._blocks

    def interval(self, lo: int, hi: int) -> tuple:
        """The shape's one tuple for the slot interval (lo, hi)."""
        try:
            return self._intervals[lo, hi]
        except KeyError:
            raise ValueError("(%r, %r) is not a slot interval of %r" % (lo, hi, self)) from None

    def slot(self, lo: int, hi: int) -> "Slot":
        """The canonical slot W_{d_hi}/W_{d_lo}."""
        try:
            return self._slots[lo, hi]
        except KeyError:
            raise ValueError("(%r, %r) is not a slot interval of %r" % (lo, hi, self)) from None

    def dimension(self) -> int:
        b = self.blocks()
        return sum(b[i] * b[j] for i in range(len(b)) for j in range(i + 1, len(b)))

    def is_symmetric(self) -> bool:
        s = self.s
        return all(self.dims[i] + self.dims[s - i - 1] == self.n for i in range(s))

    def to_json(self):
        return {"n": self.n, "dims": list(self.dims)}

    @classmethod
    def from_json(cls, data):
        """Read a shape; a key other than ``n`` and ``dims``, or ``dims``
        that is not a JSON list, is an input error."""
        _check_keys(data, ("n", "dims"), "flag")
        return cls(strict_int(data["n"]), _ints(data["dims"], "dims"))


SUB, QUOT, BLOCK = "sub", "quot", "block"
_SLOT_ORDER = {SUB: 0, BLOCK: 1, QUOT: 2}


@dataclass(frozen=True)
class Slot:
    kind: str
    index: int  # 1-based

    def __post_init__(self):
        if self.kind not in (SUB, QUOT, BLOCK):
            raise ValueError("bad slot kind %r" % self.kind)
        if type(self.index) is not int:  # 1.0 or True would find Sub(1) in a slot table
            raise ValueError("bad slot index %r" % (self.index,))
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self):
        return self._hash

    def span(self, shape: FlagShape) -> tuple:
        """(lo, hi): this slot is W_{d_hi}/W_{d_lo} on ``shape``."""
        try:
            return shape._spans[self]
        except KeyError:
            raise ValueError("slot %s(%d) invalid on %r" % (self.kind, self.index, shape)) from None

    def rank(self, shape: FlagShape) -> int:
        lo, hi = self.span(shape)
        return shape._bounds[hi] - shape._bounds[lo]

    def sort_key(self):
        return (_SLOT_ORDER[self.kind], self.index)

    def __str__(self):
        return "%s(%d)" % (self.kind, self.index)


@dataclass(frozen=True)
class SchurMonomial:
    """Tensor product of Schur functors on distinct slot intervals of one
    shape: ``factors`` is a tuple of ((lo, hi), weight) pairs, intervals
    ascending, no trivial factors.  ``spelled`` gives them as slots."""

    shape: FlagShape
    factors: tuple

    def __post_init__(self):
        shape = self.shape
        d = shape._bounds
        prev = ()
        for span, w in self.factors:
            if span not in shape._intervals:
                raise ValueError("%r is not a slot interval of %r" % (span, shape))
            if span <= prev:
                raise ValueError("interval %r repeated or out of order (merge first)" % (span,))
            prev = span
            if len(w) != d[span[1]] - d[span[0]]:
                raise ValueError("weight %r has wrong length for %s" % (w, shape.slot(*span)))
            if not is_weakly_decreasing(w):
                raise ValueError("weight %r not weakly decreasing" % (w,))
        object.__setattr__(self, "_hash", hash((self.shape, self.factors)))

    def __hash__(self):
        return self._hash

    def rank(self) -> int:
        d = self.shape._bounds
        r = 1
        for (lo, hi), w in self.factors:
            r *= schur_dim(tuple(w), d[hi] - d[lo])
        return r

    def spelled(self) -> list:
        """The factors as (slot, weight) pairs in slot order: Sub, Block,
        then Quot, each by index.  Text and JSON spell a monomial so."""
        slots = self.shape._slots
        return sorted(((slots[span], w) for span, w in self.factors), key=lambda f: f[0].sort_key())

    def __str__(self):
        if not self.factors:
            return "O"
        return " (x) ".join(
            "S^%s(%s)" % (tuple(_strip_zeros(w)), slot) for slot, w in self.spelled()
        )


def make_monomial(shape: FlagShape, factors: Iterable) -> "BundleExpr":
    """Build a bundle expression from raw input (place, weight) pairs, a
    place being a ``Slot`` or an interval (lo, hi), merging the factors on
    one interval by Littlewood-Richardson at its rank.  Every weight must
    have that rank as its length.  The engine's own products come from
    ``_merge_factors`` directly."""
    d = shape._bounds
    placed = []
    for place, w in factors:
        span = place.span(shape) if isinstance(place, Slot) else shape.interval(*place)
        w = tuple(w)
        if len(w) != d[span[1]] - d[span[0]]:
            raise ValueError("weight %r has wrong length for %s" % (w, shape.slot(*span)))
        placed.append((span, w))
    return BundleExpr(shape, _merge_factors(shape, placed))


def _merge_factors(shape: FlagShape, factors) -> dict:
    """The product of the (interval, weight) ``factors`` on ``shape`` as
    {SchurMonomial: multiplicity}: the weights on one interval are merged
    by Littlewood-Richardson at its rank, the intervals ascend, and
    all-zero weights are dropped.  Every interval must be one of the
    shape's and every weight of its length; a lone weight is checked by
    ``SchurMonomial``, merged ones by ``_tensor_terms``."""
    by_span: dict = {}
    for span, w in factors:
        by_span.setdefault(span, []).append(w)
    parts = []
    for span, ws in sorted(by_span.items()):
        pieces = {ws[0]: 1}
        for w in ws[1:]:
            merged: dict = {}
            for key, mult in pieces.items():
                for lam, c in _tensor_terms(key, w, len(w)):
                    merged[lam] = merged.get(lam, 0) + c * mult
            pieces = merged
        parts.append((span, pieces.items()))
    return _grow_factors(shape, 1, parts)


def _grow_factors(shape: FlagShape, mult: int, parts) -> dict:
    """{SchurMonomial: multiplicity} on ``shape``, grown from the trivial
    monomial with multiplicity ``mult`` by each (interval, ((weight, mult),
    ...)) of ``parts`` in turn: one factor per weight, the multiplicities
    multiplied, an all-zero weight dropped.  Factors grown in ascending
    interval order are already canonical.  The engine's one step from
    factor tuples to monomials."""
    products = {(): mult}
    for span, terms in parts:
        grown: dict = {}
        for fs, m in products.items():
            for w, c in terms:
                new = fs + ((span, w),) if any(w) else fs
                grown[new] = grown.get(new, 0) + m * c
        products = grown
    return {SchurMonomial(shape, fs): m for fs, m in products.items()}


class BundleExpr:
    """Formal nonnegative combination of Schur monomials on one shape."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape: FlagShape, terms: dict | None = None):
        self.shape = shape
        self.terms = {}
        if terms:
            for mono, m in terms.items():
                if mono.shape != shape:
                    raise ValueError("monomial shape mismatch")
                if m < 0:
                    raise ValueError("multiplicities must be nonnegative")
                if m:
                    self.terms[mono] = self.terms.get(mono, 0) + m

    def __eq__(self, other):
        return (
            isinstance(other, BundleExpr)
            and self.shape == other.shape
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms.items())))

    def __add__(self, other: "BundleExpr") -> "BundleExpr":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        terms = dict(self.terms)
        for mono, m in other.terms.items():
            terms[mono] = terms.get(mono, 0) + m
        return BundleExpr(self.shape, terms)

    def rank(self) -> int:
        return sum(m * mono.rank() for mono, m in self.terms.items())

    def monomials(self):
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, m in self.monomials():
            parts.append(("%d*" % m if m != 1 else "") + str(mono))
        return " + ".join(parts)

    def to_json(self):
        return {
            "flag": self.shape.to_json(),
            "terms": [
                {
                    "mult": m,
                    "factors": [
                        {"slot": slot.kind, "index": slot.index, "weight": list(w)}
                        for slot, w in mono.spelled()
                    ],
                }
                for mono, m in self.monomials()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "BundleExpr":
        """Read an expression; an unknown key in the expression, a term or a
        factor, or ``terms``, ``factors`` or a weight that is not a JSON
        list, is an input error, never ignored or coerced."""
        _check_keys(data, ("flag", "terms"), "bundle expression")
        shape = FlagShape.from_json(data["flag"])
        terms: dict = {}
        for term in _json_list(data["terms"], "terms"):
            _check_keys(term, ("mult", "factors"), "term")
            factors = []
            for f in _json_list(term["factors"], "factors"):
                _check_keys(f, ("slot", "index", "weight"), "factor")
                slot = Slot(f["slot"], strict_int(f["index"]))
                factors.append((slot, _ints(f["weight"], "a weight")))
            mult = strict_int(term["mult"])
            for mono, m in make_monomial(shape, factors).terms.items():
                terms[mono] = terms.get(mono, 0) + m * mult
        return cls(shape, terms)


def trivial(shape: FlagShape) -> BundleExpr:
    return BundleExpr(shape, {SchurMonomial(shape, ()): 1})


def _relabel(e: BundleExpr, shape: FlagShape, factor) -> BundleExpr:
    """Map every factor (interval, w) of every monomial of ``e`` through
    ``factor`` to a factor on ``shape``, summing equal monomials."""
    terms: dict = {}
    for mono, m in e.terms.items():
        new = SchurMonomial(shape, tuple(sorted(factor(span, w) for span, w in mono.factors)))
        terms[new] = terms.get(new, 0) + m
    return BundleExpr(shape, terms)


def dual(e: BundleExpr) -> BundleExpr:
    return _relabel(e, e.shape, lambda span, w: (span, dual_weight(w)))


def sigma_pullback(e: BundleExpr) -> BundleExpr:
    """Pullback along the duality automorphism of a symmetric shape:
    W_{d_i} goes to the dual of Q_{d_(s-i+1)}, and conversely; as intervals,
    (lo, hi) goes to (s+1-hi, s+1-lo)."""
    shape = e.shape
    if not shape.is_symmetric():
        raise ValueError("sigma pullback needs a symmetric shape")
    top = shape.s + 1
    image = {(lo, hi): shape.interval(top - hi, top - lo) for lo, hi in shape._intervals}
    return _relabel(e, shape, lambda span, w: (image[span], dual_weight(w)))


def tensor(e1: BundleExpr, e2: BundleExpr) -> BundleExpr:
    if e1.shape != e2.shape:
        raise ValueError("shape mismatch")
    terms: dict = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            for mono, c in _merge_factors(e1.shape, m1.factors + m2.factors).items():
                terms[mono] = terms.get(mono, 0) + c * c1 * c2
    return BundleExpr(e1.shape, terms)


@lru_cache(maxsize=None)
def _interval_product(u: tuple | None, v: tuple | None) -> tuple | None:
    """The dual of Sigma^u tensored with Sigma^v on one interval, as
    ((weight, mult), ...), weights descending, where None stands for a side
    with no factor there; None when the product is the zero weight alone."""
    if u is None:
        terms = ((v, 1),)
    elif v is None:
        terms = ((dual_weight(u), 1),)
    else:
        terms = _tensor_terms(dual_weight(u), v, len(u))
    return None if len(terms) == 1 and not any(terms[0][0]) else terms


def _pair_key(a: BundleExpr, b: BundleExpr) -> tuple | None:
    """A hashable key of ``tensor(dual(a), b)`` when a and b are single
    monomials, else None.  Two such pairs have equal keys exactly when
    their products are equal.

    For a = c1 m1 and b = c2 m2 the key is the shape, c1 c2 and, interval
    by interval, the Littlewood-Richardson product of m1's dual weight with
    m2's, leaving out an interval whose product is the zero weight alone.
    It is exact: each interval's product has its top weight with
    multiplicity 1, so the product's terms determine every interval's
    product and c1 c2."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if len(a.terms) != 1 or len(b.terms) != 1:
        return None
    [(m1, c1)] = a.terms.items()
    [(m2, c2)] = b.terms.items()
    us, vs = dict(m1.factors), dict(m2.factors)
    parts = []
    for span in sorted(us.keys() | vs.keys()):
        product = _interval_product(us.get(span), vs.get(span))
        if product is not None:
            parts.append((span, product))
    return a.shape, c1 * c2, tuple(parts)


def _pair_product(key: tuple) -> BundleExpr:
    """``tensor(dual(a), b)`` built from ``key = _pair_key(a, b)``: one
    term of each interval's Littlewood-Richardson product per monomial,
    its multiplicity the terms' times c1 c2, with an all-zero weight
    dropped: ``_grow_factors`` started from c1 c2."""
    shape, mult, parts = key
    return BundleExpr(shape, _grow_factors(shape, mult, parts))


def _referenced_dims(mono: SchurMonomial) -> set:
    """The flag steps d_1, ..., d_s that end some factor's interval."""
    shape = mono.shape
    d = shape._bounds
    return {d[k] for span, _w in mono.factors for k in span} - {0, shape.n}


@lru_cache(maxsize=None)
def _forget_steps(shape: FlagShape, dims: tuple):
    """(new_shape, factor): the shape keeping only the flag steps ``dims``
    of ``shape``, and the map of a factor (interval, w) onto it.  Every
    interval mapped must have both its endpoints among the kept steps."""
    new_shape = FlagShape(shape.n, dims)
    pos = {d: i for i, d in enumerate(new_shape._bounds)}
    old = shape._bounds
    image = {
        (lo, hi): new_shape.interval(pos[old[lo]], pos[old[hi]])
        for lo, hi in shape._intervals
        if old[lo] in pos and old[hi] in pos
    }
    return new_shape, lambda span, w: (image[span], w)


def minimal_base(e: BundleExpr):
    """Drop flag steps not referenced by any factor's interval in ``e``.

    Cohomology is unchanged: the forgotten steps are relative Grassmann
    bundles whose structure sheaves push forward to the base.
    """
    refs = set()
    for mono in e.terms:
        refs |= _referenced_dims(mono)
    new_dims = tuple(sorted(refs))
    if new_dims == e.shape.dims:
        return e.shape, e
    new_shape, factor = _forget_steps(e.shape, new_dims)
    return new_shape, _relabel(e, new_shape, factor)


@lru_cache(maxsize=None)
def _split_partition(p: tuple, ranks: tuple) -> tuple:
    """Decompose Sigma^p of a direct sum with the given summand ranks.

    Returns ((weights_per_summand, coeff), ...) where the coefficient is
    the iterated Littlewood-Richardson multiplicity.  Summands with too
    many rows for their rank are discarded.

    The last summand takes lam, the others kappa, with coefficient
    c^p_{kappa lam}.  A kappa that cannot occur is skipped before any
    Littlewood-Richardson step: one with more rows than the head's total
    rank, where Sigma^kappa of the head vanishes, and one with
    kappa_i < p_(i+last) for some i, where p/kappa has a column longer
    than ``last``, so no LR tableau of content lam, len(lam) <= last,
    fills it.  Every other kappa contributes.
    """
    p = _strip_zeros(p)
    if len(ranks) == 1:
        if len(p) > ranks[0]:
            return ()
        return (((pad(p, ranks[0]),), 1),)
    head, last = ranks[:-1], ranks[-1]
    # c^p_{kappa lam} = 0 unless lam is contained in p
    lams: dict = {}
    for lam in _subpartitions(p):
        if len(lam) <= last:
            lams.setdefault(sum(lam), []).append(lam)
    total = sum(p)
    rows = sum(head)
    out = {}
    for kappa in _subpartitions(p):
        if len(kappa) > rows or any(k < q for k, q in zip(pad(kappa, len(p)), p[last:])):
            continue
        for lam in lams.get(total - sum(kappa), ()):
            # bounded by p, the enumeration yields p or nothing
            coeff = dict(_lr_raw(kappa, lam, p)).get(p)
            if not coeff:
                continue
            for head_ws, c2 in _split_partition(kappa, head):
                key = head_ws + (pad(lam, last),)
                out[key] = out.get(key, 0) + coeff * c2
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _subpartitions(p: tuple) -> tuple:
    """All partitions contained in p."""
    if not p:
        return ((),)
    out = set()

    def rec(i, prev, cur):
        if i == len(p):
            out.add(_strip_zeros(tuple(cur)))
            return
        for v in range(min(p[i], prev), -1, -1):
            cur.append(v)
            rec(i + 1, v, cur)
            cur.pop()

    rec(0, p[0], [])
    return tuple(sorted(out))


def block_weights(mono: SchurMonomial) -> tuple:
    """One weight per consecutive quotient of the flag, zero where ``mono``
    has no factor.  Every factor must be on a block (j, j+1)."""
    shape = mono.shape
    out = [(0,) * b for b in shape.blocks()]
    for (lo, hi), w in mono.factors:
        if hi != lo + 1:
            raise ValueError("%s is not a block of %r" % (shape.slot(lo, hi), shape))
        out[lo] = w
    return tuple(out)


def _flat_factor(shape: FlagShape, span: tuple, w: tuple) -> tuple:
    """The associated graded of Sigma^w on the interval ``span`` for the
    natural filtration, as ((flat vector, coeff), ...).  The interval
    (lo, hi) spans blocks lo+1..hi; the flat vector concatenates one weight
    per block of the shape, zero on every block outside the span.
    Negative entries are absorbed into a determinant twist, which splits
    as the same twist on every spanned block.  Both routes split here; the
    stepwise route keeps its splits in its per-call table."""
    lo, hi = span
    d = shape._bounds
    below, above = (0,) * d[lo], (0,) * (shape.n - d[hi])
    k = max(0, -min(w))
    out = []
    for ws, c in _split_partition(tuple(x + k for x in w), shape.blocks()[lo:hi]):
        ws = [tuple(x - k for x in piece) for piece in ws]
        out.append((below + sum(ws, ()) + above, c))
    return tuple(out)


def _flat_monomial(shape: FlagShape, flat: tuple, factors=()) -> dict:
    """The graded piece with flat vector ``flat``, tensored with the
    (interval, weight) ``factors``, as {SchurMonomial: multiplicity}: the
    one cut of a flat piece into factors on the block intervals (j, j+1),
    leaving out every all-zero block, merged by ``_merge_factors``."""
    blocks = [(span, w) for span, a, b in shape._cuts if any(w := flat[a:b])]
    return _merge_factors(shape, [*factors, *blocks])


def _expand_monomial(mono: SchurMonomial):
    """Graded pieces of a monomial: (flat vector, coeff) pairs, one per
    distinct piece, as the items of a dict that nothing else holds.

    The tensor product of the associated graded of every factor, folded
    in one factor at a time on flat vectors.  Two pieces multiply by
    coordinatewise addition, which is Littlewood-Richardson at GL_1 and
    keeps a block's weight where the other side is zero; only a block of
    rank >= 2 where both vectors are nonzero is merged by
    Littlewood-Richardson.
    """
    shape = mono.shape
    wide = [(lo, hi) for _span, lo, hi in shape._cuts if hi - lo > 1]
    acc = {(0,) * shape.n: 1}
    for span, w in mono.factors:
        split = _flat_factor(shape, span, w)
        grown: dict = {}
        for ws, c in acc.items():
            for vs, m in split:
                out = [(tuple(map(add, ws, vs)), c * m)]
                for lo, hi in wide:
                    if any(ws[lo:hi]) and any(vs[lo:hi]):
                        terms = _tensor_terms(ws[lo:hi], vs[lo:hi], hi - lo)
                        out = [(u[:lo] + lam + u[hi:], k * t) for u, k in out for lam, t in terms]
                for key, k in out:
                    grown[key] = grown.get(key, 0) + k
        acc = grown
    return acc.items()


def graded_expansion(e: BundleExpr):
    """Expand into block-graded monomials.

    Returns a list of (block monomial, multiplicity, filtration_level)
    with levels ordered so subbundle-side pieces precede quotient-side
    pieces (levels restart per monomial of the expression).
    """
    out = []
    for mono, m in e.monomials():
        pieces = sorted(_expand_monomial(mono), reverse=True)
        for level, (flat, c) in enumerate(pieces):
            [gm] = _flat_monomial(e.shape, flat)
            out.append((gm, c * m, level))
    return out

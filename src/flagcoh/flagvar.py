"""Flag shapes and formal bundle expressions.

A bundle expression is a nonnegative integer combination of monomials,
each a tensor product of rational Schur functors applied to tautological
bundles of a fixed flag shape.  A slot is an interval W_{d_hi}/W_{d_lo} of
the flag 0 = d_0 < d_1 < ... < d_s < d_(s+1) = n: subbundles W_{d_i}
(``sub``, (0, i)), quotients V/W_{d_i} (``quot``, (i, s+1)) and consecutive
quotients W_{d_j}/W_{d_(j-1)} (``block``, (j-1, j)).  Each interval has one
spelling, so Block(1) is Sub(1) and Block(s+1) is Quot(s); the shape's slot
table holds both directions, and every map on slots goes through it.
Everything is immutable and hashable so results can be
cached aggressively.  Shapes, slots and monomials compute their hash once;
it is valid only in the process that made them, so they are not pickled.

A graded piece of the filtration by the flag is an ordinary monomial on
block slots (Sub(1), Block(j), Quot(s)).  ``_graded_factor`` splits one
factor into such pieces and ``make_monomial`` merges them, both for the
one-shot expansion here and for the stepwise route in ``cohomology``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable

from .schur import _lr_raw, _strip_zeros, _tensor_terms, pad, schur_dim
from .weights import dual_weight, is_weakly_decreasing, strict_int


@dataclass(frozen=True)
class FlagShape:
    """F(d_1, ..., d_s; V) with dim V = n.  ``dims=()`` is a point.

    Its slot table maps every valid slot to its interval (lo, hi) and every
    slot interval back to its one spelling (``slot``)."""

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
        spans = {Slot(SUB, i): (0, i) for i in range(1, s + 1)}
        spans.update({Slot(QUOT, i): (i, s + 1) for i in range(1, s + 1)})
        spans.update({Slot(BLOCK, j): (j - 1, j) for j in range(1, s + 2)})
        object.__setattr__(self, "_bounds", ds)
        object.__setattr__(self, "_spans", spans)
        # the first spelling of an interval is its canonical one
        object.__setattr__(self, "_slots", {v: k for k, v in reversed(spans.items())})
        object.__setattr__(self, "_blocks", tuple(b - a for a, b in zip(ds, ds[1:])))
        object.__setattr__(self, "_hash", hash((self.n, self.dims)))

    def __hash__(self):
        return self._hash

    @property
    def s(self) -> int:
        return len(self.dims)

    def blocks(self) -> tuple:
        """Sizes of the consecutive quotients; a composition of n."""
        return self._blocks

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
        return cls(strict_int(data["n"]), tuple(map(strict_int, data["dims"])))


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
    """Tensor product of Schur functors on distinct slots of one shape."""

    shape: FlagShape
    factors: tuple  # tuple[(Slot, weight)], canonical order, no trivial factors

    def __post_init__(self):
        seen = set()
        for slot, w in self.factors:
            if slot in seen:
                raise ValueError("repeated slot %s (merge via tensor first)" % slot)
            seen.add(slot)
            if len(w) != slot.rank(self.shape):
                raise ValueError("weight %r has wrong length for %s" % (w, slot))
            if not is_weakly_decreasing(w):
                raise ValueError("weight %r not weakly decreasing" % (w,))
        object.__setattr__(self, "_hash", hash((self.shape, self.factors)))

    def __hash__(self):
        return self._hash

    def rank(self) -> int:
        r = 1
        for slot, w in self.factors:
            r *= schur_dim(tuple(w), slot.rank(self.shape))
        return r

    def __str__(self):
        if not self.factors:
            return "O"
        return " (x) ".join(
            "S^%s(%s)" % (tuple(_strip_zeros(w)), slot) for slot, w in self.factors
        )


def make_monomial(shape: FlagShape, factors: Iterable) -> "BundleExpr":
    """Build a bundle expression from raw (slot, weight) pairs, merging
    repeated slots by Littlewood-Richardson at the slot rank.  Every
    weight must have the slot's rank as its length."""
    by_slot: dict[Slot, list] = {}
    d = shape._bounds
    for slot, w in factors:
        lo, hi = slot.span(shape)
        slot = shape.slot(lo, hi)
        w = tuple(w)
        if len(w) != d[hi] - d[lo]:
            raise ValueError("weight %r has wrong length for %s" % (w, slot))
        by_slot.setdefault(slot, []).append(w)
    # factor tuples grown in slot order are already canonical
    products = {(): 1}
    for slot, ws in sorted(by_slot.items(), key=lambda kv: kv[0].sort_key()):
        # a lone weight is checked by SchurMonomial below, merged ones by _tensor_terms
        pieces = {ws[0]: 1}
        for w in ws[1:]:
            merged: dict = {}
            for key, mult in pieces.items():
                for lam, c in _tensor_terms(key, w, len(w)):
                    merged[lam] = merged.get(lam, 0) + c * mult
            pieces = merged
        grown = {}
        for fs, m in products.items():
            for key, mult in pieces.items():
                new = fs + ((slot, key),) if any(key) else fs
                grown[new] = grown.get(new, 0) + m * mult
        products = grown
    return BundleExpr(shape, {SchurMonomial(shape, fs): m for fs, m in products.items()})


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
                        for slot, w in mono.factors
                    ],
                }
                for mono, m in self.monomials()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "BundleExpr":
        shape = FlagShape.from_json(data["flag"])
        terms: dict = {}
        for term in data["terms"]:
            factors = [
                (Slot(f["slot"], strict_int(f["index"])), tuple(map(strict_int, f["weight"])))
                for f in term["factors"]
            ]
            mult = strict_int(term["mult"])
            for mono, m in make_monomial(shape, factors).terms.items():
                terms[mono] = terms.get(mono, 0) + m * mult
        return cls(shape, terms)


def trivial(shape: FlagShape) -> BundleExpr:
    return BundleExpr(shape, {SchurMonomial(shape, ()): 1})


def _relabel(e: BundleExpr, shape: FlagShape, factor) -> BundleExpr:
    """Map every factor (slot, w) of every monomial of ``e`` through
    ``factor`` to a factor on ``shape``, summing equal monomials."""
    terms: dict = {}
    for mono, m in e.terms.items():
        factors = sorted(
            (factor(slot, w) for slot, w in mono.factors),
            key=lambda fw: fw[0].sort_key(),
        )
        new = SchurMonomial(shape, tuple(factors))
        terms[new] = terms.get(new, 0) + m
    return BundleExpr(shape, terms)


def dual(e: BundleExpr) -> BundleExpr:
    return _relabel(e, e.shape, lambda slot, w: (slot, dual_weight(w)))


def sigma_pullback(e: BundleExpr) -> BundleExpr:
    """Pullback along the duality automorphism of a symmetric shape:
    W_{d_i} goes to the dual of Q_{d_(s-i+1)}, and conversely; as intervals,
    (lo, hi) goes to (s+1-hi, s+1-lo)."""
    shape = e.shape
    if not shape.is_symmetric():
        raise ValueError("sigma pullback needs a symmetric shape")
    top = shape.s + 1

    def factor(slot, w):
        lo, hi = slot.span(shape)
        return shape.slot(top - hi, top - lo), dual_weight(w)

    return _relabel(e, shape, factor)


def tensor(e1: BundleExpr, e2: BundleExpr) -> BundleExpr:
    if e1.shape != e2.shape:
        raise ValueError("shape mismatch")
    terms: dict = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            prod = make_monomial(e1.shape, m1.factors + m2.factors)
            for mono, c in prod.terms.items():
                terms[mono] = terms.get(mono, 0) + c * c1 * c2
    return BundleExpr(e1.shape, terms)


def _referenced_dims(mono: SchurMonomial) -> set:
    """The flag steps d_1, ..., d_s that end some factor's interval."""
    shape = mono.shape
    d = shape._bounds
    return {d[k] for slot, _w in mono.factors for k in slot.span(shape)} - {0, shape.n}


@lru_cache(maxsize=None)
def _forget_steps(shape: FlagShape, dims: tuple):
    """(new_shape, factor): the shape keeping only the flag steps ``dims``
    of ``shape``, and the map of a factor (slot, w) onto it.  Every slot
    mapped must have both its endpoints among the kept steps."""
    new_shape = FlagShape(shape.n, dims)
    pos = {d: i for i, d in enumerate(new_shape._bounds)}
    old = shape._bounds

    def factor(slot, w):
        lo, hi = slot.span(shape)
        return new_shape.slot(pos[old[lo]], pos[old[hi]]), w

    return new_shape, factor


def minimal_base(e: BundleExpr):
    """Drop flag steps not referenced by any slot of ``e``.

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
    out = {}
    for kappa in _subpartitions(p):
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
    has no factor.  Every factor must be on a block: Sub(1), Block(j) or
    Quot(s)."""
    shape = mono.shape
    out = [(0,) * b for b in shape.blocks()]
    for slot, w in mono.factors:
        lo, hi = slot.span(shape)
        if hi != lo + 1:
            raise ValueError("%s is not a block of %r" % (slot, shape))
        out[lo] = w
    return tuple(out)


@lru_cache(maxsize=None)
def _graded_factor(shape: FlagShape, slot: Slot, w: tuple) -> BundleExpr:
    """The associated graded of Sigma^w(slot) for the natural filtration, as
    monomials on the blocks the slot spans: the slot (lo, hi) spans blocks
    lo+1..hi.  Negative entries are absorbed into a determinant twist,
    which splits as the same twist on every block."""
    lo, hi = slot.span(shape)
    blocks = [shape.slot(j - 1, j) for j in range(lo + 1, hi + 1)]
    k = max(0, -min(w))
    terms: dict = {}
    for ws, c in _split_partition(tuple(x + k for x in w), shape.blocks()[lo:hi]):
        pieces = zip(blocks, (tuple(x - k for x in piece) for piece in ws))
        for mono, m in make_monomial(shape, pieces).terms.items():
            terms[mono] = terms.get(mono, 0) + c * m
    return BundleExpr(shape, terms)


def _expand_monomial(mono: SchurMonomial) -> tuple:
    """Graded pieces of a monomial: ((block monomial, coeff), ...).

    The tensor product of the associated graded of every factor, folded
    in one factor at a time.
    """
    shape = mono.shape
    factors = [_graded_factor(shape, slot, w) for slot, w in mono.factors]
    graded = reduce(tensor, factors) if factors else trivial(shape)
    return tuple(graded.terms.items())


def graded_expansion(e: BundleExpr):
    """Expand into block-graded monomials.

    Returns a list of (block monomial, multiplicity, filtration_level)
    with levels ordered so subbundle-side pieces precede quotient-side
    pieces (levels restart per monomial of the expression).
    """
    out = []
    for mono, m in e.monomials():
        pieces = sorted(_expand_monomial(mono), key=lambda mc: block_weights(mc[0]), reverse=True)
        for level, (gm, c) in enumerate(pieces):
            out.append((gm, c * m, level))
    return out

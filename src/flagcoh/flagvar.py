"""Flag shapes and formal bundle expressions.

A bundle expression is a nonnegative integer combination of monomials,
each a tensor product of rational Schur functors applied to tautological
bundles of a fixed flag shape: subbundles W_{d_i} (``sub``), quotients
V/W_{d_i} (``quot``) and consecutive quotients W_{d_j}/W_{d_(j-1)}
(``block``).  Everything is immutable and hashable so results can be
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

from .schur import CharacterSum, _lr_raw, _strip_zeros, pad, schur_dim, tensor_character
from .weights import dual_weight, is_weakly_decreasing, strict_int


@dataclass(frozen=True)
class FlagShape:
    """F(d_1, ..., d_s; V) with dim V = n.  ``dims=()`` is a point."""

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
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self):
        return self._hash

    def rank(self, shape: FlagShape) -> int:
        if not 1 <= self.index <= (shape.s + 1 if self.kind == BLOCK else shape.s):
            raise ValueError("slot %s(%d) invalid on %r" % (self.kind, self.index, shape))
        if self.kind == SUB:
            return shape.dims[self.index - 1]
        if self.kind == QUOT:
            return shape.n - shape.dims[self.index - 1]
        return shape.blocks()[self.index - 1]

    def sort_key(self):
        return (_SLOT_ORDER[self.kind], self.index)

    def __str__(self):
        return "%s(%d)" % (self.kind, self.index)


def _normalize_slot(slot: Slot, shape: FlagShape) -> Slot:
    # Block(1) is W_{d_1} and Block(s+1) is V/W_{d_s}; use one spelling.
    if slot.kind == BLOCK and shape.s >= 1:
        if slot.index == 1:
            return Slot(SUB, 1)
        if slot.index == shape.s + 1:
            return Slot(QUOT, shape.s)
    return slot


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
    for slot, w in factors:
        slot = _normalize_slot(slot, shape)
        w = tuple(w)
        if len(w) != slot.rank(shape):
            raise ValueError("weight %r has wrong length for %s" % (w, slot))
        by_slot.setdefault(slot, []).append(w)
    # factor tuples grown in slot order are already canonical
    products = {(): 1}
    for slot, ws in sorted(by_slot.items(), key=lambda kv: kv[0].sort_key()):
        if len(ws) == 1:
            pieces = ((ws[0], 1),)  # validated by SchurMonomial below
        else:
            cs = CharacterSum(len(ws[0]), {ws[0]: 1})
            for w in ws[1:]:
                cs = tensor_character(cs, w)
            pieces = cs.items()
        grown = {}
        for fs, m in products.items():
            for key, mult in pieces:
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
    W_{d_i} goes to the dual of Q_{d_(s-i+1)}, and conversely."""
    shape = e.shape
    if not shape.is_symmetric():
        raise ValueError("sigma pullback needs a symmetric shape")
    s = shape.s

    def factor(slot, w):
        if slot.kind == SUB:
            new = Slot(QUOT, s - slot.index + 1)
        elif slot.kind == QUOT:
            new = Slot(SUB, s - slot.index + 1)
        else:
            new = _normalize_slot(Slot(BLOCK, s + 2 - slot.index), shape)
        return new, dual_weight(w)

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
    shape = mono.shape
    refs = set()
    for slot, _w in mono.factors:
        if slot.kind in (SUB, QUOT):
            refs.add(shape.dims[slot.index - 1])
        else:
            j = slot.index
            if j >= 2:
                refs.add(shape.dims[j - 2])
            if j <= shape.s:
                refs.add(shape.dims[j - 1])
    return refs


@lru_cache(maxsize=None)
def _forget_steps(shape: FlagShape, dims: tuple):
    """(new_shape, factor): the shape keeping only the flag steps ``dims``
    of ``shape``, and the map of a factor (slot, w) onto it.  Every slot
    mapped must have both its endpoints among the kept steps."""
    new_shape = FlagShape(shape.n, dims)
    pos = {d: i + 1 for i, d in enumerate(dims)}
    old = shape.dims

    def factor(slot, w):
        if slot.kind in (SUB, QUOT):
            return Slot(slot.kind, pos[old[slot.index - 1]]), w
        # block j = W_{d_j} / W_{d_(j-1)}; both endpoints retained,
        # hence adjacent in the new shape as well
        j = slot.index
        if j == 1:
            return Slot(SUB, 1), w
        if j == shape.s + 1:
            return Slot(QUOT, new_shape.s), w
        return _normalize_slot(Slot(BLOCK, pos[old[j - 1]]), new_shape), w

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
    total = sum(p)
    out = {}
    for kappa in _subpartitions(p):
        rest = total - sum(kappa)
        for lam in _partitions_bounded(rest, last, p[0] if p else 0):
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


def _partitions_bounded(total: int, max_rows: int, max_width: int):
    if total == 0:
        yield ()
        return
    if max_rows == 0 or max_width == 0:
        return

    def rec(rem, width, rows, cur):
        if rem == 0:
            yield tuple(cur)
            return
        if rows == 0:
            return
        for v in range(min(rem, width), 0, -1):
            cur.append(v)
            yield from rec(rem - v, v, rows - 1, cur)
            cur.pop()

    yield from rec(total, max_width, max_rows, [])


def block_weights(mono: SchurMonomial) -> tuple:
    """One weight per consecutive quotient of the flag, zero where ``mono``
    has no factor.  Every factor must be on a block: Sub(1), Block(j) or
    Quot(s)."""
    shape = mono.shape
    out = [(0,) * b for b in shape.blocks()]
    for slot, w in mono.factors:
        if slot.kind == BLOCK:
            j = slot.index
        elif slot.kind == SUB and slot.index == 1:
            j = 1
        elif slot.kind == QUOT and slot.index == shape.s:
            j = shape.s + 1
        else:
            raise ValueError("%s is not a block of %r" % (slot, shape))
        out[j - 1] = w
    return tuple(out)


@lru_cache(maxsize=None)
def _graded_factor(shape: FlagShape, slot: Slot, w: tuple) -> BundleExpr:
    """The associated graded of Sigma^w(slot) for the natural filtration, as
    monomials on the blocks the slot spans: Sub(i) spans blocks 1..i,
    Quot(i) blocks i+1..s+1, and a block spans itself.  Negative entries
    are absorbed into a determinant twist, which splits as the same twist
    on every block."""
    if slot.kind == SUB:
        span = range(1, slot.index + 1)
    elif slot.kind == QUOT:
        span = range(slot.index + 1, shape.s + 2)
    else:
        span = (slot.index,)
    blocks = [Slot(BLOCK, j) for j in span]
    sizes = shape.blocks()
    k = max(0, -min(w))
    terms: dict = {}
    for ws, c in _split_partition(tuple(x + k for x in w), tuple(sizes[j - 1] for j in span)):
        pieces = zip(blocks, (tuple(x - k for x in piece) for piece in ws))
        for mono, m in make_monomial(shape, pieces).terms.items():
            terms[mono] = terms.get(mono, 0) + c * m
    return BundleExpr(shape, terms)


def _expand_monomial(mono: SchurMonomial) -> tuple:
    """Graded pieces of a monomial: ((block monomial, coeff), ...) in
    descending order of their block weights.

    The tensor product of the associated graded of every factor, folded
    in one factor at a time.
    """
    shape = mono.shape
    factors = [_graded_factor(shape, slot, w) for slot, w in mono.factors]
    graded = reduce(tensor, factors) if factors else trivial(shape)
    return tuple(sorted(graded.terms.items(), key=lambda mc: block_weights(mc[0]), reverse=True))


def graded_expansion(e: BundleExpr):
    """Expand into block-graded monomials.

    Returns a list of (block monomial, multiplicity, filtration_level)
    with levels ordered so subbundle-side pieces precede quotient-side
    pieces (levels restart per monomial of the expression).
    """
    out = []
    for mono, m in e.monomials():
        for level, (gm, c) in enumerate(_expand_monomial(mono)):
            out.append((gm, c * m, level))
    return out

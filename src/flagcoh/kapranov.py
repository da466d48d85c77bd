"""Exceptional collections on flag shapes.

``enumerate_collection`` builds the collection
Sigma^{a_1}(W_{d_1}) (x) ... (x) Sigma^{a_s}(W_{d_s}) with a_r running
over partitions in a d_r x (d_{r+1} - d_r) box (d_{s+1} = n), ordered so
that strong exceptionality is expected to hold; ``check_strong_exceptional``
verifies it pair by pair with three-valued verdicts that are always sound:
a Refuted verdict carries a machine-checkable witness and Inconclusive is
reported whenever the engine's bound cannot decide.  A verdict follows
from its outcome: ``PairVerdict`` is given no status and no witness; it
classifies its outcome by ``classify_vanishing`` when built and derives
its witness from it on every read.
"""

from __future__ import annotations

from .cohomology import (
    EXACT,
    CohomologyOutcome,
    _Table,
    ext_groups_best,
)
from .flagvar import SUB, BundleExpr, FlagShape, Slot, _subpartitions, make_monomial
from .schur import CharacterSum, pad
from .weights import InputError, _check_keys, _Frozen, _json_list, _Value

CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

HIGHER = "higher"  # Ext^k must vanish for k > 0
TOTAL = "total"  # Ext^k must vanish for every k

_STATUS_RANK = {CONFIRMED: 0, INCONCLUSIVE: 1, REFUTED: 2}


def worst_status(pairs) -> str:
    """The verdict on a set of pair verdicts: refuted > inconclusive > confirmed."""
    return max((p.status for p in pairs), key=_STATUS_RANK.__getitem__, default=CONFIRMED)


class Collection(_Frozen):
    """An ordered collection of bundles on one shape; immutable, so the
    shape its members were checked against stays theirs.  ``members`` is a
    tuple of BundleExprs, each a single SchurMonomial."""

    __slots__ = _fields = ("shape", "members")

    def __init__(self, shape: FlagShape, members):
        members = tuple(members)
        if any(m.shape != shape for m in members):
            raise InputError("member shape mismatch")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def to_json(self):
        return {
            "flag": self.shape.to_json(),
            "members": [m.to_json() for m in self.members],
        }

    @classmethod
    def from_json(cls, data):
        """Read a collection; a key other than ``flag`` and ``members``, or
        ``members`` that is not a JSON list, is an input error."""
        _check_keys(data, ("flag", "members"), "collection")
        shape = FlagShape.from_json(data["flag"])
        return cls(shape, [BundleExpr.from_json(m) for m in _json_list(data["members"], "members")])


def enumerate_collection(shape: FlagShape) -> Collection:
    """All box-bounded Schur monomials in the tautological subbundles.

    Ordered lexicographically descending on (|a_1|, ..., |a_s|), ties
    broken by descending comparison of the weight tuples; on a single
    Grassmann step this refines the containment order of Young diagrams
    (larger diagrams first, ending with the structure sheaf).
    """
    dims = shape.dims + (shape.n,)
    boxes = [[pad(p, d) for p in _subpartitions((e - d,) * d)] for d, e in zip(dims, dims[1:])]
    tuples = [()]
    for box in boxes:
        tuples = [t + (a,) for t in tuples for a in box]
    tuples.sort(key=lambda t: (tuple(sum(a) for a in t), t), reverse=True)
    members = []
    for t in tuples:
        factors = [(Slot(SUB, r + 1), a) for r, a in enumerate(t)]
        members.append(make_monomial(shape, factors))
    return Collection(shape, members)


def classify_vanishing(outcome: CohomologyOutcome, requirement: str):
    """Sound three-valued verdict on a vanishing requirement.

    ``higher`` asks for Ext^k = 0 (k > 0), ``total`` for Ext^k = 0 (all k).
    Confirmed whenever the (upper-bound) by_degree data is already zero in
    the forbidden range; Refuted on an exact nonzero group or on an Euler
    witness that forces one; Inconclusive otherwise.
    """
    if requirement not in (HIGHER, TOTAL):
        raise ValueError("unknown requirement %r" % requirement)
    offending = {
        d: cs
        for d, cs in outcome.by_degree.items()
        if cs and (requirement == TOTAL or d > 0)
    }
    if not offending:
        return CONFIRMED, None
    if outcome.grade == EXACT:
        d = min(offending)
        return REFUTED, {
            "kind": "exact_degree",
            "degree": d,
            "character": offending[d].to_json(),
        }
    if requirement == TOTAL:
        if outcome.euler:
            return REFUTED, {"kind": "euler_nonzero", "euler": outcome.euler.to_json()}
        return INCONCLUSIVE, None
    bound0 = outcome.character(0)
    for w, m in outcome.euler.items():
        if m < 0:
            # alternating sum negative at w: some odd-degree group is nonzero
            return REFUTED, {"kind": "euler_negative", "weight": list(w), "euler_mult": m}
        if m > bound0[w]:
            # exceeds the whole degree-0 bound: some positive even degree survives
            return REFUTED, {
                "kind": "euler_excess",
                "weight": list(w),
                "euler_mult": m,
                "hom_bound": bound0[w],
            }
    return INCONCLUSIVE, None


class PairVerdict(_Frozen):
    """The verdict on one ordered pair (i, j): the outcome of Ext^*(E_i,
    E_j) read against its requirement and, on a ``simple`` pair (the
    diagonal of a strong check), against Hom = k as well.  The verdict
    classifies itself once, by ``_classify``, and keeps only its
    ``status``; ``witness``, None unless refuted, is derived from the
    outcome on every read, so no caller can change what is printed for
    the pair."""

    _fields = ("i", "j", "requirement", "outcome", "simple")
    __slots__ = _fields + ("status",)

    def __init__(
        self,
        i: int,
        j: int,
        requirement: str,
        outcome: CohomologyOutcome,
        simple: bool = False,
    ):
        init = object.__setattr__
        init(self, "i", i)
        init(self, "j", j)
        init(self, "requirement", requirement)
        init(self, "outcome", outcome)
        init(self, "simple", simple)
        init(self, "status", _classify(outcome, requirement, simple)[0])

    @property
    def witness(self) -> dict | None:
        if self.status != REFUTED:  # most pairs, read for each
            return None
        return _classify(self.outcome, self.requirement, self.simple)[1]

    def to_json(self):
        """The pair as a new JSON value: ``hom`` is the degree-0 list of
        ``outcome``, the outcome's JSON, or an empty list."""
        outcome = self.outcome.to_json()
        return {
            "i": self.i,
            "j": self.j,
            "requirement": self.requirement,
            "status": self.status,
            "hom": outcome["by_degree"].get("0", []),
            "outcome": outcome,
            "witness": self.witness,
        }


class PairReport(_Value):
    _fields = ("shape", "members", "pairs")

    def __init__(self, shape: FlagShape, members: list, pairs: list | None = None):
        self.shape = shape
        self.members = members
        self.pairs = [] if pairs is None else pairs

    @property
    def status(self) -> str:
        return worst_status(self.pairs)

    def to_json(self, pairs: bool = True):
        """The report as JSON; without ``pairs``, only its head, which has
        no "pairs" key."""
        data = {
            "flag": self.shape.to_json(),
            "members": [m.to_json() for m in self.members],
            "overall": self.status,
        }
        if pairs:
            data["pairs"] = [p.to_json() for p in self.pairs]
        return data


def _check_pairs(members: list, below: str, simple: bool = False) -> list:
    """The one loop over ordered pairs: Ext^*(members[i], members[j]) by
    ``ext_groups_best``, classified against ``higher`` for i <= j and
    against ``below`` for i > j, and with ``simple`` against Hom = k on
    the diagonal.  The loop's one table lives for the call, so pairs with
    equal products a^v (x) b share one outcome, resolved once, and pair
    products share their stepwise pieces."""
    table = _Table()
    return [
        PairVerdict(i, j, below if i > j else HIGHER, ext_groups_best(a, b, table), simple and i == j)
        for i, a in enumerate(members)
        for j, b in enumerate(members)
    ]


def check_strong_exceptional(c: Collection) -> PairReport:
    """Check the strong exceptional conditions on an ordered collection.

    For i < j: Ext^k(E_i, E_j) = 0 for k > 0.  For i > j: Ext^k(E_i, E_j)
    = 0 for every k.  On the diagonal: higher self-Exts vanish and
    Hom(E_i, E_i) = k.  An empty collection is an input error.
    """
    if not c.members:
        raise InputError("empty collection")
    return PairReport(c.shape, list(c.members), _check_pairs(c.members, TOTAL, simple=True))


def _classify(outcome: CohomologyOutcome, requirement: str, simple: bool):
    """(status, witness) of a pair: ``classify_vanishing``, and on a
    ``simple`` pair whose vanishing is confirmed, whether Hom = k."""
    verdict = classify_vanishing(outcome, requirement)
    if not simple or verdict[0] != CONFIRMED:
        return verdict
    bound0 = outcome.character(0)
    if bound0 == CharacterSum(outcome.rank, {pad((), outcome.rank): 1}):
        # Hom always contains the identity; a bound equal to k pins it
        return verdict
    if outcome.grade == EXACT:
        return REFUTED, {"kind": "hom_not_simple", "hom": bound0.to_json()}
    return INCONCLUSIVE, None

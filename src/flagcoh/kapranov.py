"""Exceptional collections on flag shapes.

``enumerate_collection`` builds the collection
Sigma^{a_1}(W_{d_1}) (x) ... (x) Sigma^{a_s}(W_{d_s}) with a_r running
over partitions in a d_r x (d_{r+1} - d_r) box (d_{s+1} = n), ordered so
that strong exceptionality is expected to hold; ``check_strong_exceptional``
verifies it pair by pair with three-valued verdicts that are always sound:
a Refuted verdict carries a machine-checkable witness and Inconclusive is
reported whenever the engine's bound cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import (
    EXACT,
    CohomologyOutcome,
    _Table,
    ext_groups_best,
)
from .flagvar import SUB, BundleExpr, FlagShape, Slot, _subpartitions, make_monomial
from .schur import CharacterSum, pad
from .weights import InputError, _check_keys, _json_list

CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

HIGHER = "higher"  # Ext^k must vanish for k > 0
TOTAL = "total"  # Ext^k must vanish for every k

_STATUS_RANK = {CONFIRMED: 0, INCONCLUSIVE: 1, REFUTED: 2}
EXIT_CODE = {CONFIRMED: 0, REFUTED: 1, INCONCLUSIVE: 2}


def worst_status(pairs) -> str:
    """The verdict on a set of pair verdicts: refuted > inconclusive > confirmed."""
    return max((p.status for p in pairs), key=_STATUS_RANK.__getitem__, default=CONFIRMED)


@dataclass(frozen=True)
class Collection:
    """An ordered collection of bundles on one shape; frozen, so the shape
    its members were checked against stays theirs."""

    shape: FlagShape
    members: tuple  # tuple[BundleExpr], each a single SchurMonomial

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if any(m.shape != self.shape for m in self.members):
            raise InputError("member shape mismatch")

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


@dataclass
class PairVerdict:
    i: int
    j: int
    requirement: str
    status: str
    outcome: CohomologyOutcome
    witness: dict | None = None

    @property
    def hom_character(self) -> CharacterSum:
        return self.outcome.character(0)

    def to_json(self, shared: dict | None = None):
        """The pair as JSON.  ``shared`` maps id(outcome) to [hom, outcome,
        pairs]: the JSON values built for that outcome object and the
        number of pairs using them.  Pass one dict for all pairs of a
        report, so that pairs sharing an outcome share these values and
        each is built once.  ``hom`` is the outcome's degree-0 list itself."""
        if shared is None:
            shared = {}
        entry = shared.get(id(self.outcome))
        if entry is None:
            outcome = self.outcome.to_json()
            entry = shared[id(self.outcome)] = [outcome["by_degree"].get("0", []), outcome, 0]
        entry[2] += 1
        hom, outcome, _pairs = entry
        return {
            "i": self.i,
            "j": self.j,
            "requirement": self.requirement,
            "status": self.status,
            "hom": hom,
            "outcome": outcome,
            "witness": self.witness,
        }


@dataclass
class PairReport:
    shape: FlagShape
    members: list
    pairs: list = field(default_factory=list)

    @property
    def overall(self) -> str:
        return worst_status(self.pairs)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.overall]

    def refutations(self):
        return [p for p in self.pairs if p.status == REFUTED]

    def to_json(self, shared: dict | None = None):
        """The report as JSON; ``shared`` is passed to every
        ``PairVerdict.to_json``, and a fresh one is used when it is None."""
        shared = {} if shared is None else shared
        return {
            "flag": self.shape.to_json(),
            "members": [m.to_json() for m in self.members],
            "overall": self.overall,
            "pairs": [p.to_json(shared) for p in self.pairs],
        }


def _check_pairs(members: list, below: str) -> list:
    """The one loop over ordered pairs: Ext^*(members[i], members[j]) by
    ``ext_groups_best``, classified against ``higher`` for i <= j and
    against ``below`` for i > j.  The loop's one table lives for the
    call, so pairs with equal products a^v (x) b share one outcome,
    resolved once, and pair products share their stepwise pieces."""
    if not members:
        raise InputError("empty collection")
    pairs = []
    table = _Table()
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            outcome = ext_groups_best(a, b, table)
            requirement = below if i > j else HIGHER
            status, witness = classify_vanishing(outcome, requirement)
            pairs.append(PairVerdict(i, j, requirement, status, outcome, witness))
    return pairs


def check_strong_exceptional(c) -> PairReport:
    """Check the strong exceptional conditions on an ordered collection.

    For i < j: Ext^k(E_i, E_j) = 0 for k > 0.  For i > j: Ext^k(E_i, E_j)
    = 0 for every k.  On the diagonal: higher self-Exts vanish and
    Hom(E_i, E_i) = k.  ``c`` is a Collection or a list of members.
    """
    if not isinstance(c, Collection):
        members = list(c)
        c = Collection(members[0].shape if members else None, members)
    pairs = _check_pairs(c.members, TOTAL)
    for p in pairs[:: len(c) + 1]:  # the diagonal
        if p.status == CONFIRMED:
            p.status, p.witness = _classify_simple(p.outcome)
    return PairReport(c.shape, list(c.members), pairs)


def _classify_simple(outcome: CohomologyOutcome):
    """Given confirmed higher vanishing, decide whether Hom = k."""
    unit = CharacterSum(outcome.rank, {pad((), outcome.rank): 1})
    bound0 = outcome.character(0)
    if bound0 == unit:
        # Hom always contains the identity; a bound equal to k pins it
        return CONFIRMED, None
    if outcome.grade == EXACT:
        return REFUTED, {"kind": "hom_not_simple", "hom": bound0.to_json()}
    return INCONCLUSIVE, None


def hom_quiver(c) -> dict:
    """Degree-0 Hom characters and dimensions between all ordered pairs,
    read off the pairs of ``check_strong_exceptional``."""
    report = check_strong_exceptional(c)
    n = len(report.members)
    homs = [p.hom_character for p in report.pairs]
    rows = [homs[i : i + n] for i in range(0, n * n, n)]
    return {
        "flag": report.shape.to_json(),
        "dims": [[cs.dimension() for cs in row] for row in rows],
        "characters": [[cs.to_json() for cs in row] for row in rows],
    }

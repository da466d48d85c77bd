"""Twisted-form descent analysis.

A twisted form of a flag variety is governed by whether its Galois
cocycle uses only inner automorphisms or also the duality automorphism
sigma (available exactly on symmetric shapes); ``check_T2`` takes that
choice as the bool ``sigma``.  A candidate tilting bundle T is pushed
through the orbit sum T |-> (+)_g g*T, which is T for inner forms and
T + sigma*T with the duality twist, and descent condition (T2) -- no
higher self-extensions of the orbit sum -- is checked pairwise over the
orbit's monomial summands.  Each report carries a ``status`` from the
verdict lattice of ``kapranov``; only the command line maps a status to
an exit code.  A counterexample reading's status and certificate are
read from its stepwise outcome by ``classify_vanishing``, the rule of
the pair checks, and are not stored.

``counterexample_case`` packages the three families of (F, G) pairs for
which Ext^{>0}(sigma*F, G) is nonzero, refuting (T2) for the outer form.
Case 3 is reported in two readings (F = W_1 and F = W_2) because the two
give genuinely different outcomes; both are emitted, neither adjudicated.
"""

from __future__ import annotations

from .cohomology import CohomologyOutcome, cohomology, cohomology_stepwise
from .flagvar import (
    SUB,
    BundleExpr,
    FlagShape,
    Slot,
    dual,
    make_monomial,
    sigma_pullback,
    tensor,
)
from .kapranov import (
    HIGHER,
    INCONCLUSIVE,
    REFUTED,
    _check_pairs,
    classify_vanishing,
    worst_status,
)
from .schur import pad
from .weights import InputError, _Value

INNER_ONLY = "inner_only"
WITH_SIGMA = "with_sigma"


class DescentReport(_Value):
    _fields = ("group", "shape", "orbit_members", "summands", "pairs")

    def __init__(
        self, group: str, shape: FlagShape, orbit_members: list, summands: list, pairs=None
    ):
        self.group = group  # INNER_ONLY or WITH_SIGMA
        self.shape = shape
        self.orbit_members = orbit_members
        self.summands = summands  # single-monomial BundleExprs, pairwise checked
        self.pairs = [] if pairs is None else pairs

    @property
    def status(self) -> str:
        return worst_status(self.pairs)

    def certificates(self):
        return [
            {"i": p.i, "j": p.j, "witness": p.witness}
            for p in self.pairs
            if p.status == REFUTED
        ]

    def to_json(self, pairs: bool = True):
        """The report as JSON; without ``pairs``, only its head, which has
        no "pairs" key."""
        data = {
            "group": self.group,
            "flag": self.shape.to_json(),
            "orbit": [m.to_json() for m in self.orbit_members],
            "summands": [s.to_json() for s in self.summands],
            "status": self.status,
            "certificates": self.certificates(),
        }
        if pairs:
            data["pairs"] = [p.to_json() for p in self.pairs]
        return data


def check_T2(t: BundleExpr, *, sigma: bool = False) -> DescentReport:
    """Descent condition (T2): the orbit sum has no higher self-extensions,
    under the inner Galois action or, with ``sigma``, under the one
    twisted by the duality.

    Equivalent to Ext^k(a, b) = 0 for k > 0 over all ordered pairs (a, b)
    of monomial summands of the orbit sum; degree-0 Homs are unrestricted.
    """
    if sigma and not t.shape.is_symmetric():
        raise InputError(
            "the duality twist exists only on symmetric shapes (d_i + d_(s-i+1) = n)"
        )
    members = [t, sigma_pullback(t)] if sigma else [t]
    monos = dict.fromkeys(mono for m in members for mono, _m in m.monomials())
    if not monos:
        raise InputError("the candidate bundle is zero, so its orbit sum has no summands")
    summands = [BundleExpr(t.shape, {mono: 1}) for mono in monos]
    group = WITH_SIGMA if sigma else INNER_ONLY
    return DescentReport(group, t.shape, members, summands, _check_pairs(summands, HIGHER))


# ---------------------------------------------------------------------------
# the three counterexample families


def _column(k: int, rows: int) -> tuple:
    return pad((1,) * k, rows)


class ReadingReport(_Value):
    """One reading (sigma*F, G) of a counterexample family: Ext^*(sigma*F,
    G) by both routes, classified on the stepwise one on every read."""

    _fields = ("label", "F", "G", "sigma_F", "ext_outcome", "refined")

    def __init__(
        self,
        label: str,
        F: BundleExpr,
        G: BundleExpr,
        sigma_F: BundleExpr,
        ext_outcome: CohomologyOutcome,
        refined: CohomologyOutcome,
    ):
        self.label = label
        self.F = F
        self.G = G
        self.sigma_F = sigma_F
        self.ext_outcome = ext_outcome  # one-shot graded view
        self.refined = refined  # stepwise view

    @property
    def status(self) -> str:
        return classify_vanishing(self.refined, HIGHER)[0]

    @property
    def certificate(self) -> dict | None:
        return classify_vanishing(self.refined, HIGHER)[1]

    def to_json(self):
        return {
            "label": self.label,
            "F": self.F.to_json(),
            "G": self.G.to_json(),
            "sigma_F": self.sigma_F.to_json(),
            "ext_outcome": self.ext_outcome.to_json(),
            "refined": self.refined.to_json(),
            "status": self.status,
            "certificate": self.certificate,
        }


class CounterexampleReport(_Value):
    _fields = ("case", "shape", "readings")

    def __init__(self, case: int, shape: FlagShape, readings: list):
        self.case = case
        self.shape = shape
        self.readings = readings

    @property
    def established(self) -> bool:
        return any(r.status == REFUTED for r in self.readings)

    @property
    def status(self) -> str:
        return REFUTED if self.established else INCONCLUSIVE

    def to_json(self):
        return {
            "case": self.case,
            "flag": self.shape.to_json(),
            "established": self.established,
            "readings": [r.to_json() for r in self.readings],
        }


def _reading(label: str, F: BundleExpr, G: BundleExpr) -> ReadingReport:
    sigma_F = sigma_pullback(F)
    e = tensor(dual(sigma_F), G)
    ext_outcome, refined = cohomology(e), cohomology_stepwise(e)
    # both routes compute the Euler character exactly
    if ext_outcome.euler != refined.euler:
        raise RuntimeError("routes disagree on the Euler character of %s" % e)
    return ReadingReport(label, F, G, sigma_F, ext_outcome, refined)


def counterexample_case(case: int, shape: FlagShape) -> CounterexampleReport:
    """The three families of pairs (F, G) in Kapranov's collection with
    Ext^{>0}(sigma*F, G) != 0 on the outer twisted form's flag variety."""
    if not shape.is_symmetric():
        raise InputError("counterexamples live on symmetric shapes")
    dims = shape.dims
    s = shape.s
    if case == 1:
        if s < 1 or dims[0] < 2:
            raise InputError("case 1 requires d_1 >= 2")
        F = make_monomial(shape, [(Slot(SUB, 1), _column(dims[0] - 1, dims[0]))])
        G = make_monomial(shape, [(Slot(SUB, s), pad((2,), dims[-1]))])
        readings = [_reading("standard", F, G)]
    elif case == 2:
        if s < 2 or dims[0] != 1 or dims[1] < 3:
            raise InputError("case 2 requires d_1 = 1 and d_2 >= 3")
        F = make_monomial(shape, [(Slot(SUB, 2), _column(dims[1] - 1, dims[1]))])
        G = make_monomial(shape, [(Slot(SUB, s - 1), pad((2,), dims[s - 2]))])
        readings = [_reading("standard", F, G)]
    elif case == 3:
        if s < 2 or dims[0] != 1 or dims[1] != 2:
            raise InputError("case 3 requires d_1 = 1 and d_2 = 2")
        G = tensor(
            make_monomial(shape, [(Slot(SUB, s - 1), pad((1,), dims[s - 2]))]),
            make_monomial(shape, [(Slot(SUB, s), pad((1,), dims[s - 1]))]),
        )
        F1 = make_monomial(shape, [(Slot(SUB, 1), (1,))])
        F2 = make_monomial(shape, [(Slot(SUB, 2), (1, 0))])
        readings = [_reading("F=W_1", F1, G), _reading("F=W_2", F2, G)]
    else:
        raise InputError("case must be 1, 2 or 3")
    return CounterexampleReport(case, shape, readings)

"""Twisted-form descent analysis.

A twisted form of a flag variety is governed by whether its Galois
cocycle uses only inner automorphisms or also the duality automorphism
sigma (available exactly on symmetric shapes).  A candidate tilting
bundle is pushed through the orbit sum T |-> (+)_g g*T, and descent
condition (T2) -- no higher self-extensions of the orbit sum -- is
checked pairwise over the orbit's monomial summands.

``counterexample_case`` packages the three families of (F, G) pairs for
which Ext^{>0}(sigma*F, G) is nonzero, refuting (T2) for the outer form.
Case 3 is reported in two readings (F = W_1 and F = W_2) because the two
give genuinely different outcomes; both are emitted, neither adjudicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    EXIT_CODE,
    HIGHER,
    INCONCLUSIVE,
    REFUTED,
    _check_pairs,
    classify_vanishing,
    worst_status,
)
from .schur import pad
from .weights import InputError

INNER_ONLY = "inner_only"
WITH_SIGMA = "with_sigma"


@dataclass(frozen=True)
class TwistGroup:
    kind: str

    def __post_init__(self):
        if self.kind not in (INNER_ONLY, WITH_SIGMA):
            raise ValueError("unknown twist group kind %r" % self.kind)

    def check_shape(self, shape: FlagShape):
        if self.kind == WITH_SIGMA and not shape.is_symmetric():
            raise InputError(
                "the duality twist exists only on symmetric shapes "
                "(d_i + d_(s-i+1) = n)"
            )


def orbit(t: BundleExpr, g: TwistGroup) -> list:
    """The Galois orbit of t: [t] for inner forms, [t, sigma*t] otherwise."""
    g.check_shape(t.shape)
    if g.kind == INNER_ONLY:
        return [t]
    return [t, sigma_pullback(t)]


def orbit_sum(t: BundleExpr, g: TwistGroup) -> BundleExpr:
    """The sum of the Galois orbit of t: t, or t + sigma*t."""
    return sum(orbit(t, g), BundleExpr(t.shape))


@dataclass
class DescentReport:
    group: TwistGroup
    shape: FlagShape
    orbit_members: list
    summands: list  # single-monomial BundleExprs, pairwise checked
    pairs: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return worst_status(self.pairs)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.status]

    def certificates(self):
        return [
            {"i": p.i, "j": p.j, "witness": p.witness}
            for p in self.pairs
            if p.status == REFUTED
        ]

    def to_json(self, shared: dict | None = None):
        """The report as JSON; ``shared`` is passed to every
        ``PairVerdict.to_json``, and a fresh one is used when it is None."""
        shared = {} if shared is None else shared
        return {
            "group": self.group.kind,
            "flag": self.shape.to_json(),
            "orbit": [m.to_json() for m in self.orbit_members],
            "summands": [s.to_json() for s in self.summands],
            "status": self.status,
            "certificates": self.certificates(),
            "pairs": [p.to_json(shared) for p in self.pairs],
        }


def check_T2(t: BundleExpr, g: TwistGroup) -> DescentReport:
    """Descent condition (T2): the orbit sum has no higher self-extensions.

    Equivalent to Ext^k(a, b) = 0 for k > 0 over all ordered pairs (a, b)
    of monomial summands of the orbit sum; degree-0 Homs are unrestricted.
    """
    members = orbit(t, g)
    monos = dict.fromkeys(mono for m in members for mono, _m in m.monomials())
    summands = [BundleExpr(t.shape, {mono: 1}) for mono in monos]
    return DescentReport(g, t.shape, members, summands, _check_pairs(summands, HIGHER))


# ---------------------------------------------------------------------------
# the three counterexample families


def _column(k: int, rows: int) -> tuple:
    return pad((1,) * k, rows)


@dataclass
class ReadingReport:
    label: str
    F: BundleExpr
    G: BundleExpr
    sigma_F: BundleExpr
    ext_outcome: CohomologyOutcome  # one-shot graded view
    refined: CohomologyOutcome  # stepwise view
    status: str  # classified on the stepwise outcome
    certificate: dict | None

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


@dataclass
class CounterexampleReport:
    case: int
    shape: FlagShape
    readings: list

    @property
    def established(self) -> bool:
        return any(r.status == REFUTED for r in self.readings)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[REFUTED if self.established else INCONCLUSIVE]

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
    status, certificate = classify_vanishing(refined, HIGHER)
    return ReadingReport(label, F, G, sigma_F, ext_outcome, refined, status, certificate)


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

"""The package's value types: each is equal, printed, copied and pickled by
the fields its constructor takes, and hashable exactly when it is frozen."""

import copy
import inspect
import pickle

import pytest

from flagcoh.cohomology import E1_BOUND, EXACT, CohomologyOutcome
from flagcoh.flagvar import QUOT, SUB, BundleExpr, FlagShape, SchurMonomial, Slot
from flagcoh.kapranov import (
    CONFIRMED,
    HIGHER,
    REFUTED,
    TOTAL,
    Collection,
    PairReport,
    PairVerdict,
)
from flagcoh.schur import CharacterSum
from flagcoh.toric import GridReport, Level, TowerSpec
from flagcoh.twists import (
    INNER_ONLY,
    WITH_SIGMA,
    CounterexampleReport,
    DescentReport,
    ReadingReport,
)
from flagcoh.weights import _Value

P2, P3 = FlagShape(3, (1,)), FlagShape(4, (1,))
ONE = CharacterSum(3, {(0, 0, 0): 1})
TWIST = CharacterSum(3, {(1, 0, 0): 1})
O = BundleExpr(P2, {SchurMonomial(P2, ()): 1})
W = BundleExpr(P2, {SchurMonomial(P2, (((0, 1), (1,)),)): 1})
HOM = CohomologyOutcome(3, EXACT, {0: ONE})
BOUND = CohomologyOutcome(3, E1_BOUND, {1: TWIST})
VERDICT = PairVerdict(0, 1, HIGHER, HOM)
LEVEL = Level((((0,), (1,)), ((0,), (1,))), ((1, 0),))
TOWER = TowerSpec(1, (LEVEL,))

# each class with its constructor's arguments, and for every argument
# another that the constructor accepts in its place alone
CASES = [
    (FlagShape, (3, (1,)), (4, (2,))),
    (Slot, (SUB, 1), (QUOT, 2)),
    (SchurMonomial, (P2, (((0, 1), (1,)),)), (P3, (((0, 1), (2,)),))),
    (BundleExpr, (P2, {}), (P3, {SchurMonomial(P2, ()): 1})),
    (CohomologyOutcome, (3, EXACT, {0: ONE}, ONE), (4, E1_BOUND, {1: ONE}, TWIST)),
    (Collection, (P2, ()), (P3, (O,))),
    (
        PairVerdict,
        (0, 1, HIGHER, HOM, False),
        (1, 0, TOTAL, BOUND, True),
    ),
    (PairReport, (P2, [O], [VERDICT]), (P3, [W], [])),
    (
        DescentReport,
        (INNER_ONLY, P2, [O], [O], [VERDICT]),
        (WITH_SIGMA, P3, [W], [W], []),
    ),
    (
        ReadingReport,
        ("F=W_1", W, O, W, HOM, HOM),
        ("F=W_2", O, W, O, BOUND, BOUND),
    ),
    (CounterexampleReport, (3, P2, []), (1, P3, [None])),
    (Level, (((((0,), (1,)),),), ()), (((((1,), (1,)),),), ((0,),))),
    (TowerSpec, (1, ()), (2, (LEVEL,))),
    (GridReport, (TOWER, [(0, 0, 0)], []), (TowerSpec(2, ()), [], [{"a": 1}])),
]
REPORTS = (PairReport, DescentReport, ReadingReport, CounterexampleReport, GridReport)
UNHASHABLE = (CohomologyOutcome, PairVerdict) + REPORTS
IDS = [cls.__name__ for cls, _args, _other in CASES]

_EXPR = "BundleExpr(shape=FlagShape(n=3, dims=(1,)), terms=mappingproxy({%s: 1}))"
_O = _EXPR % "SchurMonomial(shape=FlagShape(n=3, dims=(1,)), factors=())"
_W = _EXPR % "SchurMonomial(shape=FlagShape(n=3, dims=(1,)), factors=(((0, 1), (1,)),))"
_HOM = (
    "CohomologyOutcome(rank=3, grade='exact', by_degree=mappingproxy({0: "
    "CharacterSum(3, {(0, 0, 0): 1})}), euler=CharacterSum(3, {(0, 0, 0): 1}))"
)
_VERDICT = (
    "PairVerdict(i=0, j=1, requirement='higher', outcome=%s, simple=False)" % _HOM
)
_LEVEL = "Level(bundles=(((0,), (1,)), ((0,), (1,))), perms=((1, 0),))"
REPRS = {
    PairReport: "PairReport(shape=FlagShape(n=3, dims=(1,)), members=[%s], pairs=[%s])"
    % (_O, _VERDICT),
    DescentReport: (
        "DescentReport(group='inner_only', shape=FlagShape(n=3, dims=(1,)), "
        "orbit_members=[%s], summands=[%s], pairs=[%s])" % (_O, _O, _VERDICT)
    ),
    ReadingReport: (
        "ReadingReport(label='F=W_1', F=%s, G=%s, sigma_F=%s, ext_outcome=%s, refined=%s)"
        % (_W, _O, _W, _HOM, _HOM)
    ),
    CounterexampleReport: "CounterexampleReport(case=3, shape=FlagShape(n=3, dims=(1,)), readings=[])",
    GridReport: (
        "GridReport(tower=TowerSpec(base_dim=1, levels=(%s,)), grid=[(0, 0, 0)], failures=[])"
        % _LEVEL
    ),
}


def test_a_value_class_with_one_field_is_rejected_when_defined():
    # attrgetter reads a lone field as a bare value, not a 1-tuple, so such
    # a class would compare and print but neither copy nor pickle; with
    # two, a copy is rebuilt through the constructor
    with pytest.raises(TypeError, match="Single has one field"):

        class Single(_Value):
            _fields = ("x",)

    class Two(_Value):
        _fields = ("x", "y")

        def __init__(self, x, y):
            self.x, self.y = x, y

    assert copy.deepcopy(Two(1, (2,))) == Two(1, (2,)) != Two(1, 2)


def test_fields_are_the_constructor_parameters_in_order():
    assert {cls for cls, _args, _other in CASES} >= set(REPORTS) and len(CASES) == 14
    for cls, args, _other in CASES:
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert cls._fields == tuple(params), cls.__name__
        assert len(args) == len(params), cls.__name__
        value = cls(*args)
        assert tuple(getattr(value, name) for name in cls._fields) == value._fields_of(value)


def _changed(cls, args, other):
    """``cls(*args)`` with each one argument in turn taken from ``other``."""
    return [cls(*args[:k], other[k], *args[k + 1:]) for k in range(len(args))]


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_changing_any_one_field_breaks_equality(cls, args, other):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args) and value == value
    for k, changed in enumerate(_changed(cls, args, other)):
        assert changed != value and not changed == value, (cls.__name__, k)
    assert value != args and value != None  # noqa: E711


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_values(cls, args, other):
    for value in [cls(*args), *_changed(cls, args, other)]:
        for rebuild in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            again = rebuild(value)
            assert type(again) is cls and again == value and repr(again) == repr(value)


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_frozen_values_hash_and_reports_do_not(cls, args, other):
    value = cls(*args)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*args)) == hash(pickle.loads(pickle.dumps(value)))


def test_report_reprs_are_pinned():
    for cls, args, _other in CASES:
        if cls in REPRS:
            assert repr(cls(*args)) == REPRS[cls]
    assert repr(HOM) == _HOM and repr(VERDICT) == _VERDICT and repr(LEVEL) == _LEVEL
    assert repr(O) == _O and repr(W) == _W


def test_no_value_type_writes_its_own_comparison_or_printing():
    # one base holds them; an outcome and an expression rebuild their
    # read-only mapping view as a dict, and three types keep a stored hash
    own = {
        cls.__name__: sorted(
            name
            for name in ("__eq__", "__repr__", "__reduce__", "_values", "__hash__")
            if name in vars(cls)
        )
        for cls, _args, _other in CASES
    }
    assert own == {
        "FlagShape": ["__hash__"],
        "Slot": ["__hash__"],
        "SchurMonomial": ["__hash__"],
        "BundleExpr": ["__hash__", "__reduce__"],
        "CohomologyOutcome": ["__hash__", "__reduce__"],
        "Collection": [],
        "PairVerdict": [],
        "PairReport": [],
        "DescentReport": [],
        "ReadingReport": [],
        "CounterexampleReport": [],
        "Level": [],
        "TowerSpec": [],
        "GridReport": [],
    }

import dataclasses
import importlib
import itertools
import math

import pytest

from flagcoh import kapranov
from flagcoh.cohomology import EXACT, ext_groups_best
from flagcoh.flagvar import BundleExpr, FlagShape, dual, tensor
from flagcoh.kapranov import (
    CONFIRMED,
    HIGHER,
    REFUTED,
    TOTAL,
    Collection,
    check_strong_exceptional,
    classify_vanishing,
    enumerate_collection,
    hom_quiver,
)
from flagcoh.twists import INNER_ONLY, WITH_SIGMA, TwistGroup, check_T2
from flagcoh.weights import InputError


def all_shapes(n_max):
    for n in range(2, n_max + 1):
        for s in range(1, n):
            for dims in itertools.combinations(range(1, n), s):
                yield FlagShape(n, dims)


def test_member_counts():
    for shape in all_shapes(6):
        c = enumerate_collection(shape)
        expected = math.factorial(shape.n) // math.prod(
            math.factorial(b) for b in shape.blocks()
        )
        assert len(c) == expected, shape


def test_beilinson_line_bundles():
    # Gr(1, n+1): the n+1 twists O(-n), ..., O, largest twist first
    for n in (1, 2, 3):
        c = enumerate_collection(FlagShape(n + 1, (1,)))
        assert len(c) == n + 1
        weights = [
            (m.monomials()[0][0].factors[0][1] if m.monomials()[0][0].factors else (0,))
            for m in c.members
        ]
        assert weights == [(n - i,) for i in range(n + 1)]


def test_f123_members():
    c = enumerate_collection(FlagShape(3, (1, 2)))
    assert len(c) == 6
    # lex descending on (|a_1|, |a_2|); last member is the structure sheaf
    assert not c.members[-1].monomials()[0][0].factors


def test_collection_json_roundtrip():
    c = enumerate_collection(FlagShape(3, (1, 2)))
    c2 = Collection.from_json(c.to_json())
    assert c2.shape == c.shape and c2.members == c.members


def test_collection_is_frozen():
    c = enumerate_collection(FlagShape(3, (1,)))
    as_list = {"flag": c.shape.to_json(), "members": [m.to_json() for m in c.members]}
    assert isinstance(c.members, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.shape = FlagShape(4, (2,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.members = enumerate_collection(FlagShape(4, (2,))).members
    with pytest.raises(AttributeError):
        c.members.append(c.members[0])
    # a list of members is stored as a tuple, and the JSON form is unchanged
    assert c.to_json() == as_list
    assert Collection(c.shape, list(c.members)) == c
    assert check_strong_exceptional(c).to_json()["flag"] == {"n": 3, "dims": [1]}


def test_strong_exceptional_projective_spaces():
    for n in (2, 3, 4):
        report = check_strong_exceptional(enumerate_collection(FlagShape(n, (1,))))
        assert report.overall == CONFIRMED
        assert report.exit_code == 0


def test_strong_exceptional_gr24():
    report = check_strong_exceptional(enumerate_collection(FlagShape(4, (2,))))
    assert report.overall == CONFIRMED
    assert all(p.outcome.grade == EXACT for p in report.pairs)


def test_wrong_order_refutes():
    c = enumerate_collection(FlagShape(2, (1,)))
    report = check_strong_exceptional(list(reversed(c.members)))
    assert report.overall == REFUTED
    bad = report.refutations()
    assert bad and all(p.witness is not None for p in bad)


def test_order_reversal_property():
    for shape in (FlagShape(3, (1,)), FlagShape(4, (2,)), FlagShape(3, (1, 2))):
        c = enumerate_collection(shape)
        report = check_strong_exceptional(list(reversed(c.members)))
        assert report.overall == REFUTED


def test_hom_quiver_p1():
    q = hom_quiver(enumerate_collection(FlagShape(2, (1,))))
    assert q["dims"] == [[1, 2], [0, 1]]


def test_hom_quiver_p2():
    q = hom_quiver(enumerate_collection(FlagShape(3, (1,))))
    assert q["dims"] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


def test_hom_quiver_gr24_entry():
    c = enumerate_collection(FlagShape(4, (2,)))
    # member index of O and of W (= Sigma^(1,0) W)
    idx = {}
    for i, m in enumerate(c.members):
        factors = m.monomials()[0][0].factors
        if not factors:
            idx["O"] = i
        elif factors[0][1] == (1, 0):
            idx["W"] = i
    q = hom_quiver(c)
    # Hom(W, O) = H^0(W^v) = V^v, dimension 4
    assert q["dims"][idx["W"]][idx["O"]] == 4
    assert q["dims"][idx["O"]][idx["W"]] == 0


def test_diagonal_simple():
    report = check_strong_exceptional(enumerate_collection(FlagShape(3, (1, 2))))
    for p in report.pairs:
        if p.i == p.j:
            assert p.status == CONFIRMED
            assert p.hom_character.dimension() == 1


def test_classify_vanishing_requires_valid_requirement():
    from flagcoh.cohomology import CohomologyOutcome

    out = CohomologyOutcome(rank=2, grade=EXACT, by_degree={})
    assert classify_vanishing(out, HIGHER) == (CONFIRMED, None)
    assert classify_vanishing(out, TOTAL) == (CONFIRMED, None)
    with pytest.raises(ValueError):
        classify_vanishing(out, "bogus")


def test_collection_members_live_on_its_shape():
    members = enumerate_collection(FlagShape(4, (2,))).members
    with pytest.raises(InputError, match="member shape mismatch"):
        check_strong_exceptional(Collection(FlagShape(3, (1,)), members))
    with pytest.raises(InputError, match="member shape mismatch"):
        check_strong_exceptional(members + enumerate_collection(FlagShape(3, (1,))).members)
    # the same members on their own shape, and as a plain list
    assert check_strong_exceptional(Collection(FlagShape(4, (2,)), members)).overall == CONFIRMED
    assert check_strong_exceptional(members).overall == CONFIRMED


def test_empty_collection_rejected():
    shape = FlagShape(3, (1,))
    with pytest.raises(InputError):
        check_strong_exceptional([])
    with pytest.raises(InputError):
        check_strong_exceptional(Collection(shape, []))
    with pytest.raises(InputError):
        hom_quiver([])
    with pytest.raises(InputError):
        check_T2(BundleExpr(shape), TwistGroup(INNER_ONLY))




@pytest.mark.parametrize("shape", [FlagShape(3, (1, 2)), FlagShape(4, (2,))])
def test_every_pair_check_makes_one_ext_call_per_ordered_pair(monkeypatch, shape):
    calls = []

    def counting(a, b, table=None):
        calls.append((a, b))
        return ext_groups_best(a, b, table)

    monkeypatch.setattr(kapranov, "ext_groups_best", counting)
    c = enumerate_collection(shape)
    n = len(c)
    report = check_strong_exceptional(c)
    assert len(calls) == n * n
    assert [(p.i, p.j) for p in report.pairs] == list(itertools.product(range(n), repeat=2))
    assert [p.requirement for p in report.pairs] == [
        TOTAL if p.i > p.j else HIGHER for p in report.pairs
    ]

    del calls[:]
    q = hom_quiver(c)
    assert len(calls) == n * n
    # the quiver is the strong check's Hom characters, which are the
    # degree-0 part of a direct Ext computation
    rows = [report.pairs[i * n : (i + 1) * n] for i in range(n)]
    assert q["characters"] == [[p.hom_character.to_json() for p in row] for row in rows]
    assert q["dims"] == [[p.hom_character.dimension() for p in row] for row in rows]
    for p in report.pairs:
        assert p.hom_character == ext_groups_best(c.members[p.i], c.members[p.j]).character(0)

    t = sum(c.members, BundleExpr(shape))
    for kind in (INNER_ONLY, WITH_SIGMA):
        del calls[:]
        t2 = check_T2(t, TwistGroup(kind))
        assert len(t2.summands) >= n
        assert len(calls) == len(t2.summands) ** 2
        assert all(p.requirement == HIGHER for p in t2.pairs)


def test_pair_loop_certifies_each_distinct_product_once(monkeypatch):
    engine = importlib.import_module("flagcoh.cohomology")
    stepwise = engine.cohomology_stepwise
    certified = []

    def counting(e, table=None):
        certified.append(e)
        return stepwise(e, table)

    monkeypatch.setattr(engine, "cohomology_stepwise", counting)
    c = enumerate_collection(FlagShape(4, (1, 2, 3)))
    products = [tensor(dual(a), b) for a in c.members for b in c.members]
    distinct = set(products)
    assert len(distinct) < len(products)

    report = check_strong_exceptional(c)
    assert len(certified) == len(distinct)
    assert set(certified) == distinct
    # the table lives for one call only
    del certified[:]
    again = check_strong_exceptional(c)
    assert len(certified) == len(distinct)
    assert again.to_json() == report.to_json()

    # pairs with equal products read equal outcomes, equal to an unshared one
    by_product = {}
    for p, e in zip(report.pairs, products):
        by_product.setdefault(e, []).append(p)
    assert any(len(ps) > 1 for ps in by_product.values())
    for e, ps in by_product.items():
        fresh = stepwise(e).to_json()
        assert all(p.outcome.to_json() == fresh for p in ps)


def test_each_pair_check_pushes_every_monomial_again(monkeypatch):
    # the stepwise route keeps its pieces, splits and fibres in a table of
    # the pair loop, which dies with the call: a second check splits and
    # resolves exactly as much as the first
    engine = importlib.import_module("flagcoh.cohomology")
    bbw, split = engine._bbw_flat, engine._flat_factor
    calls = []
    monkeypatch.setattr(engine, "_bbw_flat", lambda *a: calls.append("bbw") or bbw(*a))
    monkeypatch.setattr(engine, "_flat_factor", lambda *a: calls.append("split") or split(*a))
    # the sigma summands on F(1,3;4) have factors on Quot(1), which split
    shape = FlagShape(4, (1, 3))
    t = sum(enumerate_collection(shape).members, BundleExpr(shape))
    counts, reports = [], []
    for _ in range(2):
        del calls[:]
        reports.append(check_T2(t, TwistGroup(WITH_SIGMA)).to_json())
        counts.append((calls.count("bbw"), calls.count("split")))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0
    assert reports[0] == reports[1]

import copy
import itertools
import math
import pickle

import pytest

import flagcoh.cohomology as engine
from flagcoh import kapranov
from flagcoh.cli import EXIT_CODE, _pair_texts
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
)
from flagcoh.toric import Level, TowerSpec
from flagcoh.twists import check_T2, counterexample_case
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


def test_values_copy_and_pickle_by_their_arguments():
    # an immutable value is rebuilt from its constructor's arguments, so its
    # stored hash is computed again and the rebuilt value is validated
    c = enumerate_collection(FlagShape(3, (1,)))
    report = check_strong_exceptional(Collection(c.shape, reversed(c.members)))
    verdict = next(p for p in report.pairs if p.witness)
    tower = TowerSpec(1, (Level((((0,), (1,)), ((0,), (1,))), ((1, 0),)),))
    [mono] = c.members[0].terms
    values = [c.shape, mono.spelled()[0][0], mono, c, verdict, verdict.outcome, tower, report]
    for rebuild in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        for value in values:
            again = rebuild(value)
            assert type(again) is type(value) and again == value
    assert hash(pickle.loads(pickle.dumps(c))) == hash(c)
    again = copy.deepcopy(verdict)
    assert again.witness == verdict.witness and again.witness is not verdict.witness


def test_collection_is_frozen():
    c = enumerate_collection(FlagShape(3, (1,)))
    as_list = {"flag": c.shape.to_json(), "members": [m.to_json() for m in c.members]}
    assert isinstance(c.members, tuple)
    with pytest.raises(AttributeError):
        c.shape = FlagShape(4, (2,))
    with pytest.raises(AttributeError):
        c.members = enumerate_collection(FlagShape(4, (2,))).members
    with pytest.raises(AttributeError):
        c.members.append(c.members[0])
    # a list of members is stored as a tuple, and the JSON form is unchanged
    assert c.to_json() == as_list
    assert Collection(c.shape, list(c.members)) == c
    assert check_strong_exceptional(c).to_json()["flag"] == {"n": 3, "dims": [1]}


def test_collection_members_are_frozen():
    # a member changed in place would leave the collection with a member
    # of another shape, which the pair check met as an internal error
    c = enumerate_collection(FlagShape(3, (1,)))
    m = c.members[0]
    [mono] = m.terms
    with pytest.raises(AttributeError):
        m.shape = FlagShape(4, (2,))
    with pytest.raises(AttributeError):
        m.terms = {}
    with pytest.raises(AttributeError):
        m.terms.clear()
    with pytest.raises(TypeError):
        m.terms[mono] = 2
    # the terms are the expression's own, not the mapping it was given
    given = {mono: 1}
    e = BundleExpr(c.shape, given)
    given[mono] = 5
    assert e.terms == {mono: 1} and e == m and hash(e) == hash(m)
    assert check_strong_exceptional(c).status == CONFIRMED


def test_witness_cannot_be_changed_through_the_verdict():
    # on the reversed P^2 collection, an edit through ``witness`` at any
    # depth reaches neither the verdict nor what the command line writes
    c = enumerate_collection(FlagShape(3, (1,)))
    report = check_strong_exceptional(Collection(c.shape, reversed(c.members)))
    p = next(p for p in report.pairs if p.witness)
    original, text = copy.deepcopy(p.witness), list(_pair_texts([p]))
    p.witness["degree"] = 99
    p.witness["character"].append({"weight": [9, 9, 9], "mult": 9})
    p.witness["character"][0]["mult"] = 99
    p.witness["character"][0]["weight"][0] = 99
    p.witness.clear()
    assert p.witness == original and list(_pair_texts([p])) == text
    assert p.to_json()["witness"] == original


def test_strong_exceptional_projective_spaces():
    for n in (2, 3, 4):
        report = check_strong_exceptional(enumerate_collection(FlagShape(n, (1,))))
        assert report.status == CONFIRMED
        assert EXIT_CODE[report.status] == 0


def test_strong_exceptional_gr24():
    report = check_strong_exceptional(enumerate_collection(FlagShape(4, (2,))))
    assert report.status == CONFIRMED
    assert all(p.outcome.grade == EXACT for p in report.pairs)


def test_wrong_order_refutes():
    c = enumerate_collection(FlagShape(2, (1,)))
    report = check_strong_exceptional(Collection(c.shape, list(reversed(c.members))))
    assert report.status == REFUTED
    bad = [p for p in report.pairs if p.status == REFUTED]
    assert bad and all(p.witness is not None for p in bad)


def test_order_reversal_property():
    for shape in (FlagShape(3, (1,)), FlagShape(4, (2,)), FlagShape(3, (1, 2))):
        c = enumerate_collection(shape)
        report = check_strong_exceptional(Collection(c.shape, list(reversed(c.members))))
        assert report.status == REFUTED


def _hom_dims(c):
    """dim Hom(E_i, E_j) for all ordered pairs, read off the strong check:
    the degree-0 character of pair i * len(c) + j's outcome."""
    pairs = check_strong_exceptional(c).pairs
    n = len(c)
    return [[pairs[i * n + j].outcome.character(0).dimension() for j in range(n)] for i in range(n)]


def test_hom_quiver_p1():
    assert _hom_dims(enumerate_collection(FlagShape(2, (1,)))) == [[1, 2], [0, 1]]


def test_hom_quiver_p2():
    dims = _hom_dims(enumerate_collection(FlagShape(3, (1,))))
    assert dims == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


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
    dims = _hom_dims(c)
    # Hom(W, O) = H^0(W^v) = V^v, dimension 4
    assert dims[idx["W"]][idx["O"]] == 4
    assert dims[idx["O"]][idx["W"]] == 0


def test_diagonal_simple():
    report = check_strong_exceptional(enumerate_collection(FlagShape(3, (1, 2))))
    for p in report.pairs:
        if p.i == p.j:
            assert p.status == CONFIRMED
            assert p.outcome.character(0).dimension() == 1


def test_a_diagonal_pair_with_hom_bigger_than_k_is_refuted():
    # O + O on P^2 has no higher self-Ext, but Hom = k^4: the strong check
    # refutes its one pair by the Hom = k rule of the diagonal alone
    p2 = FlagShape(3, (1,))
    o = enumerate_collection(p2).members[-1]
    [p] = check_strong_exceptional(Collection(p2, [o + o])).pairs
    assert p.simple and classify_vanishing(p.outcome, HIGHER) == (CONFIRMED, None)
    assert p.status == REFUTED
    assert p.witness == {"kind": "hom_not_simple", "hom": [{"weight": [0, 0, 0], "mult": 4}]}


def _verdict_reports():
    """Reports with every status and every witness kind but
    ``euler_nonzero``: sigma (T2) on F(2,3;5), the strong check of
    F(1,2,3;4) in both orders, and of a member O + O on P^2."""
    f23, f123, p2 = FlagShape(5, (2, 3)), FlagShape(4, (1, 2, 3)), FlagShape(3, (1,))
    members = enumerate_collection(f123).members
    o = enumerate_collection(p2).members[-1]
    return [
        check_T2(sum(enumerate_collection(f23).members, BundleExpr(f23)), sigma=True),
        check_strong_exceptional(Collection(f123, members)),
        check_strong_exceptional(Collection(f123, reversed(members))),
        check_strong_exceptional(Collection(p2, [o + o])),
    ]


def test_every_verdict_follows_from_its_outcome():
    # a pair's status and witness are a fresh classification of its
    # outcome against its requirement and, on a strong check's diagonal,
    # against Hom = k; a counterexample reading's status and certificate
    # are its stepwise outcome read against higher vanishing
    statuses, kinds = set(), set()
    for report in _verdict_reports():
        strong = isinstance(report, kapranov.PairReport)
        for p in report.pairs:
            assert p.simple == (strong and p.i == p.j)
            expected = classify_vanishing(p.outcome, p.requirement)
            hom, rank = p.outcome.character(0), p.outcome.rank
            if p.simple and expected[0] == CONFIRMED and hom.items() != [((0,) * rank, 1)]:
                if p.outcome.grade == EXACT:
                    expected = REFUTED, {"kind": "hom_not_simple", "hom": hom.to_json()}
                else:
                    expected = kapranov.INCONCLUSIVE, None
            assert (p.status, p.witness) == expected, (p.i, p.j)
            statuses.add(p.status)
            kinds.add(p.witness and p.witness["kind"])
    assert statuses == {CONFIRMED, REFUTED, kapranov.INCONCLUSIVE}
    assert kinds == {None, "exact_degree", "euler_negative", "euler_excess", "hom_not_simple"}
    cases = ((1, FlagShape(4, (2,))), (2, FlagShape(4, (1, 3))), (3, FlagShape(3, (1, 2))))
    readings = [r for case, shape in cases for r in counterexample_case(case, shape).readings]
    for r in readings:
        assert (r.status, r.certificate) == classify_vanishing(r.refined, HIGHER)
    assert [r.status for r in readings] == [REFUTED, REFUTED, CONFIRMED, REFUTED]


def test_classify_vanishing_requires_valid_requirement():
    from flagcoh.cohomology import CohomologyOutcome

    out = CohomologyOutcome(rank=2, grade=EXACT, by_degree={})
    assert classify_vanishing(out, HIGHER) == (CONFIRMED, None)
    assert classify_vanishing(out, TOTAL) == (CONFIRMED, None)
    with pytest.raises(ValueError):
        classify_vanishing(out, "bogus")


def test_collection_members_live_on_its_shape():
    gr24 = FlagShape(4, (2,))
    members = enumerate_collection(gr24).members
    with pytest.raises(InputError, match="member shape mismatch"):
        check_strong_exceptional(Collection(FlagShape(3, (1,)), members))
    with pytest.raises(InputError, match="member shape mismatch"):
        mixed = members + enumerate_collection(FlagShape(3, (1,))).members
        check_strong_exceptional(Collection(gr24, mixed))
    # the same members on their own shape, as a tuple and as a list
    assert check_strong_exceptional(Collection(gr24, members)).status == CONFIRMED
    assert check_strong_exceptional(Collection(gr24, list(members))).status == CONFIRMED


def test_empty_collection_rejected():
    shape = FlagShape(3, (1,))
    with pytest.raises(InputError, match="empty collection"):
        check_strong_exceptional(Collection(FlagShape(4, (2,)), []))
    with pytest.raises(InputError, match="empty collection"):
        check_strong_exceptional(Collection(shape, []))
    # a zero candidate bundle is no collection: (T2) says what is missing
    for sigma in (False, True):
        with pytest.raises(InputError, match="the candidate bundle is zero"):
            check_T2(BundleExpr(FlagShape(3, (1, 2))), sigma=sigma)




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

    # a pair's Hom character is the degree-0 part of a direct Ext computation
    for p in report.pairs:
        hom = p.outcome.character(0)
        assert hom == ext_groups_best(c.members[p.i], c.members[p.j]).character(0)

    t = sum(c.members, BundleExpr(shape))
    for sigma in (False, True):
        del calls[:]
        t2 = check_T2(t, sigma=sigma)
        assert len(t2.summands) >= n
        assert len(calls) == len(t2.summands) ** 2
        assert all(p.requirement == HIGHER for p in t2.pairs)


def test_pair_loop_certifies_each_distinct_product_once(monkeypatch):
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
        reports.append(check_T2(t, sigma=True).to_json())
        counts.append((calls.count("bbw"), calls.count("split")))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0
    assert reports[0] == reports[1]

import pytest

from flagcoh.cohomology import E1_BOUND, EXACT
from flagcoh.flagvar import (
    BundleExpr,
    FlagShape,
    Slot,
    make_monomial,
    sigma_pullback,
)
from flagcoh.kapranov import CONFIRMED, HIGHER, REFUTED, enumerate_collection
from flagcoh.schur import CharacterSum
from flagcoh.twists import (
    INNER_ONLY,
    WITH_SIGMA,
    TwistGroup,
    check_T2,
    counterexample_case,
    orbit,
    orbit_sum,
)

F123 = FlagShape(3, (1, 2))
GR24 = FlagShape(4, (2,))
SUB = "sub"


def kapranov_sum(shape):
    total = BundleExpr(shape)
    for m in enumerate_collection(shape).members:
        total = total + m
    return total


def test_twist_group_validation():
    with pytest.raises(ValueError):
        TwistGroup("outer")
    asym = make_monomial(FlagShape(4, (1,)), [(Slot(SUB, 1), (1,))])
    with pytest.raises(ValueError):
        orbit_sum(asym, TwistGroup(WITH_SIGMA))
    # inner forms exist on any shape
    assert orbit_sum(asym, TwistGroup(INNER_ONLY)) == asym


def test_orbit_sum():
    w1 = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    assert orbit_sum(w1, TwistGroup(INNER_ONLY)) == w1
    with_sigma = orbit_sum(w1, TwistGroup(WITH_SIGMA))
    assert with_sigma == w1 + sigma_pullback(w1)
    # orbit of an orbit sum doubles it
    doubled = orbit_sum(with_sigma, TwistGroup(WITH_SIGMA))
    assert doubled == with_sigma + with_sigma


def test_check_t2_inner_confirmed():
    for shape in (GR24, F123):
        report = check_T2(kapranov_sum(shape), TwistGroup(INNER_ONLY))
        assert report.status == CONFIRMED
        assert report.exit_code == 0


def test_check_t2_sigma_refuted():
    for shape in (GR24, F123):
        report = check_T2(kapranov_sum(shape), TwistGroup(WITH_SIGMA))
        assert report.status == REFUTED
        assert report.exit_code == 1
        assert report.certificates()


def test_t2_gr24_witness_is_case1():
    report = check_T2(kapranov_sum(GR24), TwistGroup(WITH_SIGMA))
    lam3 = [{"weight": [1, 1, 1, 0], "mult": 1}]
    assert any(
        c["witness"]["kind"] == "exact_degree"
        and c["witness"]["degree"] == 1
        and c["witness"]["character"] == lam3
        for c in report.certificates()
    )


def test_descent_report_json():
    report = check_T2(kapranov_sum(GR24), TwistGroup(WITH_SIGMA))
    data = report.to_json()
    assert data["status"] == "refuted"
    assert data["group"] == WITH_SIGMA
    assert len(data["orbit"]) == 2
    assert data["certificates"]


def test_case1_gr24():
    report = counterexample_case(1, GR24)
    assert report.established and report.exit_code == 1
    (r,) = report.readings
    assert r.status == REFUTED
    assert r.ext_outcome.grade == EXACT
    assert r.ext_outcome.degrees() == [1]
    assert r.ext_outcome.character(1) == CharacterSum(4, {(1, 1, 1, 0): 1})
    assert r.ext_outcome.dimension(1) == 4


def test_case1_parametric():
    # n = 2d, dims = (d): degree-1 character is the (d+1)-column
    for d in (2, 3):
        shape = FlagShape(2 * d, (d,))
        report = counterexample_case(1, shape)
        (r,) = report.readings
        column = tuple([1] * (d + 1) + [0] * (d - 1))
        assert r.ext_outcome.grade == EXACT
        assert r.ext_outcome.character(1) == CharacterSum(2 * d, {column: 1})


def test_case2_f13():
    shape = FlagShape(4, (1, 3))
    report = counterexample_case(2, shape)
    assert report.established
    (r,) = report.readings
    assert r.ext_outcome.euler == CharacterSum(4, {(1, 1, 1, 1): -1})


def test_case3_both_readings():
    report = counterexample_case(3, F123)
    assert report.established and report.exit_code == 1
    by_label = {r.label: r for r in report.readings}
    assert set(by_label) == {"F=W_1", "F=W_2"}

    r1 = by_label["F=W_1"]
    assert r1.ext_outcome.grade == E1_BOUND
    lam3 = CharacterSum(3, {(1, 1, 1): 1})
    assert r1.ext_outcome.character(0) == lam3
    assert r1.ext_outcome.character(1) == lam3
    assert not r1.ext_outcome.euler
    assert r1.status != REFUTED

    r2 = by_label["F=W_2"]
    assert r2.ext_outcome.euler == CharacterSum(3, {(1, 1, 1): -1})
    assert r2.status == REFUTED
    assert r2.certificate is not None


def test_case3_w2_witness_is_the_exact_stepwise_group():
    # the one-shot view of F=W_2 is only a bound; the stepwise route is
    # exact and its degree-1 group Lambda^3 is the witness
    for n, dims in ((3, (1, 2)), (4, (1, 2, 3)), (5, (1, 2, 3, 4)), (7, (1, 2, 5, 6))):
        report = counterexample_case(3, FlagShape(n, dims))
        r2 = {r.label: r for r in report.readings}["F=W_2"]
        lam3 = CharacterSum(n, {(1, 1, 1) + (0,) * (n - 3): 1})
        assert r2.ext_outcome.grade == E1_BOUND and r2.refined.grade == EXACT
        assert r2.status == REFUTED
        assert r2.certificate == {
            "kind": "exact_degree",
            "degree": 1,
            "character": lam3.to_json(),
        }


def test_case_preconditions():
    with pytest.raises(ValueError):
        counterexample_case(1, F123)  # d_1 = 1 < 2
    with pytest.raises(ValueError):
        counterexample_case(2, GR24)
    with pytest.raises(ValueError):
        counterexample_case(3, GR24)
    with pytest.raises(ValueError):
        counterexample_case(4, GR24)
    with pytest.raises(ValueError):
        counterexample_case(1, FlagShape(4, (2, 3)))  # not symmetric


def test_inner_t2_matches_pairwise_higher_check():
    from flagcoh.cohomology import ext_groups_best
    from flagcoh.kapranov import classify_vanishing

    c = enumerate_collection(GR24)
    report = check_T2(kapranov_sum(GR24), TwistGroup(INNER_ONLY))
    # the summand set is exactly the collection, and each pair verdict
    # coincides with the higher-Ext part of the strong-exceptionality check
    assert set(report.summands) == set(c.members)
    for p in report.pairs:
        a, b = report.summands[p.i], report.summands[p.j]
        expected, _ = classify_vanishing(ext_groups_best(a, b), HIGHER)
        assert p.status == expected

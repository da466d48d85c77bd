"""Acceptance suite.

Each test covers one gate criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see the lines for passing tests as well).
All equalities are exact integer equalities.
"""

import functools
import importlib
import itertools
import math
import random
from math import comb

import pytest
from localization import character_value, localized_euler
from test_weights import dot_action

from flagcoh.cohomology import (
    EXACT,
    cohomology,
    cohomology_stepwise,
    euler_characteristic,
    ext_groups,
)
from flagcoh.flagvar import (
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    Slot,
    make_monomial,
    sigma_pullback,
)
from flagcoh.kapranov import (
    CONFIRMED,
    REFUTED,
    check_strong_exceptional,
    enumerate_collection,
)
from flagcoh.schur import CharacterSum, lr_coefficients, pad, schur_dim
from flagcoh.toric import TowerSpec, check_grid_collection, galois_orbit_check
from flagcoh.twists import (
    INNER_ONLY,
    WITH_SIGMA,
    TwistGroup,
    check_T2,
    counterexample_case,
)
from flagcoh.weights import bbw_resolve

# the package's ``cohomology`` attribute is the function, not the module
engine = importlib.import_module("flagcoh.cohomology")


def acceptance(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print("ACCEPTANCE %02d: FAIL - %s" % (num, description))
                raise
            print("ACCEPTANCE %02d: PASS - %s" % (num, description))

        return wrapper

    return deco


def _line_bundle(n, d):
    return make_monomial(FlagShape(n, (1,)), [(Slot(SUB, 1), (-d,))])


def _kapranov_sum(shape):
    total = BundleExpr(shape)
    for m in enumerate_collection(shape).members:
        total = total + m
    return total


@acceptance(1, "BBW oracle: dot-orbit invariance and projective-space patterns")
def test_acceptance_01_bbw_oracle():
    # exhaustive dot-orbit invariance and singularity equivalence
    for n in (1, 2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        for chi in itertools.product(range(-4, 1), repeat=n):
            base = bbw_resolve(chi)
            for p in perms:
                moved = bbw_resolve(dot_action(p, chi))
                assert (moved is None) == (base is None)
                if base is not None:
                    assert moved[1] == base[1]
    # P^n line bundles, n <= 4, |d| <= 6
    for n in (1, 2, 3, 4):
        for d in range(-6, 7):
            out = cohomology(_line_bundle(n + 1, d))
            assert out.grade == EXACT
            if d >= 0:
                assert out.degrees() == [0]
                assert out.dimension(0) == comb(n + d, n)
            elif d >= -n:
                assert out.degrees() == []
            else:
                assert out.degrees() == [n]
                assert out.dimension(n) == comb(-d - 1, n)


def _partitions(size):
    out = [()]
    for total in range(1, size + 1):
        def rec(rem, width, cur):
            if rem == 0:
                out.append(tuple(cur))
                return
            for v in range(min(rem, width), 0, -1):
                cur.append(v)
                rec(rem - v, v, cur)
                cur.pop()

        rec(total, total, [])
    return out


@acceptance(2, "LR suite: symmetry, dimension identity, and the column identity")
def test_acceptance_02_lr_suite():
    parts = _partitions(6)
    for mu, nu in itertools.combinations_with_replacement(parts, 2):
        for rank in range(2, 6):
            if len(mu) > rank or len(nu) > rank:
                continue
            ab = lr_coefficients(mu, nu, rank)
            assert ab == lr_coefficients(nu, mu, rank)
            assert ab.dimension() == schur_dim(pad(mu, rank), rank) * schur_dim(
                pad(nu, rank), rank
            )
    # Lambda^2 (x) standard = (2,1) + (1,1,1) at rank >= 3
    for rank in (3, 4, 5):
        out = lr_coefficients((1, 1), (1,), rank)
        assert dict(out.items()) == {pad((2, 1), rank): 1, pad((1, 1, 1), rank): 1}


@acceptance(3, "collection sizes equal n!/prod(block sizes)! for n <= 6")
def test_acceptance_03_kapranov_counts():
    for n in range(2, 7):
        for s in range(1, n):
            for dims in itertools.combinations(range(1, n), s):
                shape = FlagShape(n, dims)
                expected = math.factorial(n) // math.prod(
                    math.factorial(b) for b in shape.blocks()
                )
                assert len(enumerate_collection(shape)) == expected


@acceptance(4, "strong exceptionality on P^1..P^3, Gr(2,4), Gr(2,5), F(1,2;3)")
def test_acceptance_04_strong_exceptional():
    for n in (2, 3, 4):
        report = check_strong_exceptional(enumerate_collection(FlagShape(n, (1,))))
        assert report.overall == CONFIRMED
    for shape in (FlagShape(4, (2,)), FlagShape(5, (2,))):
        report = check_strong_exceptional(enumerate_collection(shape))
        assert report.overall == CONFIRMED
        assert all(p.outcome.grade == EXACT for p in report.pairs)
    report = check_strong_exceptional(enumerate_collection(FlagShape(3, (1, 2))))
    assert not report.refutations()


@acceptance(5, "case 1: Ext^1(sigma*W, Sigma^(2)W) = column (1^(d+1)) exactly")
def test_acceptance_05_case1():
    shape = FlagShape(4, (2,))
    f = make_monomial(shape, [(Slot(SUB, 1), (1, 0))])
    g = make_monomial(shape, [(Slot(SUB, 1), (2, 0))])
    out = ext_groups(sigma_pullback(f), g)
    assert out.grade == EXACT
    assert out.degrees() == [1]
    assert out.character(1) == CharacterSum(4, {(1, 1, 1, 0): 1})
    assert out.dimension(1) == 4
    # parametric family n = 2d, dims = (d)
    for d in (2, 3):
        report = counterexample_case(1, FlagShape(2 * d, (d,)))
        (r,) = report.readings
        column = pad((1,) * (d + 1), 2 * d)
        assert r.ext_outcome.grade == EXACT
        assert r.ext_outcome.character(1) == CharacterSum(2 * d, {column: 1})


@acceptance(6, "case 2 on F(1,3;4): Euler character is -[(1,1,1,1)]")
def test_acceptance_06_case2():
    report = counterexample_case(2, FlagShape(4, (1, 3)))
    (r,) = report.readings
    assert r.ext_outcome.euler == CharacterSum(4, {(1, 1, 1, 1): -1})
    assert report.established
    # the E1 data and any exact refinement are both emitted
    assert r.ext_outcome.by_degree and r.refined.grade in (EXACT, r.ext_outcome.grade)


@acceptance(7, "case 3 on F(1,2;3): both readings reported, neither coerced")
def test_acceptance_07_case3():
    report = counterexample_case(3, FlagShape(3, (1, 2)))
    by_label = {r.label: r for r in report.readings}
    lam3 = CharacterSum(3, {(1, 1, 1): 1})

    r2 = by_label["F=W_2"]
    assert r2.ext_outcome.euler == CharacterSum(3, {(1, 1, 1): -1})
    assert r2.status == REFUTED

    r1 = by_label["F=W_1"]
    assert not r1.ext_outcome.euler
    assert r1.ext_outcome.grade == "e1bound"
    assert r1.ext_outcome.character(0) == lam3
    assert r1.ext_outcome.character(1) == lam3
    assert r1.status != REFUTED
    assert report.established


@acceptance(8, "inner forms: (T2) confirmed on Gr(2,4) and F(1,2;3)")
def test_acceptance_08_inner_confirmed():
    for shape in (FlagShape(4, (2,)), FlagShape(3, (1, 2))):
        report = check_T2(_kapranov_sum(shape), TwistGroup(INNER_ONLY))
        assert report.status == CONFIRMED


@acceptance(9, "outer forms: (T2) refuted on Gr(2,4) and F(1,2;3)")
def test_acceptance_09_outer_refuted():
    for shape in (FlagShape(4, (2,)), FlagShape(3, (1, 2))):
        report = check_T2(_kapranov_sum(shape), TwistGroup(WITH_SIGMA))
        assert report.status == REFUTED
        assert report.certificates()


@acceptance(10, "toric grids confirmed; orbit closure under factor swaps")
def test_acceptance_10_toric():
    towers = {
        "P1xP1": TowerSpec.from_json(
            {"base_dim": 0, "levels": [{"bundles": [[[], []], [[], []]], "perms": [[1, 0]]}]}
        ),
        "F1": TowerSpec.from_json(
            {"base_dim": 1, "levels": [{"bundles": [[[0], [1]]], "perms": []}]}
        ),
        "F2": TowerSpec.from_json(
            {"base_dim": 1, "levels": [{"bundles": [[[0], [2]]], "perms": []}]}
        ),
        "P1^3": TowerSpec.from_json(
            {
                "base_dim": 0,
                "levels": [
                    {"bundles": [[[], []], [[], []], [[], []]], "perms": [[1, 0, 2], [1, 2, 0]]}
                ],
            }
        ),
    }
    for name, tw in towers.items():
        report = check_grid_collection(tw)
        assert report.status == "confirmed", (name, report.failures)
        # grid size = (r_0 + 1) * prod (r_i + 1)^(m_i)
        expected = (tw.base_dim + 1) * math.prod(
            level.rank ** level.m for level in tw.levels
        )
        assert len(report.grid) == expected
    orbits = galois_orbit_check(towers["P1xP1"])
    assert orbits["orbit_closed"]
    classes = [sorted(map(tuple, orb)) for orb in orbits["orbit_classes"]]
    assert [(-1, 0), (0, -1)] in classes


def _random_expr(rng, shape):
    factors = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice([SUB, QUOT])
        idx = rng.randint(1, shape.s)
        slot = Slot(kind, idx)
        r = slot.rank(shape)
        w = tuple(sorted((rng.randint(-2, 2) for _ in range(r)), reverse=True))
        factors.append((slot, w))
    expr = make_monomial(shape, factors)
    if rng.random() < 0.3:
        expr = expr + make_monomial(shape, factors[:1])
    return expr


@acceptance(11, "engine consistency on 200 randomized small expressions")
def test_acceptance_11_engine_consistency():
    rng = random.Random(20260823)
    shapes = [
        FlagShape(2, (1,)),
        FlagShape(3, (1,)),
        FlagShape(3, (2,)),
        FlagShape(3, (1, 2)),
        FlagShape(4, (2,)),
        FlagShape(4, (1, 3)),
        FlagShape(4, (1, 2, 3)),
    ]
    for _ in range(200):
        shape = rng.choice(shapes)
        expr = _random_expr(rng, shape)
        out = cohomology(expr)
        alternating = CharacterSum(shape.n)
        for t, cs in out.by_degree.items():
            alternating = alternating + cs.scale((-1) ** t)
        if out.grade == EXACT:
            assert euler_characteristic(expr) == alternating
        # independent of the engine: Atiyah-Bott localization at a torus point
        point = (2, 3, 5, 7)[: shape.n]
        assert character_value(out.euler.items(), point) == localized_euler(expr.to_json(), point)
        assert out.euler == alternating  # the E1 page has the same Euler sum
        with pytest.MonkeyPatch.context() as mp:  # skip the reduction to the minimal base
            mp.setattr(engine, "minimal_base", lambda e: (e.shape, e))
            unreduced = cohomology(expr)
        assert unreduced.euler == out.euler
        if unreduced.grade == out.grade == EXACT:
            assert unreduced.by_degree == out.by_degree
        elif EXACT in (out.grade, unreduced.grade):
            # an upper bound must dominate the exact answer degreewise
            exact, bound = sorted([out, unreduced], key=lambda o: o.grade != EXACT)
            for d in exact.degrees():
                for w, mult in exact.character(d).items():
                    assert dict(bound.character(d).items()).get(w, 0) >= mult
        # the stepwise route always agrees on the Euler character
        assert cohomology_stepwise(expr).euler == out.euler

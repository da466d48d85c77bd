"""Differential test of the two cohomology routes, and of the stepwise
route that every pair check runs, against an independent Euler-character
oracle (Atiyah-Bott localization, ``localization.py``)."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from localization import character_value, localized_euler

from flagcoh.cohomology import (
    E1_BOUND,
    EXACT,
    cohomology,
    cohomology_stepwise,
    ext_groups_best,
)
from flagcoh.flagvar import (
    BLOCK,
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    Slot,
    dual,
    make_monomial,
    sigma_pullback,
    tensor,
)
from flagcoh.kapranov import enumerate_collection


@pytest.mark.parametrize("oracle", ["bbw_oracle.py", "fan_oracle.py", "localization.py"])
def test_oracle_imports_nothing_from_flagcoh(oracle):
    # an oracle that shared engine code could share its faults
    tree = ast.parse((Path(__file__).parent / oracle).read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "flagcoh"] == [], oracle


# distinct nonzero coordinates; the first n are used on F(...; k^n)
POINTS = ((2, 3, 5, 7, 11), (-3, 4, -5, 13, 6))

SHAPES = (
    FlagShape(2, (1,)),
    FlagShape(3, (1, 2)),
    FlagShape(4, (2,)),
    FlagShape(4, (1, 3)),
    FlagShape(4, (1, 2, 3)),
    FlagShape(5, (2, 3)),
    FlagShape(5, (1, 2, 4)),
)


def _random_factor(rng, shape):
    kind = rng.choice([SUB, QUOT, QUOT, BLOCK])
    top = shape.s + 1 if kind == BLOCK else shape.s
    slot = Slot(kind, rng.randint(1, top))
    r = slot.rank(shape)
    return slot, tuple(sorted((rng.randint(-2, 2) for _ in range(r)), reverse=True))


def _random_expr(rng, shape):
    factors = [_random_factor(rng, shape) for _ in range(rng.randint(1, 3))]
    expr = make_monomial(shape, factors)
    if rng.random() < 0.3:
        expr = expr + make_monomial(shape, [_random_factor(rng, shape)])
    return expr


def _dominates(bound, exact):
    return all(
        bound.character(d)[w] >= m for d in exact.degrees() for w, m in exact.character(d).items()
    )


def test_routes_against_localization_oracle():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(150):
        shape = rng.choice(SHAPES)
        expr = _random_expr(rng, shape)
        _assert_routes_agree(expr, cohomology(expr), cohomology_stepwise(expr), seen)
    assert seen["both exact"] and seen["stepwise only"] and seen["neither exact"], seen


def test_ext_pairs_against_localization_oracle():
    # ext and every pair check answer Ext^*(a, b) with ext_groups_best; the
    # one-shot fold of the same product is the reference route
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(60):
        shape = rng.choice(SHAPES)
        a, b = _random_expr(rng, shape), _random_expr(rng, shape)
        product = tensor(dual(a), b)
        _assert_routes_agree(product, cohomology(product), ext_groups_best(a, b), seen)
    assert seen["both exact"] and seen["stepwise only"] and seen["neither exact"], seen


def _assert_routes_agree(expr, one_shot, stepwise, seen):
    """Both routes' Euler characters are equal and are the oracle's;
    stepwise is exact, with the same groups, wherever the one-shot route
    is, and its bound is never the looser one.  ``seen`` counts which
    routes were exact."""
    assert one_shot.euler == stepwise.euler, expr
    n = expr.shape.n
    for point in POINTS:
        expected = localized_euler(expr.to_json(), point)
        assert character_value(one_shot.euler.items(), point[:n]) == expected, expr
        assert character_value(stepwise.euler.items(), point[:n]) == expected, expr
    if one_shot.grade == EXACT:
        assert stepwise.grade == EXACT, ("one-shot only", expr)
        assert one_shot.by_degree == stepwise.by_degree, expr
        seen["both exact"] += 1
    else:
        assert _dominates(one_shot, stepwise), expr
        seen["stepwise only" if stepwise.grade == EXACT else "neither exact"] += 1


def _products(members):
    """The distinct products a^v (x) b over ordered pairs of ``members``."""
    return list(dict.fromkeys(tensor(dual(a), b) for a in members for b in members))


def _sigma_products(shape):
    # the (T2) summands of the Kapranov sum's sigma-orbit, as check_T2 takes them
    total = sum(enumerate_collection(shape).members, BundleExpr(shape))
    members = [total, sigma_pullback(total)]
    monos = dict.fromkeys(mono for m in members for mono, _m in m.monomials())
    return _products([BundleExpr(shape, {mono: 1}) for mono in monos])


def test_pair_products_against_localization_oracle():
    # every pair check answers with the stepwise outcome, exact or a bound
    seen = Counter()  # (one-shot grade, stepwise grade) -> products
    strong = enumerate_collection(FlagShape(4, (1, 2, 3))).members
    products = _products(strong) + _sigma_products(FlagShape(4, (1, 3)))
    for expr in products:
        answer = cohomology_stepwise(expr)
        n = expr.shape.n
        for point in POINTS:
            expected = localized_euler(expr.to_json(), point)
            assert character_value(answer.euler.items(), point[:n]) == expected, expr
        one_shot = cohomology(expr)
        assert one_shot.euler == answer.euler, expr
        if one_shot.grade == EXACT:
            # stepwise is exact wherever the one-shot route is
            assert answer.grade == EXACT and answer.by_degree == one_shot.by_degree, expr
        elif answer.grade == E1_BOUND:
            assert _dominates(one_shot, answer), expr
        seen[one_shot.grade, answer.grade] += 1
    # both routes exact, stepwise only, and neither: every kind but one-shot only
    assert seen[EXACT, EXACT] and seen[E1_BOUND, EXACT] and seen[E1_BOUND, E1_BOUND], seen


def test_stepwise_bound_is_within_the_one_shot_bound():
    # wherever stepwise is only a bound, so is the one-shot route, and its
    # bound is at least the stepwise one weight by weight; on sigma
    # F(1,2,3;4), whose 1,417 products would take seconds to localize,
    # the two bounds differ on some products
    bounds = differ = 0
    for expr in _sigma_products(FlagShape(4, (1, 2, 3))):
        stepwise = cohomology_stepwise(expr)
        if stepwise.grade == EXACT:
            continue
        one_shot = cohomology(expr)
        assert one_shot.grade == E1_BOUND and _dominates(one_shot, stepwise), expr
        bounds += 1
        differ += stepwise.by_degree != one_shot.by_degree
    assert bounds and differ, (bounds, differ)

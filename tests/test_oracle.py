"""Differential test of the two cohomology routes against an independent
Euler-character oracle (Atiyah-Bott localization, ``localization.py``)."""

import random

from localization import character_value, localized_euler

from flagcoh.cohomology import EXACT, cohomology, cohomology_stepwise
from flagcoh.flagvar import BLOCK, QUOT, SUB, FlagShape, Slot, make_monomial

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
    seen = {"both exact": 0, "one-shot only": 0, "stepwise only": 0}
    for _ in range(150):
        shape = rng.choice(SHAPES)
        expr = _random_expr(rng, shape)
        one_shot, stepwise = cohomology(expr), cohomology_stepwise(expr)
        for point in POINTS:
            expected = localized_euler(expr.to_json(), point)
            assert character_value(one_shot.euler.items(), point[: shape.n]) == expected, expr
            assert character_value(stepwise.euler.items(), point[: shape.n]) == expected, expr
        if one_shot.grade == stepwise.grade == EXACT:
            seen["both exact"] += 1
            assert one_shot.by_degree == stepwise.by_degree, expr
        elif one_shot.grade == EXACT:
            seen["one-shot only"] += 1
            assert _dominates(stepwise, one_shot), expr
        elif stepwise.grade == EXACT:
            seen["stepwise only"] += 1
            assert _dominates(one_shot, stepwise), expr
    # no seeded expression has an exact one-shot answer that stepwise misses
    assert seen["both exact"] and seen["stepwise only"], seen

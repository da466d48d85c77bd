"""Littlewood-Richardson products and branching against Schur polynomial
values: s_mu * s_nu = sum c^lam s_lam, and s_p(x, y, ...) = sum c *
s_(w_1)(x) * s_(w_2)(y) * ..., each checked in exact Fractions at points
with distinct integer coordinates.  The values come from the bialternant
formula in ``tests/localization.py``, which shares no code with the
enumeration in ``flagcoh.schur``."""

import itertools

import pytest

from flagcoh.flagvar import QUOT, SUB, FlagShape, Slot, _split_partition, make_monomial
from flagcoh.schur import _lr_raw, lr_coefficients

from localization import schur_value

POINTS = ((2, 3, 5, 7, 11, 13), (-3, 4, -5, 6, 8, -9))


def partitions(size: int, max_rows: int) -> list:
    """Every partition of ``size`` with at most ``max_rows`` parts."""
    out = []

    def rec(rem, width, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        if len(cur) == max_rows:
            return
        for v in range(min(rem, width), 0, -1):
            rec(rem - v, v, cur + [v])

    rec(size, size, [])
    return out


def s(weight, xs):
    """s_weight(xs); zero when the weight has more parts than variables."""
    if len(weight) > len(xs):
        return 0
    return schur_value(tuple(weight) + (0,) * (len(xs) - len(weight)), tuple(xs))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_lr_coefficients_multiply_schur_polynomials(rank):
    pruned = 0
    for size_mu, size_nu in itertools.product(range(4), repeat=2):
        for mu in partitions(size_mu, rank):
            for nu in partitions(size_nu, rank):
                product = lr_coefficients(mu, nu, rank)
                pruned += len(mu) + len(nu) > rank
                for point in POINTS:
                    xs = point[:rank]
                    rhs = sum(c * s(lam, xs) for lam, c in product.items())
                    assert s(mu, xs) * s(nu, xs) == rhs, (mu, nu, rank)
    # pairs whose full product has shapes longer than the rank, cut by the bound
    assert pruned > 0


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_lr_raw_is_symmetric_in_its_factors(rank):
    # c^lam_{mu nu} = c^lam_{nu mu}, so _tensor_terms may enumerate either
    # factor as the strips; both lie in the box it bounds the product by
    for size_mu, size_nu in itertools.product(range(4), repeat=2):
        for mu in partitions(size_mu, rank):
            for nu in partitions(size_nu, rank):
                box = ((mu[0] if mu else 0) + (nu[0] if nu else 0),) * rank
                assert _lr_raw(mu, nu, box) == _lr_raw(nu, mu, box), (mu, nu, rank)


SPLITS = ((2, 1), (1, 3), (2, 2), (1, 1, 1), (2, 1, 1), (1, 2, 2))


@pytest.mark.parametrize("ranks", SPLITS)
def test_split_partition_branches_schur_polynomials(ranks):
    total = sum(ranks)
    offsets = [sum(ranks[:j]) for j in range(len(ranks))]
    for size in range(11):
        for p in partitions(size, total + 1):
            split = _split_partition(p, ranks)
            for point in POINTS:
                xs = point[:total]
                rhs = 0
                for ws, c in split:
                    term = c
                    for w, r, o in zip(ws, ranks, offsets):
                        term *= s(w, xs[o : o + r])
                    rhs += term
                assert s(p, xs) == rhs, (p, ranks)


def test_lr_raw_rejects_mu_outside_bound():
    with pytest.raises(ValueError):
        _lr_raw((2, 1), (1,), (3,))  # too many rows
    with pytest.raises(ValueError):
        _lr_raw((3,), (1,), (2, 2))  # a row too long
    assert _lr_raw((2, 1), (1,), (2, 1, 1)) == (((2, 1, 1), 1),)


# repeated weights on Sub(1) of F(r; r+2), with one factor on Quot(1)
MERGES = (
    ((1, 0), (1, 0)),
    ((2, 1, 0), (1, 1, 0)),
    ((0, 0, -1), (2, -1, -3)),  # determinant-twisted
    ((0, 0), (3, -2)),  # an all-zero weight
    ((0, 0, 0), (0, 0, 0)),
    ((1, 0, -1), (0, 0, -2), (2, 1, 0)),
    ((2, 1, 0), (2, 1, 0), (1, 0, 0)),  # (3,2,1) twice after the first merge
    ((1, 0, -1), (1, 0, -1), (1, 0, 0)),  # the adjoint twice after the first merge
    ((1, 1), (0, 0), (2, -1)),
    ((-1, -1), (0, 0), (0, 0)),
    ((1,), (-2,), (4,)),
)


@pytest.mark.parametrize("weights", MERGES)
def test_make_monomial_merges_by_schur_polynomials(weights):
    rank = len(weights[0])
    shape = FlagShape(rank + 2, (rank,))
    sub, quot = Slot(SUB, 1), Slot(QUOT, 1)
    factors = [(sub, w) for w in weights] + [(quot, (1, 0))]
    expr = make_monomial(shape, factors)
    assert all(m > 0 for m in expr.terms.values())
    # a monomial stores its factors on intervals and spells them as slots
    assert all(mono.factors[-1][0] == quot.span(shape) for mono in expr.terms)
    for point in POINTS:
        xs = {sub: point[:rank], quot: point[rank : rank + 2]}
        xs.update({slot.span(shape): x for slot, x in xs.items()})

        def value(fs):
            out = 1
            for place, w in fs:
                out *= schur_value(tuple(w), xs[place])
            return out

        rhs = sum(m * value(mono.factors) for mono, m in expr.terms.items())
        assert value(factors) == rhs, (weights, point)
        assert rhs == sum(m * value(mono.spelled()) for mono, m in expr.terms.items())


@pytest.mark.parametrize(
    "weights", [((0, 1), (1, 0)), ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2)), ((0, 1),)]
)
def test_make_monomial_rejects_unsorted_weights(weights):
    shape = FlagShape(3, (2,))
    with pytest.raises(ValueError, match="not weakly decreasing"):
        make_monomial(shape, [(Slot(SUB, 1), w) for w in weights])

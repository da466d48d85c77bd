"""Littlewood-Richardson products and branching against Schur polynomial
values: s_mu * s_nu = sum c^lam s_lam, and s_p(x, y, ...) = sum c *
s_(w_1)(x) * s_(w_2)(y) * ..., each checked in exact Fractions at points
with distinct integer coordinates.  The values come from the bialternant
formula in ``tests/localization.py``, which shares no code with the
enumeration in ``flagcoh.schur``."""

import itertools

import pytest

from flagcoh.flagvar import _split_partition
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

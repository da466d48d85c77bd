import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcoh.schur import (
    CharacterSum,
    _tensor_terms,
    lr_coefficients,
    pad,
    schur_dim,
    tensor_schur,
)
from flagcoh.weights import InputError, dual_weight


def partitions_up_to(size, max_rows=None):
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
    if max_rows is not None:
        out = [p for p in out if len(p) <= max_rows]
    return out


def test_character_sum_basics():
    cs = CharacterSum(2)
    cs.add_term((1, 0), 2)
    cs.add_term((1, 0), -2)
    assert not cs and len(cs) == 0
    cs.add_term((2, 1), 3)
    assert cs[(2, 1)] == 3 and cs[(1, 0)] == 0
    with pytest.raises(ValueError):
        cs.add_term((0, 1), 1)
    with pytest.raises(ValueError):
        cs.add_term((1,), 1)


def test_character_sum_json_roundtrip():
    cs = CharacterSum(3, {(2, 1, 0): 2, (1, 1, 1): -1})
    assert CharacterSum.from_json(cs.to_json(), 3) == cs
    for bad in (
        [{"weight": [1, 0, 0], "mult": 1.5}],
        [{"weight": [True, 0, 0], "mult": 1}],
        [{"weight": [1, 0, 0], "mult": 1, "junk": 5}],
        [{"weight": [1, 0, 0]}],
        [{"weight": {"0": 1}, "mult": 1}],
        [[1, 0, 0]],
        {"weight": [1, 0, 0], "mult": 1},
    ):
        with pytest.raises(InputError):
            CharacterSum.from_json(bad, 3)


def test_schur_dim():
    assert schur_dim((0, 0, 0, 0), 4) == 1
    assert schur_dim((1, 0, 0, 0), 4) == 4
    assert schur_dim((1, 1, 1, 0), 4) == 4
    assert schur_dim((1, 1, 0, 0), 4) == 6
    assert schur_dim((2, 1, 0), 3) == 8
    assert schur_dim((1, 0, 0, -1), 4) == 15
    assert schur_dim((-1, -2), 2) == 2


def test_lr_pieri():
    out = lr_coefficients((2, 1), (1,), 3)
    assert dict(out.items()) == {(3, 1, 0): 1, (2, 2, 0): 1, (2, 1, 1): 1}


def test_lr_case3_identity():
    # Lambda^2 (x) standard = (2,1) + (1,1,1) at any rank >= 3
    for rank in (3, 4, 5):
        out = lr_coefficients((1, 1), (1,), rank)
        assert dict(out.items()) == {
            pad((2, 1), rank): 1,
            pad((1, 1, 1), rank): 1,
        }
    # rank 2 discards the column of length 3
    out = lr_coefficients((1, 1), (1,), 2)
    assert dict(out.items()) == {(2, 1): 1}


def test_lr_symmetry_and_dimension_small():
    parts = partitions_up_to(4)
    for mu, nu in itertools.product(parts, parts):
        for rank in (2, 3):
            if len(mu) > rank or len(nu) > rank:
                continue
            ab = lr_coefficients(mu, nu, rank)
            ba = lr_coefficients(nu, mu, rank)
            assert ab == ba
            assert ab.dimension() == schur_dim(pad(mu, rank), rank) * schur_dim(
                pad(nu, rank), rank
            )


def test_tensor_schur_det_shift():
    # Sigma^(0,-2) (x) Sigma^(2,0) at rank 2
    out = tensor_schur((0, -2), (2, 0), 2)
    assert dict(out.items()) == {(2, -2): 1, (1, -1): 1, (0, 0): 1}
    # rank-1 slots multiply degrees
    out = tensor_schur((3,), (-5,), 1)
    assert dict(out.items()) == {(-2,): 1}


def test_tensor_schur_returns_a_fresh_sum():
    # the product is cached; changing one result must not change the next
    first = tensor_schur((1, 0), (1, 0), 2)
    first.add_term((2, 0), -1)
    assert dict(tensor_schur((1, 0), (1, 0), 2).items()) == {(2, 0): 1, (1, 1): 1}


def dual_sum(s: CharacterSum) -> CharacterSum:
    """Termwise dual: every key becomes its reversed negation."""
    out = CharacterSum(s.rank)
    for w, m in s.items():
        out.add_term(dual_weight(w), m)
    return out


def test_dual_sum():
    cs = CharacterSum(2, {(2, 0): 1, (1, 1): 3})
    assert dict(dual_sum(cs).items()) == {(0, -2): 1, (-1, -1): 3}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=4),
    st.lists(st.integers(0, 3), min_size=2, max_size=4),
)
def test_tensor_schur_dimension_property(a, b):
    rank = max(len(a), len(b))
    a = pad(tuple(sorted(a, reverse=True)), rank)
    b = pad(tuple(sorted(b, reverse=True)), rank)
    prod = tensor_schur(a, b, rank)
    assert prod.dimension() == schur_dim(a, rank) * schur_dim(b, rank)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_terms_is_symmetric(data):
    # either factor may be enumerated as the strips, determinant twists too
    rank = data.draw(st.integers(1, 4))
    weight = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(
        lambda w: tuple(sorted(w, reverse=True))
    )
    a, b = data.draw(weight), data.draw(weight)
    assert _tensor_terms(a, b, rank) == _tensor_terms(b, a, rank)

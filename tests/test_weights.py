import itertools

import pytest
from bbw_oracle import naive_bbw
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcoh.weights import bbw_resolve, dual_weight, is_weakly_decreasing


def rho(n: int) -> tuple:
    """Half the sum of the positive roots for GL_n: (n, n-1, ..., 1)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return tuple(range(n, 0, -1))


def apply_perm(perm, v) -> tuple:
    """Permute coordinate positions: result[i] = v[perm[i]].

    ``perm`` is a tuple of 0-based indices forming a permutation.
    """
    if len(perm) != len(v):
        raise ValueError("rank mismatch between permutation and vector")
    if sorted(perm) != list(range(len(v))):
        raise ValueError("not a permutation: %r" % (perm,))
    return tuple(v[p] for p in perm)


def dot_action(perm, chi) -> tuple:
    """The rho-shifted Weyl action: perm.(chi) = perm(chi + rho) - rho."""
    n = len(chi)
    r = rho(n)
    shifted = tuple(c + rr for c, rr in zip(chi, r))
    moved = apply_perm(perm, shifted)
    return tuple(m - rr for m, rr in zip(moved, r))


def test_rho():
    assert rho(1) == (1,)
    assert rho(4) == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        rho(0)


def test_apply_perm():
    assert apply_perm((2, 0, 1), (10, 20, 30)) == (30, 10, 20)
    assert apply_perm((0, 1), (5, 7)) == (5, 7)
    with pytest.raises(ValueError):
        apply_perm((0, 0), (1, 2))
    with pytest.raises(ValueError):
        apply_perm((0,), (1, 2))


def test_dot_action_identity_and_composition():
    chi = (0, -2, 0, -1)
    n = len(chi)
    ident = tuple(range(n))
    assert dot_action(ident, chi) == chi
    for p in itertools.permutations(range(n)):
        for q in itertools.permutations(range(n)):
            pq = tuple(q[p[i]] for i in range(n))
            assert dot_action(pq, chi) == dot_action(p, dot_action(q, chi))


def test_dual_weight():
    assert dual_weight((2, 0, -1)) == (1, 0, -2)
    assert dual_weight(dual_weight((3, 1, 1, -5))) == (3, 1, 1, -5)
    assert dual_weight(()) == ()


def test_bbw_singular():
    # chi + rho = (2, 2, 1): repeated entry
    res = bbw_resolve((-1, 0, 0))
    assert res is None


def test_bbw_dominant_degree_zero():
    res = bbw_resolve((3, 1, 0))
    assert res is not None
    degree, dominant = res
    assert degree == 0
    assert dominant == (3, 1, 0)


def test_bbw_known_example():
    # chi + rho = (4, 2, 3, 1) has one inversion
    res = bbw_resolve((0, -2, 0, -1))
    assert res is not None
    degree, dominant = res
    assert degree == 1
    assert dominant == (0, -1, -1, -1)
    assert dual_weight(dominant) == (1, 1, 1, 0)


def test_bbw_top_degree():
    # chi + rho strictly increasing: maximal inversion count n(n-1)/2
    n = 4
    chi = tuple(-(n + 1) + i - (n - i) for i in range(n))  # chi+rho = (i - n ...)
    shifted = [c + r for c, r in zip(chi, rho(n))]
    assert shifted == sorted(shifted) and len(set(shifted)) == n
    degree, _ = bbw_resolve(chi)
    assert degree == n * (n - 1) // 2


def test_bbw_top_degree_at_large_rank():
    # chi + rho = (0, 1, ..., n-1): every pair is out of order
    n = 2000
    chi = tuple(2 * i - n for i in range(n))
    assert bbw_resolve(chi) == (n * (n - 1) // 2, (-1,) * n)


@given(st.lists(st.integers(-4, 3), min_size=1, max_size=5))
def test_bbw_dot_orbit_invariance(chi):
    chi = tuple(chi)
    n = len(chi)
    base = bbw_resolve(chi)
    for p in itertools.permutations(range(n)):
        moved = bbw_resolve(dot_action(p, chi))
        assert (moved is None) == (base is None)
        if base is not None:
            assert moved[1] == base[1]


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_bbw_regular_dominant_is_dominant(chi):
    res = bbw_resolve(tuple(chi))
    if res is not None:
        degree, dominant = res
        assert is_weakly_decreasing(dominant)
        n = len(chi)
        assert 0 <= degree <= n * (n - 1) // 2


@settings(max_examples=300)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=7))
def test_bbw_resolve_matches_naive_oracle(chi):
    assert bbw_resolve(tuple(chi)) == naive_bbw(chi)

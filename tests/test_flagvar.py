from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from localization import _span

from flagcoh.flagvar import (
    BLOCK,
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    SchurMonomial,
    Slot,
    block_weights,
    dual,
    graded_expansion,
    make_monomial,
    minimal_base,
    sigma_pullback,
    tensor,
    trivial,
)

F123 = FlagShape(3, (1, 2))
GR24 = FlagShape(4, (2,))
F1234 = FlagShape(4, (1, 2, 3))
F12345 = FlagShape(5, (1, 2, 3, 4))


def test_shape_basics():
    assert F123.blocks() == (1, 1, 1)
    assert F123.dimension() == 3
    assert GR24.blocks() == (2, 2)
    assert GR24.dimension() == 4
    assert F123.is_symmetric() and GR24.is_symmetric()
    assert not FlagShape(4, (1,)).is_symmetric()
    assert FlagShape(5, (1, 4)).is_symmetric()
    point = FlagShape(3, ())
    assert point.blocks() == (3,) and point.dimension() == 0
    with pytest.raises(ValueError):
        FlagShape(3, (1, 1))
    with pytest.raises(ValueError):
        FlagShape(3, (3,))


def test_slot_ranks_and_normalization():
    assert Slot(SUB, 2).rank(F123) == 2
    assert Slot(QUOT, 1).rank(F123) == 2
    assert Slot(BLOCK, 3).rank(F123) == 1
    with pytest.raises(ValueError):
        Slot(SUB, 3).rank(F123)
    for index in (1.0, True):
        with pytest.raises(ValueError):
            Slot(SUB, index)
    # Block(1) and Block(s+1) have canonical sub/quot spellings
    a = make_monomial(F123, [(Slot(BLOCK, 1), (1,))])
    b = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    assert a == b
    c = make_monomial(F123, [(Slot(BLOCK, 3), (2,))])
    d = make_monomial(F123, [(Slot(QUOT, 2), (2,))])
    assert c == d
    # every shape with n <= 6, every valid slot: the interval lookup gives
    # the one spelling, and the rank matches the localization oracle's span
    for n in range(1, 7):
        for s in range(n):
            for dims in combinations(range(1, n), s):
                shape = FlagShape(n, dims)
                bounds = (0,) + dims + (n,)
                flag = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
                slots = [Slot(kind, i) for kind in (SUB, QUOT) for i in range(1, s + 1)]
                slots += [Slot(BLOCK, j) for j in range(1, s + 2)]
                for slot in slots:
                    canonical = slot
                    if s and slot == Slot(BLOCK, 1):
                        canonical = Slot(SUB, 1)
                    elif s and slot == Slot(BLOCK, s + 1):
                        canonical = Slot(QUOT, s)
                    assert shape.slot(*slot.span(shape)) == canonical
                    rank = slot.rank(shape)
                    assert rank == len(_span(flag, slot.kind, slot.index))
                    (mono, _), = make_monomial(shape, [(slot, (1,) * rank)]).terms.items()
                    assert mono.factors == ((canonical, (1,) * rank),)
                bad = [Slot(SUB, 0), Slot(SUB, s + 1), Slot(QUOT, s + 1)]
                for slot in bad + [Slot(BLOCK, 0), Slot(BLOCK, s + 2)]:
                    with pytest.raises(ValueError):
                        slot.span(shape)
                    with pytest.raises(ValueError):
                        slot.rank(shape)
                # V itself and W_{d_3}/W_{d_1} are intervals but not slots;
                # for s = 2, (1, 3) is Quot(1)
                non_slots = ([(0, s + 1)] if s >= 1 else []) + ([(1, 3)] if s >= 3 else [])
                for lo, hi in non_slots:
                    with pytest.raises(ValueError):
                        shape.slot(lo, hi)


def test_repeated_slot_merge():
    # Lambda^2(W) (x) W on Gr(2,4): rank-2 slot keeps only (2,1)
    e = make_monomial(GR24, [(Slot(SUB, 1), (1, 1)), (Slot(SUB, 1), (1, 0))])
    assert len(e.terms) == 1
    (mono, mult), = e.terms.items()
    assert mult == 1
    assert mono.factors == ((Slot(SUB, 1), (2, 1)),)
    # rank-1 slots multiply degrees
    e = make_monomial(F123, [(Slot(SUB, 1), (1,)), (Slot(SUB, 1), (1,))])
    (mono, _), = e.terms.items()
    assert mono.factors == ((Slot(SUB, 1), (2,)),)


def test_monomial_validation():
    with pytest.raises(ValueError):
        SchurMonomial(F123, ((Slot(SUB, 1), (1,)), (Slot(SUB, 1), (2,))))
    with pytest.raises(ValueError):
        SchurMonomial(F123, ((Slot(SUB, 2), (1,)),))  # wrong length
    with pytest.raises(ValueError):
        SchurMonomial(F123, ((Slot(SUB, 2), (0, 1)),))  # not decreasing


def test_tensor_with_trivial():
    w = make_monomial(GR24, [(Slot(SUB, 1), (1, 0))])
    assert tensor(w, trivial(GR24)) == w
    assert tensor(trivial(GR24), w) == w


def test_dual_involution():
    e = make_monomial(F123, [(Slot(SUB, 2), (2, 1)), (Slot(QUOT, 1), (1, 0))])
    assert dual(dual(e)) == e
    w = make_monomial(GR24, [(Slot(SUB, 1), (2, 0))])
    (mono, _), = dual(w).terms.items()
    assert mono.factors == ((Slot(SUB, 1), (0, -2)),)


def test_sigma_pullback():
    w1 = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    (mono, _), = sigma_pullback(w1).terms.items()
    assert mono.factors == ((Slot(QUOT, 2), (-1,)),)
    # involution, and commutes with dual
    e = make_monomial(F123, [(Slot(SUB, 2), (2, 1)), (Slot(QUOT, 1), (1, 0))])
    assert sigma_pullback(sigma_pullback(e)) == e
    assert sigma_pullback(dual(e)) == dual(sigma_pullback(e))
    with pytest.raises(ValueError):
        sigma_pullback(make_monomial(FlagShape(4, (1,)), [(Slot(SUB, 1), (1,))]))
    # blocks are reversed: Block(j) -> Block(s+2-j)
    for shape, j, image in ((F1234, 2, 3), (F12345, 2, 4)):
        b = make_monomial(shape, [(Slot(BLOCK, j), (2,))])
        (mono, _), = sigma_pullback(b).terms.items()
        assert mono.factors == ((Slot(BLOCK, image), (-2,)),)


def test_sigma_pullback_product():
    # sigma*(W_1 (x) W_2) = Q_2^v (x) Q_1^v
    e = make_monomial(
        F123, [(Slot(SUB, 1), (1,)), (Slot(SUB, 2), (1, 0))]
    )
    expected = make_monomial(
        F123, [(Slot(QUOT, 2), (-1,)), (Slot(QUOT, 1), (0, -1))]
    )
    assert sigma_pullback(e) == expected


def test_minimal_base():
    e = make_monomial(
        F123, [(Slot(SUB, 2), (1, 0)), (Slot(QUOT, 2), (-1,))]
    )
    shape, reduced = minimal_base(e)
    assert shape == FlagShape(3, (2,))
    (mono, _), = reduced.terms.items()
    assert mono.factors == (
        (Slot(SUB, 1), (1, 0)),
        (Slot(QUOT, 1), (-1,)),
    )
    # full-reference expressions unchanged
    full = make_monomial(
        F123, [(Slot(SUB, 1), (1,)), (Slot(QUOT, 2), (1,))]
    )
    assert minimal_base(full) == (F123, full)
    # trivial expression reduces to a point
    shape, reduced = minimal_base(trivial(F123))
    assert shape.dims == ()
    # interior blocks whose endpoints survive stay blocks
    e = make_monomial(F12345, [(Slot(BLOCK, 3), (1,))])
    shape, reduced = minimal_base(e)
    assert shape == FlagShape(5, (2, 3))
    (mono, _), = reduced.terms.items()
    assert mono.factors == ((Slot(BLOCK, 2), (1,)),)
    e = make_monomial(F12345, [(Slot(SUB, 2), (1, 0)), (Slot(BLOCK, 4), (2,))])
    shape, reduced = minimal_base(e)
    assert shape == FlagShape(5, (2, 3, 4))
    (mono, _), = reduced.terms.items()
    assert mono.factors == ((Slot(SUB, 1), (1, 0)), (Slot(BLOCK, 3), (2,)))
    # a monomial built directly may spell the first and last blocks as
    # blocks; on the reduced shape they get their one spelling
    for j, dims, image in ((1, (1,), Slot(SUB, 1)), (5, (4,), Slot(QUOT, 1))):
        mono = SchurMonomial(F12345, ((Slot(BLOCK, j), (3,)),))
        shape, reduced = minimal_base(BundleExpr(F12345, {mono: 1}))
        assert shape == FlagShape(5, dims)
        (mono, _), = reduced.terms.items()
        assert mono.factors == ((image, (3,)),)


def test_graded_expansion_examples():
    w1 = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    [(gm, mult, level)] = graded_expansion(w1)
    assert block_weights(gm) == ((1,), (0,), (0,)) and mult == 1 and level == 0

    q1 = make_monomial(F123, [(Slot(QUOT, 1), (1, 0))])
    pieces = graded_expansion(q1)
    assert len(pieces) == 2
    weights = {block_weights(gm) for gm, _, _ in pieces}
    assert weights == {((0,), (1,), (0,)), ((0,), (0,), (1,))}
    assert all(m == 1 for _, m, _ in pieces)
    # sub-side piece (Block 2) precedes the quotient-side piece (Block 3)
    levels = {block_weights(gm): lv for gm, _, lv in pieces}
    assert levels[((0,), (1,), (0,))] < levels[((0,), (0,), (1,))]


def test_graded_expansion_identity_on_graded():
    e = make_monomial(
        F123, [(Slot(SUB, 1), (2,)), (Slot(BLOCK, 2), (-1,)), (Slot(QUOT, 2), (1,))]
    )
    pieces = graded_expansion(e)
    assert len(pieces) == 1
    assert block_weights(pieces[0][0]) == ((2,), (-1,), (1,))


def test_graded_expansion_rank_preserved():
    exprs = [
        make_monomial(GR24, [(Slot(SUB, 1), (2, 1)), (Slot(QUOT, 1), (1, 0))]),
        make_monomial(F123, [(Slot(SUB, 2), (2, 0)), (Slot(QUOT, 1), (1, 1))]),
        make_monomial(FlagShape(5, (2, 3)), [(Slot(QUOT, 1), (2, 1, 0))]),
    ]
    for e in exprs:
        total = sum(gm.rank() * m for gm, m, _ in graded_expansion(e))
        assert total == e.rank()


def test_json_roundtrip():
    e = make_monomial(
        F123, [(Slot(SUB, 2), (1, 0)), (Slot(QUOT, 1), (0, -1))]
    ) + trivial(F123)
    assert BundleExpr.from_json(e.to_json()) == e


def test_stored_hash_matches_equality():
    # dual(dual(e)) rebuilds every monomial, slot and weight from scratch
    e = make_monomial(
        FlagShape(4, (1, 2, 3)), [(Slot(SUB, 2), (2, -1)), (Slot(BLOCK, 3), (1,))]
    )
    [mono] = e.terms
    [again] = dual(dual(e)).terms
    assert again is not mono
    assert again == mono and hash(again) == hash(mono)


SHAPES = [F123, GR24, FlagShape(4, (1, 3)), FlagShape(3, (1,))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dual_rank_and_involution_random(data):
    shape = data.draw(st.sampled_from(SHAPES))
    factors = []
    for kind, top in ((SUB, shape.s), (QUOT, shape.s)):
        if data.draw(st.booleans()):
            idx = data.draw(st.integers(1, top))
            slot = Slot(kind, idx)
            r = slot.rank(shape)
            vals = sorted(
                data.draw(
                    st.lists(st.integers(-2, 2), min_size=r, max_size=r)
                ),
                reverse=True,
            )
            factors.append((slot, tuple(vals)))
    e = make_monomial(shape, factors)
    assert dual(dual(e)) == e
    assert dual(e).rank() == e.rank()
    total = sum(gm.rank() * m for gm, m, _ in graded_expansion(e))
    assert total == e.rank()

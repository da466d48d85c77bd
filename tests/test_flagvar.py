from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from localization import _span

import flagcoh.cohomology as engine
from flagcoh import flagvar
from flagcoh.flagvar import (
    BLOCK,
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    SchurMonomial,
    Slot,
    _expand_monomial,
    _flat_monomial,
    _pair_key,
    _pair_product,
    _split_partition,
    _subpartitions,
    dual,
    make_monomial,
    minimal_base,
    sigma_pullback,
    tensor,
)
from flagcoh.schur import _lr_raw, _strip_zeros, pad

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
                    span = slot.span(shape)
                    assert shape.slot(*span) == canonical
                    # one tuple per interval, whichever spelling reads it
                    assert shape.interval(*span) is span is canonical.span(shape)
                    rank = slot.rank(shape)
                    assert rank == len(_span(flag, slot.kind, slot.index))
                    e = make_monomial(shape, [(slot, (1,) * rank)])
                    assert make_monomial(shape, [(span, (1,) * rank)]) == e
                    (mono, _), = e.terms.items()
                    assert mono.factors == ((span, (1,) * rank),)
                    assert mono.factors[0][0] is span
                    assert mono.spelled() == [(canonical, (1,) * rank)]
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
                    with pytest.raises(ValueError):
                        shape.interval(lo, hi)
                    with pytest.raises(ValueError):
                        make_monomial(shape, [((lo, hi), (0,) * (bounds[hi] - bounds[lo]))])


def test_repeated_slot_merge():
    # Lambda^2(W) (x) W on Gr(2,4): rank-2 slot keeps only (2,1)
    e = make_monomial(GR24, [(Slot(SUB, 1), (1, 1)), (Slot(SUB, 1), (1, 0))])
    assert len(e.terms) == 1
    (mono, mult), = e.terms.items()
    assert mult == 1
    assert mono.factors == (((0, 1), (2, 1)),)
    assert str(mono) == "S^(2, 1)(sub(1))"
    # rank-1 slots multiply degrees
    e = make_monomial(F123, [(Slot(SUB, 1), (1,)), (Slot(SUB, 1), (1,))])
    (mono, _), = e.terms.items()
    assert mono.factors == (((0, 1), (2,)),)
    assert str(mono) == "S^(2,)(sub(1))"


def test_monomial_validation():
    with pytest.raises(ValueError):
        SchurMonomial(F123, (((0, 1), (1,)), ((0, 1), (2,))))
    with pytest.raises(ValueError):
        SchurMonomial(F123, (((0, 2), (1,)),))  # wrong length
    with pytest.raises(ValueError):
        SchurMonomial(F123, (((0, 2), (0, 1)),))  # not decreasing
    with pytest.raises(ValueError):
        SchurMonomial(F123, (((0, 3), (1, 0, 0)),))  # V is not a slot interval


def test_value_types_compare_hash_and_print_by_value():
    # shapes, slots and monomials are plain slotted classes: equal and
    # hashed alike by value, printed by their fields, and immutable
    shape = FlagShape(4, [1, 2, 3])
    assert shape == F1234 and hash(shape) == hash(F1234) and shape.dims == (1, 2, 3)
    assert shape != FlagShape(4, (1, 3)) and shape != FlagShape(5, (1, 2, 3))
    assert shape != (4, (1, 2, 3)) and repr(shape) == "FlagShape(n=4, dims=(1, 2, 3))"
    slot = Slot(SUB, 1)
    assert slot == Slot("sub", 1) and hash(slot) == hash(Slot("sub", 1))
    assert slot != Slot(QUOT, 1) and slot != Slot(SUB, 2)
    assert repr(slot) == "Slot(kind='sub', index=1)"
    mono = SchurMonomial(shape, (((0, 1), (2,)),))
    assert mono == SchurMonomial(F1234, (((0, 1), (2,)),)) and hash(mono) == hash(
        SchurMonomial(F1234, (((0, 1), (2,)),))
    )
    # the same factors on another shape are another monomial
    assert mono != SchurMonomial(FlagShape(4, (1, 3)), (((0, 1), (2,)),))
    assert mono != SchurMonomial(F1234, (((0, 1), (1,)),))
    assert repr(mono) == (
        "SchurMonomial(shape=FlagShape(n=4, dims=(1, 2, 3)), factors=(((0, 1), (2,)),))"
    )
    for value, name in ((shape, "dims"), (slot, "index"), (mono, "factors")):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__") and repr(value) == before


def test_monomial_rejects_repeated_or_unordered_interval():
    # Sub(1) and Block(1) are the one interval (0, 1): a monomial with both
    # is rejected when built, not inside minimal_base
    with pytest.raises(ValueError, match="repeated or out of order"):
        SchurMonomial(F1234, (((0, 1), (1,)), ((0, 1), (1,))))
    with pytest.raises(ValueError, match="repeated or out of order"):
        SchurMonomial(F1234, (((0, 2), (1, 0)), ((0, 1), (1,))))
    # a slot is not a place of a stored factor: it is read by make_monomial
    with pytest.raises(ValueError, match="not a slot interval"):
        SchurMonomial(F1234, ((Slot(BLOCK, 1), (1,)),))
    [mono] = make_monomial(F1234, [(Slot(SUB, 1), (1,)), (Slot(BLOCK, 1), (1,))]).terms
    assert mono == SchurMonomial(F1234, (((0, 1), (2,)),))
    [mono] = make_monomial(F1234, [(Slot(SUB, 2), (1, 0)), (Slot(SUB, 1), (1,))]).terms
    assert mono == SchurMonomial(F1234, (((0, 1), (1,)), ((0, 2), (1, 0))))
    assert str(mono) == "S^(1,)(sub(1)) (x) S^(1,)(sub(2))"


def test_text_and_json_spell_intervals_in_slot_order():
    # on F(1,2,3;4), Quot(1) = (1, 4) precedes Block(3) = (2, 3) as an
    # interval, but follows it as a slot
    e = make_monomial(F1234, [(Slot(QUOT, 1), (1, 0, 0)), (Slot(BLOCK, 3), (2,))])
    [mono] = e.terms
    assert mono.factors == (((1, 4), (1, 0, 0)), ((2, 3), (2,)))
    assert str(e) == "S^(2,)(block(3)) (x) S^(1,)(quot(1))"
    [term] = e.to_json()["terms"]
    assert [(f["slot"], f["index"]) for f in term["factors"]] == [("block", 3), ("quot", 1)]
    assert BundleExpr.from_json(e.to_json()) == e


def test_tensor_with_trivial():
    # no factors build O, the trivial monomial once
    o = make_monomial(GR24, ())
    assert o.terms == {SchurMonomial(GR24, ()): 1}
    w = make_monomial(GR24, [(Slot(SUB, 1), (1, 0))])
    assert tensor(w, o) == w
    assert tensor(o, w) == w


def test_dual_involution():
    e = make_monomial(F123, [(Slot(SUB, 2), (2, 1)), (Slot(QUOT, 1), (1, 0))])
    assert dual(dual(e)) == e
    w = make_monomial(GR24, [(Slot(SUB, 1), (2, 0))])
    (mono, _), = dual(w).terms.items()
    assert mono.factors == (((0, 1), (0, -2)),)
    assert mono.spelled() == [(Slot(SUB, 1), (0, -2))]


def test_sigma_pullback():
    w1 = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    (mono, _), = sigma_pullback(w1).terms.items()
    assert mono.factors == (((2, 3), (-1,)),)
    assert mono.spelled() == [(Slot(QUOT, 2), (-1,))]
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
        assert mono.factors == (((image - 1, image), (-2,)),)
        assert mono.spelled() == [(Slot(BLOCK, image), (-2,))]


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
    assert mono.factors == (((0, 1), (1, 0)), ((1, 2), (-1,)))
    assert mono.spelled() == [(Slot(SUB, 1), (1, 0)), (Slot(QUOT, 1), (-1,))]
    # full-reference expressions unchanged
    full = make_monomial(
        F123, [(Slot(SUB, 1), (1,)), (Slot(QUOT, 2), (1,))]
    )
    assert minimal_base(full) == (F123, full)
    # trivial expression reduces to a point
    shape, reduced = minimal_base(make_monomial(F123, ()))
    assert shape.dims == ()
    # interior blocks whose endpoints survive stay blocks
    e = make_monomial(F12345, [(Slot(BLOCK, 3), (1,))])
    shape, reduced = minimal_base(e)
    assert shape == FlagShape(5, (2, 3))
    (mono, _), = reduced.terms.items()
    assert mono.factors == (((1, 2), (1,)),)
    assert mono.spelled() == [(Slot(BLOCK, 2), (1,))]
    e = make_monomial(F12345, [(Slot(SUB, 2), (1, 0)), (Slot(BLOCK, 4), (2,))])
    shape, reduced = minimal_base(e)
    assert shape == FlagShape(5, (2, 3, 4))
    (mono, _), = reduced.terms.items()
    assert mono.factors == (((0, 1), (1, 0)), ((2, 3), (2,)))
    assert mono.spelled() == [(Slot(SUB, 1), (1, 0)), (Slot(BLOCK, 3), (2,))]
    # the first and last blocks, built directly on their intervals, go to
    # the reduced shape's Sub(1) and Quot(1)
    for j, dims, image in ((1, (1,), Slot(SUB, 1)), (5, (4,), Slot(QUOT, 1))):
        mono = SchurMonomial(F12345, (((j - 1, j), (3,)),))
        assert make_monomial(F12345, [(Slot(BLOCK, j), (3,))]) == BundleExpr(F12345, {mono: 1})
        shape, reduced = minimal_base(BundleExpr(F12345, {mono: 1}))
        assert shape == FlagShape(5, dims)
        (mono, _), = reduced.terms.items()
        assert mono.factors == ((image.span(shape), (3,)),)
        assert mono.spelled() == [(image, (3,))]


def _graded_pieces(e):
    """The one-shot graded pieces of ``e``, monomial by monomial, as
    (flat vector, block factor tuple, multiplicity): each piece of
    ``_expand_monomial`` is cut by ``_flat_monomial`` into exactly one
    factor tuple on the blocks."""
    out = []
    for mono, m in e.monomials():
        for flat, c in _expand_monomial(mono):
            [(gm, k)] = _flat_monomial(e.shape, flat).items()
            assert k == 1
            out.append((flat, gm, c * m))
    return out


def _graded_rank(e):
    """The rank of the one-shot graded pieces of ``e``, each factor tuple
    validated as a monomial."""
    return sum(SchurMonomial(e.shape, gm).rank() * m for _, gm, m in _graded_pieces(e))


def test_graded_expansion_examples():
    w1 = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    [(flat, _gm, mult)] = _graded_pieces(w1)
    assert flat == (1, 0, 0) and mult == 1

    q1 = make_monomial(F123, [(Slot(QUOT, 1), (1, 0))])
    pieces = _graded_pieces(q1)
    assert len(pieces) == 2
    assert {flat for flat, _, _ in pieces} == {(0, 1, 0), (0, 0, 1)}
    assert all(m == 1 for _, _, m in pieces)


def test_graded_expansion_identity_on_graded():
    e = make_monomial(
        F123, [(Slot(SUB, 1), (2,)), (Slot(BLOCK, 2), (-1,)), (Slot(QUOT, 2), (1,))]
    )
    pieces = _graded_pieces(e)
    assert len(pieces) == 1
    assert pieces[0][0] == (2, -1, 1)


def test_graded_expansion_rank_preserved():
    exprs = [
        make_monomial(GR24, [(Slot(SUB, 1), (2, 1)), (Slot(QUOT, 1), (1, 0))]),
        make_monomial(F123, [(Slot(SUB, 2), (2, 0)), (Slot(QUOT, 1), (1, 1))]),
        make_monomial(FlagShape(5, (2, 3)), [(Slot(QUOT, 1), (2, 1, 0))]),
    ]
    for e in exprs:
        assert _graded_rank(e) == e.rank()


def test_json_roundtrip():
    e = make_monomial(
        F123, [(Slot(SUB, 2), (1, 0)), (Slot(QUOT, 1), (0, -1))]
    ) + make_monomial(F123, ())
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
    assert _graded_rank(e) == e.rank()


def _reference_graded_factor(shape, span, w):
    """The associated graded of Sigma^w on the interval ``span`` as a bundle
    expression on the blocks it spans, built monomial by monomial."""
    lo, hi = span
    blocks = [(j - 1, j) for j in range(lo + 1, hi + 1)]
    k = max(0, -min(w))
    out = BundleExpr(shape)
    for ws, c in _split_partition(tuple(x + k for x in w), shape.blocks()[lo:hi]):
        pieces = zip(blocks, (tuple(x - k for x in piece) for piece in ws))
        piece = make_monomial(shape, pieces)
        out = out + BundleExpr(shape, {mono: c * m for mono, m in piece.terms.items()})
    return out


def _reference_expansion(mono):
    """The one-shot fold on validated monomials: ``tensor`` over the graded
    factors, one factor at a time; as {block factor tuple: coeff}."""
    shape = mono.shape
    factors = [_reference_graded_factor(shape, span, w) for span, w in mono.factors]
    graded = reduce(tensor, factors) if factors else make_monomial(shape, ())
    return {gm.factors: c for gm, c in graded.terms.items()}


# blocks of rank <= 2 have Littlewood-Richardson coefficients 0 or 1, so
# F(1,4;5), with a rank-3 block, is what shows a lost multiplicity
F145 = FlagShape(5, (1, 4))
FOLD_SHAPES = [F1234, FlagShape(5, (1, 3)), FlagShape(6, (2, 4)), F145]


def _assert_fold_matches_reference(mono):
    fold = _graded_pieces(BundleExpr(mono.shape, {mono: 1}))
    assert all(type(flat) is tuple and len(flat) == mono.shape.n for flat, _, _ in fold)
    expected = _reference_expansion(mono)
    assert {gm: c for _, gm, c in fold} == expected
    assert len(fold) == len(expected)  # one pair per distinct piece
    _pieces, filtered = engine._monomial_pieces_graded(mono)
    assert filtered == (len(expected) > 1)


def test_tuple_fold_fixed_cases():
    for shape in FOLD_SHAPES:
        [mono] = make_monomial(shape, ()).terms
        _assert_fold_matches_reference(mono)
        assert tuple(_expand_monomial(mono)) == (((0,) * shape.n, 1),)
    # W_4's adjoint grades to L (x) M^v, L^v (x) M, adj(M) and O on
    # W_1 = L, M = W_4/W_1; times adj(M), adj(M) (x) adj(M) holds adj(M)
    # twice and O (x) adj(M) once
    e = make_monomial(F145, [(Slot(BLOCK, 2), (1, 0, -1)), (Slot(SUB, 2), (1, 0, 0, -1))])
    [mono] = e.terms
    _assert_fold_matches_reference(mono)
    assert dict(_expand_monomial(mono))[0, 1, 0, -1, 0] == 3
    # F(1,3,5;6) has the rank-2 blocks W_3/W_1 and W_5/W_3.  A piece of
    # Sub(2) nonzero on the first meets Block(3) only on the second; a
    # piece of Sub(3) nonzero on both is merged with Block(3) on the second.
    # Quot(1) then meets the first block again, so a product must keep the
    # nonzero blocks of both sides, in an addition and in a merge alike
    f135 = FlagShape(6, (1, 3, 5))
    for sub in [(Slot(SUB, 2), (1, 0, -1)), (Slot(SUB, 3), (1, 0, 0, 0, -1))]:
        e = make_monomial(f135, [sub, (Slot(BLOCK, 3), (1, 0)), (Slot(QUOT, 1), (1, 0, 0, 0, -1))])
        [mono] = e.terms
        _assert_fold_matches_reference(mono)
    # on F(1,4;5), adj(M) of W_4 times Block(2)'s adj(M) holds O once, so a
    # merge makes the rank-3 block zero; Quot(1) then meets that block
    # again, and its piece M there is added to the zero weight
    adj2 = [(Slot(SUB, 2), (1, 0, 0, -1)), (Slot(BLOCK, 2), (1, 0, -1))]
    [mono] = make_monomial(F145, adj2).terms
    assert dict(_expand_monomial(mono))[0, 0, 0, 0, 0] == 1
    [mono] = make_monomial(F145, [*adj2, (Slot(QUOT, 1), (1, 0, 0, 0))]).terms
    _assert_fold_matches_reference(mono)
    assert dict(_expand_monomial(mono))[0, 1, 0, 0, 0] == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tuple_fold_matches_tensor_fold(data):
    shape = data.draw(st.sampled_from(FOLD_SHAPES))
    s = shape.s
    slots = (
        [Slot(SUB, i) for i in range(1, s + 1)]
        + [Slot(QUOT, i) for i in range(1, s + 1)]
        + [Slot(BLOCK, j) for j in range(2, s + 1)]
    )
    # repeated slots are merged by make_monomial, and sub and quot slots
    # overlap on interior blocks, so blocks repeat across factors
    chosen = data.draw(st.lists(st.sampled_from(slots), max_size=3))
    factors = []
    for slot in chosen:
        r = slot.rank(shape)
        w = data.draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        factors.append((slot, tuple(sorted(w, reverse=True))))
    for mono in make_monomial(shape, factors).terms:
        _assert_fold_matches_reference(mono)


def _reference_split(p, ranks):
    """``_split_partition`` without its cut on kappa: every kappa contained
    in p goes through Littlewood-Richardson with every lam of the right
    size and at most ``last`` rows.  The head is split by
    ``_split_partition`` itself, so for two summands this loop is the
    whole reference, and for three it checks the outer level."""
    p = _strip_zeros(p)
    if len(ranks) == 1:
        return () if len(p) > ranks[0] else (((pad(p, ranks[0]),), 1),)
    head, last = ranks[:-1], ranks[-1]
    lams: dict = {}
    for lam in _subpartitions(p):
        if len(lam) <= last:
            lams.setdefault(sum(lam), []).append(lam)
    out: dict = {}
    for kappa in _subpartitions(p):
        for lam in lams.get(sum(p) - sum(kappa), ()):
            coeff = dict(_lr_raw(kappa, lam, p)).get(p)
            if not coeff:
                continue
            for head_ws, c in _split_partition(kappa, head):
                key = head_ws + (pad(lam, last),)
                out[key] = out.get(key, 0) + coeff * c
    return tuple(sorted(out.items()))


SPLIT_RANKS = ((2, 2), (1, 3), (3, 1), (2, 1, 1), (2, 2, 2))


@pytest.mark.parametrize("ranks", SPLIT_RANKS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_split_partition_matches_unpruned_loop(ranks, data):
    # entries up to 7, and up to one row more than the summands hold,
    # where the split is empty
    rows = st.lists(st.integers(0, 7), max_size=sum(ranks) + 1)
    p = tuple(sorted(data.draw(rows), reverse=True))
    assert _split_partition(p, ranks) == _reference_split(p, ranks)


@pytest.mark.parametrize("ranks", [r for r in SPLIT_RANKS if len(r) == 2])
def test_split_partition_enumerates_only_kappas_that_occur(monkeypatch, ranks):
    """The cut on kappa is exact: every kappa that reaches
    Littlewood-Richardson fits the head's rank and has some lam with
    c^p_{kappa lam} > 0.  A kappa that passes the column cut has one: lam
    with the column lengths of p/kappa, sorted, as its conjugate."""
    calls = []

    def lr(kappa, lam, bound):
        out = _lr_raw(kappa, lam, bound)
        calls.append((kappa, bound, dict(out).get(bound, 0)))
        return out

    monkeypatch.setattr(flagvar, "_lr_raw", lr)
    _split_partition.cache_clear()
    try:
        for p in [(7, 7, 7, 7), (7, 5, 5, 2), (6, 6, 3, 3, 1), (4, 3, 2, 1), (3, 3, 3)]:
            _split_partition(p, ranks)
    finally:
        _split_partition.cache_clear()
    occurs: dict = {}
    for kappa, p, c in calls:
        assert len(kappa) <= ranks[0], (kappa, p)
        occurs[kappa, p] = occurs.get((kappa, p), False) or c > 0
    assert occurs and [k for k, ok in occurs.items() if not ok] == []


def _memo_key(a, b):
    """The key ``ext_groups_best`` files the pair (a, b) under: its table's
    pair memo records the key of each lookup and answers with a hit, so
    nothing is resolved."""
    keys = []

    class Memo(dict):
        def get(self, key):
            keys.append(key)
            return "hit"

    table = engine._Table()
    table.pairs = Memo()
    assert engine.ext_groups_best(a, b, table) == "hit"
    [key] = keys
    return key


KEY_SHAPES = [F1234, F145, FlagShape(6, (2, 4))]


def test_product_key_fixed_cases():
    # a pair with a sum on either side is keyed by its product itself.  On
    # the rank-3 block of F(1,4;5), adj (x) adj holds adj twice, so a key
    # that drops a Littlewood-Richardson multiplicity differs
    adj = make_monomial(F145, [(Slot(BLOCK, 2), (1, 0, -1))])
    [mono] = adj.terms
    assert mono.factors == (((1, 2), (1, 0, -1)),)
    assert mono.spelled() == [(Slot(BLOCK, 2), (1, 0, -1))]
    both = adj + make_monomial(F145, ())
    for a, b in [(both, adj), (adj, both)]:
        assert _memo_key(a, b) == tensor(dual(a), b)
        assert _memo_key(a, b).terms[mono] == 3
    assert tensor(dual(adj), adj).terms[mono] == 2
    # W_1^v (x) W_1 is trivial: its zero weight is dropped
    w1 = make_monomial(F1234, [(Slot(SUB, 1), (1,))])
    o = make_monomial(F1234, ())
    assert _memo_key(w1 + o, w1) == o + w1
    # the source is dualized: Hom(W_1, W_1 (x) W_1) is W_1, not W_1^3
    w1sq = make_monomial(F1234, [(Slot(SUB, 1), (2,))])
    assert _memo_key(w1 + o, w1sq) == w1 + w1sq != tensor(w1 + o, w1sq)
    # Block(1) is read as Sub(1)'s interval, so the pair keys as Sub(1)'s
    spelled = make_monomial(F1234, [(Slot(BLOCK, 1), (1,))])
    assert spelled == w1
    assert _memo_key(spelled + o, w1) == _memo_key(w1 + o, w1)
    with pytest.raises(ValueError):
        _memo_key(w1, make_monomial(F123, ()))
    with pytest.raises(ValueError):
        _memo_key(w1 + o, make_monomial(F123, ()))


def _random_expr(data, shape, fewest=1):
    """A sum of ``fewest`` to two monomials, each from up to two raw
    factors with entries in -1..1, with multiplicities 1 or 2."""
    s = shape.s
    slots = (
        [Slot(SUB, i) for i in range(1, s + 1)]
        + [Slot(QUOT, i) for i in range(1, s + 1)]
        + [Slot(BLOCK, j) for j in range(2, s + 1)]
    )
    out = BundleExpr(shape)
    for _ in range(data.draw(st.integers(fewest, 2))):
        factors = []
        for slot in data.draw(st.lists(st.sampled_from(slots), max_size=2)):
            r = slot.rank(shape)
            w = data.draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r))
            factors.append((slot, tuple(sorted(w, reverse=True))))
        mult = data.draw(st.integers(1, 2))
        term = make_monomial(shape, factors)
        out = out + BundleExpr(shape, {mono: c * mult for mono, c in term.terms.items()})
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_product_keys_are_equal_exactly_when_products_are(data):
    shape = data.draw(st.sampled_from(KEY_SHAPES))
    pool = [_random_expr(data, shape) for _ in range(2)]
    # twisting both sides by one line bundle L leaves (a (x) L)^v (x) (b (x) L)
    # equal to a^v (x) b, so the pool has equal products from unequal pairs
    slot = data.draw(st.sampled_from([Slot(SUB, 1), Slot(QUOT, shape.s)]))
    k = data.draw(st.sampled_from([-1, 1]))
    line = make_monomial(shape, [(slot, (k,) * slot.rank(shape))])
    pool += [tensor(e, line) for e in pool]
    pairs = [(a, b) for a in pool for b in pool]
    keys = [_memo_key(a, b) for a, b in pairs]
    products = [tensor(dual(a), b) for a, b in pairs]
    single = [len(a.terms) == 1 == len(b.terms) for a, b in pairs]
    for (a, b), key, product, one in zip(pairs, keys, products, single):
        assert key == (_pair_key(a, b) if one else product)
    for (k1, p1, s1), (k2, p2, s2) in combinations(zip(keys, products, single), 2):
        if s1 == s2:
            assert (k1 == k2) == (p1 == p2)
            assert k1 != k2 or hash(k1) == hash(k2)
        else:
            # a product reached from both key forms is resolved once per form
            assert k1 != k2
    # (a, b) and (a (x) L, b (x) L)
    assert keys[pairs.index((pool[0], pool[1]))] == keys[pairs.index((pool[2], pool[3]))]


def _random_single(data, shape):
    """One monomial of a random expression, with multiplicity 1 to 3."""
    e = _random_expr(data, shape)
    mono = data.draw(st.sampled_from(sorted(e.terms, key=str)))
    return BundleExpr(shape, {mono: data.draw(st.integers(1, 3))})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_product_is_the_product_of_the_pair(data):
    shape = data.draw(st.sampled_from(KEY_SHAPES))
    a, b = _random_single(data, shape), _random_single(data, shape)
    assert _pair_product(_pair_key(a, b)) == tensor(dual(a), b)


def test_pair_product_fixed_cases(monkeypatch):
    # adj^v (x) adj on the rank-3 block of F(1,4;5) holds the zero weight,
    # which is dropped (the trivial monomial), and adj twice
    adj = make_monomial(F145, [(Slot(BLOCK, 2), (1, 0, -1))])
    product = _pair_product(_pair_key(adj, adj))
    assert product == tensor(dual(adj), adj)
    assert product.terms[SchurMonomial(F145, ())] == 1
    assert product.terms[SchurMonomial(F145, (((1, 2), (1, 0, -1)),))] == 2
    # c1 c2 multiplies every term
    w1 = make_monomial(F145, [(Slot(SUB, 1), (1,))])
    a, b = BundleExpr(F145, {m: 2 for m in adj.terms}), BundleExpr(F145, {m: 3 for m in w1.terms})
    product = _pair_product(_pair_key(a, b))
    assert product == tensor(dual(a), b)
    assert product.terms[SchurMonomial(F145, (((0, 1), (1,)), ((1, 2), (1, 0, -1))))] == 6
    # a key with no parts is the trivial bundle
    o = make_monomial(F1234, ())
    assert _pair_key(o, o)[2] == () and _pair_product(_pair_key(o, o)) == o
    # a pair-memo miss resolves the product built from the key, not a
    # tensor, and so does a call without a table
    expected = engine.cohomology_stepwise(tensor(dual(adj), adj))
    monkeypatch.setattr(engine, "tensor", None)
    assert engine.ext_groups_best(adj, adj, engine._Table()) == expected
    assert engine.ext_groups_best(adj, adj) == expected


def test_pair_key_fixed_cases():
    # on the rank-3 block of F(1,4;5), adj (x) adj holds adj twice, so a
    # key that drops a Littlewood-Richardson multiplicity differs
    adj = make_monomial(F145, [(Slot(BLOCK, 2), (1, 0, -1))])
    shape, mult, parts = _pair_key(adj, adj)
    assert (shape, mult) == (F145, 1)
    [(span, product)] = parts
    assert span == (1, 2) and dict(product)[1, 0, -1] == 2
    assert _pair_key(adj + adj, adj) == (F145, 2, parts)
    # W_1^v (x) W_1 is trivial: its zero-weight slot is left out, so the
    # pair keys as O^v (x) O
    w1 = make_monomial(F1234, [(Slot(SUB, 1), (1,))])
    o = make_monomial(F1234, ())
    assert _pair_key(w1, w1) == (F1234, 1, ()) == _pair_key(o, o)
    # the source is dualized: Hom(W_1, W_1 (x) W_1) is W_1, not W_1^3
    w1sq = make_monomial(F1234, [(Slot(SUB, 1), (2,))])
    assert _pair_key(w1, w1sq) == _pair_key(o, w1) != _pair_key(o, w1sq)
    # Block(1) is Sub(1)'s interval spelled otherwise: it is read as that
    # interval, and a monomial cannot store the slot itself
    with pytest.raises(ValueError):
        SchurMonomial(F1234, ((Slot(BLOCK, 1), (1,)),))
    spelled = make_monomial(F1234, [(Slot(BLOCK, 1), (1,))])
    assert _pair_key(spelled, w1) == _pair_key(w1, w1)
    assert _pair_key(w1, spelled) == _pair_key(w1, w1)
    # two factors on one interval are merged when read, so a monomial
    # holding both cannot be built; the merged one keys as W_1 (x) W_1
    with pytest.raises(ValueError):
        SchurMonomial(F1234, (((0, 1), (1,)), ((0, 1), (1,))))
    twice = make_monomial(F1234, [(Slot(SUB, 1), (1,)), (Slot(BLOCK, 1), (1,))])
    assert twice == w1sq
    assert _pair_key(twice, w1) == _pair_key(w1sq, w1)
    assert _pair_key(w1, twice) == _pair_key(w1, w1sq)
    # sums and the zero expression have no pair key: the memo is keyed by
    # their product itself
    zero = BundleExpr(F1234)
    for a, b in [
        (adj + make_monomial(F145, ()), adj),
        (adj, make_monomial(F145, ()) + adj),
        (w1 + o, w1),
        (zero, w1),
        (w1, zero),
    ]:
        assert _pair_key(a, b) is None
        assert _memo_key(a, b) == tensor(dual(a), b)
    with pytest.raises(ValueError):
        _pair_key(w1, make_monomial(F123, ()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pair_keys_are_equal_exactly_when_products_are(data):
    shape = data.draw(st.sampled_from(KEY_SHAPES))
    pool = [_random_expr(data, shape, fewest=0) for _ in range(3)]
    # twisting both sides by one line bundle L leaves (a (x) L)^v (x) (b (x) L)
    # equal to a^v (x) b, so the pool has equal products from unequal pairs
    slot = data.draw(st.sampled_from([Slot(SUB, 1), Slot(QUOT, shape.s)]))
    k = data.draw(st.sampled_from([-1, 1]))
    line = make_monomial(shape, [(slot, (k,) * slot.rank(shape))])
    pool += [tensor(e, line) for e in pool]
    pairs = [(a, b) for a in pool for b in pool]
    keys = [_pair_key(a, b) for a, b in pairs]
    products = [tensor(dual(a), b) for a, b in pairs]
    single = [len(a.terms) == 1 == len(b.terms) for a, b in pairs]
    for (a, b), key, one in zip(pairs, keys, single):
        if one:
            assert len(key) == 3
        else:
            assert key is None and _memo_key(a, b) == tensor(dual(a), b)
    for (k1, p1, s1), (k2, p2, s2) in combinations(zip(keys, products, single), 2):
        if s1 and s2:
            assert (k1 == k2) == (p1 == p2)
    # (a, b) and (a (x) L, b (x) L)
    assert keys[pairs.index((pool[0], pool[1]))] == keys[pairs.index((pool[3], pool[4]))]

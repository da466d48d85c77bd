import importlib
import sys
from math import comb

import pytest
from bbw_oracle import naive_bbw
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcoh.cohomology import (
    E1_BOUND,
    EXACT,
    CohomologyOutcome,
    cohomology,
    cohomology_graded,
    cohomology_stepwise,
    euler_characteristic,
    ext_groups,
    ext_groups_best,
)
from flagcoh.flagvar import (
    BLOCK,
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    SchurMonomial,
    Slot,
    _flat_factor,
    _flat_monomial,
    block_weights,
    dual,
    make_monomial,
    sigma_pullback,
    tensor,
    trivial,
)
from flagcoh.kapranov import check_strong_exceptional, enumerate_collection
from flagcoh.schur import CharacterSum, _tensor_terms, pad
from flagcoh.twists import WITH_SIGMA, TwistGroup, check_T2
from flagcoh.weights import _bbw_flat, bbw_resolve

# the package's ``cohomology`` attribute is the function, not the module
engine = importlib.import_module("flagcoh.cohomology")

F123 = FlagShape(3, (1, 2))
GR24 = FlagShape(4, (2,))


def line_bundle(n, d):
    """O(d) on P^(n-1), as Sigma^(-d)(W_1) on Gr(1, n)."""
    shape = FlagShape(n, (1,))
    return make_monomial(shape, [(Slot(SUB, 1), (-d,))])


def test_structure_sheaf():
    for shape in (F123, GR24, FlagShape(5, (1, 2, 4))):
        out = cohomology(trivial(shape))
        assert out.grade == EXACT
        assert out.degrees() == [0]
        assert out.character(0) == CharacterSum(shape.n, {pad((), shape.n): 1})


def test_projective_space_oracle():
    for n in (2, 3, 4, 5):  # P^1 .. P^4
        r = n - 1
        for d in range(-6, 7):
            out = cohomology(line_bundle(n, d))
            assert out.grade == EXACT
            if d >= 0:
                assert out.degrees() == ([] if d == 0 and False else [0])
                assert out.dimension(0) == comb(r + d, r)
            elif d >= -r:
                assert out.degrees() == []
            else:
                assert out.degrees() == [r]
                assert out.dimension(r) == comb(-d - 1, r)


def _block_monomial(shape, weights):
    """The one monomial with the given weight on each block of ``shape``."""
    [gm] = make_monomial(
        shape, [(Slot(BLOCK, j), w) for j, w in enumerate(weights, 1)]
    ).terms
    return gm


def test_cohomology_graded_examples():
    gm = _block_monomial(GR24, ((0, 0), (0, 0)))
    assert cohomology_graded(gm, GR24) == (0, (0, 0, 0, 0))
    # Case-1 monomial: Sigma^(2)(W_2) (x) Sigma^(1,1)... via chi = (0,-2,0,-1)
    gm = _block_monomial(GR24, ((2, 0), (1, 0)))
    deg, w = cohomology_graded(gm, GR24)
    assert (deg, w) == (1, (1, 1, 1, 0))
    # det(V) filtration piece: H^0 = Lambda^3(V)
    gm = _block_monomial(F123, ((1,), (1,), (1,)))
    assert cohomology_graded(gm, F123) == (0, (1, 1, 1))
    # its dual: H^0 = Lambda^3(V)^v
    gm = _block_monomial(F123, ((-1,), (-1,), (-1,)))
    assert cohomology_graded(gm, F123) == (0, (-1, -1, -1))
    with pytest.raises(ValueError):
        cohomology_graded(gm, GR24)


# every shape has a block of rank >= 2, where skipping the reversal of a
# block's weight changes the character; F(2,4;6) with entries up to 20 in
# size covers the pieces of the large weights E_k, k <= 20, on that flag
F246 = FlagShape(6, (2, 4))
BBW_SHAPES = [
    (GR24, 3),
    (FlagShape(5, (1, 4)), 3),
    (FlagShape(5, (1, 3)), 3),
    (FlagShape(6, (2, 3, 5)), 3),
    (F246, 20),
]


def _bbw_oracle(ws):
    """``_bbw_flat``'s answer for the block weights ``ws``, from the
    independent ``naive_bbw`` on the blocks' duals, dualized back; the
    public ``bbw_resolve`` must agree with the oracle on the same weight."""
    # each block's dual: negate, then reverse within the block
    chi = tuple(-x for w in ws for x in reversed(w))
    res = naive_bbw(chi)
    assert bbw_resolve(chi) == res
    return None if res is None else (res[0], tuple(-x for x in reversed(res[1])))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_flat_bbw_matches_bbw_resolve(data):
    shape, bound = data.draw(st.sampled_from(BBW_SHAPES))
    entries = st.integers(-bound, bound)
    ws = tuple(
        tuple(sorted(data.draw(st.lists(entries, min_size=b, max_size=b)), reverse=True))
        for b in shape.blocks()
    )
    expected = _bbw_oracle(ws)
    flat = tuple(x for w in ws for x in w)
    assert _bbw_flat(flat, shape.blocks()) == expected
    assert cohomology_graded(_block_monomial(shape, ws), shape) == expected


def test_flat_bbw_fixed_cases():
    sizes = F246.blocks()
    cases = [
        # chi + rho = (6, 5, 3, 2, 2, 1) repeats an entry
        (((0, 0), (1, 1), (0, 0)), None),
        # O: H^0 = the trivial representation
        (((0, 0), (0, 0), (0, 0)), (0, (0, 0, 0, 0, 0, 0))),
        # chi + rho = (-2, -3, 0, -1, 2, 1): every pair across blocks is out
        # of order, so the degree is dim F(2,4;6) = 12
        (((8, 8), (4, 4), (0, 0)), (12, (4, 4, 4, 4, 4, 4))),
        # and with E_20's largest entries, the top degree again
        (((20, 20), (0, 0), (-20, -20)), (12, (16, 16, 0, 0, -16, -16))),
    ]
    for ws, expected in cases:
        flat = tuple(x for w in ws for x in w)
        assert _bbw_flat(flat, sizes) == expected == _bbw_oracle(ws), ws
    assert F246.dimension() == 12


def test_flat_factor_pieces():
    # Quot(1) on F(2,4;6) spans blocks 2 and 3, so each piece is zero on
    # block 1; the dual of Sigma^(1) is split after a determinant shift
    assert _flat_factor(F246, (1, 3), (1, 0, 0, 0)) == (
        ((0, 0, 0, 0, 1, 0), 1),
        ((0, 0, 1, 0, 0, 0), 1),
    )
    assert _flat_factor(F246, (1, 3), (0, 0, 0, -1)) == (
        ((0, 0, 0, -1, 0, 0), 1),
        ((0, 0, 0, 0, 0, -1), 1),
    )
    # on blocks of rank 1 the pieces are the torus weights: the adjoint of
    # GL_3 has the six roots once each and the zero weight twice
    f1234 = FlagShape(4, (1, 2, 3))
    split = _flat_factor(f1234, (1, 4), (1, 0, -1))
    assert split == (
        ((0, -1, 0, 1), 1),
        ((0, -1, 1, 0), 1),
        ((0, 0, -1, 1), 1),
        ((0, 0, 0, 0), 2),
        ((0, 0, 1, -1), 1),
        ((0, 1, -1, 0), 1),
        ((0, 1, 0, -1), 1),
    )
    assert sum(c for _flat, c in split) == 8


def test_flat_monomial_cuts_only_nonzero_blocks():
    # the zero block (0, 1) is left out, so nothing is merged into Sub(1)
    _tensor_terms.cache_clear()
    pieces = _flat_monomial(F123, (0, 2, 1), [((0, 1), (3,))])
    expected = [(Slot(SUB, 1), (3,)), (Slot(BLOCK, 2), (2,)), (Slot(QUOT, 2), (1,))]
    assert pieces == make_monomial(F123, expected).terms
    assert _tensor_terms.cache_info().currsize == 0
    assert _flat_monomial(GR24, (0, 0, 0, 0)) == trivial(GR24).terms


def test_engine_builds_products_without_make_monomial(monkeypatch):
    # make_monomial reads input only: once the inputs are built, every
    # product inside the engine comes from the merge alone
    f1234, f134 = FlagShape(4, (1, 2, 3)), FlagShape(4, (1, 3))
    collection = enumerate_collection(f1234)
    t = sum(enumerate_collection(f134).members, BundleExpr(f134))
    e = make_monomial(f1234, [(Slot(SUB, 1), (1,)), (Slot(QUOT, 1), (1, 0, -1))]) + make_monomial(
        f1234, [(Slot(SUB, 2), (2, 1)), (Slot(BLOCK, 3), (1,))]
    )
    assert len(e.terms) == 2

    def results():
        # each call keeps its products in a table of its own, so the
        # second run builds every product again
        return (
            check_strong_exceptional(collection).to_json(),
            check_T2(t, TwistGroup(WITH_SIGMA)).to_json(),
            cohomology_stepwise(e).to_json(),
            tensor(e, e),
        )

    expected = results()

    def refused(shape, factors):
        raise AssertionError("make_monomial called inside the engine")

    patched = []
    for name, module in list(sys.modules.items()):
        if name == "flagcoh" or name.startswith("flagcoh."):
            for attr, value in list(vars(module).items()):
                if value is make_monomial:
                    monkeypatch.setattr(module, attr, refused)
                    patched.append(name)
    assert "flagcoh.flagvar" in patched
    assert results() == expected


def test_non_block_factor_rejected():
    # Sub(2) on F(1,2,3;4) spans two blocks, so it is not a graded piece
    f1234 = FlagShape(4, (1, 2, 3))
    [gm] = make_monomial(f1234, [(Slot(SUB, 2), (1, 0))]).terms
    with pytest.raises(ValueError):
        block_weights(gm)
    with pytest.raises(ValueError):
        cohomology_graded(gm, f1234)


def test_canonical_bundle_serre():
    # K on Gr(2,4) = det(W)^2 (x) det(Q)^-2: only H^4 = k
    k = make_monomial(
        GR24, [(Slot(SUB, 1), (2, 2)), (Slot(QUOT, 1), (-2, -2))]
    )
    out = cohomology(k)
    assert out.grade == EXACT
    assert out.degrees() == [4]
    assert out.character(4) == CharacterSum(4, {(0, 0, 0, 0): 1})


def test_tangent_bundle_sections():
    # Hom(W, Q) on Gr(2,4): H^0 = sl_4 = Sigma^(1,0,0,-1), dim 15
    w = make_monomial(GR24, [(Slot(SUB, 1), (1, 0))])
    q = make_monomial(GR24, [(Slot(QUOT, 1), (1, 0))])
    out = ext_groups(w, q)
    assert out.grade == EXACT
    assert out.degrees() == [0]
    assert out.character(0) == CharacterSum(4, {(1, 0, 0, -1): 1})
    assert out.dimension(0) == 15


def test_tautological_extension_class():
    # Ext^1(Q, W) = k on Gr(2,4): the Euler sequence class
    w = make_monomial(GR24, [(Slot(SUB, 1), (1, 0))])
    q = make_monomial(GR24, [(Slot(QUOT, 1), (1, 0))])
    out = ext_groups(q, w)
    assert out.grade == EXACT
    assert out.degrees() == [1]
    assert out.character(1) == CharacterSum(4, {(0, 0, 0, 0): 1})


def test_endomorphisms_trivial():
    for shape, slot, w in (
        (GR24, Slot(SUB, 1), (1, 0)),
        (F123, Slot(SUB, 1), (1,)),
        (F123, Slot(SUB, 2), (1, 1)),
    ):
        e = make_monomial(shape, [(slot, w)])
        out = ext_groups_best(e, e)
        assert out.grade == EXACT
        assert out.degrees() == [0]
        assert out.character(0) == CharacterSum(shape.n, {pad((), shape.n): 1})


def test_pushforward_grassmann_examples():
    # one relative Grassmann pushforward is cohomology_graded on Gr(2,3)
    gr23 = FlagShape(3, (2,))

    def push(alpha, beta):
        return cohomology_graded(_block_monomial(gr23, (alpha, beta)), gr23)

    assert push((0, 0), (0,)) == (0, (0, 0, 0))
    # W_(n-2) pushed down one step at n=3: chi = (0,-1,0) + rho has a repeat
    assert push((1, 0), (0,)) is None
    # Sigma^(1,0)(W) (x) (W_top/W): chi = (0,-1,-1), degree 0, Lambda^2
    assert push((1, 0), (1,)) == (0, (1, 1, 0))
    # the second block of Gr(2,4) has rank 2, not 1
    with pytest.raises(ValueError, match="wrong length"):
        SchurMonomial(FlagShape(4, (2,)), (((0, 1), (1, 0)), ((1, 2), (0,))))
    with pytest.raises(ValueError, match=r"wrong length for quot\(1\)"):
        make_monomial(FlagShape(4, (2,)), [(Slot(SUB, 1), (1, 0)), (Slot(QUOT, 1), (0,))])


def test_one_shot_bound_and_stepwise_refinement():
    # Ext^*(W_2, W_1) on F(1,2;3): one-shot is only a bound, stepwise vanishes
    w1 = make_monomial(F123, [(Slot(SUB, 1), (1,))])
    w2 = make_monomial(F123, [(Slot(SUB, 2), (1, 0))])
    e = tensor(dual(w2), w1)
    one_shot = cohomology(e)
    assert one_shot.grade == E1_BOUND
    assert one_shot.degrees() == [0, 1]
    assert not one_shot.euler
    refined = cohomology_stepwise(e)
    assert refined.grade == EXACT
    assert refined.is_zero()
    best = ext_groups_best(w2, w1)
    assert best.grade == EXACT and best.is_zero()


def test_stepwise_agrees_on_exact_cases():
    exprs = [
        trivial(F123),
        make_monomial(F123, [(Slot(SUB, 1), (1,)), (Slot(SUB, 2), (1, 0))]),
        make_monomial(F123, [(Slot(QUOT, 1), (2, 1))]),
        make_monomial(GR24, [(Slot(SUB, 1), (2, 1)), (Slot(QUOT, 1), (0, -1))]),
        make_monomial(FlagShape(4, (1, 2, 3)), [(Slot(SUB, 2), (1, 1))]),
    ]
    for e in exprs:
        a = cohomology(e)
        b = cohomology_stepwise(e)
        assert a.euler == b.euler
        if a.grade == EXACT and b.grade == EXACT:
            assert a.by_degree == b.by_degree


def test_euler_characteristic():
    assert euler_characteristic(trivial(GR24)) == CharacterSum(
        4, {(0, 0, 0, 0): 1}
    )
    # Case-1 bundle: chi = -Lambda^3
    e = make_monomial(
        GR24, [(Slot(QUOT, 1), (1, 0)), (Slot(SUB, 1), (2, 0))]
    )
    assert euler_characteristic(e) == CharacterSum(4, {(1, 1, 1, 0): -1})


def test_degree_bound():
    exprs = [
        make_monomial(GR24, [(Slot(SUB, 1), (2, 2)), (Slot(QUOT, 1), (-2, -2))]),
        make_monomial(F123, [(Slot(SUB, 1), (-2,)), (Slot(QUOT, 2), (2,))]),
    ]
    for e in exprs:
        out = cohomology(e)
        assert all(d <= e.shape.dimension() for d in out.degrees())


def test_minimal_base_invariance(monkeypatch):
    e = make_monomial(F123, [(Slot(SUB, 2), (2, 1))])
    reduced = cohomology(e)
    monkeypatch.setattr(engine, "minimal_base", lambda e: (e.shape, e))
    full = cohomology(e)
    assert full.grade == reduced.grade
    assert full.by_degree == reduced.by_degree
    assert full.euler == reduced.euler


def test_sigma_preserves_outcomes():
    a = make_monomial(F123, [(Slot(SUB, 2), (1, 0))])
    b = make_monomial(F123, [(Slot(SUB, 1), (1,)), (Slot(SUB, 2), (1, 1))])
    plain = ext_groups_best(a, b)
    twisted = ext_groups_best(sigma_pullback(a), sigma_pullback(b))
    assert plain.by_degree == twisted.by_degree
    assert plain.grade == twisted.grade


def test_euler_only_outcome():
    euler = euler_characteristic(trivial(GR24))
    out = CohomologyOutcome.euler_only(euler)
    assert out.grade == "euler_only"
    assert out.euler == euler and not out.by_degree


def test_one_memo_never_mixes_shapes():
    # O -> O(1) on P^1 and on P^2 are the same factor tuples, Sigma^(-1)(W_1),
    # on different shapes; a table shared by both must keep them apart
    table = engine._Table()
    for n in (2, 3, 2, 3):
        o, o1 = line_bundle(n, 0), line_bundle(n, 1)
        outcome = ext_groups_best(o, o1, table)
        assert outcome.to_json() == cohomology_stepwise(tensor(dual(o), o1)).to_json()
        assert outcome.rank == n and outcome.dimension(0) == n
    assert len(table.pairs) == 2
    # Quot(1) has rank 3 on F(1,2;4) and on F(1,3;4), over blocks of ranks
    # (1, 2) and (2, 1): the stepwise route splits the same weight there
    # into different pieces, so one table must keep the two splits apart
    for dims in ((1, 2), (1, 3), (1, 2), (1, 3)):
        shape = FlagShape(4, dims)
        o = trivial(shape)
        b = make_monomial(shape, [(Slot(QUOT, 1), (2, 1, 0)), (Slot(QUOT, 2), (-1,) * (4 - dims[1]))])
        outcome = ext_groups_best(o, b, table)
        assert outcome.to_json() == cohomology_stepwise(b).to_json()
    assert len(table.splits) == 2


# One-shot outcomes recorded before the fold moved to flat weight vectors;
# the JSON must not move with the representation of a graded piece.
PINNED_ONE_SHOT = [
    # on the rank-3 block of F(1,4;5), adj (x) adj holds adj twice
    (
        FlagShape(5, (1, 4)),
        [(Slot(BLOCK, 2), (1, 0, -1)), (Slot(SUB, 2), (1, 0, 0, -1))],
        {
            "by_degree": {
                "0": [{"mult": 1, "weight": [0, 0, 0, 0, 0]}],
                "1": [
                    {"mult": 1, "weight": [1, 1, 0, -1, -1]},
                    {"mult": 1, "weight": [0, 0, 0, 0, 0]},
                ],
                "2": [{"mult": 1, "weight": [1, 1, 0, -1, -1]}],
            },
            "euler": [],
            "grade": "e1bound",
        },
    ),
    # a full flag of F(1,2,3;4), negative entries on every factor
    (
        FlagShape(4, (1, 2, 3)),
        [(Slot(SUB, 3), (1, 0, -2)), (Slot(QUOT, 1), (0, -1, -1)), (Slot(BLOCK, 2), (-2,))],
        {
            "by_degree": {
                "0": [
                    {"mult": 1, "weight": [0, -1, -2, -2]},
                    {"mult": 1, "weight": [-1, -1, -1, -2]},
                ],
                "1": [
                    {"mult": 1, "weight": [0, 0, -1, -4]},
                    {"mult": 1, "weight": [0, 0, -2, -3]},
                    {"mult": 2, "weight": [0, -1, -1, -3]},
                    {"mult": 2, "weight": [0, -1, -2, -2]},
                    {"mult": 4, "weight": [-1, -1, -1, -2]},
                ],
                "2": [
                    {"mult": 1, "weight": [0, 0, -1, -4]},
                    {"mult": 1, "weight": [0, 0, -2, -3]},
                    {"mult": 1, "weight": [0, -1, -1, -3]},
                    {"mult": 1, "weight": [0, -1, -2, -2]},
                    {"mult": 2, "weight": [-1, -1, -1, -2]},
                ],
            },
            "euler": [
                {"mult": -1, "weight": [0, -1, -1, -3]},
                {"mult": -1, "weight": [-1, -1, -1, -2]},
            ],
            "grade": "e1bound",
        },
    ),
]


@pytest.mark.parametrize("shape, factors, expected", PINNED_ONE_SHOT)
def test_one_shot_outcome_pinned(shape, factors, expected):
    e = make_monomial(shape, factors)
    assert len(e.terms) == 1
    assert cohomology(e).to_json() == expected

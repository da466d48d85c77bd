import itertools
import random
from math import comb

import pytest
from test_golden import _workloads

from flagcoh import toric
from flagcoh.toric import (
    CONFIRMED,
    REFUTED,
    TowerSpec,
    check_grid_collection,
    galois_orbit_check,
    line_bundle_cohomology,
)
from flagcoh.weights import InputError


def tower(data):
    return TowerSpec.from_json(data)


P1xP1 = tower(
    {"base_dim": 0, "levels": [{"bundles": [[[], []], [[], []]], "perms": [[1, 0]]}]}
)
P1xP1_OVER_BASE = tower(
    {"base_dim": 1, "levels": [{"bundles": [[[0], [0]]], "perms": []}]}
)
P2 = tower({"base_dim": 2, "levels": []})
F1 = tower({"base_dim": 1, "levels": [{"bundles": [[[0], [1]]], "perms": [[0]]}]})
F2 = tower({"base_dim": 1, "levels": [{"bundles": [[[0], [2]]], "perms": [[0]]}]})
F3 = tower({"base_dim": 1, "levels": [{"bundles": [[[0], [3]]], "perms": []}]})
P1CUBE = tower(
    {
        "base_dim": 0,
        "levels": [
            {
                "bundles": [[[], []], [[], []], [[], []]],
                "perms": [[1, 0, 2], [1, 2, 0]],
            }
        ],
    }
)


def test_tower_validation():
    with pytest.raises(ValueError):
        tower({"base_dim": 1, "levels": [{"bundles": [[[0], [-1]]], "perms": []}]})
    with pytest.raises(ValueError):
        tower({"base_dim": 1, "levels": [{"bundles": [[[0], [0, 1]]], "perms": []}]})
    with pytest.raises(ValueError):
        tower({"base_dim": 1, "levels": [{"bundles": [[[0]]], "perms": [[1, 0]]}]})
    with pytest.raises(ValueError):
        tower({"base_dim": -1, "levels": []})


def _pn_cohomology(r, t):
    """H^*(P^r, O(t)), written out independently of the engine."""
    if r == 0:
        return {0: 1}
    if t >= 0:
        return {0: comb(t + r, r)}
    if t <= -r - 1:
        return {r: comb(-t - 1, r)}
    return {}


def _kunneth(dims, d):
    """H^*(P^dims[0] x P^dims[1] x ..., O(d)) as a product of the factors."""
    out = {0: 1}
    for r, t in zip(dims, d):
        step = {}
        for p, x in out.items():
            for q, y in _pn_cohomology(r, t).items():
                step[p + q] = step.get(p + q, 0) + x * y
        out = step
    return {deg: dim for deg, dim in sorted(out.items()) if dim}


def test_trivial_bundle_oracle():
    # P(O^(r+1)) over a point reproduces P^r line-bundle cohomology
    for r in (1, 2, 3, 4):
        tw = tower(
            {"base_dim": 0, "levels": [{"bundles": [[[] for _ in range(r + 1)]], "perms": []}]}
        )
        for t in range(-2 * r, 2 * r + 1):
            got = line_bundle_cohomology(tw, (t,))
            if t >= 0:
                assert got == {0: comb(t + r, r)}
            elif t >= -r:
                assert got == {}
            else:
                assert got == {r: comb(-t - 1, r)}
    # multi-level, multi-factor towers of trivial bundles are products of
    # projective spaces
    cases = [
        (1, [(2, 1)]),  # P^1 x P^1
        (2, [(3, 2)]),  # P^2 x P^2 x P^2
        (0, [(2, 2), (3, 1)]),  # P^1 x P^1 x P^2
        (1, [(2, 2), (3, 1), (2, 1)]),  # P^1 x (P^1)^2 x P^2 x P^1
    ]
    for base_dim, levels in cases:
        below = 1 if base_dim > 0 else 0
        data = {"base_dim": base_dim, "levels": []}
        dims = [base_dim] if base_dim > 0 else []
        for rank, m in levels:
            summand = [0] * below
            data["levels"].append(
                {"bundles": [[summand] * rank for _ in range(m)], "perms": []}
            )
            dims.extend([rank - 1] * m)
            below += m
        tw = tower(data)
        axes = [range(-r - 2, r + 2) for r in dims]
        for d in itertools.product(*axes):
            assert line_bundle_cohomology(tw, d) == _kunneth(dims, d), (data, d)


def test_line_bundle_multidegree_is_strict():
    assert line_bundle_cohomology(F3, (1, 1)) == {0: 7}
    for bad in [(1.5, True), (1.0, 1), (1, True), (False, 0), ("1", 1)]:
        with pytest.raises(InputError):
            line_bundle_cohomology(F3, bad)


def test_p1xp1_cohomology():
    assert line_bundle_cohomology(P1xP1, (0, 0)) == {0: 1}
    assert line_bundle_cohomology(P1xP1, (-1, 0)) == {}
    assert line_bundle_cohomology(P1xP1, (-2, -2)) == {2: 1}
    assert line_bundle_cohomology(P1xP1, (2, 3)) == {0: 12}
    assert line_bundle_cohomology(P1xP1, (-2, 3)) == {1: 4}
    # the base-P^1 representation agrees
    for d in [(0, 0), (-2, -2), (2, 3), (-2, 3)]:
        assert line_bundle_cohomology(P1xP1_OVER_BASE, d) == line_bundle_cohomology(
            P1xP1, d
        )


def test_euler_multiplicativity():
    for a in range(-3, 4):
        for b in range(-3, 4):
            coh = line_bundle_cohomology(P1xP1, (a, b))
            chi = sum((-1) ** d * m for d, m in coh.items())
            assert chi == (a + 1) * (b + 1)


def test_grid_sizes():
    assert len(P2.grid()) == 3
    assert len(F1.grid()) == 4
    assert len(P1xP1.grid()) == 4
    assert len(P1CUBE.grid()) == 8


def test_grid_collections_confirmed():
    for tw in (P2, F1, F2, P1xP1, P1xP1_OVER_BASE, P1CUBE):
        report = check_grid_collection(tw)
        assert report.status == CONFIRMED, report.failures
        assert report.exit_code == 0


def test_two_level_tower_confirmed():
    tw = tower(
        {
            "base_dim": 1,
            "levels": [
                {"bundles": [[[0], [1]]], "perms": []},
                {"bundles": [[[0, 0], [1, 1]]], "perms": []},
            ],
        }
    )
    assert line_bundle_cohomology(tw, (0, 0, 0)) == {0: 1}
    report = check_grid_collection(tw)
    assert report.status == CONFIRMED


def _reference_failures(tw, grid):
    """The failures of the pair loop over ``grid``, each difference
    resolved afresh by the reference pushforward."""
    out = []
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            if i == j:
                continue
            diff = tuple(y - x for x, y in zip(a, b))
            coh = _reference_line_bundle_cohomology(tw, diff)
            bad = {deg: dim for deg, dim in coh.items() if i > j or deg > 0}
            if bad:
                out.append({"i": i, "j": j, "difference": list(diff), "cohomology": bad})
    return out


def test_shuffled_grid_refutes(monkeypatch):
    # the wrong order is detected: O, O(-1) in that order has a backward Hom
    coh = line_bundle_cohomology(P2, (1,))
    assert coh == {0: 3}
    report = check_grid_collection(P2)
    assert report.status == CONFIRMED
    lex_grid = TowerSpec.grid
    monkeypatch.setattr(TowerSpec, "grid", lambda self: list(reversed(lex_grid(self))))
    for tw in (P2, F1):
        bad = check_grid_collection(tw)
        assert bad.grid == list(reversed(lex_grid(tw)))
        assert bad.status == REFUTED and bad.exit_code == 1
        assert bad.failures and bad.failures == _reference_failures(tw, bad.grid), tw


def test_higher_ext_refutes(monkeypatch):
    # O, O(-3) on P^2 is not exceptional: Ext^2(O, O(-3)) = H^2(O(-3)) = k,
    # a failure above the diagonal, so the grid check's higher-vanishing
    # branch is reached; the grid stays inside the box of its ranges
    monkeypatch.setattr(TowerSpec, "grid", lambda self: [(0,), (-3,)])
    monkeypatch.setattr(TowerSpec, "grid_ranges", lambda self: [3])
    report = check_grid_collection(P2)
    assert report.status == REFUTED
    assert report.failures == _reference_failures(P2, report.grid)
    assert report.failures[0] == {"i": 0, "j": 1, "difference": [-3], "cohomology": {2: 1}}
    # H^*(F_2, O(-2, 1)) = k in degrees 0 and 1: the pair fails on its top
    # degree although its lowest is 0, and only degree 1 is reported
    monkeypatch.setattr(TowerSpec, "grid", lambda self: [(0, -1), (-2, 0)])
    monkeypatch.setattr(TowerSpec, "grid_ranges", lambda self: [2, 1])
    assert line_bundle_cohomology(F2, (-2, 1)) == {0: 1, 1: 1}
    report = check_grid_collection(F2)
    assert report.failures == _reference_failures(F2, report.grid)
    assert report.failures[0] == {"i": 0, "j": 1, "difference": [-2, 1], "cohomology": {1: 1}}


def test_orbit_swap():
    result = galois_orbit_check(P1xP1)
    assert result["orbit_closed"]
    classes = [sorted(map(tuple, orb)) for orb in result["orbit_classes"]]
    assert [(-1, 0), (0, -1)] in classes
    assert [(-1, -1)] in classes and [(0, 0)] in classes


def test_orbit_trivial_group():
    result = galois_orbit_check(P1xP1_OVER_BASE)
    assert result["orbit_closed"]
    assert all(len(orb) == 1 for orb in result["orbit_classes"])


def test_orbit_s3():
    result = galois_orbit_check(P1CUBE)
    assert result["orbit_closed"]
    classes = {tuple(sorted(map(tuple, orb))) for orb in result["orbit_classes"]}
    assert ((-1, -1, 0), (-1, 0, -1), (0, -1, -1)) in classes
    assert len(result["orbit_classes"]) == 4  # multisets of {-1, 0}^3


def test_orbit_generator_validation():
    bad = tower(
        {
            "base_dim": 1,
            "levels": [
                {"bundles": [[[0], [0]], [[0], [1]]], "perms": [[1, 0]]}
            ],
        }
    )
    with pytest.raises(ValueError):
        galois_orbit_check(bad)


def test_tower_json_roundtrip():
    data = F1.to_json()
    assert TowerSpec.from_json(data) == F1


def _reference_push_factor(terms, bundle, t):
    """The list form the aggregated pushforward replaced: one term per
    multiset of summands, kept as a reference."""
    e = len(bundle)
    out = []
    if t >= 0:
        picks = list(itertools.combinations_with_replacement(range(e), t))
        for md, cd, mult in terms:
            for pick in picks:
                new = list(md)
                for k in pick:
                    for c, x in enumerate(bundle[k]):
                        new[c] += x
                out.append((tuple(new), cd, mult))
        return out
    if t > -e:
        return []
    det = [sum(bundle[k][c] for k in range(e)) for c in range(len(bundle[0]))]
    picks = list(itertools.combinations_with_replacement(range(e), -t - e))
    for md, cd, mult in terms:
        for pick in picks:
            new = [x - d for x, d in zip(md, det)]
            for k in pick:
                for c, x in enumerate(bundle[k]):
                    new[c] -= x
            out.append((tuple(new), cd + e - 1, mult))
    return out


def _reference_line_bundle_cohomology(tower, d):
    terms = [(tuple(d), 0, 1)]
    hi = tower.picard_rank
    for level in reversed(tower.levels):
        lo = hi - level.m
        new_terms = []
        for md, cd, mult in terms:
            pieces = [(md[:lo], cd, mult)]
            for k in range(level.m):
                pieces = _reference_push_factor(pieces, level.bundles[k], md[lo + k])
                if not pieces:
                    break
            new_terms.extend(pieces)
        terms = new_terms
        hi = lo
    out = {}
    for md, cd, mult in terms:
        base = _pn_cohomology(tower.base_dim, md[0] if md else 0)
        for deg, dim in base.items():
            out[cd + deg] = out.get(cd + deg, 0) + mult * dim
    return {deg: dim for deg, dim in sorted(out.items()) if dim}


def _perfbench_towers():
    workloads = _workloads()
    keys = [str(k) for k in range(workloads.TORIC_VARIANTS)] + ["smoke"]
    return [
        TowerSpec.from_json(workloads._toric(key).files["tower.json"]) for key in keys
    ]


def _differences(tw):
    """Every difference b - a of two grid points: the box prod [-r, r]."""
    return itertools.product(*(range(-r, r + 1) for r in tw.grid_ranges()))


def test_aggregated_pushforward_matches_list_form():
    towers = _perfbench_towers() + [P1xP1, P1xP1_OVER_BASE, P2, F1, F2, F3, P1CUBE]
    assert len(towers) == 16
    for tw in towers:
        for d in _differences(tw):
            assert line_bundle_cohomology(tw, d) == _reference_line_bundle_cohomology(
                tw, d
            ), (tw, d)


def test_grid_check_computes_each_difference_once(monkeypatch):
    resolved, pushed = [], []
    top, push_level = toric._CohomologyTable.top, toric._push_level

    def counting_top(table, md):
        resolved.append(md)
        return top(table, md)

    def counting_push(level, twists, width):
        pushed.append((width, twists))
        return push_level(level, twists, width)

    monkeypatch.setattr(toric._CohomologyTable, "top", counting_top)
    monkeypatch.setattr(toric, "_push_level", counting_push)
    towers = _perfbench_towers()
    for tw in (towers[-1], towers[0]):  # the smoke tower and variant 0
        resolved.clear()
        pushed.clear()
        report = check_grid_collection(tw)
        assert report.status == CONFIRMED
        # every nonzero difference, each resolved once
        assert sorted(resolved) == sorted(d for d in _differences(tw) if any(d))
        # each level pushed once per distinct twist tuple; the top level
        # sees every twist tuple of its box
        assert len(pushed) == len(set(pushed))
        top_width = tw.picard_rank - tw.levels[-1].m
        top_ranges = tw.grid_ranges()[top_width:]
        top_twists = {t for w, t in pushed if w == top_width}
        assert top_twists == set(itertools.product(*(range(-r, r + 1) for r in top_ranges)))


def test_shared_table_answers_do_not_depend_on_query_order():
    towers = _perfbench_towers() + [P1xP1, P1xP1_OVER_BASE, P2, F1, F2, F3, P1CUBE]
    assert len(towers) == 16
    rng = random.Random(20261019)
    for tw in towers:
        table = toric._CohomologyTable(tw)
        diffs = list(_differences(tw))
        rng.shuffle(diffs)
        for d in diffs:
            assert dict(table.top(d)) == _reference_line_bundle_cohomology(tw, d), (tw, d)


def _reference_group_elements(tw):
    """The whole per-level permutation group, one permutation per level,
    enumerated element by element: the form the generator walk replaced,
    kept as a reference."""
    identity = tuple(tuple(range(level.m)) for level in tw.levels)
    gens = []
    for li, level in enumerate(tw.levels):
        for p in level.perms:
            g = list(identity)
            g[li] = tuple(p)
            gens.append(tuple(g))
    elements = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple(tuple(cp[gp[k]] for k in range(len(gp))) for cp, gp in zip(cur, g))
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    return sorted(elements)


def _reference_apply(tw, g, d):
    out = list(d)
    lo = tw.base_picard
    for level, perm in zip(tw.levels, g):
        block = out[lo : lo + level.m]
        out[lo : lo + level.m] = [block[perm[k]] for k in range(level.m)]
        lo += level.m
    return tuple(out)


def _reference_orbits(tw):
    """None if some group element breaks the level structure, else the
    orbit classes of the grid under every group element."""
    elements = _reference_group_elements(tw)
    for g in elements:
        for level, perm in zip(tw.levels, g):
            for k in range(level.m):
                src = sorted(
                    _reference_apply(tw, g, md + (0,) * (tw.picard_rank - len(md)))[: len(md)]
                    for md in level.bundles[k]
                )
                if src != sorted(level.bundles[perm[k]]):
                    return None
    seen = set()
    classes = []
    for d in tw.grid():
        if d not in seen:
            orb = sorted({_reference_apply(tw, g, d) for g in elements})
            seen.update(orb)
            classes.append([list(x) for x in orb])
    return classes


def _orbits(tw):
    try:
        return galois_orbit_check(tw)["orbit_classes"]
    except InputError:
        return None


def _random_tower(rng):
    """A tower with an S3 level, then one or two levels whose multidegrees
    it moves; each level is symmetric or, at random, broken."""

    def md(width):
        return tuple(rng.randint(0, 2) for _ in range(width))

    base_dim = rng.choice([0, 1, 2])
    head = 1 if base_dim else 0  # coordinates below the S3 level
    rank = rng.choice([1, 2])
    bundles = [tuple(md(head) for _ in range(rank))] * 3
    if rng.random() < 0.3:
        bundles[rng.randrange(3)] = tuple(md(head) for _ in range(rank))
    levels = [toric.Level(tuple(bundles), ((1, 0, 2), (1, 2, 0)))]
    tail = 0  # coordinates between the S3 level and the current one
    for _ in range(rng.choice([1, 1, 2])):
        m, rank = rng.choice([1, 2]), rng.choice([2, 3])
        bundles = []
        for _ in range(m):
            if rank == 3 and rng.random() < 0.5:
                # an S3 orbit of summands is invariant as a multiset
                h, t = md(head), md(tail)
                summands = [h + e + t for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            else:
                summands = [md(head) + (x,) * 3 + md(tail) for x in md(rank)]
            if rng.random() < 0.25:
                summands[rng.randrange(rank)] = md(head + 3 + tail)
            bundles.append(tuple(summands))
        if m == 2 and rng.random() < 0.5:
            bundles[1] = bundles[0]
        perms = ((1, 0),) if m == 2 and rng.random() < 0.6 else ()
        levels.append(toric.Level(tuple(bundles), perms))
        tail += m
    return TowerSpec(base_dim, tuple(levels))


def test_generator_orbits_match_whole_group():
    towers = _perfbench_towers() + [P1xP1, P1xP1_OVER_BASE, P2, F1, F2, F3, P1CUBE]
    assert len(towers) == 16
    for tw in towers:
        expected = _reference_orbits(tw)
        assert expected is not None and _orbits(tw) == expected, tw
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(400):
        tw = _random_tower(rng)
        expected = _reference_orbits(tw)
        assert _orbits(tw) == expected, tw
        verdicts.append(expected is not None)
    assert 50 < sum(verdicts) < 350  # both valid and invalid towers occur


def test_hirzebruch_top_degree_carries_the_determinant():
    # on P(O + O(c)) over P^1, R^1 p_* O(t) = Sym^(-t-2)(E^v) (x) det(E)^v
    # for t <= -2, with det(E)^v = O(-c): H^k(O(a, t)) is the sum of
    # H^(k-1)(P^1, O(a - c - j c)) over j = 0 .. -t-2
    for c, tw in ((1, F1), (2, F2), (3, F3)):
        for a in range(-4, 5):
            for t in (-2, -3, -4):
                expected: dict = {}
                for j in range(-t - 1):
                    for k, dim in toric._proj_cohomology(1, a - c - j * c).items():
                        expected[k + 1] = expected.get(k + 1, 0) + dim
                assert line_bundle_cohomology(tw, (a, t)) == expected, (c, a, t)

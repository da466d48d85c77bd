import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcoh
import flagcoh.cohomology as engine
from flagcoh import cli, flagvar, kapranov, twists
from flagcoh.cohomology import CohomologyOutcome
from flagcoh.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, main
from flagcoh.flagvar import SUB, BundleExpr, FlagShape, Slot, make_monomial
from flagcoh.kapranov import Collection, check_strong_exceptional, enumerate_collection
from flagcoh.schur import CharacterSum
from flagcoh.toric import TowerSpec, check_grid_collection
from flagcoh.twists import check_T2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_bbw_text(capsys):
    code, out, _ = run(capsys, "bbw", "--n", "4", "--weight", "0,-2,0,-1")
    assert code == 0
    assert "degree 1" in out
    assert "S^(1, 1, 1, 0)(V)" in out


def test_bbw_json(capsys):
    code, data = run_json(capsys, "bbw", "--n", "4", "--weight", "0,-2,0,-1")
    assert code == 0
    assert data == {
        "singular": False,
        "degree": 1,
        "dominant": [0, -1, -1, -1],
        "cohomology_weight": [1, 1, 1, 0],
    }


def test_bbw_singular(capsys):
    code, data = run_json(capsys, "bbw", "--n", "3", "--weight=-1,0,0")
    assert code == 0 and data == {"singular": True}


def test_bbw_bad_weight_length(capsys):
    code, _, err = run(capsys, "bbw", "--n", "3", "--weight", "0,1")
    assert code == EX_DATAERR
    assert "error" in err


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == EX_USAGE
    assert run(capsys, "bbw")[0] == EX_USAGE
    assert run(capsys)[0] == EX_USAGE


def test_cohom(tmp_path, capsys):
    expr = {
        "flag": {"n": 4, "dims": [2]},
        "terms": [
            {
                "mult": 1,
                "factors": [
                    {"slot": "sub", "index": 1, "weight": [2, 2]},
                    {"slot": "quot", "index": 1, "weight": [-2, -2]},
                ],
            }
        ],
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    code, data = run_json(capsys, "cohom", "--expr", str(path))
    assert code == 0
    assert data["grade"] == "exact"
    assert data["by_degree"] == {"4": [{"weight": [0, 0, 0, 0], "mult": 1}]}
    code, data = run_json(capsys, "cohom", "--expr", str(path), "--euler-only")
    assert data["grade"] == "euler_only" and data["by_degree"] == {}


def _cohom_expr(mult=1, weight=(2, 2), n=4):
    return {
        "flag": {"n": n, "dims": [2]},
        "terms": [
            {
                "mult": mult,
                "factors": [{"slot": "sub", "index": 1, "weight": list(weight)}],
            }
        ],
    }


@pytest.mark.parametrize(
    "expr",
    [
        _cohom_expr(mult=True),
        _cohom_expr(mult=1.0),
        _cohom_expr(weight=(1.5, 0)),
        _cohom_expr(weight=("1", 0)),
        _cohom_expr(n=4.0),
    ],
)
def test_cohom_rejects_non_integers(tmp_path, capsys, expr):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    code, out, err = run(capsys, "cohom", "--expr", str(path))
    assert code == EX_DATAERR and out == ""
    assert "input error" in err


@pytest.mark.parametrize("weight", [(2,), (0,)])
def test_cohom_rejects_short_weights(tmp_path, capsys, weight):
    # Sub(1) on Gr(2,4) has rank 2; a shorter weight is not padded
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr(weight=weight)))
    code, out, err = run(capsys, "cohom", "--expr", str(path))
    assert code == EX_DATAERR and out == ""
    assert "wrong length" in err


def test_toric_rejects_non_integers(tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"base_dim": 1, "levels": [{"bundles": [[[0], [0.5]]]}]}))
    code, _, _ = run(capsys, "toric-check", "--tower", str(path))
    assert code == EX_DATAERR


def _edit_expr(edit):
    expr = _cohom_expr()
    edit(expr)
    return expr


@pytest.mark.parametrize(
    "expr, message",
    [
        (_edit_expr(lambda e: e.update(comment="x")), "unknown key 'comment' in a bundle expression"),
        (_edit_expr(lambda e: e["flag"].update(name="Gr")), "unknown key 'name' in a flag"),
        (_edit_expr(lambda e: e["terms"][0].update(note=1)), "unknown key 'note' in a term"),
        (
            _edit_expr(lambda e: e["terms"][0]["factors"][0].update(mult=3)),
            "unknown key 'mult' in a factor",
        ),
        (_edit_expr(lambda e: e["flag"].update(dims={})), "dims must be a JSON list"),
        (_edit_expr(lambda e: e.update(terms={})), "terms must be a JSON list"),
        (_edit_expr(lambda e: e["terms"][0].update(factors={})), "factors must be a JSON list"),
        (
            _edit_expr(lambda e: e["terms"][0]["factors"][0].update(weight={})),
            "a weight must be a JSON list",
        ),
        (_edit_expr(lambda e: e.update(flag=[4, [2]])), "a flag must be a JSON object"),
        (_edit_expr(lambda e: e["terms"][0].update(factors=[[]])), "a factor must be a JSON object"),
        (
            _edit_expr(lambda e: e["terms"][0]["factors"][0].pop("weight")),
            "missing key 'weight' in a factor",
        ),
    ],
)
def test_cohom_rejects_malformed_expressions(tmp_path, capsys, expr, message):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    code, out, err = run(capsys, "cohom", "--expr", str(path))
    assert code == EX_DATAERR and out == ""
    assert message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c.update(memebers=[]), "unknown key 'memebers' in a collection"),
        (lambda c: c.update(members={}), "members must be a JSON list"),
        (lambda c: c["members"][0].update(name="O"), "unknown key 'name' in a bundle expression"),
        (lambda c: c.update(flag={"n": 3, "dims": {}}), "dims must be a JSON list"),
    ],
)
def test_check_strong_rejects_malformed_collections(tmp_path, capsys, edit, message):
    coll = run_json(capsys, "kapranov", "--n", "3", "--dims", "1")[1]
    edit(coll)
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(coll))
    code, out, err = run(capsys, "check-strong", "--collection", str(path))
    assert code == EX_DATAERR and out == ""
    assert message in err


@pytest.mark.parametrize(
    "tower, message",
    [
        ({"base_dim": 1, "levels": [], "extra": 1}, "unknown key 'extra' in a tower"),
        (
            {"base_dim": 1, "levels": [{"bundles": [[[0], [0]], [[0], [0]]], "perm": [[1, 0]]}]},
            "unknown key 'perm' in a level",
        ),
        ({"base_dim": 1, "levels": [{"bundles": [[[0], [1]]], "perms": {}}]}, "perms must be a JSON list"),
        ({"base_dim": 1, "levels": {}}, "levels must be a JSON list"),
        ({"base_dim": 1, "levels": [{"bundles": {}}]}, "bundles must be a JSON list"),
        ({"base_dim": 0, "levels": [{"bundles": [[{}, []]]}]}, "a multidegree must be a JSON list"),
        ({"base_dim": 1, "levels": [{"bundles": [[[0]]], "perms": [{}]}]}, "a permutation must be a JSON list"),
        ({"base_dim": 1, "levels": [[]]}, "a level must be a JSON object"),
    ],
)
def test_toric_rejects_malformed_towers(tmp_path, capsys, tower, message):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, out, err = run(capsys, "toric-check", "--tower", str(path))
    assert code == EX_DATAERR and out == ""
    assert message in err


# every value the mutation walker gives a field: JSON scalars of each type,
# integers around the valid ranks, and lists and objects nested once
MUTANT_VALUES = (
    None, True, False, 1.5, "x", "", -1, 0, 1, 2, 7, [], {}, [1], [[1]], [1, 0], {"a": 1}, [None], ["x"]
)

READERS = {
    "expression": (
        BundleExpr,
        {
            "flag": {"n": 4, "dims": [1, 3]},
            "terms": [
                {
                    "mult": 2,
                    "factors": [
                        {"slot": "sub", "index": 1, "weight": [1]},
                        {"slot": "quot", "index": 1, "weight": [1, 0, -1]},
                    ],
                },
                {
                    "mult": 1,
                    "factors": [
                        {"slot": "block", "index": 2, "weight": [1, 0]},
                        {"slot": "block", "index": 2, "weight": [1, 1]},
                    ],
                },
            ],
        },
    ),
    "collection": (Collection, enumerate_collection(FlagShape(3, (1,))).to_json()),
    "tower": (
        TowerSpec,
        {"base_dim": 1, "levels": [{"bundles": [[[0], [1]], [[0], [1]]], "perms": [[1, 0]]}]},
    ),
}


def _mutants(data):
    """Every copy of the JSON value ``data`` with one field, at any depth
    (the whole value included), set to one of ``MUTANT_VALUES``."""

    def paths(value, path):
        yield path
        if isinstance(value, dict):
            children = value.items()
        else:
            children = enumerate(value) if isinstance(value, list) else ()
        for key, child in children:
            yield from paths(child, path + (key,))

    for path in paths(data, ()):
        for new in MUTANT_VALUES:
            if not path:
                yield new
                continue
            mutant = json.loads(json.dumps(data))
            target = mutant
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = new
            yield mutant


@pytest.mark.parametrize("reader", READERS)
def test_readers_raise_only_value_errors(reader):
    # a reader rejects bad input with a ValueError (InputError is one), so
    # the CLI reports only that as an input error; any other exception
    # raised while reading is an engine fault
    cls, data = READERS[reader]
    cls.from_json(data)
    rejected = 0
    for mutant in _mutants(data):
        try:
            cls.from_json(mutant)
        except ValueError:
            rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("fault", [TypeError, KeyError])
def test_engine_fault_while_reading_is_an_internal_error(tmp_path, capsys, monkeypatch, fault):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))

    def broken(factors):
        raise fault("engine bug")

    monkeypatch.setattr(flagvar, "_merge_factors", broken)
    code, out, err = run(capsys, "cohom", "--expr", str(path))
    assert code == EX_SOFTWARE and out == ""
    assert "flagcoh: internal error: %s" % fault.__name__ in err
    assert "input error" not in err


def test_internal_errors_exit_70(tmp_path, capsys, monkeypatch):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))

    def broken(shape, factors, table):
        raise AssertionError("unconsumed factors at the last level")

    monkeypatch.setattr(engine, "_monomial_pieces_stepwise", broken)
    code, out, err = run(capsys, "cohom", "--expr", str(path), "--stepwise")
    assert code == EX_SOFTWARE and out == ""
    assert "flagcoh: internal error: AssertionError" in err


def _wrong_euler(grade):
    return engine.CohomologyOutcome(4, grade, {0: CharacterSum(4, {(0, 0, 0, 0): 7})})


COUNTEREXAMPLE_1 = ("counterexample", "--case", "1", "--n", "4", "--dims", "2")


def test_route_disagreement_is_an_internal_error(capsys, monkeypatch):
    # a counterexample reading runs both routes, so it compares their Euler
    # characters; here the stepwise route is replaced by one with a wrong
    # Euler character
    monkeypatch.setattr(twists, "cohomology_stepwise", lambda e: _wrong_euler(engine.E1_BOUND))
    code, out, err = run(capsys, *COUNTEREXAMPLE_1)
    assert code == EX_SOFTWARE and out == ""
    assert "routes disagree" in err


def test_one_shot_route_disagreement_is_an_internal_error(capsys, monkeypatch):
    # the same reading with the one-shot route replaced instead
    monkeypatch.setattr(twists, "cohomology", lambda e: _wrong_euler(engine.EXACT))
    code, out, err = run(capsys, *COUNTEREXAMPLE_1)
    assert code == EX_SOFTWARE and out == ""
    assert "routes disagree" in err


def test_engine_value_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))

    def broken(shape, factors, table):
        raise ValueError("engine bug")

    monkeypatch.setattr(engine, "_monomial_pieces_stepwise", broken)
    code, out, err = run(capsys, "cohom", "--expr", str(path), "--stepwise")
    assert code == EX_SOFTWARE and out == ""
    assert "flagcoh: internal error: ValueError: engine bug" in err
    assert "input error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bbw", "--n", "0", "--weight", ""],
        ["check-strong", "--n", "3", "--dims", "2,1"],
        ["kapranov", "--n", "3", "--dims", "2,1"],
        ["counterexample", "--case", "1", "--n", "2", "--dims", ""],
        ["counterexample", "--case", "2", "--n", "4", "--dims", "1,2,3"],
        # an empty item in a comma list is rejected, not dropped
        ["bbw", "--n", "3", "--weight", "1,,0,0"],
        ["bbw", "--n", "2", "--weight", "1,0,"],
        ["kapranov", "--n", "3", "--dims", ",1"],
    ],
)
def test_bad_arguments_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EX_DATAERR and out == ""
    assert "flagcoh: input error:" in err


# int() reads each of these as 2 or 10: it drops "_" between digits, a
# plus sign and spaces, and reads the digits of every script
COERCED = ["1_0", "+2", " 2", "2 ", "\u0662", "\uff12"]


@pytest.mark.parametrize("spelling", COERCED)
@pytest.mark.parametrize(
    "argv",
    [
        ["bbw", "--n", "2", "--weight", "{},0"],
        ["kapranov", "--n", "4", "--dims", "1,{}"],
        ["twist-check", "--n", "4", "--dims", "{},3"],
        ["bbw", "--n", "{}", "--weight", "1,0"],
        ["kapranov", "--n", "{}", "--dims", "1"],
        ["check-strong", "--n", "{}", "--dims", "1"],
        ["twist-check", "--n", "{}", "--dims", "1"],
        ["counterexample", "--case", "1", "--n", "{}", "--dims", "1"],
        ["counterexample", "--case", "{}", "--n", "4", "--dims", "2"],
    ],
)
def test_integers_are_ascii_digits_never_coerced(capsys, spelling, argv):
    # a bad list item is an input error, a bad flag value a usage error
    code, out, err = run(capsys, *(arg.format(spelling) for arg in argv))
    assert out == ""
    if "{}" in argv:
        assert code == EX_USAGE and "invalid integer value: %r" % spelling in err
    else:
        assert code == EX_DATAERR and "expected comma-separated integers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohom", "--expr", "{expr}", "--stepwise", "--euler-only"],
        ["check-strong", "--collection", "{collection}", "--n", "3"],
        ["check-strong", "--collection", "{collection}", "--dims", "1"],
        ["check-strong", "--collection", "{collection}", "--n", "3", "--dims", "1"],
        ["check-strong", "--n", "3"],
        ["check-strong", "--dims", "1"],
        ["check-strong"],  # no input at all
    ],
)
def test_conflicting_flags_are_usage_errors(tmp_path, capsys, argv):
    # the files are valid, so only the flags are at fault
    _code, collection = run_json(capsys, "kapranov", "--n", "3", "--dims", "1")
    (tmp_path / "collection").write_text(json.dumps(collection))
    (tmp_path / "expr").write_text(json.dumps(_cohom_expr()))
    argv = [arg.format(expr=tmp_path / "expr", collection=tmp_path / "collection") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == EX_USAGE and out == ""
    assert err.startswith("usage: flagcoh %s" % argv[0])
    assert "input error" not in err


def test_collection_of_another_shape_is_an_input_error(capsys, tmp_path):
    code, coll = run_json(capsys, "kapranov", "--n", "3", "--dims", "1")
    coll["flag"] = {"n": 3, "dims": [2]}
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(coll))
    code, out, err = run(capsys, "check-strong", "--collection", str(path))
    assert code == EX_DATAERR and out == ""
    assert "flagcoh: input error: member shape mismatch" in err


def test_only_the_requested_format_is_rendered(tmp_path, capsys, monkeypatch):
    def unwanted(*args):
        raise AssertionError("rendered a format nobody asked for")

    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))
    with monkeypatch.context() as m:
        m.setattr(cli, "_outcome_lines", unwanted)
        code, data = run_json(capsys, "cohom", "--expr", str(path))
    assert code == 0 and data["grade"] == "exact"
    with monkeypatch.context() as m:
        m.setattr(kapranov.PairReport, "to_json", unwanted)
        code, out, err = run(capsys, "check-strong", "--n", "3", "--dims", "1")
    assert (code, out, err) == (0, "overall: confirmed\n", "")


def test_unsorted_merged_weight_is_an_input_error(tmp_path, capsys):
    # two weights on Sub(1): the merge by Littlewood-Richardson checks both
    for weights in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        expr = _cohom_expr()
        expr["terms"][0]["factors"] = [
            {"slot": "sub", "index": 1, "weight": w} for w in weights
        ]
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(expr))
        code, out, err = run(capsys, "cohom", "--expr", str(path))
        assert code == EX_DATAERR and out == ""
        assert "flagcoh: input error: weight (0, 1) is not weakly decreasing" in err


def test_unsorted_lone_weight_is_an_input_error_on_every_path(tmp_path, capsys):
    # a weight alone on its interval is merged with nothing, so it is the
    # monomial built from the input that checks it, on every reader
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    expr = _cohom_expr(weight=(0, 1))
    bad.write_text(json.dumps(expr))
    good.write_text(json.dumps(_cohom_expr()))
    collection = tmp_path / "collection.json"
    collection.write_text(json.dumps({"flag": expr["flag"], "members": [expr]}))
    for argv in (
        ["cohom", "--expr", str(bad)],
        ["cohom", "--expr", str(bad), "--stepwise"],
        ["cohom", "--expr", str(bad), "--euler-only"],
        ["ext", "--expr", str(good), "--expr", str(bad)],
        ["check-strong", "--collection", str(collection)],
        ["twist-check", "--n", "4", "--dims", "2", "--sigma", "--expr", str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EX_DATAERR and out == "", argv
        assert "flagcoh: input error: weight (0, 1) not weakly decreasing" in err, argv
    with pytest.raises(ValueError, match="not weakly decreasing"):
        make_monomial(FlagShape(4, (2,)), [(Slot(SUB, 1), (0, 1))])


@pytest.mark.parametrize("kind, index", [("quot", 3), ("block", 0)])
def test_invalid_slot_is_an_input_error(tmp_path, capsys, kind, index):
    # the slot is read to its interval through the shape's table, which
    # names the slot it cannot find
    expr = {
        "flag": {"n": 3, "dims": [1, 2]},
        "terms": [{"mult": 1, "factors": [{"slot": kind, "index": index, "weight": [1]}]}],
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    code, out, err = run(capsys, "cohom", "--expr", str(path))
    assert code == EX_DATAERR and out == ""
    assert (
        "flagcoh: input error: slot %s(%d) invalid on FlagShape(n=3, dims=(1, 2))" % (kind, index)
        in err
    )


def test_ext_shape_mismatch_is_an_input_error(tmp_path, capsys):
    a = _write_member(tmp_path, "a.json", 3, [1], [{"slot": "sub", "index": 1, "weight": [1]}])
    b = _write_member(tmp_path, "b.json", 3, [2], [{"slot": "sub", "index": 1, "weight": [1, 0]}])
    code, _, err = run(capsys, "ext", "--expr", a, "--expr", b)
    assert code == EX_DATAERR and "input error" in err


def test_unpreserved_toric_permutation_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "tower.json"
    tower = {"base_dim": 1, "levels": [{"bundles": [[[0], [1]], [[0], [2]]], "perms": [[1, 0]]}]}
    path.write_text(json.dumps(tower))
    code, _, err = run(capsys, "toric-check", "--tower", str(path))
    assert code == EX_DATAERR and "does not preserve" in err


def test_cohom_missing_file(capsys, tmp_path):
    # an input file that cannot be opened or read is malformed input
    for path, reason in (("/no/such/file.json", "No such file"), (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "cohom", "--expr", str(path))
        assert code == EX_DATAERR and out == ""
        assert err.startswith("flagcoh: input error: [Errno ") and reason in err


def _write_member(tmp_path, name, n, dims, factors):
    data = {
        "flag": {"n": n, "dims": dims},
        "terms": [{"mult": 1, "factors": factors}],
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_ext_stepwise_refinement(tmp_path, capsys):
    a = _write_member(
        tmp_path, "a.json", 3, [1, 2], [{"slot": "sub", "index": 2, "weight": [1, 0]}]
    )
    b = _write_member(
        tmp_path, "b.json", 3, [1, 2], [{"slot": "sub", "index": 1, "weight": [1]}]
    )
    a_expr, b_expr = (BundleExpr.from_json(json.loads(Path(f).read_text())) for f in (a, b))
    assert engine.cohomology(flagvar.tensor(flagvar.dual(a_expr), b_expr)).grade == "e1bound"
    code, data = run_json(capsys, "ext", "--expr", a, "--expr", b)
    assert code == 0 and data["grade"] == "exact" and data["by_degree"] == {}
    # ext prints the outcome the pair checks report for (a, b) and (b, a)
    report = check_strong_exceptional(Collection(a_expr.shape, [a_expr, b_expr]))
    assert data == report.pairs[1].outcome.to_json()
    code, data = run_json(capsys, "ext", "--expr", b, "--expr", a)
    assert code == 0 and data == report.pairs[2].outcome.to_json()
    # there is one route, so no option selects it
    code, out, err = run(capsys, "ext", "--expr", a, "--expr", b, "--best")
    assert code == EX_USAGE and out == "" and "unrecognized arguments: --best" in err


def test_ext_requires_two_exprs(tmp_path, capsys):
    a = _write_member(
        tmp_path, "a.json", 3, [1, 2], [{"slot": "sub", "index": 1, "weight": [1]}]
    )
    code, _, err = run(capsys, "ext", "--expr", a)
    assert code == EX_DATAERR


def test_kapranov_listing(capsys):
    code, data = run_json(capsys, "kapranov", "--n", "3", "--dims", "1,2")
    assert code == 0
    assert len(data["members"]) == 6
    code, out, _ = run(capsys, "kapranov", "--n", "3", "--dims", "1,2")
    assert "6 members" in out


def test_check_strong_exit_codes(capsys, tmp_path):
    code, data = run_json(capsys, "check-strong", "--n", "4", "--dims", "2")
    assert code == 0 and data["overall"] == "confirmed"
    # wrong order via an explicit collection file
    code, coll = run_json(capsys, "kapranov", "--n", "2", "--dims", "1")
    coll["members"].reverse()
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(coll))
    code, data = run_json(capsys, "check-strong", "--collection", str(path))
    assert code == 1 and data["overall"] == "refuted"


def test_twist_check_exit_codes(capsys):
    code, data = run_json(capsys, "twist-check", "--n", "4", "--dims", "2")
    assert code == 0 and data["status"] == "confirmed"
    code, data = run_json(capsys, "twist-check", "--n", "4", "--dims", "2", "--sigma")
    assert code == 1 and data["status"] == "refuted"
    # sigma twist on a non-symmetric shape is a data error
    code, _, _ = run(capsys, "twist-check", "--n", "4", "--dims", "1", "--sigma")
    assert code == EX_DATAERR


def test_counterexample_cli(capsys, monkeypatch):
    code, data = run_json(capsys, "counterexample", "--case", "1", "--n", "4", "--dims", "2")
    assert code == 1
    assert data["established"] is True
    reading = data["readings"][0]
    assert reading["ext_outcome"]["by_degree"]["1"] == [
        {"weight": [1, 1, 1, 0], "mult": 1}
    ]
    code, data = run_json(
        capsys, "counterexample", "--case", "3", "--n", "3", "--dims", "1,2"
    )
    assert code == 1 and [r["label"] for r in data["readings"]] == ["F=W_1", "F=W_2"]
    # a family none of whose readings refutes is not established: exit 2
    undecided = (kapranov.INCONCLUSIVE, None)
    monkeypatch.setattr(twists, "classify_vanishing", lambda outcome, requirement: undecided)
    code, data = run_json(capsys, *COUNTEREXAMPLE_1)
    assert code == 2 and data["established"] is False


def test_counterexample_text_shows_both_routes(capsys):
    # case 3 on F(1,2,3,4;5): for F=W_2 the one-shot route only bounds H^1
    # by two copies of S^(1,1,1,0,0)(V); the stepwise route finds one, and
    # the verdict and its certificate rest on it
    code, out, _ = run(capsys, "counterexample", "--case", "3", "--n", "5", "--dims", "1,2,3,4")
    assert code == 1
    reading = out[out.index("reading F=W_2\n"):].splitlines()
    assert reading[1:5] == [
        "  one-shot:",
        "    grade: e1bound",
        "    H^0 = S^(1, 1, 1, 0, 0)(V)  (dim 10)",
        "    H^1 = 2 x S^(1, 1, 1, 0, 0)(V)  (dim 20)",
    ]
    stepwise = reading.index("  stepwise: refuted")
    assert reading[stepwise + 1 : stepwise + 3] == [
        "    grade: exact",
        "    H^1 = S^(1, 1, 1, 0, 0)(V)  (dim 10)",
    ]
    assert reading[stepwise + 4].startswith("    certificate: {'kind': 'exact_degree', 'degree': 1")


def test_toric_check_cli(tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(
        json.dumps(
            {
                "base_dim": 0,
                "levels": [{"bundles": [[[], []], [[], []]], "perms": [[1, 0]]}],
            }
        )
    )
    code, data = run_json(capsys, "toric-check", "--tower", str(path))
    assert code == 0
    assert data["status"] == "confirmed"
    assert data["orbits"]["orbit_closed"] is True


def test_tower_with_a_bad_permutation_is_an_input_error(tmp_path, capsys, monkeypatch):
    # swapping the two bundles of F_1 x_{P^1} F_2 breaks the level
    # structure; the tower is rejected when it is read, with or without
    # the orbit check, before any grid work
    data = {"base_dim": 1, "levels": [{"bundles": [[[0], [1]], [[0], [2]]], "perms": [[1, 0]]}]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data))
    message = "permutation does not preserve the level structure"
    for flags in ((), ("--skip-orbits",)):
        code, out, err = run(capsys, "toric-check", "--tower", str(path), *flags)
        assert (code, out) == (EX_DATAERR, "") and message in err, flags

    def no_grid_work(tower):
        raise RuntimeError("the grid was checked")

    monkeypatch.setattr(cli, "check_grid_collection", no_grid_work)
    for flags in ((), ("--skip-orbits",)):
        code, out, err = run(capsys, "toric-check", "--tower", str(path), *flags)
        assert (code, out) == (EX_DATAERR, "") and message in err, flags


def test_refuted_grid_writes_json(tmp_path, capsys, monkeypatch):
    # the reversed grid of F_1 has backward Homs; each failure's cohomology
    # is keyed by degree, and the JSON writer takes only str keys
    data = {"base_dim": 1, "levels": [{"bundles": [[[0], [1]]], "perms": [[0]]}]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data))
    lex_grid = TowerSpec.grid
    monkeypatch.setattr(TowerSpec, "grid", lambda self: list(reversed(lex_grid(self))))
    report = check_grid_collection(TowerSpec.from_json(data))
    assert report.failures
    code, out, _ = run(capsys, "toric-check", "--tower", str(path), "--skip-orbits", "--format", "json")
    assert code == 1 and out == json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    code, _, _ = run(capsys, "toric-check", "--tower", str(path), "--skip-orbits")
    assert code == 1


def test_json_determinism(capsys):
    _, out1, _ = run(capsys, "check-strong", "--n", "3", "--dims", "1,2", "--format", "json")
    _, out2, _ = run(capsys, "check-strong", "--n", "3", "--dims", "1,2", "--format", "json")
    assert out1 == out2
    json.loads(out1)  # round-trips


def test_collection_json_roundtrip_through_cli(capsys, tmp_path):
    code, coll = run_json(capsys, "kapranov", "--n", "4", "--dims", "2")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(coll))
    code, data = run_json(capsys, "check-strong", "--collection", str(path))
    assert code == 0 and data["overall"] == "confirmed"


def test_empty_pair_checks_are_input_errors(capsys, tmp_path):
    code, coll = run_json(capsys, "kapranov", "--n", "3", "--dims", "1")
    coll["members"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(coll))
    code, out, err = run(capsys, "check-strong", "--collection", str(path))
    assert code == EX_DATAERR and out == ""
    assert "flagcoh: input error: empty collection" in err
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"flag": {"n": 3, "dims": [1]}, "terms": []}))
    code, out, err = run(capsys, "twist-check", "--n", "3", "--dims", "1", "--expr", str(path))
    assert code == EX_DATAERR and out == ""
    # the user gave a bundle, not a collection: the message names the bundle
    assert "flagcoh: input error: the candidate bundle is zero" in err
    assert "collection" not in err


def test_missing_key_is_named(capsys, tmp_path):
    expr = _write_member(tmp_path, "expr.json", 3, [1], [{"slot": "sub", "index": 1, "weight": [1]}])
    code, out, err = run(capsys, "check-strong", "--collection", expr)
    assert code == EX_DATAERR and out == ""
    assert "flagcoh: input error: missing key 'members'" in err


def _written(obj) -> str:
    return cli._json_text(obj, "\n")


# quote, backslash, control, non-ASCII and astral characters, plus any other
_json_text = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7fé☃\U0001f600') | st.characters())
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, 1, -1, True, False, 2**64 + 1, -(2**64) - 1])
    | _json_text
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(-3, 2**65), max_size=5)  # the all-int fast path
    | st.dictionaries(_json_text, inner, max_size=5),
    max_leaves=20,
)


def test_json_writer_fixed_cases():
    for obj in [
        {},
        [],
        (),
        [[], {}, ()],
        {"b": [1, 2], "a": {"": None, "é\"\\\x01": "x☃"}},
        [True, 1, False, 0, -5, 2**64, None],
        [1, 2, 3],
        "plain",
        -7,
    ]:
        assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(obj):
    assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [1.5, {1, 2}, {1: "a"}, {"a": [1, 2.0]}, [None, b"x"]])
def test_json_writer_rejects_what_it_does_not_write(obj):
    with pytest.raises(TypeError):
        _written(obj)


def test_unwritable_payload_is_an_internal_error(capsys, monkeypatch):
    # a float degree would be written by json.dumps; the writer refuses it
    monkeypatch.setattr(cli, "bbw_resolve", lambda w: (0.5, (1, 0)))
    code, out, err = run(capsys, "bbw", "--n", "2", "--weight", "1,0", "--format", "json")
    assert code == EX_SOFTWARE and out == ""
    assert "TypeError" in err


def _pair_reports():
    """(argv, in-process report) for a strong check and a sigma (T2) check."""
    f123, f13 = FlagShape(4, (1, 2, 3)), FlagShape(4, (1, 3))
    strong = check_strong_exceptional(enumerate_collection(f123))
    t2 = check_T2(sum(enumerate_collection(f13).members, BundleExpr(f13)), sigma=True)
    return [
        (["check-strong", "--n", "4", "--dims", "1,2,3"], strong),
        (["twist-check", "--n", "4", "--dims", "1,3", "--sigma"], t2),
    ]


def _witness_reports():
    """Reports whose pairs carry every witness kind but ``euler_nonzero``:
    sigma (T2) on F(2,3;5) refutes by an exact degree, a negative Euler
    multiplicity and an Euler excess, and a member O + O has Hom = k^4."""
    f23, p2 = FlagShape(5, (2, 3)), FlagShape(3, (1,))
    t2 = check_T2(sum(enumerate_collection(f23).members, BundleExpr(f23)), sigma=True)
    o = enumerate_collection(p2).members[-1]
    return [t2, check_strong_exceptional(Collection(p2, [o + o]))]


def _pair_text(p) -> str:
    """json.dumps's text of the pair, at the indent of an item of a
    report's "pairs" list."""
    return json.dumps(p.to_json(), sort_keys=True, indent=2).replace("\n", "\n    ")


def test_every_pair_text_is_its_json_dumps():
    reports = [report for _argv, report in _pair_reports()] + _witness_reports()
    kinds = set()
    for report in reports:
        texts = list(cli._pair_texts(report.pairs))
        assert len(texts) == len(report.pairs)
        for p, text in zip(report.pairs, texts):
            assert text == _pair_text(p), (p.i, p.j)
            kinds.add(p.witness and p.witness["kind"])
    assert kinds == {None, "exact_degree", "euler_negative", "euler_excess", "hom_not_simple"}


@pytest.mark.parametrize("argv, report", _pair_reports())
def test_shared_outcomes_print_as_json_dumps(capsys, argv, report):
    # pairs that share an outcome print its hom and outcome texts, and the
    # hom is also the outcome's degree-0 list, one indent deeper: a text
    # kept for one indent must not be written at the other
    data = report.to_json()
    holders = Counter(id(p.outcome) for p in report.pairs)
    hom_at_two_indents = 0
    for p, pj in zip(report.pairs, data["pairs"]):
        assert pj["hom"] == p.outcome.character(0).to_json()
        assert pj["outcome"] == p.outcome.to_json()
        hom_at_two_indents += bool(pj["hom"]) and holders[id(p.outcome)] > 1
    assert hom_at_two_indents
    code, out, _err = run(capsys, *argv, "--format", "json")
    assert code == cli.EXIT_CODE[report.status]
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_pairs_sharing_an_outcome_render_identically():
    # a shared outcome's texts, kept from its first holder, are what its
    # later holders would be given alone
    report = _pair_reports()[0][1]
    pairs: dict = {}
    for k, p in enumerate(report.pairs):
        pairs.setdefault(id(p.outcome), []).append(k)
    ks = next(ks for ks in pairs.values() if len(ks) > 2 and report.pairs[ks[0]].outcome.character(0))
    texts = list(cli._pair_texts(report.pairs))
    for k in ks:
        p = report.pairs[k]
        [alone] = cli._pair_texts([p])
        assert texts[k] == alone == _pair_text(p)
    # the two pairs differ in their indices only
    p1, p2 = (report.pairs[k] for k in ks[:2])
    swap = {'"i": %d,' % p1.i: '"i": %d,' % p2.i, '"j": %d,' % p1.j: '"j": %d,' % p2.j}
    lines = [swap.get(line.strip(), line.strip()) for line in texts[ks[0]].split("\n")]
    assert lines == [line.strip() for line in texts[ks[1]].split("\n")]


def test_an_outcome_object_is_one_json_value(capsys, monkeypatch):
    # the command line builds each outcome object's JSON once, whatever the
    # number of pairs that hold it, and each of its characters once; the
    # library's report JSON is a new value on every call.  A witness is
    # derived on each read, so an exact_degree witness's character is
    # built again for its pair and, in a (T2) report, for its certificate
    built, characters = [], []
    outcome_json, character_json = CohomologyOutcome.to_json, CharacterSum.to_json
    for argv, report in _pair_reports():
        data = report.to_json()
        again = report.to_json()
        assert again == data and again["pairs"][0]["outcome"] is not data["pairs"][0]["outcome"]
        outcomes = {id(p.outcome): p.outcome for p in report.pairs}
        assert len(outcomes) < len(report.pairs)
        with monkeypatch.context() as m:
            m.setattr(cli, "check_strong_exceptional", lambda c, report=report: report)
            m.setattr(cli, "check_T2", lambda t, sigma, report=report: report)
            m.setattr(CohomologyOutcome, "to_json", lambda o: built.append(o) or outcome_json(o))
            m.setattr(CharacterSum, "to_json", lambda cs: characters.append(cs) or character_json(cs))
            code, out, _err = run(capsys, *argv, "--format", "json")
        assert code == cli.EXIT_CODE[report.status]
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert sorted(map(id, built)) == sorted(outcomes)
        expected = [
            cs
            for o in outcomes.values()
            for cs in (*(cs for cs in o.by_degree.values() if cs), o.euler)
        ]
        witnessed = [
            p.outcome.character(p.witness["degree"])
            for p in report.pairs
            if p.witness and p.witness["kind"] == "exact_degree"
        ]
        expected += witnessed * (1 + hasattr(report, "certificates"))
        assert sorted(map(id, characters)) == sorted(map(id, expected))
        built.clear()
        characters.clear()


def test_only_shared_outcomes_are_kept_and_rendered_once(monkeypatch):
    # while the pairs are written, the texts kept are exactly those of the
    # outcomes that some pair already written and some pair still to come
    # hold; every outcome object is rendered once
    rendered = []
    outcome_json = CohomologyOutcome.to_json
    monkeypatch.setattr(CohomologyOutcome, "to_json", lambda o: rendered.append(o) or outcome_json(o))
    for _argv, report in _pair_reports():
        holders = Counter(id(p.outcome) for p in report.pairs)
        assert max(holders.values()) > 1 and min(holders.values()) == 1
        written: Counter = Counter()
        texts = cli._pair_texts(report.pairs)
        kept_at_most = 0
        for p in report.pairs:
            next(texts)
            written[id(p.outcome)] += 1
            expected = {key for key, n in written.items() if n < holders[key]}
            assert set(texts.gi_frame.f_locals["kept"]) == expected
            kept_at_most = max(kept_at_most, len(expected))
        assert kept_at_most
        assert next(texts, None) is None
        assert sorted(map(id, rendered)) == sorted(holders)
        rendered.clear()


def test_cli_json_builds_no_pair_value(capsys, monkeypatch):
    # the command line writes a pair report's pairs from the verdicts
    expected = [
        (argv, json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
        for argv, report in _pair_reports()
    ]

    def unwanted(self):
        raise AssertionError("built a pair's JSON value")

    monkeypatch.setattr(kapranov.PairVerdict, "to_json", unwanted)
    for argv, text in expected:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (out, err) == (text, "") and code in cli.EXIT_CODE.values()


def test_an_edited_outcome_json_reaches_no_other_pair(capsys, monkeypatch):
    # the diagonal pairs of P^2's collection share one outcome object; what
    # a caller does with the JSON it was given changes no other pair
    report = check_strong_exceptional(enumerate_collection(FlagShape(3, (1,))))
    assert report.pairs[4].outcome is report.pairs[0].outcome
    pair = report.pairs[4].to_json()
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    data = report.pairs[0].outcome.to_json()
    data["by_degree"].clear()
    data["grade"] = "e1bound"
    report.pairs[0].to_json()["hom"].append("edited")
    assert report.pairs[4].to_json() == pair
    monkeypatch.setattr(cli, "check_strong_exceptional", lambda c: report)
    code, out, _err = run(capsys, "check-strong", "--n", "3", "--dims", "1", "--format", "json")
    assert (code, out) == (0, text)


def _containers(value, path=()):
    """The path of every dict and list in the JSON value ``value``, its
    own first, so an edit can be tried at every depth."""
    if isinstance(value, (dict, list)):
        yield path
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _containers(item, path + (key,))


def _edit_at(value, path):
    """Change the dict or list at ``path`` in ``value`` in place."""
    for key in path:
        value = value[key]
    if isinstance(value, dict):
        value["edited"] = 99
    else:
        value.append(99)


def test_an_edited_witness_reaches_no_verdict():
    # on the reversed P^2 collection a pair is refuted with an exact_degree
    # witness; an edit, at any depth, of that pair's to_json() witness, of
    # a witness read from the verdict, or of a certificate, changes neither
    # the verdict, nor one built again from its outcome, nor what is
    # printed for it
    c = enumerate_collection(FlagShape(3, (1,)))
    report = check_strong_exceptional(Collection(c.shape, reversed(c.members)))
    p = next(p for p in report.pairs if p.witness)
    text, data = next(cli._pair_texts([p])), p.to_json()
    paths = list(_containers(p.witness))
    # the witness, its character, a term of that and the term's weight
    assert [len(path) for path in paths] == [0, 1, 2, 3]
    for path in paths:
        _edit_at(p.to_json()["witness"], path)
        _edit_at(p.witness, path)
        q = kapranov.PairVerdict(p.i, p.j, p.requirement, p.outcome, p.simple)
        for verdict in (p, q):
            assert verdict.to_json() == data and next(cli._pair_texts([verdict])) == text
    for name in ("witness", "status"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    # a (T2) report's certificates are new values too
    t = sum(enumerate_collection(FlagShape(3, (1, 2))).members, BundleExpr(FlagShape(3, (1, 2))))
    descent = check_T2(t, sigma=True)
    certificates = descent.certificates()
    texts = list(cli._pair_texts(descent.pairs))
    for path in _containers(certificates[0]["witness"]):
        _edit_at(descent.to_json()["certificates"][0]["witness"], path)
    assert descent.certificates() == certificates and list(cli._pair_texts(descent.pairs)) == texts


class _Writes:
    """A stdout or stderr that records each write, to see where the report
    was cut or how often a message was written."""

    def __init__(self):
        self.writes: list = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.writes)


def _streamed(monkeypatch, argv, flush_bytes=None, flush_chunks=None):
    """(exit code, writes) of ``main(argv)`` with stdout recorded, and the
    flush sizes lowered when given."""
    if flush_bytes is not None:
        monkeypatch.setattr(cli, "FLUSH_BYTES", flush_bytes)
    if flush_chunks is not None:
        monkeypatch.setattr(cli, "FLUSH_CHUNKS", flush_chunks)
    out = _Writes()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", out)
        code = main(argv)
    return code, out


def _pair_write_indices(text, writes) -> list:
    """The index of the write holding the start of each item of the
    report's "pairs" list, whose items start at an indent of four."""
    ends, total = [], 0
    for w in writes:
        total += len(w)
        ends.append(total)
    start = text.index('\n  "pairs": [')
    stop = text.index("\n  ]", start)
    indices, at = [], text.find("\n    {", start)
    while 0 <= at < stop:
        indices.append(next(k for k, end in enumerate(ends) if at < end))
        at = text.find("\n    {", at + 1)
    return indices


@pytest.mark.parametrize("argv, report", _pair_reports())
def test_streamed_report_is_byte_identical(monkeypatch, argv, report):
    # lowered flush sizes make a small job write many times: each pair's
    # text on its own, and the head in batches of 16 chunks; the text is
    # still json.dumps's, and the text format the unbatched one
    code, out = _streamed(monkeypatch, argv + ["--format", "json"], flush_bytes=1, flush_chunks=16)
    text = out.text()
    assert code == cli.EXIT_CODE[report.status]
    assert text == json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    # one write per pair, after the head's first batches
    indices = _pair_write_indices(text, out.writes)
    assert len(indices) == len(report.pairs)
    assert indices == list(range(indices[0], indices[0] + len(indices)))
    assert indices[0] > 1
    # pairs sharing an outcome are written on both sides of a flush
    by_outcome: dict = {}
    for p, k in zip(report.pairs, indices):
        if p.outcome.character(0):
            by_outcome.setdefault(id(p.outcome), set()).add(k)
    assert any(len(ks) > 1 for ks in by_outcome.values())
    _code, whole = _streamed(monkeypatch, argv, flush_bytes=10**9)
    assert len(whole.writes) == 1
    # a batch is written once it reaches FLUSH_BYTES
    _code, batched = _streamed(monkeypatch, argv, flush_bytes=1)
    assert batched.writes == [line + "\n" for line in whole.text().splitlines()] + [""]


def test_render_fault_after_a_write_leaves_a_prefix(capsys, monkeypatch):
    # a float multiplicity in the last pair's outcome, and so in its
    # witness, is written by json.dumps; the writer refuses it after the
    # report's first batches have been written
    spoiled = []

    def check(c):
        report = check_strong_exceptional(c)
        p = report.pairs[-1]
        rank = p.outcome.rank
        outcome = CohomologyOutcome(rank, engine.EXACT, {1: CharacterSum(rank, {(0,) * rank: 0.5})})
        report.pairs[-1] = kapranov.PairVerdict(p.i, p.j, p.requirement, outcome, p.simple)
        spoiled.append(report)
        return report

    monkeypatch.setattr(cli, "check_strong_exceptional", check)
    monkeypatch.setattr(cli, "FLUSH_BYTES", 1)  # each pair written as it is rendered
    code, out, err = run(capsys, "check-strong", "--n", "4", "--dims", "1,2,3", "--format", "json")
    assert code == EX_SOFTWARE and "TypeError" in err
    [report] = spoiled
    whole = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert out and len(out) < len(whole) and whole.startswith(out)
    # every pair but the spoiled one was written
    assert out.count('\n      "witness": ') == len(report.pairs) - 1


def test_large_report_is_written_in_bounded_batches(monkeypatch):
    # the pairs are written each time FLUSH_BYTES bytes are pending, so no
    # batch exceeds it by more than one pair's text (at most 3,925 bytes
    # here, 600 on average), while the 8.8 MB report, joined and written
    # at once, would; the head before the pairs is 85 kB, in one batch
    bound = cli.FLUSH_BYTES + 4096
    argv = ["check-strong", "--n", "5", "--dims", "1,2,3,4", "--format", "json"]
    code, out = _streamed(monkeypatch, argv)
    sizes = [len(w) for w in out.writes]
    assert code == 0 and sum(sizes) > 16 * bound
    assert max(sizes) <= bound


def test_module_caches_are_the_partition_combinatorics(capsys):
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "flagcoh"]
    # every lru_cache, found where the package's modules bind it: the
    # engine's own state lives in a table per call, so only the partition
    # combinatorics outlive a job
    caches = {id(v): v for m in modules for v in vars(m).values() if hasattr(v, "cache_clear")}
    assert sorted(c.__module__ + "." + c.__qualname__ for c in caches.values()) == [
        "flagcoh.flagvar._forget_steps",
        "flagcoh.flagvar._interval_product",
        "flagcoh.flagvar._split_partition",
        "flagcoh.schur._lr_raw",
        "flagcoh.schur._tensor_terms",
    ]
    assert all(c.cache_parameters()["maxsize"] is None for c in caches.values())
    assert run(capsys, "check-strong", "--n", "4", "--dims", "1,3")[0] == 0
    assert any(c.cache_info().currsize for c in caches.values())
    assert not hasattr(flagcoh, "clear_caches")


def test_cohomology_names_the_engine_module():
    import flagcoh.cohomology as m
    from flagcoh.cohomology import cohomology

    assert m is sys.modules["flagcoh.cohomology"] and m.__name__ == "flagcoh.cohomology"
    assert m.cohomology is cohomology and cohomology.__module__ == m.__name__
    removed = {"cohomology", "block_weights", "cohomology_graded", "graded_expansion"}
    assert not removed & set(flagcoh.__all__)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})


def _env_with_src() -> dict:
    """This process's environment, with the checkout's ``src`` first on the
    import path of a child ``python -m flagcoh``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# the modules that importing the command line loads into a bare CPython
# 3.11 (python -I -S); each is import-time work in every job's start
_CLI_IMPORTS = """
__future__ _bisect _collections _collections_abc _functools _json _operator
_sre _stat argparse bisect collections collections.abc contextlib copyreg
enum flagcoh flagcoh.cli flagcoh.cohomology flagcoh.flagvar flagcoh.kapranov
flagcoh.schur flagcoh.toric flagcoh.twists flagcoh.weights functools
genericpath gettext itertools json json.decoder json.encoder json.scanner
keyword math operator os os.path posixpath re re._casefix re._compiler
re._constants re._parser reprlib stat types warnings
""".split()


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the pinned set is CPython 3.11's",
)
def test_importing_the_cli_loads_only_the_pinned_modules():
    # a module added here is paid for by every job, so it must be declared
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import flagcoh.cli; print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(_CLI_IMPORTS)


# modules whose import costs a job more than it gives: dataclasses and
# typing, and what they import
_NOT_IMPORTED = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize", "linecache", "copy"}


def test_no_module_of_the_package_imports_dataclasses_or_typing():
    # the pinned set above holds on CPython 3.11 only; this scan holds on
    # every Python, for each import statement anywhere in the package
    src = Path(__file__).resolve().parents[1] / "src" / "flagcoh"
    paths = sorted(src.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in names} & _NOT_IMPORTED, (path.name, names)


def test_sigma_check_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the engine keys its memos by tuples of ints and shapes; no order in
    # which a memo is filled may reach the report, whatever the hashes
    argv = ["twist-check", "--n", "5", "--dims", "2,3", "--sigma", "--format", "json"]
    runs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "flagcoh", *argv],
            cwd=tmp_path,
            env=dict(_env_with_src(), PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=300,
        )
        assert proc.stderr == b""
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == cli.EXIT_CODE["refuted"] and runs[0][1].startswith(b"{\n")


def test_python_m_flagcoh_runs_the_cli(tmp_path):
    env = _env_with_src()
    argv = ["bbw", "--n", "4", "--weight", "0,-2,0,-1", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "flagcoh", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cohomology_weight"] == [1, 1, 1, 0]


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize(
    "argv",
    [
        ["check-strong", "--n", "3", "--dims", "1"],
        ["check-strong", "--n", "5", "--dims", "1,2,3,4", "--format", "json"],
    ],
)
def test_closed_stdout_is_an_io_error(tmp_path, argv, unbuffered):
    # the reader of stdout has gone, as with `| head`: the report cannot be
    # written, which is no input error, no engine fault and no traceback,
    # and the interpreter's flush at exit must not complain either; a
    # buffered stdout fails at the last flush, an unbuffered one at a write
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "flagcoh", *argv],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EX_IOERR and err == b""


@pytest.mark.parametrize(
    "exc, err",
    [
        (BrokenPipeError(32, "Broken pipe"), ""),
        (OSError(28, "No space left on device"), "flagcoh: [Errno 28] No space left on device\n"),
    ],
)
def test_unwritable_stdout_in_process(capsys, monkeypatch, exc, err):
    # a stdout captured in process has no file descriptor to point at the
    # null device; the report still exits 74, and only a reader that has
    # gone goes without a message
    def flush():
        raise exc

    with monkeypatch.context() as m:
        m.setattr(sys.stdout, "flush", flush)
        code = main(["bbw", "--n", "2", "--weight", "1,0"])
    assert code == cli.EX_IOERR and capsys.readouterr().err == err


# a child that runs the command line with one engine function made to fail
_PLANTED_FAULT = """
import sys
import flagcoh.cohomology as engine
from flagcoh.cli import main

def broken(*args):
    raise AssertionError("planted fault")

engine._monomial_pieces_stepwise = broken
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["cohom", "--expr", "missing.json"], EX_DATAERR),
        (["bbw", "--n", "3", "--weight", "0,1"], EX_DATAERR),
        (["check-strong", "--n", "3"], EX_USAGE),
        (["-c", _PLANTED_FAULT, "check-strong", "--n", "3", "--dims", "1"], EX_SOFTWARE),
        (["twist-check", "--n", "4", "--dims", "2"], 0),
    ],
)
def test_closed_stderr_keeps_the_exit_code(tmp_path, argv, code):
    # a message that cannot be written must not turn an error into exit 1,
    # which reads as "refuted": only a finished report exits 0, 1 or 2
    prefix = [] if argv[0] == "-c" else ["-m", "flagcoh"]
    proc = subprocess.Popen(
        [sys.executable, *prefix, *argv],
        cwd=tmp_path,
        env=_env_with_src(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stderr.close()
    out = proc.stdout.read()
    proc.stdout.close()
    assert proc.wait(timeout=120) == code
    assert (out != b"") == (code == 0)


def test_internal_error_is_one_write(monkeypatch):
    # the traceback and the one-line summary go to stderr in one write
    err = _Writes()
    monkeypatch.setattr(sys, "stderr", err)

    def broken(*args):
        raise AssertionError("planted fault")

    monkeypatch.setattr(engine, "_monomial_pieces_stepwise", broken)
    assert main(["check-strong", "--n", "3", "--dims", "1"]) == EX_SOFTWARE
    [text] = err.writes
    assert text.startswith("Traceback (most recent call last):\n")
    assert text.endswith(
        "AssertionError: planted fault\nflagcoh: internal error: AssertionError: planted fault\n"
    )

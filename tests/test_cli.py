import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcoh
from flagcoh import cli, flagvar, kapranov, twists
from flagcoh.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, main
from flagcoh.flagvar import BundleExpr, FlagShape
from flagcoh.kapranov import Collection, check_strong_exceptional, enumerate_collection
from flagcoh.schur import CharacterSum
from flagcoh.toric import TowerSpec
from flagcoh.twists import WITH_SIGMA, TwistGroup, check_T2

# the package's ``cohomology`` attribute is the function, not the module
engine = importlib.import_module("flagcoh.cohomology")


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

    def broken(shape, factors):
        raise fault("engine bug")

    monkeypatch.setattr(flagvar, "_merge_factors", broken)
    code, out, err = run(capsys, "cohom", "--expr", str(path))
    assert code == EX_SOFTWARE and out == ""
    assert "flagcoh: internal error: %s" % fault.__name__ in err
    assert "input error" not in err


def test_internal_errors_exit_70(tmp_path, capsys, monkeypatch):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))

    def broken(mono, table):
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

    def broken(mono, table):
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


def test_cohom_missing_file(capsys):
    code, _, err = run(capsys, "cohom", "--expr", "/no/such/file.json")
    assert code == EX_DATAERR


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
    code, data = run_json(capsys, "ext", "--expr", a, "--expr", b)
    assert code == 0 and data["grade"] == "e1bound"
    code, data = run_json(capsys, "ext", "--expr", a, "--expr", b, "--best")
    assert code == 0 and data["grade"] == "exact" and data["by_degree"] == {}


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


def test_counterexample_cli(capsys):
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
    assert "flagcoh: input error: empty collection" in err


def test_missing_key_is_named(capsys, tmp_path):
    expr = _write_member(tmp_path, "expr.json", 3, [1], [{"slot": "sub", "index": 1, "weight": [1]}])
    code, out, err = run(capsys, "check-strong", "--collection", expr)
    assert code == EX_DATAERR and out == ""
    assert "flagcoh: input error: missing key 'members'" in err


def _written(obj, memo=None) -> str:
    out: list = []
    cli._json_chunks(obj, out, "\n", memo)
    return "".join(out)


# quote, backslash, control, non-ASCII and astral characters, plus any other
_json_text = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7f\u00e9\u2603\U0001f600') | st.characters())
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
        {"b": [1, 2], "a": {"": None, "\u00e9\"\\\x01": "x\u2603"}},
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
    t2 = check_T2(sum(enumerate_collection(f13).members, BundleExpr(f13)), TwistGroup(WITH_SIGMA))
    return [
        (["check-strong", "--n", "4", "--dims", "1,2,3"], strong),
        (["twist-check", "--n", "4", "--dims", "1,3", "--sigma"], t2),
    ]


@pytest.mark.parametrize("argv, report", _pair_reports())
def test_shared_outcomes_print_as_json_dumps(capsys, argv, report):
    # pairs with one outcome share their hom and outcome values, and the
    # hom list is also the outcome's degree-0 list, one indent deeper: the
    # writer must render a shared value once per indent, not once
    data = report.to_json()
    hom_at_two_indents = 0
    for p, pj in zip(report.pairs, data["pairs"]):
        assert pj["hom"] == p.hom_character.to_json()
        assert pj["outcome"] == p.outcome.to_json()
        if pj["hom"]:
            assert pj["hom"] is pj["outcome"]["by_degree"]["0"]
            hom_at_two_indents += 1
    assert hom_at_two_indents
    code, out, _err = run(capsys, *argv, "--format", "json")
    assert code == report.exit_code
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_pairs_sharing_an_outcome_render_identically():
    report = _pair_reports()[0][1]
    pairs: dict = {}
    for k, p in enumerate(report.pairs):
        pairs.setdefault(id(p.outcome), []).append(k)
    ks = next(ks for ks in pairs.values() if len(ks) > 1 and report.pairs[ks[0]].hom_character)
    shared: dict = {}
    data = report.to_json(shared)
    p1, p2 = (data["pairs"][k] for k in ks[:2])
    assert p1["outcome"] is p2["outcome"] and p1["hom"] is p2["hom"]
    assert shared[id(report.pairs[ks[0]].outcome)][2] == len(ks)
    memo = {id(p1["outcome"]): {}, id(p1["hom"]): {}}
    texts = []
    for pj in (p1, p2):
        part = {"hom": pj["hom"], "outcome": pj["outcome"]}
        texts.append(_written(part, memo))
    assert texts[0] == texts[1] == json.dumps(part, sort_keys=True, indent=2)
    # the outcome was rendered at one indent, the hom at two
    assert list(memo[id(p1["outcome"])]) == ["\n  "]
    assert sorted(memo[id(p1["hom"])]) == ["\n  ", "\n      "]


class _Writes:
    """A stdout that records each write, to see where the report was cut."""

    def __init__(self):
        self.writes: list = []

    def write(self, text):
        self.writes.append(text)

    def text(self) -> str:
        return "".join(self.writes)


def _streamed(monkeypatch, argv, flush=None):
    """(exit code, writes) of ``main(argv)`` with stdout recorded, and the
    flush size lowered to ``flush`` when given."""
    if flush is not None:
        monkeypatch.setattr(cli, "FLUSH_CHUNKS", flush)
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
    # a lowered flush size makes a small job write many times; the text is
    # still json.dumps's, and the text format the unbatched one
    code, out = _streamed(monkeypatch, argv + ["--format", "json"], flush=16)
    assert code == report.exit_code and len(out.writes) > 10
    text = out.text()
    assert text == json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    # pairs sharing an outcome are written on both sides of a flush
    indices = _pair_write_indices(text, out.writes)
    assert len(indices) == len(report.pairs)
    by_outcome: dict = {}
    for p, k in zip(report.pairs, indices):
        if p.hom_character:
            by_outcome.setdefault(id(p.outcome), set()).add(k)
    assert any(len(ks) > 1 for ks in by_outcome.values())
    _code, whole = _streamed(monkeypatch, argv, flush=10**9)
    assert len(whole.writes) == 1
    _code, batched = _streamed(monkeypatch, argv, flush=16)
    assert batched.text() == whole.text()
    assert len(batched.writes) == 1 + len(whole.text().splitlines()) // 16


def test_render_fault_after_a_write_leaves_a_prefix(capsys, monkeypatch):
    # a float witness in the last pair is written by json.dumps; the writer
    # refuses it after the report's first batches have been written
    spoiled = []

    def check(c):
        report = check_strong_exceptional(c)
        report.pairs[-1].witness = 0.5
        spoiled.append(report)
        return report

    monkeypatch.setattr(cli, "check_strong_exceptional", check)
    monkeypatch.setattr(cli, "FLUSH_CHUNKS", 16)
    code, out, err = run(capsys, "check-strong", "--n", "4", "--dims", "1,2,3", "--format", "json")
    assert code == EX_SOFTWARE and "TypeError" in err
    [report] = spoiled
    whole = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert out and len(out) < len(whole) and whole.startswith(out)


def test_large_report_is_written_in_bounded_batches(monkeypatch):
    # a chunk is an indented JSON line or one shared value's text, about
    # 110 bytes on average here, so a batch of FLUSH_CHUNKS of them stays
    # below this bound (the largest is 0.95 MB), while the 8.8 MB report,
    # joined and written at once, would not
    bound = 256 * cli.FLUSH_CHUNKS
    argv = ["check-strong", "--n", "5", "--dims", "1,2,3,4", "--format", "json"]
    code, out = _streamed(monkeypatch, argv)
    sizes = [len(w) for w in out.writes]
    assert code == 0 and sum(sizes) > 4 * bound
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
        "flagcoh.flagvar._subpartitions",
        "flagcoh.schur._lr_raw",
        "flagcoh.schur._tensor_terms",
        "flagcoh.schur.schur_dim",
    ]
    assert all(c.cache_parameters()["maxsize"] is None for c in caches.values())
    assert run(capsys, "check-strong", "--n", "4", "--dims", "1,3")[0] == 0
    assert any(c.cache_info().currsize for c in caches.values())
    assert not hasattr(flagcoh, "clear_caches")


def test_python_m_flagcoh_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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

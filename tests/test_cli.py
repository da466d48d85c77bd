import importlib
import json

import pytest

from flagcoh import cli, kapranov
from flagcoh.cli import EX_DATAERR, EX_SOFTWARE, EX_USAGE, main
from flagcoh.schur import CharacterSum

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


def test_internal_errors_exit_70(tmp_path, capsys, monkeypatch):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))

    def broken(mono):
        raise AssertionError("unconsumed factors at the last level")

    monkeypatch.setattr(engine, "_monomial_pieces_stepwise", broken)
    code, out, err = run(capsys, "cohom", "--expr", str(path), "--stepwise")
    assert code == EX_SOFTWARE and out == ""
    assert "flagcoh: internal error: AssertionError" in err


def test_route_disagreement_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # W_2 against W_1 on F(1,2;3): one-shot is a bound, so certify asks
    # the stepwise route, here replaced by one with a wrong Euler character
    a = _write_member(
        tmp_path, "a.json", 3, [1, 2], [{"slot": "sub", "index": 2, "weight": [1, 0]}]
    )
    b = _write_member(
        tmp_path, "b.json", 3, [1, 2], [{"slot": "sub", "index": 1, "weight": [1]}]
    )
    wrong = engine.CohomologyOutcome(3, engine.EXACT, {0: CharacterSum(3, {(0, 0, 0): 1})})
    monkeypatch.setattr(engine, "cohomology_stepwise", lambda e: wrong)
    code, out, err = run(capsys, "ext", "--expr", a, "--expr", b, "--best")
    assert code == EX_SOFTWARE and out == ""
    assert "routes disagree" in err


def test_engine_value_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(_cohom_expr()))

    def broken(mono):
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

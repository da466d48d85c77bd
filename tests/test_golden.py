"""Byte-identity of the CLI output: the benchmark's smoke jobs, three
counterexample jobs and one or more jobs of every other subcommand, each in
JSON and text format, the six full-size ``large-weight`` jobs in both
formats, and ``toric-check`` on every full-size ``toric-grid`` tower
variant in JSON, must print exactly the recorded stdout (by sha256) and
exit with the recorded code.  A change of the engine's answers, or of how they are printed, shows up here."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from flagcoh.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

COUNTEREXAMPLES = (
    ["counterexample", "--case", "1", "--n", "4", "--dims", "2"],
    ["counterexample", "--case", "2", "--n", "5", "--dims", "1,4"],
    ["counterexample", "--case", "3", "--n", "4", "--dims", "1,2,3"],
)

# the subcommands and options the benchmark does not run; "{name}" stands
# for the path of an input file written by ``_pin_jobs``
PINS = {
    "bbw regular": ["bbw", "--n", "4", "--weight", "0,-2,0,-1"],
    "bbw singular": ["bbw", "--n", "3", "--weight=-1,0,0"],
    "kapranov F(1,3;4)": ["kapranov", "--n", "4", "--dims", "1,3"],
    "cohom --euler-only k=6": ["cohom", "--expr", "{expr_k6.json}", "--euler-only"],
    "ext quot -> sub k=6": ["ext", "--expr", "{quot.json}", "--expr", "{sub.json}"],
    "ext --best quot -> sub k=6": ["ext", "--expr", "{quot.json}", "--expr", "{sub.json}", "--best"],
    "check-strong --collection F(1,3;4)": ["check-strong", "--collection", "{collection.json}"],
    "check-strong --collection F(1,3;4) + a two-term member": [
        "check-strong", "--collection", "{collection_sum.json}"
    ],
    "check-strong --collection F(1,3;4) + a zero member": [
        "check-strong", "--collection", "{collection_zero.json}"
    ],
    "twist-check F(1,3;4)": ["twist-check", "--n", "4", "--dims", "1,3"],
    "toric-check --skip-orbits tower=smoke": ["toric-check", "--tower", "{tower.json}", "--skip-orbits"],
}

# job [format] -> (stdout sha256, exit code)
PIN_GOLDEN = {
    'bbw regular [json]': ('a8c117dcd04cb66746a8a7e53cbfb76762f60c496b299f8f406347a78dc897a1', 0),
    'bbw regular [text]': ('19cafbb2e85c0a70ba65f3e48d676757c846cf3dadd6cc7aebbc2f841ed7c761', 0),
    'bbw singular [json]': ('50162e7ef7e6758af16bc80d5acd7c800f632c208249731db67fa70d386f8153', 0),
    'bbw singular [text]': ('8f48294811a126f4494edd560dd4416b9729cc6cc838a0aca195ce73054c69cf', 0),
    'kapranov F(1,3;4) [json]': ('64b23b3506139bf02068f6ffffe99d6fddfa1921146803064ee8efaa4e319ce7', 0),
    'kapranov F(1,3;4) [text]': ('c78648a312545e3d670a27d4ab146a1204d85febbbe4055b9ee4a28bd34fc6da', 0),
    'cohom --euler-only k=6 [json]': ('97c7a13400faff4fbd30fd18bcd565fc9cf50608aee7ee6bae783d6f27728797', 0),
    'cohom --euler-only k=6 [text]': ('b728bc34255bbbf0ca5378a8a943a6c50befe7f8d15a07b4b7a26b80725a8220', 0),
    'ext quot -> sub k=6 [json]': ('027e20e3f692d2a97d4c47766dedf713418a622186e6d25e24b7dc456efdd934', 0),
    'ext quot -> sub k=6 [text]': ('a09b4ce5a7cdcb3ce8039bef42bffe506f510e2fd104ed1a51ce0cda38e151e5', 0),
    'ext --best quot -> sub k=6 [json]': ('3453af49ce9c269d7c0f6aa968107203ecdce352acb15774c6c053e68f435a7b', 0),
    'ext --best quot -> sub k=6 [text]': ('9ba0daf77b95ba69a4cf53d38205414e578bb13c2cc5eb23c571ebfd5e8c6df0', 0),
    'check-strong --collection F(1,3;4) [json]': ('0f98fb17c7464443cc51287e1ce4c8b64530a0ff3d9e72017c7b728f1bcacf9a', 0),
    'check-strong --collection F(1,3;4) [text]': ('f8da5bef827b21c1b93c5c84d07091f11022ed3762efef034b961f88e12f2f18', 0),
    'check-strong --collection F(1,3;4) + a two-term member [json]': ('605a451e996082e0b0678fee4340b55b73c7164dc13d9b7ed3e07a724b2a5d6f', 1),
    'check-strong --collection F(1,3;4) + a two-term member [text]': ('738c49d3e2a04239afc929f932bb1e80cb8b9420dc5f3a0b56ae5dc808a25cf6', 1),
    'check-strong --collection F(1,3;4) + a zero member [json]': ('acd3069c68819d323902d00571a8d8917d9724dcd6987b50a85439db654e31ed', 1),
    'check-strong --collection F(1,3;4) + a zero member [text]': ('308de7093b82e2cdda0c340d43bc42efb105faa22ada4186f171bff5ee72aeb1', 1),
    'twist-check F(1,3;4) [json]': ('835557b3661ba3a04870c4a11b6e5d7b5d8c8307498f28eaeaad1a3413b1af5d', 0),
    'twist-check F(1,3;4) [text]': ('12145a13ac8802389fe16e857631e80323431e7dca11197c4cedc8f249078db1', 0),
    'toric-check --skip-orbits tower=smoke [json]': ('b853004bc2f337b2fca808a673dcf984a7b1b850362826b11a90d31c2328a056', 0),
    'toric-check --skip-orbits tower=smoke [text]': ('0226240fc05d05d082dea5ef07703612d1410dc448d64ad365a459689a2cc339', 0),
}

# job [format] -> (stdout sha256, exit code)
GOLDEN = {
    'kapranov-strong: check-strong F(1,2,3;4) [json]': ('f37a151083fb009710b1e8984dde98ed567271f7d1b770eb3dc15eb9f5f37f4c', 0),
    'kapranov-strong: check-strong F(1,2,3;4) [text]': ('f8da5bef827b21c1b93c5c84d07091f11022ed3762efef034b961f88e12f2f18', 0),
    'large-weight: cohom k=6 [json]': ('897a6a4e255905b16a2f5f53fa21834a8913090235262aa1d0e685406822162e', 0),
    'large-weight: cohom k=6 [text]': ('c276f9ba9bdc0dcf50696dbfcbdd62a643d0c2dddf15b375e75c987961c6d246', 0),
    'large-weight: cohom --stepwise k=6 [json]': ('4d040188dc103c979ed55e336ab72e927895b1c11d3d46de540707ebaccd1801', 0),
    'large-weight: cohom --stepwise k=6 [text]': ('fef762cd86312fcde7a316c885b5a774466307fa0a6c3f47584bb50d63b3f382', 0),
    'twist-sigma: twist-check --sigma F(1,2;3) [json]': ('3985c57a7ea99b23e278dcbd98bf80e0d080dd67c9c2d0faa55499d0b16ca0ed', 1),
    'twist-sigma: twist-check --sigma F(1,2;3) [text]': ('603dbaf1963b09d18c9121eea697d9b3d7b0e9d470e009ada7dcfba230b8e6cf', 1),
    'twist-sigma: twist-check --sigma F(1,3;4) [json]': ('fa0582a4022bd5412a0c4c8c1110698f0de7377012def2c2d776299909cbc854', 1),
    'twist-sigma: twist-check --sigma F(1,3;4) [text]': ('b59e56cda15c46fc4035d0d8c95140ecfe00e11b1cf4277de8bf26bcd8e780c6', 1),
    'toric-grid: toric-check tower=smoke [json]': ('823b74198a9aefddedbf1e7ae3735ecb5992f11570906858f2ee9a6566f5c3db', 0),
    'toric-grid: toric-check tower=smoke [text]': ('b64de174d7773cb0e523bce4544cd3fa1ad3008fbf4f1f1d2507d4e58ae41c0f', 0),
    'counterexample --case 1 --n 4 --dims 2 [json]': ('72803e1592e95b56b6cd7a9596d4400d62538c77c70edd90a2d7fa1aa7de0b87', 1),
    'counterexample --case 1 --n 4 --dims 2 [text]': ('2cd7048d7f646fb66b0cd9ba10d8bc87d757fd62e2aacffd60e9c22c64091126', 1),
    'counterexample --case 2 --n 5 --dims 1,4 [json]': ('675fa932f1fb75cebd86dbfe44f58a4bf9c53b254202e5b39fced6dbb692d919', 1),
    'counterexample --case 2 --n 5 --dims 1,4 [text]': ('0bedcb9b4de0ea6b2567a11c7bc81fda131735ce0f302a30196d93ee031ed465', 1),
    'counterexample --case 3 --n 4 --dims 1,2,3 [json]': ('d1823062c28c88d8afe0c739b4cc1264bf0a621f7a837c49762aba216bb7f307', 1),
    'counterexample --case 3 --n 4 --dims 1,2,3 [text]': ('19ca258c93debd34676bc0f5babc6b9f1819118c9d9f36147e1cc7e74c726326', 1),
}

# toric-grid tower variant -> (stdout sha256 of toric-check --format json, exit code)
TORIC_GOLDEN = {
    '0': ('b2bb21dcf2148ee274038711496d58787c13f38af9678e37ceb233366e2d1eaa', 0),
    '1': ('b7b28df236692896b1d040961ae68b6e13efdef5e50231b21dcc080425782eeb', 0),
    '2': ('29a2aff73818c1217d22ae9d38918140390b4ca753a9556ae8431b2f42fe5e0c', 0),
    '3': ('02d793f339c339be7950a73f70062fa06850d8d7027aa07601760f0689e0b27f', 0),
    '4': ('f62c87ead06774e78874c57fe195711e165f79afa6ec6879f01301ec2264c639', 0),
    '5': ('ad3214bf181d3a82bd20be0f938d35c3c65341168a788e7cf86324a8de86e638', 0),
    '6': ('86c6d28a59b80eff7071bd3ff9d8eb76d4c76898a82948ae55094f78bf0a439b', 0),
    '7': ('0a36b4df8cdc9e052e027e2b1e12af6e95abe56a2ff40bbf5fdd623159cb1385', 0),
}


# full-size large-weight job [format] -> (stdout sha256, exit code)
LARGE_WEIGHT_GOLDEN = {
    'cohom k=8 [json]': ('6e98d2809b2ff888e7b96130f34cbde3a270196ae10e15536af60f4bcd069399', 0),
    'cohom k=8 [text]': ('6f13096bda6725833ae7647e5b3bdb02f55840b92acac0eccd17e4abe356e58b', 0),
    'cohom --stepwise k=8 [json]': ('195562da6f3f4c9f2d5fb6bb40cc565f737346fe1ac2642fb8694e757b5dd78d', 0),
    'cohom --stepwise k=8 [text]': ('0e16d22f02fede47db19d3bd83c4c0611398161a30b529925ed8b8d0b1837251', 0),
    'cohom k=10 [json]': ('163d8878a7377f0f605506e2f14d8bf7858db0981d605d5ed30c220858f6d06f', 0),
    'cohom k=10 [text]': ('25d7ebd096a32b89f50aee13303ed51f1283c981e46ec2913a2dcffd303597dc', 0),
    'cohom --stepwise k=10 [json]': ('45684787c8c717e213d6122ca5f02963151e6e4ef94c4f3a177535f0fdc425c0', 0),
    'cohom --stepwise k=10 [text]': ('33e6251dece28985de4dedf0493017a566ab572a3ae7672baa50b13b40546c72', 0),
    'cohom k=12 [json]': ('f580b9726daaf6befc0db6e5a48bffe1abab0c66467244863170cbfe97852999', 0),
    'cohom k=12 [text]': ('6efaaac32a9443bd33b6bf5c77d0ab18d49e356d2d2a842a3c97dcd29b192ad3', 0),
    'cohom --stepwise k=12 [json]': ('adbf28b47f165023d07dbc3f6d277be9bd5ad10c5d2d4454a563dc8740702785', 0),
    'cohom --stepwise k=12 [text]': ('80e57cc7224e7e935a462e4633877d7bb072270a13d08a4021461e703292b4f2', 0),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _jobs(folder: Path) -> dict:
    """Job name -> flagcoh arguments, with input files written to ``folder``."""
    workloads = _workloads()
    out = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, 0, smoke=True):
            for name, data in job.files.items():
                (folder / name).write_text(json.dumps(data))
            out["%s: %s" % (workload, job.name)] = job.argv(folder)
    for argv in COUNTEREXAMPLES:
        out[" ".join(argv)] = argv
    return out


def _run(argv: list, fmt: str) -> tuple:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", fmt])  # the last --format wins
    return stdout.getvalue(), code


def _digest(argv: list, fmt: str) -> tuple:
    out, code = _run(argv, fmt)
    return hashlib.sha256(out.encode()).hexdigest(), code


def _pin_jobs(folder: Path) -> dict:
    """``PINS`` with their input files written to ``folder``: the smoke
    ``large-weight`` expression, each of its two factors alone, the smoke
    tower, ``kapranov``'s JSON output for F(1,3;4), and that collection
    with one more member: the sum of its first two, or the zero
    expression.  Pairs with a sum or the zero expression on either side
    take the pair memo's merged-terms key."""
    workloads = _workloads()
    expr = workloads.jobs("large-weight", 0, smoke=True)[0].files["expr_k6.json"]
    collection = json.loads(_run(PINS["kapranov F(1,3;4)"], "json")[0])
    members = collection["members"]
    files = {
        "expr_k6.json": expr,
        "tower.json": workloads.jobs("toric-grid", 0, smoke=True)[0].files["tower.json"],
        "collection.json": collection,
        "collection_sum.json": dict(
            collection,
            members=members + [dict(members[0], terms=members[0]["terms"] + members[1]["terms"])],
        ),
        "collection_zero.json": dict(collection, members=members + [dict(members[0], terms=[])]),
    }
    for factor in expr["terms"][0]["factors"]:
        files["%s.json" % factor["slot"]] = dict(expr, terms=[{"mult": 1, "factors": [factor]}])
    for name, data in files.items():
        (folder / name).write_text(json.dumps(data))
    names = list(files)
    out = {}
    for job, args in PINS.items():
        argv = []
        for arg in args:
            for name in names:
                arg = arg.replace("{%s}" % name, str(folder / name))
            argv.append(arg)
        out[job] = argv
    return out


def _digests(folder: Path) -> dict:
    out = {}
    for name, argv in _jobs(folder).items():
        for fmt in ("json", "text"):
            out["%s [%s]" % (name, fmt)] = _digest(argv, fmt)
    return out


def test_cli_output_is_byte_identical(tmp_path):
    assert _digests(tmp_path) == GOLDEN


def test_every_subcommand_is_byte_identical(tmp_path):
    got = {}
    for name, argv in _pin_jobs(tmp_path).items():
        for fmt in ("json", "text"):
            got["%s [%s]" % (name, fmt)] = _digest(argv, fmt)
    assert got == PIN_GOLDEN


def test_toric_check_full_size_is_byte_identical(tmp_path):
    workloads = _workloads()
    got = {}
    for key in TORIC_GOLDEN:
        job = workloads._toric(key)
        for name, data in job.files.items():
            (tmp_path / name).write_text(json.dumps(data))
        got[key] = _digest(job.argv(tmp_path), "json")
    assert got == TORIC_GOLDEN


def test_large_weight_full_size_is_byte_identical(tmp_path):
    workloads = _workloads()
    got = {}
    for job in workloads.jobs("large-weight", 0):
        for name, data in job.files.items():
            (tmp_path / name).write_text(json.dumps(data))
        for fmt in ("json", "text"):
            got["%s [%s]" % (job.name, fmt)] = _digest(job.argv(tmp_path), fmt)
    assert got == LARGE_WEIGHT_GOLDEN

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CliRunner, posets
from hypothesis import given
from hypothesis import strategies as st

import heylab
from heylab import corpus as corpus_mod
from heylab import ladder as ladder_mod
from heylab.algebra import algebra_of
from heylab.cli import COMMANDS, GLOBAL_OPTIONS, _option_row, main
from heylab.poset import EXACT_COUNT_BITS, poset_to_json, validate


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fork_file(tmp_path):
    P = validate(["b", "x", "y"], [(0, 1), (0, 2)])
    path = tmp_path / "fork.json"
    path.write_text(json.dumps(poset_to_json(P)))
    return str(path)


def test_ladder_json(runner):
    res = runner.invoke(main, ["ladder", "--n", "1", "--depth", "2"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["points"]) == 7
    assert data["levels"]["x0_0"] == 0


def test_ladder_dot(runner):
    res = runner.invoke(main, ["--format", "dot", "ladder", "--n", "0", "--depth", "2"])
    assert res.exit_code == 0
    assert res.output.startswith("digraph poset {")


# sha256 of `ladder` stdout, pinned from the ladder built by closing its
# raw rule pairs: building the up-sets from the level rule changes no byte
LADDER_DIGESTS = [
    pytest.param(
        ["ladder", "--n", "2", "--depth", "3"],
        "cc2dd4f8d860f0a811aac8682f55b057f3ab721f96571ce8142a90032c9c22b3",
        id="json-n2-d3",
    ),
    pytest.param(
        ["--format", "dot", "ladder", "--n", "1", "--depth", "3"],
        "15564d845aaadc6c39f3e8fcad0d27d9ac3929b5e5623e7c16b7abb5e1a24d68",
        id="dot-n1-d3",
    ),
]


@pytest.mark.parametrize("args, digest", LADDER_DIGESTS)
def test_ladder_output_digest(runner, args, digest):
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_ladder_invalid(runner):
    res = runner.invoke(main, ["ladder", "--n", "-1", "--depth", "2"])
    assert res.exit_code == 1


def test_upsets(runner, fork_file):
    res = runner.invoke(main, ["upsets", fork_file])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 5
    assert data["upsets"][0] == []
    assert data["upsets"][-1] == [0, 1, 2]


def test_double_dash_ends_the_options(runner, fork_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "--help").write_text(Path(fork_file).read_text())
    res = runner.invoke(main, ["upsets", "--", "--help"])
    assert res.exit_code == 0
    assert res.stdout == runner.invoke(main, ["upsets", fork_file]).stdout


def test_closed_stdout_exits_1_without_a_traceback(fork_file):
    # the reader has gone away before the report is written, as under `| head`
    src = str(Path(heylab.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "heylab.cli", "upsets", fork_file],
        env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_upsets_missing_file(runner):
    res = runner.invoke(main, ["upsets", "/nonexistent.json"])
    assert res.exit_code == 1


def test_algebra(runner, fork_file):
    res = runner.invoke(main, ["algebra", fork_file])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 5
    assert data["elements"][data["top"]] == [0, 1, 2]


def test_types_omega(runner, fork_file):
    res = runner.invoke(main, ["types", fork_file, "--colour", "x"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["stage"] == "omega"
    assert data["stabilized_at"] == 1
    assert sorted(map(len, data["blocks"])) == [1, 1, 1]


def test_types_stage(runner, fork_file):
    res = runner.invoke(main, ["types", fork_file, "--colour", "x", "--stage", "0"])
    data = json.loads(res.output)
    assert data["stage"] == 0
    assert data["blocks"] == [[0, 2], [1]]


def test_types_stage_past_fixpoint(runner, fork_file):
    # stages past the omega fixpoint repeat it, so this returns at once
    res = runner.invoke(main, ["types", fork_file, "--colour", "x", "--stage",
                               "100000000"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["stage"] == 100000000
    assert data["blocks"] == [[0], [1], [2]]


# sha256 of `types` stdout for the n=1 depth-4 ladder coloured by x1_0 and
# x2_0: the omega partition stabilizes at stage 5, and stages 0-3 split it
# into 3, 6, 8 and 10 blocks
TYPES_DIGESTS = {
    None: "a073693d0346cd59a9c14eabb62e1748fb6ef3b37ef0460a802eeb4f86b46c59",
    0: "8c0f997b6bde58ea1962bf05ac2288c50eefe5176231391c0f6ada4fe2e1994d",
    1: "e300cdff01804ec6893c65b590ddb867b8eefcdd45e6dca76bc7ee378b8ccb81",
    2: "6465a32c6382f5cfefcb570a95856b05da8e73bb482c06a0c81840014488a898",
    3: "881d91bd0682982483fa8b231b8158a4bc9ad0dba24489f7e29249b5e8ca8bbd",
}


@pytest.mark.parametrize("stage", list(TYPES_DIGESTS), ids=str)
def test_types_report_digest(runner, tmp_path, stage):
    path = tmp_path / "ladder.json"
    ladder = runner.invoke(main, ["ladder", "--n", "1", "--depth", "4"])
    path.write_bytes(ladder.stdout_bytes)
    argv = ["types", str(path), "--colour", "x1_0", "--colour", "x2_0"]
    res = runner.invoke(main, argv + ([] if stage is None else ["--stage", str(stage)]))
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == TYPES_DIGESTS[stage]


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["ladder", "--help"],
    # main's checks of the global options do not stop a command's help
    ["--format", "dot", "upsets", "--help"],
    ["--budget-upsets", "0", "upsets", "--help"],
    ["--format", "yaml", "upsets", "--help"],
])
def test_help_exits_0(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    assert res.stdout.startswith("Usage:")


# sha256 of `heylab --help` and of `heylab CMD --help`, 80 columns wide,
# pinned while every module was still imported at start-up; verify's was
# pinned again when each of its option rows got a line of help
HELP_DIGESTS = {
    "": "45ec71eaecdb026a8a8e7c22104d8f8b447847de4e42b50acb19ed0b6608ad21",
    "algebra": "dbe5391077d5054ea4af8a377b641a81ef8a732f71da9d57682a01b4786782f3",
    "colour-search": "ee30ff04e6c480fa119b01ac1fd94b843f115706febc1d1f78d02bf3844266da",
    "generate": "f3f118a9722cc532b981d2b2a17a8e93596778f82afe40db3683969a72b50930",
    "ladder": "8f2cb3752ce3bedb69927130422d89413ecc89cf499cb205dda1388f692afbf0",
    "product": "d1b520bdb04824a5535904aa66b6d1eed25b2a1888aeabc62d78c93de8141e95",
    "strictness": "dd338bdc1f378b6920f277b4152dec67576a07bad3b3e50765c0f8defcea71e6",
    "types": "c8e64ff44c91cdff671fd91ae32756261e3c18416939b5b7fbe8c56c12e60fe6",
    "upsets": "e2e95792b9ac9c7dc273e15791b699107d6ce2d7b84f4971a53bf6375e2a7329",
    "verify": "b065bdac60770ed69dcb2505f784cfc213718d487638799af4eeea3a42054d8b",
}


def _help(runner, command: str, width: int = 80):
    argv = [command, "--help"] if command else ["--help"]
    return runner.invoke(main, argv, prog_name="heylab", terminal_width=width)


def test_every_command_has_its_help_pinned():
    assert sorted(HELP_DIGESTS) == ["", *sorted(COMMANDS)]


@pytest.mark.parametrize("command", HELP_DIGESTS, ids=lambda c: c or "heylab")
def test_help_digest(runner, command):
    res = _help(runner, command)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == HELP_DIGESTS[command]


def test_no_option_row_is_empty():
    # the help layout gives every option a text column, for heylab and for
    # each command, verify's lemma options included
    params = [*GLOBAL_OPTIONS, *(p for _, ps in COMMANDS.values() for p in ps)]
    rows = [_option_row(p) for p in params if p.name[0] == "-"]
    assert len(rows) > len(GLOBAL_OPTIONS)
    assert [term for term, text in rows if not text] == []


# sha256 of the same pages at the narrowest width the terminal default
# gives and at a wide one, pinned while the rows were wrapped by hand
# (verify's, again, when each of its option rows got a line of help)
HELP_WIDTH_DIGESTS = [
    pytest.param("", 50, "caad7bd1e1d4bca059544d29bf5bfabda90c1da0d2282f34d396178cfd8fd312",
                 id="heylab-50"),
    pytest.param("", 120, "bffd152de1c0cdd721ea4e29499cdca3fb1f943107fefaed9e7a70941dba8eaa",
                 id="heylab-120"),
    pytest.param("verify", 50,
                 "2379c46314c30897cdf8c54aaaf9f04c7d7555c2a102350279b476b5a8448789",
                 id="verify-50"),
    pytest.param("verify", 120,
                 "a20e18ff78749631a82bb6205fef5dde70dddac7409769af6fe3f0511f9eda9e",
                 id="verify-120"),
]


@pytest.mark.parametrize("command, width, digest", HELP_WIDTH_DIGESTS)
def test_help_digest_at_other_widths(runner, command, width, digest):
    res = _help(runner, command, width)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_help_shows_the_default_budgets_and_seed(runner):
    out = _help(runner, "").stdout
    for flag, default in (("budget-upsets", 1 << 20), ("budget-tuples", 1 << 20),
                          ("seed", 2718)):
        assert re.search(rf"\n  --{flag} INTEGER +\[default: {default}\]\n", out)


def test_types_rejects_non_upset(runner, fork_file):
    res = runner.invoke(main, ["types", fork_file, "--colour", "b"])
    assert res.exit_code == 1


def test_types_rejects_unknown_point(runner, fork_file):
    res = runner.invoke(main, ["types", fork_file, "--colour", "zzz"])
    assert res.exit_code == 1


def test_colour_search_found(runner, fork_file):
    res = runner.invoke(main, ["colour-search", fork_file, "--k", "1"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["found"] is True and len(data["colours"]) == 1


def test_colour_search_not_found(runner, fork_file):
    res = runner.invoke(main, ["colour-search", fork_file, "--k", "0"])
    assert res.exit_code == 3
    assert json.loads(res.output)["found"] is False


# sha256 of stdout, and the exit code, of runs whose multiset scan draws only
# the empty generator tuple (k = 0), pinned from the scans that refined each
# multiset from scratch, and of one k = 2 search that finds a colouring;
# "{fork}", "{point}" and "{ladder}" (n = 1, depth 4) name poset files
EMPTY_TUPLE_DIGESTS = [
    pytest.param(
        ["strictness", "--n", "0", "--depths", "1,2,3"], 0,
        "a21f3eee4a5e41daa8376c75006e7b573c84782f6fe3481d35d0a5bf1df0b18a",
        id="strictness-n0",
    ),
    pytest.param(
        ["verify", "non-colourable", "--n", "1", "--depth", "2", "--k", "0"], 0,
        "7b17595ef8d8049584b2b43228999f992aa4b8d2ff03a739eb96577594d3d654",
        id="non-colourable-k0",
    ),
    pytest.param(
        ["colour-search", "{fork}", "--k", "0"], 3,
        "5e636cf0e83f9cc480109db15ce5801a474f6067ab384d1ccaa50bdd877b4060",
        id="colour-search-fork-k0",
    ),
    pytest.param(
        ["colour-search", "{point}", "--k", "0"], 0,
        "24b1b3fcbfc6109c0c9240c87ee2281eeba8085a4d948999cdc931cd9c940330",
        id="colour-search-point-k0",
    ),
    pytest.param(
        ["colour-search", "{ladder}", "--k", "2"], 0,
        "19a613bcb48aefa462909d02f913382d21cc5a2c84e5b19352f40eaf7dd89ea8",
        id="colour-search-ladder-k2",
    ),
]


# sha256 of stdout, and the exit code, of n = 2 strictness runs, pinned from
# the scan that counted every quotient of more than log2(best) classes on an
# up-matrix of its classes; depths 3-5 exit 3, since the largest generated
# size still grows there (53, 62, 66) before it holds at 66
STRICTNESS_N2_DIGESTS = [
    pytest.param(
        ["strictness", "--n", "2", "--depths", "5,6"], 0,
        "9abb3883858b16f9f7f05e98fbab2a73f3f5f1d14532b89be04ee1bf2c8ae4d9",
        id="n2-d5-6",
    ),
    pytest.param(
        ["strictness", "--n", "2", "--depths", "3,4,5"], 3,
        "09312d7992815390e6a184826654b813d457eb281911ca63b9c9ccfaa9417dfd",
        id="n2-d3-5",
    ),
]


@pytest.mark.parametrize("args, code, digest", STRICTNESS_N2_DIGESTS)
def test_strictness_n2_report_digest(runner, args, code, digest):
    res = runner.invoke(main, args)
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("args, code, digest", EMPTY_TUPLE_DIGESTS)
def test_empty_generator_tuple_reports(runner, fork_file, tmp_path, args, code, digest):
    point_file = tmp_path / "point.json"
    point_file.write_text(json.dumps(poset_to_json(validate(["p"], []))))
    ladder_file = tmp_path / "ladder.json"
    ladder = ladder_mod.build_ladder(ladder_mod.LadderSpec(1, 4))
    ladder_file.write_text(json.dumps(poset_to_json(ladder)))
    argv = [a.format(fork=fork_file, point=point_file, ladder=ladder_file) for a in args]
    res = runner.invoke(main, argv)
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_generate(runner, fork_file):
    res = runner.invoke(main, ["generate", fork_file, "--gen", "x"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 5
    by_upset = {tuple(e["upset"]): e for e in data["elements"]}
    assert by_upset[(2,)]["rank"] == 1
    assert by_upset[(2,)]["witness"] == "(-> g0 0)"


# sha256 of `generate` stdout, pinned from the rounds that copied each
# stratum before adding its implications: the n = 1 depth-9 ladder by
# x1_0 and x2_0 (81 elements, 1.42 MB of witness texts) and the n = 2
# depth-3 ladder by its canonical colouring (103 elements)
GENERATE_DIGESTS = [
    pytest.param(
        1, 9, ["x1_0", "x2_0"],
        "ccab4af530a2df91d6573481b0ad4db8a1999af556b196668f51ad76d81f9c57",
        id="n1-d9",
    ),
    pytest.param(
        2, 3, ["x1_0,x3_0", "x2_0,x3_0", "x4_0"],
        "af76b7e2af4436360fdc9576d2323f9de6bb15770147c383cece284f54eace40",
        id="n2-d3-canonical",
    ),
]


@pytest.mark.parametrize("n, depth, gens, digest", GENERATE_DIGESTS)
def test_generate_output_digest(runner, tmp_path, n, depth, gens, digest):
    path = tmp_path / "ladder.json"
    ladder = ladder_mod.build_ladder(ladder_mod.LadderSpec(n, depth))
    path.write_text(json.dumps(poset_to_json(ladder)))
    res = runner.invoke(main, ["generate", str(path), *(f"--gen={g}" for g in gens)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_verify_pass(runner):
    res = runner.invoke(main, ["verify", "residuation", "--corpus", "exhaustive3"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True and data["seed_global"] == 2718


@pytest.mark.parametrize(
    "corpus, code", [("exhaustive0", 1), ("random5:x", 1), ("exhaustive10", 2)]
)
def test_verify_bad_corpus(runner, corpus, code):
    res = runner.invoke(main, ["verify", "residuation", "--corpus", corpus])
    assert res.exit_code == code
    assert res.output.count("\n") == 1 and repr(corpus) in res.output


def test_verify_unknown_lemma(runner):
    res = runner.invoke(main, ["verify", "frobnication"])
    assert res.exit_code == 1


def test_verify_fail_exit_code(runner, monkeypatch):
    monkeypatch.setattr(
        "heylab.verify.run_verification",
        lambda name, **kw: {"lemma": name, "passed": False, "failures": [{}]},
    )
    res = runner.invoke(main, ["verify", "residuation"])
    assert res.exit_code == 3


def test_strictness_text(runner):
    res = runner.invoke(
        main, ["--format", "text", "strictness", "--n", "1", "--depths", "4,5"]
    )
    assert res.exit_code == 0
    assert "depth" in res.output and "passed: True" in res.output


def test_strictness_bad_depths(runner):
    res = runner.invoke(main, ["strictness", "--depths", "4,x"])
    assert res.exit_code == 1


def test_format_without_rendering_names_it(runner, fork_file):
    res = runner.invoke(main, ["--format", "dot", "upsets", fork_file])
    assert res.exit_code == 1
    assert "--format dot" in res.stderr


def test_unsupported_format_exits_before_the_command_runs(runner, monkeypatch):
    def scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr("heylab.verify.verify_strictness", scan)
    argv = ["--format", "dot", "strictness", "--n", "2", "--depths", "5,6,7,8"]
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert len(res.stderr.splitlines()) == 1 and "--format dot" in res.stderr


def test_product_table_cap(runner, fork_file, tmp_path):
    f = tmp_path / "fork-algebra.json"
    f.write_text(runner.invoke(main, ["algebra", fork_file]).output)
    # fork x fork: 25 elements, 625 entries per table
    res = runner.invoke(main, ["--budget-upsets", "600", "product", str(f), str(f)])
    assert res.exit_code == 2
    assert len(res.stderr.splitlines()) == 1 and "625" in res.stderr
    res = runner.invoke(main, ["--budget-upsets", "625", "product", str(f), str(f)])
    assert res.exit_code == 0 and json.loads(res.output)["size"] == 25


def test_failed_strictness_prints_its_report(runner, monkeypatch):
    # a broken ladder builder that ignores the depth: the algebra sizes do
    # not strictly increase (a repeated depth is refused, see MALFORMED)
    orig = ladder_mod.build_ladder
    monkeypatch.setattr(
        "heylab.variety.build_ladder",
        lambda spec, budget=None: orig(ladder_mod.LadderSpec(spec.n, 4), budget),
    )
    res = runner.invoke(main, ["strictness", "--n", "1", "--depths", "4,5"])
    assert res.exit_code == 3
    report = json.loads(res.output)
    assert [r["algebra_size"] for r in report["rows"]] == [36, 36]
    assert not report["algebra_size_strictly_increasing"] and not report["passed"]


def test_failed_non_colourable_prints_its_report(runner):
    argv = ["verify", "non-colourable", "--n", "1", "--depth", "2", "--k", "2"]
    res = runner.invoke(main, argv)
    assert res.exit_code == 3
    report = json.loads(res.output)
    assert (report["checked"], report["coloured_found"]) == (324, 42)
    assert not report["passed"]


def test_product_checks_laws_within_the_tuple_budget(runner, tmp_path):
    f = tmp_path / "chain2.json"
    f.write_text(json.dumps(CHAIN2))
    res = runner.invoke(main, ["--budget-tuples", "8", "product", str(f), str(f)])
    assert res.exit_code == 0
    assert json.loads(res.output)["size"] == 4
    res = runner.invoke(main, ["--budget-tuples", "7", "product", str(f), str(f)])
    assert res.exit_code == 2
    assert "--budget-tuples" in res.stderr


def test_product(runner, tmp_path):
    from heylab.algebra import algebra_of

    A = algebra_of(validate(["p"], []))
    f = tmp_path / "a.json"
    f.write_text(json.dumps(A.to_json()))
    res = runner.invoke(main, ["product", str(f), str(f)])
    assert res.exit_code == 0
    assert json.loads(res.output)["size"] == 4


def test_out_file(runner, fork_file, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["--out", str(out), "upsets", fork_file])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["count"] == 5
    # a command that fails writes nothing
    res = runner.invoke(main, ["--out", str(out), "upsets", fork_file + ".missing"])
    assert res.exit_code == 1
    assert json.loads(out.read_text())["count"] == 5


def test_bad_budget_rejected(runner, fork_file):
    res = runner.invoke(main, ["--budget-upsets", "0", "upsets", fork_file])
    assert res.exit_code == 1


# sha256 of the stdout of `heylab verify ...` for every lemma, and its exit
# code, pinned from the reports of the code before the lemma registry:
# moving what each lemma takes into one registry must not change a byte of
# any report
VERIFY_DIGESTS = [
    pytest.param(
        ["residuation", "--corpus", "exhaustive3"], 0,
        "519c05281e96d656570d80973b41cd1932deb086852d658edfd60efdedfb1514",
        id="residuation",
    ),
    pytest.param(
        ["rank-type", "--corpus", "exhaustive3", "--gens-per-poset", "3"], 0,
        "b256bc2c7e3a8dec1b6e677d4bd94b223a8a21a367a72328c03b7640cf6545c3",
        id="rank-type",
    ),
    pytest.param(
        ["duality", "--corpus", "exhaustive3", "--gens-per-poset", "3"], 0,
        "2de9ce2444b90ebc929f9266b5560b8c55d02042bc627e867085c5a8d2cb4c8d",
        id="duality",
    ),
    pytest.param(
        ["oracle", "--corpus", "exhaustive3", "--gens-per-poset", "3"], 0,
        "8671e389a9eaef6fddd95be86c31783766af6f08b2d81b5d88a2ce6843c3842f",
        id="oracle",
    ),
    pytest.param(
        ["canonical", "--n", "1", "--depth", "4"], 0,
        "1163c37c1e70e2e761712714cd9b6700e3a96474d8475d50cd253cb20178a6e3",
        id="canonical",
    ),
    pytest.param(
        ["collapse", "--n", "1", "--samples", "3"], 0,
        "88f5573486d6e1424b8e1f1604b8635bd67331b58b75e167f86abd663f45d714",
        id="collapse",
    ),
    pytest.param(
        ["non-colourable", "--n", "1", "--depth", "3"], 0,
        "8a65cb9056d5f79ad4e58f07b7a0a59c55b180a1132b6fb68630d4485d48279e",
        id="non-colourable-exhaustive",
    ),
    pytest.param(
        ["non-colourable", "--n", "2", "--depth", "2", "--k", "2", "--samples", "20"], 0,
        "0e2598c15cb7fbe481a5390f5a04b99a866143de6f831c43da98449bbb065084",
        id="non-colourable-sampled",
    ),
    # walks three deep, the memo re-seeded under each first generator; 3
    # colours colour these truncations, so the lemma fails (exit 3)
    pytest.param(
        ["non-colourable", "--n", "2", "--depth", "2", "--k", "3"], 3,
        "ab25e8262f3e13b12a98f9456af767e9c1ae1eca48c882c814e7679319ae9129",
        id="non-colourable-n2-k3",
    ),
    pytest.param(
        ["non-colourable", "--n", "1", "--depth", "4", "--k", "3"], 3,
        "90c6f2176a1481178a46d7c0f871e83b69604dd8c4e005cbe4c00cfdea88a201",
        id="non-colourable-n1-d4-k3",
    ),
    pytest.param(
        ["next-level", "--n", "1", "--depth", "4", "--samples", "5"], 0,
        "59b09185e24d834dcd5f865005f618c6df6ff954fc577a8fa4d7ba956a59d2da",
        id="next-level",
    ),
    pytest.param(
        ["strictness", "--n", "1", "--depths", "4,5"], 0,
        "8d343ae8f9713d494598a3d0358115be40a14e326ca04d4de5d2d10b2c91b92b",
        id="strictness",
    ),
]


@pytest.mark.parametrize("args, code, digest", VERIFY_DIGESTS)
def test_verify_report_digest(runner, args, code, digest):
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("cap, lemma", [(144, "rank-type"), (3, "collapse")])
def test_sampled_run_at_its_tuple_cap(runner, cap, lemma):
    # a run that reaches its cap exactly prints the same bytes; one below
    # it exits 2 (rank-type: 8 posets x 3 draws x 6 stages; collapse: 3
    # samples)
    args, _, digest = next(p.values for p in VERIFY_DIGESTS if p.id == lemma)
    res = runner.invoke(main, ["--budget-tuples", str(cap), "verify", *args])
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest
    res = runner.invoke(main, ["--budget-tuples", str(cap - 1), "verify", *args])
    assert res.exit_code == 2 and "(--budget-tuples)" in res.stderr


def test_corpus_over_the_tuple_cap_exits_before_building(runner, monkeypatch):
    def refuse(max_points):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(corpus_mod, "iter_posets_up_to_iso", refuse)
    res = runner.invoke(main, ["verify", "rank-type", "--corpus", "exhaustive8"])
    assert res.exit_code == 2
    assert res.stderr == (
        "error: 2333880 checks exceed the budget of 1048576 (--budget-tuples)\n"
    )
    # 202,680 posets x 20 draws x 6 stages
    res = runner.invoke(main, ["verify", "rank-type", "--corpus", "exhaustive9"])
    assert res.exit_code == 2
    assert res.stderr == (
        "error: 24321600 checks exceed the budget of 1048576 (--budget-tuples)\n"
    )


ONE_ELEMENT = {
    "size": 1,
    "elements": [[]],
    "meet": [[0]],
    "join": [[0]],
    "imp": [[0]],
    "bottom": 0,
    "top": 0,
}


WITHOUT_SIZE = {k: v for k, v in ONE_ELEMENT.items() if k != "size"}


def _algebra(**changes):
    return lambda write: write({**ONE_ELEMENT, **changes})


# the two-element chain algebra 0 < 1
CHAIN2 = {
    "size": 2,
    "elements": [[], [0]],
    "meet": [[0, 0], [0, 1]],
    "join": [[0, 1], [1, 1]],
    "imp": [[1, 1], [0, 1]],
    "bottom": 0,
    "top": 1,
}


def _chain2(**changes):
    return lambda write: write({**CHAIN2, **changes})


def _fork(write):
    return write(poset_to_json(validate(["b", "x", "y"], [(0, 1), (0, 2)])))


def _chain(write):
    # deeper than the interpreter's recursion limit
    n = 1200
    return write(poset_to_json(validate([f"c{i}" for i in range(n)],
                                        [(i, i + 1) for i in range(n - 1)])))


def _file(data):
    return lambda write: write(data)


def _cycle_with_line_breaks(write):
    return write({"points": ["a\nb", "c"], "leq": [[0, 1], [1, 0]]})


def _antichain(n):
    return lambda write: write(poset_to_json(validate([f"a{i}" for i in range(n)], [])))


def _ladder(n, depth):
    P = ladder_mod.build_ladder(ladder_mod.LadderSpec(n, depth))
    return lambda write: write(poset_to_json(P))


def _raw(text):
    # json.dumps recurses once per level of nesting, so deep files are text
    return lambda write: write(text, raw=True)


def _nested(depth):
    return "[" * depth + "]" * depth


def _directory(write):
    # the directory that the input files are written to
    return str(Path(write({})).parent)


# argv (a callable item writes an input file and gives its path), exit code
MALFORMED = [
    pytest.param(["--budget-tuples", "10", "strictness", "--n", "1", "--depths", "4"],
                 2, id="strictness-tuple-budget"),
    pytest.param(["--budget-tuples", "10", "verify", "strictness", "--n", "1",
                  "--depths", "4"], 2, id="verify-strictness-tuple-budget"),
    pytest.param(["--budget-upsets", "3", "verify", "residuation", "--corpus",
                  "exhaustive3"], 2, id="verify-upset-budget"),
    # the (b, c) pairs of a corpus's posets so far, counted poset by poset
    pytest.param(["--budget-tuples", "100", "verify", "residuation", "--corpus",
                  "exhaustive3"], 2, id="residuation-pairs-tuple-budget"),
    pytest.param(["--budget-upsets", "1000", "upsets", _chain], 2, id="chain1200"),
    pytest.param(["--budget-upsets", "4", "generate", _fork, "--gen", "x"], 2,
                 id="generate-upset-budget"),
    # no --gen: the constants 0 and 1 alone exceed the cap
    pytest.param(["--budget-upsets", "1", "generate", _ladder(1, 2)], 2,
                 id="generate-constants-budget"),
    pytest.param(["--budget-upsets", "5", "ladder", "--n", "2", "--depth", "8"], 2,
                 id="ladder-point-budget"),
    # 32,771 points, but 268,484,611 rule pairs under the default budget
    pytest.param(["--budget-upsets", "1048576", "verify", "canonical", "--n", "14",
                  "--depth", "2"], 2, id="canonical-ladder-budget"),
    pytest.param(["--budget-upsets", "15", "product", _chain2(), _chain2()], 2,
                 id="product-table-budget"),
    pytest.param(["--budget-upsets", "3", "verify", "collapse", "--n", "1",
                  "--samples", "5"], 2, id="collapse-upset-budget"),
    # sampled runs are capped by --budget-tuples before anything is drawn:
    # a lemma over a corpus by its posets x gens-per-poset x checks per draw
    pytest.param(["--budget-tuples", "100", "verify", "duality", "--corpus",
                  "exhaustive3", "--gens-per-poset", "13"], 2,
                 id="gens-per-poset-tuple-budget"),
    pytest.param(["--budget-tuples", "1048576", "verify", "rank-type", "--corpus",
                  "exhaustive3", "--gens-per-poset", "1", "--max-stage",
                  str(10**100)], 2, id="max-stage-tuple-budget"),
    pytest.param(["--budget-tuples", "10", "verify", "collapse", "--n", "1",
                  "--samples", "11"], 2, id="collapse-samples-tuple-budget"),
    pytest.param(["--budget-tuples", "10", "verify", "next-level", "--n", "1",
                  "--depth", "4", "--samples", "11"], 2,
                 id="next-level-samples-tuple-budget"),
    pytest.param(["--budget-tuples", "10", "verify", "non-colourable", "--n", "1",
                  "--depth", "3", "--samples", "11"], 2,
                 id="non-colourable-samples-tuple-budget"),
    pytest.param(["--budget-upsets", "3", "verify", "next-level", "--n", "1",
                  "--depth", "4", "--samples", "5"], 2, id="next-level-upset-budget"),
    # 2,048 upsets, so 4,194,304 entries per table
    pytest.param(["--budget-upsets", "1048576", "algebra", _antichain(11)], 2,
                 id="algebra-table-budget"),
    # the level width 2**n + 1 is refused by n, before the power is formed
    pytest.param(["--budget-upsets", "1048576", "ladder", "--n", "15000", "--depth",
                  "1"], 2, id="ladder-n-15000"),
    pytest.param(["--budget-upsets", "1048576", "ladder", "--n", "100000000000",
                  "--depth", "1"], 2, id="ladder-n-1e11"),
    # C(10**400 + 31, 31) multisets of 32 upsets: 12,367 digits
    pytest.param(["--budget-tuples", "1048576", "colour-search", _antichain(5), "--k",
                  str(10**400)], 2, id="colour-search-k-1e400"),
    # a cap and an unreadable value of thousands of digits
    pytest.param(["--budget-upsets", "9" * 3000, "ladder", "--n", "1", "--depth",
                  "9" * 3000], 2, id="budget-3000-digits"),
    pytest.param(["ladder", "--n", "1", "--depth", "9" * 5000], 1,
                 id="depth-5000-digits"),
    pytest.param(["--out", _directory, "upsets", _fork], 1, id="out-directory"),
    pytest.param(["--out", "missing/dir/x.json", "upsets", _fork], 1,
                 id="out-missing-directory"),
    pytest.param(["upsets", _file({"points": [0, 1.5], "leq": [[True, False]]})],
                 1, id="points-type"),
    pytest.param(["upsets", _file({"points": "ab", "leq": []})], 1,
                 id="points-string"),
    pytest.param(["upsets", _file({"points": ["a", "b"], "leq": [[True, False]]})],
                 1, id="leq-bool"),
    pytest.param(["upsets", _file({"points": ["a", "b"], "leq": [],
                                   "levels": {"a": 1.5, "b": "top"}})], 1,
                 id="levels-type"),
    pytest.param(["upsets", _file({"points": ["a"], "leq": [], "levels": {"a": True}})],
                 1, id="levels-bool"),
    pytest.param(["upsets", _file({"points": ["a"], "leq": [], "levels": {"zz": 0}})],
                 1, id="levels-unknown-point"),
    # a file's top level must be an object holding every key its reader
    # needs (the messages: test_malformed_file_error_names_the_fault)
    pytest.param(["upsets", _file([["a"], []])], 1, id="poset-top-level-list"),
    pytest.param(["product", _file(WITHOUT_SIZE), _algebra()], 1,
                 id="algebra-missing-key"),
    pytest.param(["product", _chain2(size=9), _chain2()], 1, id="algebra-size"),
    pytest.param(["product", _algebra(meet=[[5]]), _algebra()], 1, id="entry-range"),
    pytest.param(["product", _algebra(), _algebra(join="x")], 1, id="table-type"),
    pytest.param(["product", _algebra(imp=[[0, 0]]), _algebra()], 1, id="table-shape"),
    pytest.param(["product", _algebra(top=1), _algebra()], 1, id="top-range"),
    pytest.param(["product", _algebra(bottom="0"), _algebra()], 1, id="bottom-type"),
    pytest.param(["product", _algebra(elements="a"), _algebra()], 1, id="elements"),
    pytest.param(["product", _chain2(imp=[[1, 1], [1, 1]]), _chain2()], 1,
                 id="laws-residuation"),
    pytest.param(["product", _chain2(), _chain2(meet=[[1, 0], [0, 1]])], 1,
                 id="laws-order"),
    pytest.param(["product", _chain2(bottom=1, top=0), _chain2()], 1,
                 id="laws-bottom-top"),
    pytest.param(["--budget-tuples", "7", "product", _chain2(), _chain2()], 2,
                 id="laws-budget"),
    pytest.param(["upsets", _cycle_with_line_breaks], 1, id="cycle-names-line-break"),
    # deeper than json.load recurses, and an element label deeper than
    # algebra_from_json recurses (json.load reads it)
    pytest.param(["upsets", _raw(_nested(100_000))], 1, id="json-nested-100000"),
    pytest.param(["product", _raw(json.dumps(ONE_ELEMENT).replace(
        '"elements": [[]]', f'"elements": [{_nested(600)}]')), _algebra()], 1,
        id="algebra-label-nested-600"),
    pytest.param(["--format", "dot", "upsets", _fork], 1, id="format-dot-upsets"),
    pytest.param(["--format", "text", "verify", "canonical", "--n", "1", "--depth",
                  "2"], 1, id="format-text-verify"),
    pytest.param(["verify", "rank-type", "--corpus", "exhaustive3", "--max-stage",
                  "-2"], 1, id="max-stage"),
    pytest.param(["verify", "duality", "--corpus", "exhaustive3", "--gens-per-poset",
                  "-1"], 1, id="gens-per-poset"),
    pytest.param(["verify", "collapse", "--n", "1", "--samples", "-1"], 1,
                 id="samples"),
    # 2**n + 6 levels are the least that leave the colours 2**n + 3 free below
    pytest.param(["verify", "collapse", "--n", "1", "--depth", "7"], 1,
                 id="collapse-depth"),
    pytest.param(["verify", "non-colourable", "--n", "1", "--depth", "3", "--samples",
                  "-2"], 1, id="sampled-scan"),
    pytest.param(["verify", "next-level", "--n", "1", "--depth", "4", "--k", "-1"],
                 1, id="k"),
    pytest.param(["verify", "canonical", "--n", "1", "--depth", "0"], 1, id="depth"),
    pytest.param(["verify", "canonical", "--depth", "3"], 1, id="depth-without-n"),
    pytest.param(["verify", "canonical", "--corpus", "exhaustive3"], 1,
                 id="option-not-taken"),
    pytest.param(["verify", "collapse"], 1, id="option-missing"),
    # the lemma holds at any depths; out of order they are refused, not failed
    pytest.param(["--format", "text", "strictness", "--n", "1", "--depths", "6,4"],
                 1, id="depths-decreasing"),
    pytest.param(["strictness", "--n", "1", "--depths", "4,4"], 1,
                 id="depths-repeated"),
    pytest.param(["verify", "strictness", "--n", "1", "--depths", "4,6,5"], 1,
                 id="verify-depths-decreasing"),
    pytest.param(["ladder", "--n", "x", "--depth", "2"], 1, id="usage-bad-int"),
    pytest.param(["ladder", "--depth", "2"], 1, id="usage-missing-option"),
    pytest.param(["ladder", "--n", "1", "--depth", "2", "--bogus"], 1,
                 id="usage-unknown-option"),
    pytest.param(["--budget-upsets", "x", "ladder", "--n", "1", "--depth", "2"], 1,
                 id="usage-global-option"),
    pytest.param(["--format", "yaml", "upsets", "p.json"], 1, id="usage-choice"),
    # no prefix of a name is taken for it, and the global options come
    # only before the command
    pytest.param(["ladder", "--n", "1", "--dep", "2"], 1, id="usage-abbreviated-option"),
    pytest.param(["upsets", _fork, "--seed", "3"], 1, id="usage-global-option-late"),
    # a message quoting a 400-character value is clipped
    pytest.param(["ladder", "--n", "1", "--depth", "1" * 399 + "x"], 1,
                 id="usage-bad-int-400-chars"),
    # any error line is clipped, not only a usage error's
    pytest.param(["verify", "x" * 1000], 1, id="lemma-name-1000-chars"),
    pytest.param(["verify"], 1, id="usage-missing-argument"),
    pytest.param(["nosuch"], 1, id="usage-unknown-command"),
    pytest.param([], 1, id="usage-no-command"),
]


@pytest.mark.parametrize("argv, code", MALFORMED)
def test_malformed_input_exits_with_one_line(runner, tmp_path, argv, code):
    written = []

    def write(data, raw=False):
        path = tmp_path / f"input{len(written)}.json"
        path.write_text(data if raw else json.dumps(data))
        written.append(path)
        return str(path)

    res = runner.invoke(main, [a(write) if callable(a) else a for a in argv])
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)  # not an uncaught error
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert len(res.stderr.rstrip("\n")) <= 200
    if code == 2:  # every budget error has one form, naming the flag given
        flag = next(a for a in argv if str(a).startswith("--budget-"))
        cap = argv[argv.index(flag) + 1]
        if int(cap).bit_length() > EXACT_COUNT_BITS:
            cap = r"2 \*\* \d+ or more"
        form = rf"error: \d+ \S.* exceed the budget of {cap} \({flag}\)\n"
        assert re.fullmatch(form, res.stderr)


NOT_AN_OBJECT = "the top level must be a JSON object"


@pytest.mark.parametrize("command, data, reason", [
    pytest.param("upsets", {"points": ["a"]}, "missing key 'leq'", id="poset-key"),
    pytest.param("upsets", [["a"], []], NOT_AN_OBJECT, id="poset-list"),
    pytest.param("upsets", "ab", NOT_AN_OBJECT, id="poset-string"),
    pytest.param("product", WITHOUT_SIZE, "missing key 'size'", id="algebra-key"),
    pytest.param("product", [ONE_ELEMENT], NOT_AN_OBJECT, id="algebra-list"),
])
def test_malformed_file_error_names_the_fault(runner, tmp_path, command, data, reason):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    # product reads two algebra files, upsets one poset file
    kind, files = ("algebra", 2) if command == "product" else ("poset", 1)
    res = runner.invoke(main, [command] + [str(path)] * files)
    assert res.exit_code == 1
    assert res.stderr == f"error: cannot read {kind} file {path}: {reason}\n"


# any JSON value, small enough that a poset read from it has few points
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


def _with_any_field(files, keys):
    """Files from the strategy, each with one of keys set to any JSON value."""
    return st.tuples(files, st.sampled_from(keys), json_values).map(
        lambda t: {**t[0], t[1]: t[2]}
    )


# posets with pairs out of range, cycles, duplicate points and stray levels
_near_posets = st.fixed_dictionaries(
    {
        "points": st.lists(st.text(max_size=2), max_size=5),
        "leq": st.lists(st.lists(st.integers(-1, 5), max_size=3), max_size=6),
    },
    optional={"levels": st.dictionaries(st.text(max_size=2), json_values, max_size=3)},
)
_exported_posets = posets(max_points=4).map(poset_to_json)
poset_files = st.one_of(
    json_values,
    _near_posets,
    _exported_posets,
    _with_any_field(_exported_posets, ["points", "leq", "levels"]),
)

# algebras with ragged tables, entries out of range and broken laws
_tables = st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3)
_near_algebras = st.fixed_dictionaries({
    "elements": st.lists(json_values, max_size=3),
    "meet": _tables,
    "join": _tables,
    "imp": _tables,
    "bottom": st.integers(-1, 3),
    "top": st.integers(-1, 3),
})
_exported_algebras = posets(max_points=3).map(lambda P: algebra_of(P).to_json())
algebra_files = st.one_of(
    json_values,
    _near_algebras,
    _exported_algebras,
    _with_any_field(_exported_algebras, list(CHAIN2)),
)


@given(poset_files, algebra_files)
def test_exit_contract_on_fuzzed_files(tmp_path_factory, poset, alg):
    # whatever the files hold: exit 0, 1 or 2, and an error is one line
    p, a = (tmp_path_factory.getbasetemp() / f"fuzz-{k}.json" for k in "pa")
    p.write_text(json.dumps(poset))
    a.write_text(json.dumps(alg))
    for argv in (["upsets", str(p)], ["algebra", str(p)], ["product", str(a), str(a)]):
        res = CliRunner().invoke(main, argv)
        assert res.exit_code in (0, 1, 2), (argv, res.exception)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        if res.exit_code:
            assert res.stdout == ""
            assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

import hashlib
import json

import pytest
from click.testing import CliRunner

from heylab.cli import main
from heylab.poset import poset_to_json, validate


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
    res = runner.invoke(main, ["ladder", "--n", "0", "--depth", "2", "--dot"])
    assert res.exit_code == 0
    assert res.output.startswith("digraph poset {")


def test_ladder_invalid(runner):
    res = runner.invoke(main, ["ladder", "--n", "-1", "--depth", "2"])
    assert res.exit_code == 1


def test_ladder_budget(runner):
    res = runner.invoke(
        main, ["--budget-upsets", "5", "ladder", "--n", "2", "--depth", "8"]
    )
    assert res.exit_code == 2


def test_upsets(runner, fork_file):
    res = runner.invoke(main, ["upsets", fork_file])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 5
    assert data["upsets"][0] == []
    assert data["upsets"][-1] == [0, 1, 2]


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


@pytest.mark.parametrize("argv", [["--help"], ["ladder", "--help"]])
def test_help_exits_0(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    assert res.stdout.startswith("Usage:")


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


def test_generate(runner, fork_file):
    res = runner.invoke(main, ["generate", fork_file, "--gen", "x"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 5
    by_upset = {tuple(e["upset"]): e for e in data["elements"]}
    assert by_upset[(2,)]["rank"] == 1
    assert by_upset[(2,)]["witness"] == "(-> g0 0)"


def test_verify_pass(runner):
    res = runner.invoke(main, ["verify", "residuation", "--corpus", "exhaustive3"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True and data["seed_global"] == 2718


@pytest.mark.parametrize(
    "corpus, code", [("exhaustive0", 1), ("random5:x", 1), ("exhaustive8", 2)]
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


def test_bad_budget_rejected(runner, fork_file):
    res = runner.invoke(main, ["--budget-upsets", "0", "upsets", fork_file])
    assert res.exit_code == 1


# sha256 of the stdout of `heylab verify ...` for every lemma, pinned from
# the reports of the code before the lemma registry: moving what each lemma
# takes into one registry must not change a byte of any report
VERIFY_DIGESTS = [
    pytest.param(
        ["residuation", "--corpus", "exhaustive3"],
        "519c05281e96d656570d80973b41cd1932deb086852d658edfd60efdedfb1514",
        id="residuation",
    ),
    pytest.param(
        ["rank-type", "--corpus", "exhaustive3", "--gens-per-poset", "3"],
        "b256bc2c7e3a8dec1b6e677d4bd94b223a8a21a367a72328c03b7640cf6545c3",
        id="rank-type",
    ),
    pytest.param(
        ["duality", "--corpus", "exhaustive3", "--gens-per-poset", "3"],
        "2de9ce2444b90ebc929f9266b5560b8c55d02042bc627e867085c5a8d2cb4c8d",
        id="duality",
    ),
    pytest.param(
        ["oracle", "--corpus", "exhaustive3", "--gens-per-poset", "3"],
        "8671e389a9eaef6fddd95be86c31783766af6f08b2d81b5d88a2ce6843c3842f",
        id="oracle",
    ),
    pytest.param(
        ["canonical", "--n", "1", "--depth", "4"],
        "1163c37c1e70e2e761712714cd9b6700e3a96474d8475d50cd253cb20178a6e3",
        id="canonical",
    ),
    pytest.param(
        ["collapse", "--n", "1", "--samples", "3"],
        "88f5573486d6e1424b8e1f1604b8635bd67331b58b75e167f86abd663f45d714",
        id="collapse",
    ),
    pytest.param(
        ["non-colourable", "--n", "1", "--depth", "3"],
        "8a65cb9056d5f79ad4e58f07b7a0a59c55b180a1132b6fb68630d4485d48279e",
        id="non-colourable-exhaustive",
    ),
    pytest.param(
        ["non-colourable", "--n", "2", "--depth", "2", "--k", "2", "--samples", "20"],
        "0e2598c15cb7fbe481a5390f5a04b99a866143de6f831c43da98449bbb065084",
        id="non-colourable-sampled",
    ),
    pytest.param(
        ["next-level", "--n", "1", "--depth", "4", "--samples", "5"],
        "59b09185e24d834dcd5f865005f618c6df6ff954fc577a8fa4d7ba956a59d2da",
        id="next-level",
    ),
    pytest.param(
        ["strictness", "--n", "1", "--depths", "4,5"],
        "8d343ae8f9713d494598a3d0358115be40a14e326ca04d4de5d2d10b2c91b92b",
        id="strictness",
    ),
]


@pytest.mark.parametrize("args, digest", VERIFY_DIGESTS)
def test_verify_report_digest(runner, args, digest):
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


ONE_ELEMENT = {
    "size": 1,
    "elements": [[]],
    "meet": [[0]],
    "join": [[0]],
    "imp": [[0]],
    "bottom": 0,
    "top": 0,
}


def _algebra(**changes):
    return lambda write: write({**ONE_ELEMENT, **changes})


def _chain(write):
    # deeper than the interpreter's recursion limit
    n = 1200
    return write(poset_to_json(validate([f"c{i}" for i in range(n)],
                                        [(i, i + 1) for i in range(n - 1)])))


# argv (a callable item writes an input file and gives its path), exit code
MALFORMED = [
    pytest.param(["--budget-tuples", "10", "strictness", "--n", "1", "--depths", "4"],
                 2, id="strictness-tuple-budget"),
    pytest.param(["--budget-tuples", "10", "verify", "strictness", "--n", "1",
                  "--depths", "4"], 2, id="verify-strictness-tuple-budget"),
    pytest.param(["--budget-upsets", "3", "verify", "residuation", "--corpus",
                  "exhaustive3"], 2, id="verify-upset-budget"),
    pytest.param(["--budget-upsets", "1000", "upsets", _chain], 2, id="chain1200"),
    pytest.param(["product", _algebra(meet=[[5]]), _algebra()], 1, id="entry-range"),
    pytest.param(["product", _algebra(), _algebra(join="x")], 1, id="table-type"),
    pytest.param(["product", _algebra(imp=[[0, 0]]), _algebra()], 1, id="table-shape"),
    pytest.param(["product", _algebra(top=1), _algebra()], 1, id="top-range"),
    pytest.param(["product", _algebra(bottom="0"), _algebra()], 1, id="bottom-type"),
    pytest.param(["product", _algebra(elements="a"), _algebra()], 1, id="elements"),
    pytest.param(["verify", "rank-type", "--corpus", "exhaustive3", "--max-stage",
                  "-2"], 1, id="max-stage"),
    pytest.param(["verify", "duality", "--corpus", "exhaustive3", "--gens-per-poset",
                  "-1"], 1, id="gens-per-poset"),
    pytest.param(["verify", "collapse", "--n", "1", "--samples", "-1"], 1,
                 id="samples"),
    pytest.param(["verify", "non-colourable", "--n", "1", "--depth", "3", "--samples",
                  "-2"], 1, id="sampled-scan"),
    pytest.param(["verify", "next-level", "--n", "1", "--depth", "4", "--k", "-1"],
                 1, id="k"),
    pytest.param(["verify", "canonical", "--n", "1", "--depth", "0"], 1, id="depth"),
    pytest.param(["verify", "canonical", "--depth", "3"], 1, id="depth-without-n"),
    pytest.param(["verify", "canonical", "--corpus", "exhaustive3"], 1,
                 id="option-not-taken"),
    pytest.param(["verify", "collapse"], 1, id="option-missing"),
    pytest.param(["ladder", "--n", "x", "--depth", "2"], 1, id="usage-bad-int"),
    pytest.param(["ladder", "--depth", "2"], 1, id="usage-missing-option"),
    pytest.param(["ladder", "--n", "1", "--depth", "2", "--bogus"], 1,
                 id="usage-unknown-option"),
    pytest.param(["--budget-upsets", "x", "ladder", "--n", "1", "--depth", "2"], 1,
                 id="usage-global-option"),
    pytest.param(["--format", "yaml", "upsets", "p.json"], 1, id="usage-choice"),
    pytest.param(["verify"], 1, id="usage-missing-argument"),
    pytest.param(["nosuch"], 1, id="usage-unknown-command"),
    pytest.param([], 1, id="usage-no-command"),
]


@pytest.mark.parametrize("argv, code", MALFORMED)
def test_malformed_input_exits_with_one_line(runner, tmp_path, argv, code):
    written = []

    def write(data):
        path = tmp_path / f"input{len(written)}.json"
        path.write_text(json.dumps(data))
        written.append(path)
        return str(path)

    res = runner.invoke(main, [a(write) if callable(a) else a for a in argv])
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)  # not an uncaught error
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

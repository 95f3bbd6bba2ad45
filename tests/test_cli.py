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

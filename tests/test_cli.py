import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import posets
from hypothesis import given
from hypothesis import strategies as st

from heylab.algebra import algebra_of
from heylab.cli import main
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
])
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
    "corpus, code", [("exhaustive0", 1), ("random5:x", 1), ("exhaustive9", 2)]
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


def test_failed_strictness_prints_its_report(runner):
    # a repeated depth: the algebra sizes do not strictly increase
    res = runner.invoke(main, ["strictness", "--n", "1", "--depths", "4,4"])
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
    pytest.param(["--budget-upsets", "1000", "upsets", _chain], 2, id="chain1200"),
    pytest.param(["--budget-upsets", "4", "generate", _fork, "--gen", "x"], 2,
                 id="generate-upset-budget"),
    pytest.param(["--budget-upsets", "5", "ladder", "--n", "2", "--depth", "8"], 2,
                 id="ladder-point-budget"),
    # 32,771 points, but 268,484,611 rule pairs under the default budget
    pytest.param(["--budget-upsets", "1048576", "verify", "canonical", "--n", "14",
                  "--depth", "2"], 2, id="canonical-ladder-budget"),
    pytest.param(["--budget-upsets", "15", "product", _chain2(), _chain2()], 2,
                 id="product-table-budget"),
    pytest.param(["--budget-upsets", "3", "verify", "collapse", "--n", "1",
                  "--samples", "5"], 2, id="collapse-upset-budget"),
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
    pytest.param(["--format", "dot", "upsets", _fork], 1, id="format-dot-upsets"),
    pytest.param(["--format", "text", "verify", "canonical", "--n", "1", "--depth",
                  "2"], 1, id="format-text-verify"),
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
    assert len(res.stderr.rstrip("\n")) <= 200
    if code == 2:  # every budget error has one form, naming the flag given
        flag = next(a for a in argv if str(a).startswith("--budget-"))
        cap = argv[argv.index(flag) + 1]
        if int(cap).bit_length() > EXACT_COUNT_BITS:
            cap = r"2 \*\* \d+ or more"
        form = rf"error: \d+ \S.* exceed the budget of {cap} \({flag}\)\n"
        assert re.fullmatch(form, res.stderr)


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

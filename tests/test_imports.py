"""What each cold process loads, and the package's public names.

`import heylab` loads no submodule; each public name loads its home module
on first use. Each CLI command loads only the modules it runs, so the light
commands never compile verify, corpus or variety, and a verify lemma loads
only the modules its body imports. No cold command loads inspect or
dataclasses (about 10 ms with what they import).
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heylab
from heylab.poset import poset_to_json, validate

SRC = str(Path(heylab.__file__).resolve().parents[1])

# the names heylab/__init__.py imported from each home module when it
# loaded every module eagerly
PUBLIC = {
    "algebra": ["FiniteHeytingAlgebra", "algebra_of"],
    "colouring": ["find_k_colouring", "stage_types"],
    "errors": [
        "BudgetExceeded", "CycleError", "EmptyPoset", "ForeignElement",
        "ForeignPoint", "HeylabError", "InvalidAlgebra", "PosetMismatch",
        "SupportTooDeep",
    ],
    "ladder": [
        "LadderSpec", "build_ladder", "canonical_colouring", "collapse_check",
        "next_level_bound_check", "verify_canonical",
    ],
    "poset": ["Poset", "poset_from_json", "poset_to_dot", "poset_to_json", "validate"],
    "subalgebra": ["RankedAlgebra", "generate", "quotient_size"],
    "variety": ["algebra_product", "strictness_report"],
}


def test_public_names_are_their_home_modules_objects(monkeypatch):
    wrong = []
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"heylab.{home}")
        for name in names:
            # drop any cached binding, so each lookup goes through __getattr__
            monkeypatch.delitem(vars(heylab), name, raising=False)
            if getattr(heylab, name) is not getattr(module, name):
                wrong.append(f"heylab.{name}")
            monkeypatch.delitem(vars(heylab), name)
            scope = {}
            exec(f"from heylab import {name}", scope)
            if scope[name] is not getattr(module, name):
                wrong.append(f"from heylab import {name}")
    assert wrong == []
    assert heylab.__version__ == "0.1.0"
    assert {n for names in PUBLIC.values() for n in names} <= set(dir(heylab))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        heylab.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from heylab import no_such_name", {})


def test_default_seed_has_one_home():
    from heylab import corpus, poset

    assert corpus.DEFAULT_SEED is poset.DEFAULT_SEED == 2718


# a cold process: run the CLI entry point with argv[1:], then print its
# exit code and the heylab, click, inspect and dataclasses modules it loaded
PROBE = """
import sys
code = 0
from heylab.cli import main
try:
    main.main(args=sys.argv[1:], prog_name="heylab")
except SystemExit as e:
    code = e.code or 0
shown = ("heylab", "click", "inspect", "dataclasses")
print(code, *sorted(m for m in sys.modules if m.partition(".")[0] in shown))
"""

BASE = ["heylab", "heylab.cli", "heylab.errors", "heylab.poset"]


def _cold(code: str, *argv) -> list:
    """The words of the last line a fresh interpreter prints for code."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=60,
    )
    return proc.stdout.splitlines()[-1].split()


def test_bare_import_loads_no_submodule():
    code = "import sys, heylab; print(*sorted(m for m in sys.modules if 'heylab' in m))"
    assert _cold(code) == ["heylab"]


@pytest.mark.parametrize("argv, extra", [
    pytest.param(["--help"], [], id="help"),
    pytest.param(["upsets", "{fork}"], [], id="upsets"),
    pytest.param(["upsets", "--help"], [], id="upsets-help"),
    pytest.param(["ladder", "--n", "1", "--depth", "2"], ["colouring", "ladder"],
                 id="ladder"),
    pytest.param(["algebra", "{fork}"], ["algebra"], id="algebra"),
    pytest.param(["types", "{fork}", "--colour", "x"], ["colouring"], id="types"),
    pytest.param(["colour-search", "{fork}", "--k", "1"], ["colouring"],
                 id="colour-search"),
    pytest.param(["generate", "{fork}", "--gen", "x"],
                 ["algebra", "colouring", "subalgebra"], id="generate"),
])
def test_light_command_loads_only_its_modules(tmp_path, argv, extra):
    fork = tmp_path / "fork.json"
    fork.write_text(json.dumps(poset_to_json(validate(["b", "x", "y"],
                                                      [(0, 1), (0, 2)]))))
    code, *loaded = _cold(PROBE, *(a.format(fork=fork) for a in argv))
    assert code == "0"
    assert loaded == sorted(BASE + [f"heylab.{m}" for m in extra])


@pytest.mark.parametrize("argv", [
    pytest.param(["--help"], id="help"),
    pytest.param(["upsets", "{fork}"], id="upsets"),
    pytest.param(["verify", "canonical", "--n", "1", "--depth", "3"],
                 id="verify-canonical"),
])
def test_cold_cli_loads_no_click(tmp_path, argv):
    # the CLI parses its command line and lays out its help itself
    fork = tmp_path / "fork.json"
    fork.write_text(json.dumps(poset_to_json(validate(["b", "x", "y"],
                                                      [(0, 1), (0, 2)]))))
    code, *loaded = _cold(PROBE, *(a.format(fork=fork) for a in argv))
    assert code == "0"
    assert [m for m in loaded if m.partition(".")[0] == "click"] == []


@pytest.mark.parametrize("argv", [
    pytest.param(["ladder", "--n", "1", "--depth", "2"], id="ladder"),
    pytest.param(["algebra", "{fork}"], id="algebra"),
    pytest.param(["generate", "{fork}", "--gen", "x"], id="generate"),
    pytest.param(["verify", "canonical", "--n", "1", "--depth", "3"],
                 id="verify-canonical"),
    pytest.param(["strictness", "--n", "1", "--depths", "2,3"], id="strictness"),
])
def test_cold_command_loads_no_inspect(tmp_path, argv):
    fork = tmp_path / "fork.json"
    fork.write_text(json.dumps(poset_to_json(validate(["b", "x", "y"],
                                                      [(0, 1), (0, 2)]))))
    code, *loaded = _cold(PROBE, *(a.format(fork=fork) for a in argv))
    assert code == "0"
    assert {"inspect", "dataclasses"}.isdisjoint(loaded)


def test_verify_lemma_loads_only_what_it_runs():
    # canonical runs the ladder and its colouring; strictness runs variety
    # over the ladders but no corpus
    code, *loaded = _cold(PROBE, "verify", "canonical", "--n", "1", "--depth", "3")
    assert code == "0"
    extra = ["colouring", "ladder", "verify"]
    assert loaded == sorted(BASE + [f"heylab.{m}" for m in extra])
    code, *loaded = _cold(PROBE, "strictness", "--n", "1", "--depths", "2,3")
    assert code == "0"
    assert "heylab.variety" in loaded and "heylab.corpus" not in loaded

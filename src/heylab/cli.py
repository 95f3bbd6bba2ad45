"""Command-line front end: reproducible experiments with JSON/DOT output.

Exit codes: 0 success / verification passed, 1 invalid input (usage errors
included), 2 budget exceeded, 3 verification failed or search unsuccessful.

Each command imports the modules it runs in its own body, so a cold
process compiles only those. The command line is parsed here, from one
table of each command's parameters that also lays out its --help page.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from typing import NamedTuple, Optional

from .errors import BudgetExceeded, HeylabError
from .poset import (
    DEFAULT_SEED,
    DEFAULT_TUPLE_BUDGET,
    DEFAULT_UPSET_BUDGET,
    is_upset_mask,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    upset_lists,
    upset_masks,
)

EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_FAILED = 3


class RunConfig(NamedTuple):
    budget_upsets: int
    budget_tuples: int
    seed: int
    format: str
    out: Optional[str]


# The formats other than json that each command renders; main rejects any
# other --format before the command runs.
RENDERINGS = {"ladder": ("dot",), "strictness": ("text",)}


def _emit(cfg: RunConfig, payload, **renderings: str) -> None:
    """Write payload as JSON under --format json, or else the command's
    rendering for the chosen format (e.g. text=...). --out is opened only
    here, so a command that fails leaves an existing file as it was."""
    if cfg.format == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = renderings[cfg.format]
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(body)
        except OSError as e:
            message = f"cannot write --out file {cfg.out}: {e.strerror}"
            raise ValueError(message) from None
    else:
        _write(body)


def _write(text: str) -> None:
    # flushed here, so that a reader gone away (`| head`) is met inside main
    sys.stdout.write(text)
    sys.stdout.flush()


@contextlib.contextmanager
def _one_line_errors():
    """The CLI's one error path: a BudgetExceeded exits 2, and any other
    HeylabError or ValueError, usage errors included, exits 1, each with a
    one-line message clipped to 185 characters."""
    try:
        yield
    except (HeylabError, ValueError) as e:
        # a point name read from a file may hold a line break, and a
        # message may quote a value given, however long
        message = "\\n".join(str(e).splitlines())
        if len(message) > 185:
            message = f"{message[:120]} ... {message[-60:]}"
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_BUDGET if isinstance(e, BudgetExceeded) else EXIT_INVALID)


class _Param(NamedTuple):
    """An option (--name, taking one value) or a required argument (NAME)."""

    name: str
    type: object = str  # str, int, or a tuple of the values accepted
    default: object = None
    required: bool = False
    multiple: bool = False  # each use adds a value, in order
    help: str = ""
    show_default: bool = False


GLOBAL_OPTIONS = (
    _Param("--budget-upsets", int, DEFAULT_UPSET_BUDGET, show_default=True),
    _Param("--budget-tuples", int, DEFAULT_TUPLE_BUDGET, show_default=True),
    _Param("--seed", int, DEFAULT_SEED, show_default=True),
    _Param("--format", ("json", "text", "dot"), "json",
           help="json (every command), text (strictness) or dot (ladder)."),
    _Param("--out", help="Write output to this file."),
)

# command name -> (function, its parameters, or an iterable that gives them
# each time they are read); the docstring is its help
COMMANDS: dict = {}


def _command(name: str, *params: _Param, lazy=None):
    def register(fn):
        COMMANDS[name] = (fn, lazy or params)
        return fn

    return register


def _scan(params, tokens, to_command: bool = False):
    """The texts given for each option (name -> list), the positionals, and
    whether --help was given. `--` ends the options; a value follows its
    name as --name=value or as the next token, whatever that begins with; a
    name is never abbreviated. With to_command, the first positional and
    every token after it are the command's."""
    names = {p.name for p in params}
    given, positionals, asked = {}, [], False
    rest = iter(tokens)
    for token in rest:
        if token == "--":
            positionals += rest
            continue
        if token[:1] != "-" or token == "-":
            positionals.append(token)
            if to_command:
                positionals += rest
            continue
        name, eq, value = token.partition("=")
        if name == "--help" and not eq:
            asked = True
        elif name == "--help":
            raise ValueError("Option '--help' does not take a value.")
        elif name not in names:
            raise ValueError(f"No such option {name!r}.")
        elif not eq and (value := next(rest, None)) is None:
            raise ValueError(f"Option {name!r} requires an argument.")
        else:
            given.setdefault(name, []).append(value)
    return given, positionals, asked


def _convert(p: _Param, text: str):
    if p.type is str or p.type is not int and text in p.type:
        return text
    if p.type is int:
        with contextlib.suppress(ValueError):
            return int(text)
        reason = "is not a valid integer"
    else:
        reason = "is not one of " + ", ".join(map(repr, p.type))
    raise ValueError(f"Invalid value for {p.name!r}: {text!r} {reason}.")


def _values(params, given: dict, positionals: list) -> dict:
    """Each parameter's value by its Python name; an option given twice
    keeps its last value unless it is multiple."""
    values, args = {}, iter(positionals)
    for p in params:
        option = p.name.startswith("--")
        texts = given.get(p.name, []) if option else [next(args, None)]
        if texts == [None] or p.required and not texts:
            raise ValueError(f"Missing {'option' if option else 'argument'} {p.name!r}.")
        converted = [_convert(p, t) for t in (texts if p.multiple else texts[-1:])]
        name = p.name.lstrip("-").replace("-", "_").lower()
        values[name] = tuple(converted) if p.multiple else (converted or [p.default])[0]
    extra = list(args)
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise ValueError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return values


def main(args=None, prog_name=None, terminal_width=None):
    """Heyting algebras of upsets, poset colourings, and ladder experiments."""
    # The console script: runs args (default sys.argv[1:]) and exits with
    # its code. A help page names prog_name (default: as the process was
    # started) and wraps at terminal_width (default: the terminal's, at
    # most 78 and at least 50 columns).
    tokens = sys.argv[1:] if args is None else list(args)
    try:
        with _one_line_errors():
            given, rest, asked = _scan(GLOBAL_OPTIONS, tokens, to_command=True)
            command = None
            if not asked:
                if not rest:
                    raise ValueError("Missing command.")
                command, *tokens = rest
                if command not in COMMANDS:
                    raise ValueError(f"No such command {command!r}.")
                fn, params = COMMANDS[command]
                # read before the global values, so that the command's
                # --help exits 0 whatever those say
                command_given, positionals, asked = _scan(params, tokens)
            if asked:
                _write(_help_page(prog_name, command, terminal_width))
                sys.exit(0)
            cfg = RunConfig(**_values(GLOBAL_OPTIONS, given, []))
            if cfg.budget_upsets <= 0 or cfg.budget_tuples <= 0:
                raise ValueError("budgets must be positive")
            if cfg.format != "json" and cfg.format not in RENDERINGS.get(command, ()):
                raise ValueError(f"{command} has no --format {cfg.format} output")
            fn(cfg, **_values(params, command_given, positionals))
    except BrokenPipeError:
        # the reader has gone away: exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_INVALID)
    sys.exit(0)


# perfbench/cli_boot.py and the tests' cold processes call
# main.main(args=..., prog_name=...)
main.main = main


def _help_page(prog: Optional[str], command: Optional[str], width: Optional[int]) -> str:
    """The --help page of a command (None: of heylab itself), laid out as
    click lays it out, wrapped at width columns."""
    import shutil
    import textwrap

    def fill(text, first, later=None):
        later = first if later is None else later
        return textwrap.fill(text, width, initial_indent=first, subsequent_indent=later)

    if width is None:
        width = max(min(shutil.get_terminal_size().columns, 80) - 2, 50)
    if prog is None:  # `heylab`, or `python -m heylab.cli` under -m
        prog = os.path.basename(sys.argv[0])
        package = getattr(sys.modules["__main__"], "__package__", None)
        if package:
            module = os.path.splitext(prog)[0]
            prog = f"python -m {package}" + ("" if module == "__main__" else f".{module}")
    if command is None:
        doc, params, usage = main.__doc__, GLOBAL_OPTIONS, "[OPTIONS] COMMAND [ARGS]..."
    else:
        fn, params = COMMANDS[command]
        doc, prog = fn.__doc__, f"{prog} {command}"
        usage = " ".join(["[OPTIONS]"] + [p.name for p in params if p.name[0] != "-"])
    prefix = f"Usage: {prog} "
    if width >= len(prefix) + 20:
        page = fill(usage, prefix, " " * len(prefix))
    else:
        page = prefix + "\n" + fill(usage, " " * 11)
    first, _, rest = doc.partition("\n")
    paragraphs = (first + "\n" + textwrap.dedent(rest)).strip().split("\n\n")
    page += "\n\n" + "\n\n".join(fill(" ".join(p.splitlines()), "  ") for p in paragraphs)

    rows = [_option_row(p) for p in params if p.name[0] == "-"]
    rows.append(("--help", "Show this message and exit."))
    page += "\n\nOptions:\n" + _definitions(rows, width)
    if command is None:
        limit = width - 6 - max(map(len, COMMANDS))
        rows = [(name, _short_help(COMMANDS[name][0].__doc__, limit))
                for name in sorted(COMMANDS)]
        page += "\nCommands:\n" + _definitions(rows, width)
    return page


def _option_row(p: _Param) -> tuple:
    metavar = {str: "TEXT", int: "INTEGER"}.get(p.type) or "[" + "|".join(p.type) + "]"
    extra = [f"default: {p.default}"] * p.show_default + ["required"] * p.required
    if extra:
        return f"{p.name} {metavar}", f"{p.help}  [{'; '.join(extra)}]".lstrip()
    return f"{p.name} {metavar}", p.help


def _definitions(rows, width: int) -> str:
    """Terms and their wrapped texts in two columns, indented by 2."""
    import textwrap

    col = max(len(term) for term, _ in rows) + 2
    wrapper = textwrap.TextWrapper(width, subsequent_indent=" " * (col + 2))
    out = []
    for term, text in rows:
        wrapper.initial_indent = f"  {term:<{col}}"
        out.append(wrapper.fill(text) + "\n")
    return "".join(out)


def _short_help(doc: str, limit: int) -> str:
    """The first sentence of doc if it fits in limit characters, or else as
    many of its words as fit with '...'."""
    import textwrap

    words = doc.partition("\n\n")[0].split()
    end = next((i + 1 for i, w in enumerate(words) if w.endswith(".")), None)
    first = " ".join(words[:end])
    return textwrap.shorten(first, limit, placeholder="...", break_on_hyphens=False)


def _load(path: str, parse, what: str):
    """parse() applied to the JSON object in a file; any failure but a
    budget's names the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if type(data) is not dict:
            raise ValueError("the top level must be a JSON object")
        return parse(data)
    except BudgetExceeded:
        raise
    except (OSError, KeyError, TypeError, ValueError, HeylabError, RecursionError) as e:
        if isinstance(e, RecursionError):
            reason = "JSON nested too deeply"
        elif isinstance(e, KeyError):  # parse() reads the object's keys
            reason = f"missing key {e.args[0]!r}"
        else:
            reason = e
        raise ValueError(f"cannot read {what} file {path}: {reason}") from None


def _parse_upsets(P, specs) -> list:
    """Each spec is a comma-separated list of point names; must be up-closed."""
    masks = []
    for spec in specs:
        mask = P.mask_of_names(s for s in spec.split(",") if s)
        if not is_upset_mask(P, mask):
            raise ValueError(f"{spec!r} is not an upset")
        masks.append(mask)
    return masks


def _depth_list(text: str) -> list:
    try:
        return [int(d) for d in text.split(",")]
    except ValueError:
        raise ValueError(f"bad depth list {text!r}") from None


@_command("ladder", _Param("--n", int, required=True),
          _Param("--depth", int, required=True))
def ladder(cfg: RunConfig, n, depth):
    """Build a ladder truncation and print it as poset JSON or DOT."""
    from .ladder import LadderSpec, build_ladder

    P = build_ladder(LadderSpec(n, depth), cfg.budget_upsets)
    _emit(cfg, poset_to_json(P), dot=poset_to_dot(P))


@_command("upsets", _Param("POSET_FILE"))
def upsets(cfg: RunConfig, poset_file):
    """List every upset of a poset in canonical order."""
    P = _load(poset_file, poset_from_json, "poset")
    us = upset_masks(P, cfg.budget_upsets)
    payload = {
        "seed": cfg.seed,
        "count": len(us),
        "upsets": upset_lists(us),
    }
    _emit(cfg, payload)


@_command("algebra", _Param("POSET_FILE"))
def algebra(cfg: RunConfig, poset_file):
    """Export the full upset Heyting algebra with operation tables."""
    from .algebra import algebra_of

    P = _load(poset_file, poset_from_json, "poset")
    payload = algebra_of(P, cfg.budget_upsets).to_json()
    payload["seed"] = cfg.seed
    _emit(cfg, payload)


@_command(
    "types", _Param("POSET_FILE"),
    _Param("--colour", multiple=True,
           help="One upset as comma-separated point names; repeatable."),
    _Param("--stage", int, help="Finite refinement stage (default: omega)."),
)
def types(cfg: RunConfig, poset_file, colour, stage):
    """Type partition of a poset under a colouring."""
    from .colouring import _omega_block_of, stage_types

    P = _load(poset_file, poset_from_json, "poset")
    masks = _parse_upsets(P, colour)
    if stage is None:
        blocks, stabilized_at, _ = _omega_block_of(P, masks)
    else:
        blocks, stabilized_at = stage_types(P, masks, stage), None
    payload = {
        "seed": cfg.seed,
        "stage": "omega" if stage is None else stage,
        # disjoint blocks, so ordered by their lowest point
        "blocks": sorted(upset_lists(blocks)),
        "stabilized_at": stabilized_at,
    }
    _emit(cfg, payload)


@_command("colour-search", _Param("POSET_FILE"), _Param("--k", int, required=True))
def colour_search(cfg: RunConfig, poset_file, k):
    """Exhaustive search for a k-colouring; exits 3 when none exists."""
    from .colouring import find_k_colouring

    if k < 0:
        raise ValueError("k must be >= 0")
    P = _load(poset_file, poset_from_json, "poset")
    masks = find_k_colouring(P, k, cfg.budget_upsets, cfg.budget_tuples)
    if masks is None:
        _emit(cfg, {"seed": cfg.seed, "k": k, "found": False})
        sys.exit(EXIT_FAILED)
    _emit(
        cfg,
        {
            "seed": cfg.seed,
            "k": k,
            "found": True,
            "colours": upset_lists(masks),
        },
    )


@_command(
    "generate", _Param("POSET_FILE"),
    _Param("--gen", multiple=True,
           help="One generator upset as comma-separated point names."),
)
def generate_cmd(cfg: RunConfig, poset_file, gen):
    """Rank-stratified generated subalgebra with witness terms."""
    from .subalgebra import generate

    P = _load(poset_file, poset_from_json, "poset")
    masks = _parse_upsets(P, gen)
    ra = generate(P, masks, cfg.budget_upsets)
    elems = sorted(ra.elements)
    payload = {
        "seed": cfg.seed,
        "generators": upset_lists(masks),
        "size": len(elems),
        "elements": [
            {
                "upset": u,
                "rank": ra.ranks[m],
                "witness": ra.witness_text(m),
            }
            for m, u in zip(elems, upset_lists(elems))
        ],
    }
    _emit(cfg, payload)


class _LemmaParams:
    """verify's parameters: LEMMA, then each option of heylab.verify's lemma
    table, read only when verify's command line or help page is, so that no
    other command loads that module."""

    def __iter__(self):
        from .verify import OPTIONS, _flag

        yield _Param("LEMMA")
        yield from (_Param(_flag(k), o.type, help=o.help) for k, o in OPTIONS.items())


@_command("verify", lazy=_LemmaParams())
def verify(cfg: RunConfig, lemma, depths, **options):
    """Run a named lemma verification; exits 3 when it fails.

    The global seed and budgets go to every lemma that takes them; an
    option the lemma does not take exits 1.
    """
    from . import verify as verify_mod

    report = verify_mod.run_verification(
        lemma,
        depths=None if depths is None else _depth_list(depths),
        seed=cfg.seed,
        budget_upsets=cfg.budget_upsets,
        budget_tuples=cfg.budget_tuples,
        **options,
    )
    report["seed_global"] = cfg.seed
    _emit(cfg, report)
    if not report["passed"]:
        sys.exit(EXIT_FAILED)


@_command(
    "strictness", _Param("--n", int, 1, show_default=True),
    _Param("--depths", default="4,5,6,7,8", show_default=True),
)
def strictness(cfg: RunConfig, n, depths):
    """Strict-generation report for ladder truncations.

    --budget-upsets caps the upsets of each truncation, and so also each
    generated subalgebra; --budget-tuples caps the C(|Up|+n-1, n)
    generator multisets scanned at each depth.
    """
    from . import verify as verify_mod

    report = verify_mod.verify_strictness(
        n, _depth_list(depths), cfg.budget_upsets, cfg.budget_tuples
    )
    report["seed"] = cfg.seed
    text = _strictness_text(report)
    _emit(cfg, report, text=text)
    if not report["passed"]:
        sys.exit(EXIT_FAILED)


def _strictness_text(report: dict) -> str:
    rows = report["rows"]
    header = f"{'depth':>6} {'|Up(P)|':>8} {'max-gen':>8} {'canonical-full':>15}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['depth']:>6} {r['algebra_size']:>8} "
            f"{r['max_k_generated_size']:>8} "
            f"{str(r['canonical_generates_full']):>15}"
        )
    lines.append(f"passed: {report['passed']}")
    return "\n".join(lines) + "\n"


@_command("product", _Param("ALGEBRA_A"), _Param("ALGEBRA_B"))
def product(cfg: RunConfig, algebra_a, algebra_b):
    """Componentwise product of two exported algebras.

    Each input must satisfy the Heyting algebra laws; --budget-tuples caps
    the size**3 steps of checking them, and --budget-upsets the
    (|A|*|B|)**2 entries of each product table.
    """
    from .algebra import algebra_from_json
    from .variety import algebra_product

    A, B = (
        _load(p, lambda data: algebra_from_json(data, cfg.budget_tuples), "algebra")
        for p in (algebra_a, algebra_b)
    )
    payload = algebra_product(A, B, cfg.budget_upsets).to_json()
    payload["seed"] = cfg.seed
    _emit(cfg, payload)


if __name__ == "__main__":
    main()

"""Command-line front end: reproducible experiments with JSON/DOT output.

Exit codes: 0 success / verification passed, 1 invalid input (click usage
errors included), 2 budget exceeded, 3 verification failed or search
unsuccessful.

Each command imports the modules it runs in its own body, so a cold
process compiles only those.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import NamedTuple, Optional

import click

from .errors import BudgetExceeded, HeylabError
from .poset import (
    DEFAULT_SEED,
    DEFAULT_TUPLE_BUDGET,
    DEFAULT_UPSET_BUDGET,
    is_upset_mask,
    iter_bits,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    upset_masks,
)

EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_FAILED = 3


class RunConfig(NamedTuple):
    budget_upsets: int
    budget_tuples: int
    seed: int
    fmt: str
    out: Optional[str]


# The formats other than json that each command renders; main rejects any
# other --format before the command runs.
RENDERINGS = {"ladder": ("dot",), "strictness": ("text",)}


def _emit(cfg: RunConfig, payload, **renderings: str) -> None:
    """Write payload as JSON under --format json, or else the command's
    rendering for the chosen format (e.g. text=...). --out is opened only
    here, so a command that fails leaves an existing file as it was."""
    if cfg.fmt == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = renderings[cfg.fmt]
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(body)
        except OSError as e:
            message = f"cannot write --out file {cfg.out}: {e.strerror}"
            raise ValueError(message) from None
    else:
        click.echo(body, nl=False)


def _fail(message: str, code: int):
    # a point name read from a file may hold a line break
    click.echo("error: " + "\\n".join(message.splitlines()), err=True)
    sys.exit(code)


@contextlib.contextmanager
def _one_line_errors():
    """The CLI's one error path: a BudgetExceeded exits 2, and any other
    HeylabError, ValueError or click usage error exits 1, each with a
    one-line message; a click message is clipped to 185 characters."""
    try:
        yield
    except click.UsageError as e:
        # click echoes the value that it could not read, however long
        message = e.format_message()
        if len(message) > 185:
            message = f"{message[:120]} ... {message[-60:]}"
        _fail(message, EXIT_INVALID)
    except (HeylabError, ValueError) as e:
        _fail(str(e), EXIT_BUDGET if isinstance(e, BudgetExceeded) else EXIT_INVALID)


_HELP_ASKED = "heylab.help_asked"


class _Heylab(click.Group):
    """Routes the errors of parsing the global options (make_context) and
    of running a command, its own options included (invoke), through
    _one_line_errors. invoke also records in ctx.meta whether the command's
    tokens ask for its --help: they are parsed only after main has run."""

    def make_context(self, *args, **kwargs):
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        tokens = ctx.args[: ctx.args.index("--")] if "--" in ctx.args else ctx.args
        ctx.meta[_HELP_ASKED] = any(t in ctx.help_option_names for t in tokens)
        with _one_line_errors():
            return super().invoke(ctx)


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


# a bare `heylab` is a usage error (missing command), not a help page
@click.group(cls=_Heylab, no_args_is_help=False)
@click.option("--budget-upsets", default=DEFAULT_UPSET_BUDGET, show_default=True)
@click.option("--budget-tuples", default=DEFAULT_TUPLE_BUDGET, show_default=True)
@click.option("--seed", default=DEFAULT_SEED, show_default=True)
@click.option(
    "--format", "fmt", type=click.Choice(["json", "text", "dot"]), default="json",
    help="json (every command), text (strictness) or dot (ladder).",
)
@click.option("--out", default=None, help="Write output to this file.")
@click.pass_context
def main(ctx, budget_upsets, budget_tuples, seed, fmt, out):
    """Heyting algebras of upsets, poset colourings, and ladder experiments."""
    if ctx.meta[_HELP_ASKED]:
        return  # the command prints its help and exits 0
    if budget_upsets <= 0 or budget_tuples <= 0:
        raise ValueError("budgets must be positive")
    if fmt != "json" and fmt not in RENDERINGS.get(ctx.invoked_subcommand, ()):
        raise ValueError(f"{ctx.invoked_subcommand} has no --format {fmt} output")
    ctx.obj = RunConfig(budget_upsets, budget_tuples, seed, fmt, out)


@main.command()
@click.option("--n", required=True, type=int)
@click.option("--depth", required=True, type=int)
@click.pass_obj
def ladder(cfg: RunConfig, n, depth):
    """Build a ladder truncation and print it as poset JSON or DOT."""
    from .ladder import LadderSpec, build_ladder

    P = build_ladder(LadderSpec(n, depth), cfg.budget_upsets)
    _emit(cfg, poset_to_json(P), dot=poset_to_dot(P))


@main.command()
@click.argument("poset_file")
@click.pass_obj
def upsets(cfg: RunConfig, poset_file):
    """List every upset of a poset in canonical order."""
    P = _load(poset_file, poset_from_json, "poset")
    us = upset_masks(P, cfg.budget_upsets)
    payload = {
        "seed": cfg.seed,
        "count": len(us),
        "upsets": [sorted(iter_bits(m)) for m in us],
    }
    _emit(cfg, payload)


@main.command()
@click.argument("poset_file")
@click.pass_obj
def algebra(cfg: RunConfig, poset_file):
    """Export the full upset Heyting algebra with operation tables."""
    from .algebra import algebra_of

    P = _load(poset_file, poset_from_json, "poset")
    payload = algebra_of(P, cfg.budget_upsets).to_json()
    payload["seed"] = cfg.seed
    _emit(cfg, payload)


@main.command()
@click.argument("poset_file")
@click.option("--colour", "colours", multiple=True,
              help="One upset as comma-separated point names; repeatable.")
@click.option("--stage", default=None, type=int,
              help="Finite refinement stage (default: omega).")
@click.pass_obj
def types(cfg: RunConfig, poset_file, colours, stage):
    """Type partition of a poset under a colouring."""
    from .colouring import _omega_block_of, stage_types

    P = _load(poset_file, poset_from_json, "poset")
    masks = _parse_upsets(P, colours)
    if stage is None:
        blocks, stabilized_at, _ = _omega_block_of(P, masks)
    else:
        blocks, stabilized_at = stage_types(P, masks, stage), None
    payload = {
        "seed": cfg.seed,
        "stage": "omega" if stage is None else stage,
        # disjoint blocks, so ordered by their lowest point
        "blocks": sorted(list(iter_bits(b)) for b in blocks),
        "stabilized_at": stabilized_at,
    }
    _emit(cfg, payload)


@main.command("colour-search")
@click.argument("poset_file")
@click.option("--k", required=True, type=int)
@click.pass_obj
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
            "colours": [sorted(iter_bits(m)) for m in masks],
        },
    )


@main.command("generate")
@click.argument("poset_file")
@click.option("--gen", "gens", multiple=True,
              help="One generator upset as comma-separated point names.")
@click.pass_obj
def generate_cmd(cfg: RunConfig, poset_file, gens):
    """Rank-stratified generated subalgebra with witness terms."""
    from .subalgebra import generate

    P = _load(poset_file, poset_from_json, "poset")
    masks = _parse_upsets(P, gens)
    ra = generate(P, masks, cfg.budget_upsets)
    elems = sorted(ra.elements)
    payload = {
        "seed": cfg.seed,
        "generators": [sorted(iter_bits(m)) for m in masks],
        "size": len(elems),
        "elements": [
            {
                "upset": sorted(iter_bits(m)),
                "rank": ra.ranks[m],
                "witness": ra.witness_text(m),
            }
            for m in elems
        ],
    }
    _emit(cfg, payload)


@main.command()
@click.argument("lemma")
@click.option("--corpus", default=None, help="e.g. exhaustive5,random200:2718")
@click.option("--n", default=None, type=int)
@click.option("--depth", default=None, type=int)
@click.option("--depths", default=None, help="Comma-separated depth list.")
@click.option("--k", default=None, type=int)
@click.option("--samples", default=None, type=int)
@click.option("--gens-per-poset", default=None, type=int)
@click.option("--max-stage", default=None, type=int)
@click.pass_obj
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


@main.command()
@click.option("--n", default=1, show_default=True, type=int)
@click.option("--depths", default="4,5,6,7,8", show_default=True)
@click.pass_obj
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


@main.command()
@click.argument("algebra_a")
@click.argument("algebra_b")
@click.pass_obj
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

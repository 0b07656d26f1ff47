"""Command-line surface for the matching engines.

Human-facing output is 1-based with primes on the women's side
(``1→2'``); machine outputs (JSON instance/matching files, sweep CSV)
are 0-based.  Every command is deterministic given its full flag set.

Exit codes: 0 success (or "stable"), 1 unstable / no core point,
2 parse or usage error, 3 size limit.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .bargaining import BargainingModel, MODEL_KINDS, search_core, verify_core_point, canonical_fnt_cuts
from .errors import MatchkitError, SizeLimitError
from .instances import (
    Matching,
    PQParams,
    combined_rewards,
    parse_instance,
    parse_matching,
    random_instance,
    serialize_instance,
    serialize_matching,
)
from .nontransferable import find_fnt_blocking_pairs, gale_shapley_detailed
from .partial_transfer import (
    counterexample_instance,
    find_pq_blocking_chain,
    mixed_instance_stream,
    pq_plane_sweep,
)
from .rng import IntegerRange, Uniform01
from .tolerance import resolve_eps
from .transferable import dual_cuts, optimal_assignment, verify_ft_core

EXIT_UNSTABLE = 1
EXIT_USAGE = 2
EXIT_SIZE = 3


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _die(EXIT_USAGE, f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _die(EXIT_USAGE, f"cannot write {path}: {exc}")


def _fmt(x: float) -> str:
    # the integer form only below 2**53, where it stays short
    if abs(x) < 2**53:
        nearest = round(x)
        if abs(x - nearest) < 1e-12:
            return str(int(nearest))
    return repr(x)


def _fmt_matching(matching: Matching) -> str:
    return ", ".join(f"{i + 1}→{j + 1}'" for i, j in enumerate(matching.assignment))


def _fmt_vector(values) -> str:
    return "[" + ", ".join(_fmt(x) for x in values) + "]"


def _guard(command):
    """Run a command, mapping engine errors to exit codes 2 and 3.

    Innermost decorator, so click still reads the command's name and
    docstring (its help text) through ``functools.wraps``.
    """

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except SizeLimitError as exc:
            _die(EXIT_SIZE, str(exc))
        except MatchkitError as exc:
            _die(EXIT_USAGE, str(exc))

    return guarded


@click.group()
def main():
    """Stable-marriage engines across the transferability spectrum."""


@main.group()
def solve():
    """Solve an instance under a stability regime."""


@solve.command("nt")
@click.option("--instance", "instance_path", required=True, type=click.Path())
@click.option("--proposer", type=click.Choice(["men", "women"]), default="men", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guard
def solve_nt(instance_path: str, proposer: str, out_path: str | None):
    """Deferred-acceptance matching plus a blocking-pair audit."""
    eps = resolve_eps()
    inst = parse_instance(_read_text(instance_path))
    result = gale_shapley_detailed(inst, proposer)
    blocking = find_fnt_blocking_pairs(inst, result.matching, eps=eps)
    if out_path is not None:
        _write_text(out_path, serialize_matching(result.matching) + "\n")
    click.echo(f"proposer: {proposer}")
    click.echo(f"matching: {_fmt_matching(result.matching)}")
    click.echo(f"proposals: {result.proposals}")
    if blocking:
        pairs = ", ".join(f"({i + 1}, {j + 1}')" for i, j in blocking)
        click.echo(f"blocking pairs: {pairs}")
    else:
        click.echo("blocking pairs: none (stable)")


@solve.command("ft")
@click.option("--instance", "instance_path", required=True, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guard
def solve_ft(instance_path: str, out_path: str | None):
    """Maximum-total-reward matching, dual cuts, and a core audit."""
    eps = resolve_eps()
    inst = parse_instance(_read_text(instance_path))
    theta = combined_rewards(inst)
    matching, value = optimal_assignment(theta)
    cuts = dual_cuts(theta, matching, eps=eps)
    core_ok = verify_ft_core(theta, matching, cuts, eps=eps)
    if out_path is not None:
        _write_text(out_path, serialize_matching(matching) + "\n")
    click.echo(f"matching: {_fmt_matching(matching)}")
    click.echo(f"total value: {_fmt(value)}")
    click.echo(f"cuts u: {_fmt_vector(cuts.u)}")
    click.echo(f"cuts v: {_fmt_vector(cuts.v)}")
    click.echo(f"core audit: {'ok' if core_ok else 'FAILED'}")


@main.command()
@click.option("--instance", "instance_path", required=True, type=click.Path())
@click.option("--matching", "matching_path", required=True, type=click.Path())
@click.option("--p", required=True, type=float)
@click.option("--q", required=True, type=float)
@_guard
def check(instance_path: str, matching_path: str, p: float, q: float):
    """Is the matching (p, q)-stable?  Exit 0 stable, 1 unstable."""
    eps = resolve_eps()
    inst = parse_instance(_read_text(instance_path))
    matching = parse_matching(_read_text(matching_path))
    pq = PQParams(p, q)
    verdict = find_pq_blocking_chain(inst, matching, pq, eps=eps)
    click.echo(f"matching: {_fmt_matching(matching)}")
    click.echo(f"(p, q) = ({_fmt(p)}, {_fmt(q)})")
    if verdict is True:
        click.echo("stable: yes")
        return
    couples = ", ".join(str(c + 1) for c in verdict.cycle)
    click.echo("stable: no")
    click.echo(f"blocking chain: couples ({couples}), clipped gain {_fmt(verdict.clipped_gain)}")
    sys.exit(EXIT_UNSTABLE)


@main.command()
@click.option("--n", "size", default=3, show_default=True, type=int)
@click.option("--grid", "grid_steps", default=11, show_default=True, type=int)
@click.option("--trials", default=20, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def sweep(size: int, grid_steps: int, trials: int, seed: int, out_path: str):
    """Existence-frequency map over the (p, q) unit square, as CSV.

    Trials mix uniform random instances with a jittered two-couple
    family that has no stable matching when q > p.
    """
    eps = resolve_eps()
    stream = mixed_instance_stream(size, seed)
    report = pq_plane_sweep(stream, grid_steps, trials, eps=eps)
    _write_text(out_path, report.to_csv())
    click.echo(f"wrote {len(report.grid)} cells to {out_path}")


def _parse_dist(spec: str):
    if spec == "uniform01":
        return Uniform01()
    if spec.startswith("int:"):
        parts = spec.split(":")
        if len(parts) == 3:
            try:
                lo, hi = int(parts[1]), int(parts[2])
            except ValueError:
                pass
            else:
                return IntegerRange(lo, hi)
    _die(EXIT_USAGE, f"unknown distribution {spec!r}; expected uniform01 or int:LO:HI")


@main.command()
@click.option("--n", "size", required=True, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--dist", "dist_spec", default="uniform01", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def gen(size: int, seed: int, dist_spec: str, out_path: str):
    """Write a seeded random instance as JSON."""
    dist = _parse_dist(dist_spec)
    inst = random_instance(size, seed, dist)
    _write_text(out_path, serialize_instance(inst) + "\n")
    click.echo(f"wrote instance n={size} to {out_path}")


@main.command()
@click.option("--p", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def counterexample(p: float, q: float, out_path: str):
    """Write the two-couple instance with no (p, q)-stable matching."""
    eps = resolve_eps()
    inst = counterexample_instance(p, q, eps=eps)
    _write_text(out_path, serialize_instance(inst) + "\n")
    click.echo(f"wrote counterexample for (p, q) = ({_fmt(p)}, {_fmt(q)}) to {out_path}")


@main.command()
@click.option("--model", "model_name", required=True, type=click.Choice(list(MODEL_KINDS)))
@click.option("--instance", "instance_path", required=True, type=click.Path())
@click.option("--matching", "matching_path", required=True, type=click.Path())
@_guard
def core(model_name: str, instance_path: str, matching_path: str):
    """Core membership of a matching under a bargaining model.

    The per-person-cap model checks its canonical cuts directly;
    the others run the exact search (n <= 3).  Exit 0 when a core
    point exists, 1 when none does.
    """
    eps = resolve_eps()
    inst = parse_instance(_read_text(instance_path))
    matching = parse_matching(_read_text(matching_path))
    beta = inst.beta if model_name == "ft_taxed" else None
    model = BargainingModel(model_name, beta)
    if model_name == "fnt":
        cuts = canonical_fnt_cuts(inst, matching)
        valid = verify_core_point(model, inst, matching, cuts, eps=eps)
    else:
        cuts = search_core(model, inst, matching, eps=eps)
        valid = cuts is not None
    click.echo(f"model: {model_name}")
    click.echo(f"matching: {_fmt_matching(matching)}")
    if valid:
        click.echo(f"core-valid: yes (u={_fmt_vector(cuts.u)}, v={_fmt_vector(cuts.v)})")
        return
    click.echo("core-valid: no")
    sys.exit(EXIT_UNSTABLE)


if __name__ == "__main__":
    main()

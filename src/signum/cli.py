"""Command-line front end.

Exit codes of ``analyze`` encode the verdict so shell pipelines can branch
on it: 0 requires a unique inertia, 1 does not, 2 inconclusive, 3 error.
Every other exit is an error and exits 3, so it is never read as a verdict
(or, from ``verify-paper``, as a failed check): any error raised while
loading, computing or printing is reported as ``error: ...`` on stderr (a
reader that closes stdout early, as ``| head`` does, included), a usage
error keeps click's usage text, and an interrupt prints ``Aborted!``.
``--help`` exits 0.  All output is deterministic given input, flags, and
seed; ``--seed`` reads the environment variable SIGNUM_SEED when not given,
and its usage errors name the variable only when the value came from it.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator, NoReturn

import click
import numpy as np
from click.core import ParameterSource

from .graphs import SignedGraph, digraph_to_dot, graph_to_dot
from .patterns import SignPattern, parse_pattern
from .spectra import (
    DEFAULT_SEED,
    SampleConfig,
    census,
    ladder_spec,
    matching_parts,
    stabilize_epsilon,
)
from .cycles import directed_cycle_from_vertices
from .verdict import Overall, analyze, explain, verdict_to_json

EXIT_REQUIRES = 0
EXIT_DOES_NOT = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3


def _load_pattern(path: str | None, fixture: str | None) -> SignPattern:
    if (path is None) == (fixture is None):
        raise click.ClickException("give exactly one of a pattern file or --fixture")
    if fixture is not None:
        # Imported here: a pattern file needs no catalog.
        from . import fixtures as fixture_catalog

        try:
            return fixture_catalog.fixture(fixture).pattern
        except KeyError as exc:
            raise click.ClickException(str(exc.args[0]))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_pattern(handle.read())
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"cannot read {path}: not UTF-8 text ({exc.reason})")


@contextmanager
def _closed_output_is_an_error() -> Iterator[None]:
    """Raise a broken pipe as a ClickException, which ``_Main.main`` reports and exits 3 for."""
    try:
        yield
    except BrokenPipeError as exc:
        # Click's own main turns EPIPE into exit 1, a verdict's code, so it
        # leaves here as another error.  Python flushes stdout again at
        # exit, and a failed flush there exits 120: stdout's file
        # descriptor goes to devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise click.ClickException(f"output closed early: {exc.strerror}") from None


class _Main(click.Group):
    """The command group; its ``main`` holds every exit that is not a verdict's or a check's."""

    def main(self, *args, **kwargs) -> NoReturn:
        # Outside standalone mode click raises usage errors and interrupts
        # (as Abort) instead of exiting 2 and 1, and returns --help's 0.
        try:
            sys.exit(super().main(*args, **kwargs, standalone_mode=False))
        except click.UsageError as exc:
            exc.show()
        except click.Abort:
            click.echo("Aborted!", err=True)
        except Exception as exc:  # an exception without a message reports its type
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
        sys.exit(EXIT_ERROR)

    # The group's --help prints in make_context, everything else in invoke.
    def make_context(self, *args, **kwargs) -> click.Context:
        with _closed_output_is_an_error():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _closed_output_is_an_error():
            return super().invoke(ctx)


class _EnvOption(click.Option):
    """An option that names its environment variable in an error only when the value came from it."""

    def consume_value(self, ctx: click.Context, opts):
        # Click records where a value came from only once it has converted.
        value, source = super().consume_value(ctx, opts)
        ctx.meta[f"signum.source.{self.name}"] = source
        return value, source

    def get_error_hint(self, ctx: click.Context | None) -> str:
        source = ctx and ctx.meta.get(f"signum.source.{self.name}")
        if source is ParameterSource.ENVIRONMENT:
            return super().get_error_hint(ctx)
        return click.Parameter.get_error_hint(self, ctx)


_SEED = click.option(
    "--seed",
    cls=_EnvOption,
    type=click.IntRange(min=0),
    default=DEFAULT_SEED,
    envvar="SIGNUM_SEED",
    show_default=True,
    show_envvar=True,
    help="sampling seed",
)


@click.group(cls=_Main)
def main() -> None:
    """Analyze sign patterns for the unique-inertia property."""


@main.command("analyze")
@click.argument("path", required=False)
@click.option("--fixture", help="name of a built-in pattern")
@click.option("--json", "as_json", is_flag=True, help="emit the JSON verdict")
@click.option("--trials", default=1000, show_default=True, help="census sample count")
@_SEED
def cmd_analyze(path, fixture, as_json, trials, seed) -> None:
    """Run the rule battery on a pattern and print the verdict."""
    pattern = _load_pattern(path, fixture)
    verdict = analyze(pattern, cfg=SampleConfig(trials=trials, seed=seed))
    text = verdict_to_json(verdict) if as_json else explain(verdict)
    click.echo(text)
    sys.exit(
        {
            Overall.REQUIRES_UNIQUE: EXIT_REQUIRES,
            Overall.DOES_NOT_REQUIRE: EXIT_DOES_NOT,
            Overall.INCONCLUSIVE: EXIT_INCONCLUSIVE,
        }[verdict.overall]
    )


@main.command("fixtures")
def cmd_fixtures() -> None:
    """List the built-in benchmark patterns."""
    from . import fixtures as fixture_catalog

    lines = []
    for name in fixture_catalog.fixture_names():
        fix = fixture_catalog.fixture(name)
        lines.append(f"{name} (order {fix.pattern.n}): {fix.description}")
    click.echo("\n".join(lines))


@main.command("verify-paper")
@click.option("--filter", "name_filter", default=None, help="substring filter on fixture names")
def cmd_verify(name_filter) -> None:
    """Recompute every catalog expectation and print one line per check."""
    from . import fixtures as fixture_catalog

    names = fixture_catalog.fixture_names()
    if name_filter is not None:
        names = [n for n in names if name_filter in n]
    if not names:
        click.echo("warning: no fixtures match the filter; nothing to verify")
        sys.exit(0)
    outcomes = fixture_catalog.verify(names)
    lines = []
    for o in outcomes:
        mark = "pass" if o.passed else "FAIL"
        line = f"[{mark}] {o.fixture}.{o.check_id} ({o.tag}): {o.detail}"
        if not o.passed and o.source:
            line += f"  [expected from: {o.source}]"
        lines.append(line)
    failed = sum(not o.passed for o in outcomes)
    lines.append(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    click.echo("\n".join(lines))
    sys.exit(0 if failed == 0 else 1)


@main.command("graph")
@click.argument("path", required=False)
@click.option("--fixture", help="name of a built-in pattern")
@click.option("--directed/--undirected", default=True, help="which graph to export")
def cmd_graph(path, fixture, directed) -> None:
    """Export the signed digraph or undirected graph as DOT."""
    pattern = _load_pattern(path, fixture)
    if directed:
        text = digraph_to_dot(pattern)
    else:
        text = graph_to_dot(SignedGraph(pattern))
    click.echo(text, nl=False)


@main.command("census")
@click.argument("path", required=False)
@click.option("--fixture", help="name of a built-in pattern")
@click.option("--trials", default=1000, show_default=True)
@_SEED
@click.option("--lo", default=1e-2, show_default=True, help="magnitude law lower bound")
@click.option("--hi", default=1e2, show_default=True, help="magnitude law upper bound")
def cmd_census(path, fixture, trials, seed, lo, hi) -> None:
    """Sample the qualitative class and tabulate observed inertias."""
    pattern = _load_pattern(path, fixture)
    cen = census(pattern, SampleConfig(lo=lo, hi=hi, trials=trials, seed=seed))
    lines = [f"trials: {cen.trials}  failures: {cen.failures}"]
    for key in cen.inertia_keys():
        solid = "solid" if key in cen.solid_representatives else "tolerance-limited"
        lines.append(f"inertia {key}: {cen.inertia_counts[key]}  [{solid}]")
    for key, count in sorted(cen.frequency_counts.items()):
        lines.append(f"frequency {key}: {count}")
    lines.append(f"consistent frequency observed: {cen.consistent_observed}")
    click.echo("\n".join(lines))


def _vertex(number: int, n: int) -> int:
    """The 0-based index of a 1-based vertex number, checked against the order."""
    if not 1 <= number <= n:
        raise click.ClickException(f"vertex {number} is not in 1..{n}: the pattern has order {n}")
    return number - 1


def _parse_vertices(text: str, n: int) -> tuple[int, ...]:
    try:
        numbers = [int(tok) for tok in text.replace(" ", "").split(",")]
    except ValueError:
        raise click.ClickException(f"expected comma-separated vertex numbers, got {text!r}")
    return tuple(_vertex(v, n) for v in numbers)


def _parse_matching(text: str, n: int) -> list[tuple[int, int]]:
    edges = []
    for part in text.replace(" ", "").split(","):
        try:
            u, v = (int(tok) for tok in part.split("-"))
        except ValueError:
            raise click.ClickException(f"expected edges like 1-2,3-4, got {text!r}")
        edge = (_vertex(u, n), _vertex(v, n))
        if u == v:
            raise click.ClickException(
                f"edge {u}-{v} joins a vertex to itself: a matching's edges join two vertices"
            )
        for i, j in edges:
            shared = {i + 1, j + 1} & {u, v}
            if shared:
                clash = "repeats" if len(shared) == 2 else f"shares vertex {min(shared)} with"
                raise click.ClickException(
                    f"edge {u}-{v} {clash} edge {i + 1}-{j + 1}: the 2-cycles on a"
                    " matching's edges must form a composite cycle"
                )
        edges.append(edge)
    return edges


@main.command("witness")
@click.argument("path", required=False)
@click.option("--fixture", help="name of a built-in pattern")
@click.option("--cycle", help="directed cycle to emphasize, e.g. 1,2,3")
@click.option("--matching", help="undirected matching to emphasize, e.g. 1-2,3-4")
def cmd_witness(path, fixture, cycle, matching) -> None:
    """Emphasize cycles, stabilize the perturbation, and report the inertia."""
    pattern = _load_pattern(path, fixture)
    if (cycle is None) == (matching is None):
        raise click.ClickException("give exactly one of --cycle or --matching")
    if cycle is not None:
        parts = (directed_cycle_from_vertices(pattern, _parse_vertices(cycle, pattern.n)),)
    else:
        parts = matching_parts(pattern, _parse_matching(matching, pattern.n))
    spec = ladder_spec(parts)
    mat, eps, prof = stabilize_epsilon(pattern, spec)
    lines = [
        f"parts: {[tuple(v + 1 for v in p.vertices) for p in parts]}",
        f"magnitudes: {[float(m) for m in spec.magnitudes]}",
        f"stabilized epsilon: {eps}",
        f"inertia: {prof.inertia}",
        f"refined: {prof.refined}",
        "matrix:",
    ]
    lines += ["  " + " ".join(f"{v:.6g}" for v in row) for row in np.asarray(mat)]
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()

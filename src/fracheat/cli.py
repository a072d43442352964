"""Command-line interface: run experiments, validate configs, print constants."""

from __future__ import annotations

import sys

import click

from .assembly import normalization_constant
from .config import load_config, validate_config
from .errors import ConfigError, FracheatError
from .potentials import hardy_sharp_constant
from .runner import run_experiment


@click.group()
def main():
    """Numerical laboratory for the killed nonlocal heat equation with
    negative singular potentials."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON experiment config")
@click.option("--out", "out_dir", default=None, type=click.Path(), help="Output directory")
@click.option("--seed", default=None, type=int, help="Override the config RNG seed")
# the run is serial; hidden, and 1 its only value, for callers that still pass it
@click.option("--threads", type=click.IntRange(1, 1), hidden=True, expose_value=False)
def run(config_path, out_dir, seed):
    """Execute the configured experiment and write the report files."""
    try:
        config = load_config(config_path)
        paths = run_experiment(config, out_dir=out_dir, seed=seed)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except FracheatError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"verdict: {paths['verdict']}")
    click.echo(f"report: {paths['report']}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON experiment config")
def validate(config_path):
    """Statically validate a config file without computing anything."""
    violations = validate_config(config_path)
    if violations:
        for v in violations:
            click.echo(v, err=True)
        sys.exit(1)
    click.echo("ok")


@main.command()
@click.option("--d", "dimension", required=True, type=int, help="Space dimension (1 or 2)")
@click.option("--alpha", required=True, type=float, help="Order of the form, 0 < alpha < min(2, d)")
def constants(dimension, alpha):
    """Print the kernel normalization and the sharp Hardy coupling."""
    try:
        a = normalization_constant(dimension, alpha)
        cstar = hardy_sharp_constant(dimension, alpha)
    except FracheatError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"A({dimension},{alpha}) = {a:.12e}")
    click.echo(f"c*({dimension},{alpha}) = {cstar:.12e}")


if __name__ == "__main__":
    main()

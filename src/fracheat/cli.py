"""Command-line interface: run experiments, validate configs, print constants."""

import argparse
import sys

from .assembly import normalization_constant
from .config import load_config, validate_config
from .errors import ConfigError, FracheatError
from .potentials import hardy_sharp_constant
from .runner import run_experiment


def run(args):
    """Execute the configured experiment and write the report files."""
    try:
        config = load_config(args.config)
        paths = run_experiment(config, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except FracheatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    print(f"verdict: {paths['verdict']}")
    print(f"report: {paths['report']}")


def validate(args):
    """Statically validate a config file without computing anything."""
    violations = validate_config(args.config)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        sys.exit(1)
    print("ok")


def constants(args):
    """Print the kernel normalization and the sharp Hardy coupling."""
    try:
        a = normalization_constant(args.d, args.alpha)
        cstar = hardy_sharp_constant(args.d, args.alpha)
    except FracheatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(f"A({args.d},{args.alpha}) = {a:.12e}")
    print(f"c*({args.d},{args.alpha}) = {cstar:.12e}")


def _parser():
    parser = argparse.ArgumentParser(prog="fracheat", description="Numerical laboratory for the killed nonlocal "
                                     "heat equation with negative singular potentials.")
    commands = parser.add_subparsers(dest="command", required=True)
    run_, validate_, constants_ = (commands.add_parser(f.__name__, help=f.__doc__, description=f.__doc__)
                                   for f in (run, validate, constants))
    for sub in (run_, validate_):
        sub.add_argument("--config", required=True, help="JSON experiment config")
    run_.add_argument("--out", help="Output directory")
    run_.add_argument("--seed", type=int, help="Override the config RNG seed")
    # the run is serial; hidden, and 1 its only value, for callers that still pass it
    run_.add_argument("--threads", type=int, choices=[1], help=argparse.SUPPRESS)
    constants_.add_argument("--d", required=True, type=int, help="Space dimension (1 or 2)")
    constants_.add_argument("--alpha", required=True, type=float, help="Order of the form, 0 < alpha < min(2, d)")
    return parser


# built at import, not per call: its first build takes 2-3 ms, which main would add to a run's wall time
PARSER = _parser()


def main(argv=None, standalone_mode=True):
    """Run argv's command: a failure raises SystemExit with its status, and success exits 0 if standalone."""
    args = PARSER.parse_args(argv)
    {"run": run, "validate": validate, "constants": constants}[args.command](args)
    if standalone_mode:
        sys.exit(0)


if __name__ == "__main__":
    main()

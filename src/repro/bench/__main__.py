"""Command-line entry point: ``python -m repro.bench [experiment ...]``.

Runs the requested experiments (default: all of them) and prints each
figure's data table.  Pass ``--list`` to see what is available.  The
tables are *shape* checks against the paper; how fast the code runs is
measured by ``python3 -m perfbench`` and nowhere else.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.runner import available_experiments, run_experiment
from repro.utils.logging import set_verbosity


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser (the option census and the README check
    read its flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures as text tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--quick", action="store_true",
                        help="run reduced-size versions of every experiment "
                             "(the CI smoke configuration)")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="emit library logs on stderr at this level "
                             "(default: logging stays untouched)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        set_verbosity(args.log_level)

    registry = available_experiments()
    if args.list:
        for name, description in registry.items():
            print(f"{name:12s} {description}")
        return 0

    names = args.experiments or list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2

    for name in names:
        print(run_experiment(name, quick=args.quick).render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

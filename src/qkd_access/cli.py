"""Command-line interface.

Subcommands:

* ``sweep``            evaluate one protocol/setup over a variable, write CSV
* ``noise``            noise-component breakdown versus feeder length, write CSV
* ``crossover``        clock rate where the DV link overtakes the CV link
* ``validate-config``  parse and sanity-check a configuration file

All subcommands accept ``--config FILE`` (JSON overriding the built-in
defaults), repeated ``--set section.key=value`` overrides, and ``--table
FILE`` to use an external Raman cross-section CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .config import ConfigError, SimulationConfig, apply_assignments, read_overrides, set_leaf
from .numerics import linspace
from .owc import CASE_PRESETS
from .sweep import (
    COHERENT_SETUPS,
    MAX_POINTS,
    PROTOCOLS,
    SETUPS,
    SWEEP_VARIABLES,
    SweepSpec,
    dv_cv_crossover,
    emit_csv,
    noise_breakdown,
    run_sweep,
)

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file overriding the defaults")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key by dotted path, e.g. dv.mu=0.4",
    )
    parser.add_argument("--table", help="Raman cross-section CSV replacing the built-in table")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use.  It holds no parsed values.

    ``commands`` maps each subcommand's name to its own parser.
    """
    parser = argparse.ArgumentParser(
        prog="qkd-access",
        description="Key-rate simulator for wireless-indoor QKD over a DWDM access network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep one variable and write a CSV of key rates")
    sweep.add_argument("--setup", type=int, required=True, choices=SETUPS)
    sweep.add_argument("--protocol", required=True, choices=PROTOCOLS)
    sweep.add_argument("--case", type=int, default=None, choices=tuple(CASE_PRESETS),
                       help="transmitter placement case (default: config value)")
    sweep.add_argument("--var", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, default=50)
    sweep.add_argument("--log", action="store_true", help="log-spaced grid")
    sweep.add_argument("--out", required=True, help="output CSV path")
    _add_common(sweep)

    noise = sub.add_parser("noise", help="noise breakdown versus feeder length")
    noise.add_argument("--setup", type=int, required=True, choices=SETUPS)
    noise.add_argument("--l0-start", type=float, default=1.0)
    noise.add_argument("--l0-stop", type=float, default=100.0)
    noise.add_argument("--points", type=int, default=50)
    noise.add_argument("--out", required=True, help="output CSV path")
    _add_common(noise)

    crossover = sub.add_parser(
        "crossover", help="DV clock rate matching the CV total key rate at the operating point"
    )
    crossover.add_argument("--setup", type=int, default=2, choices=COHERENT_SETUPS)
    _add_common(crossover)

    validate = sub.add_parser("validate-config", help="check a config file and print the result")
    _add_common(validate)

    parser.commands = sub.choices
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, parsed by the subcommand's parser alone when it can be.

    The top-level parser hands every argument after the subcommand's name to
    that subcommand's parser, so when ``argv[0]`` names one, that parser's
    pass gives the same namespace, help, errors and exit codes.  The
    top-level parser runs only without a subcommand or when arguments are
    left over, and then prints its own usage and error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _load_config(args) -> SimulationConfig:
    overrides = apply_assignments(read_overrides(args.config), args.overrides)
    if args.table is not None:  # a file name, never parsed as JSON
        set_leaf(overrides, "raman_table.path", args.table)
    return SimulationConfig.from_dict(overrides)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        cfg = _load_config(args)

        if args.command == "validate-config":
            print("configuration OK")
            print(f"config sha256: {cfg.sha256}")
            print(json.dumps(cfg.data, indent=2, sort_keys=True))
            return 0

        if args.command == "sweep":
            spec = SweepSpec(
                setup=args.setup,
                protocol=args.protocol,
                case=cfg.data["case"] if args.case is None else args.case,
                variable=args.var,
                start=args.start,
                stop=args.stop,
                points=args.points,
                log_spacing=args.log,
            )
            result = run_sweep(spec, cfg)
            emit_csv(result, args.out)
            positive = sum(1 for row in result.rows if row.rate_per_pulse > 0.0)
            print(f"wrote {args.out}: {len(result.rows)} points, {positive} with positive rate")
            return 0

        if args.command == "noise":
            if not 1 <= args.points <= MAX_POINTS:
                raise ValueError(
                    f"noise needs 1 to {MAX_POINTS} samples (--points), got {args.points}")
            for option, km in (("--l0-start", args.l0_start), ("--l0-stop", args.l0_stop)):
                if not 0.0 <= km < math.inf:
                    raise ValueError(f"fiber lengths must be >= 0 and finite; {option} is {km}")
            values = linspace(args.l0_start, args.l0_stop, args.points)
            result = noise_breakdown(args.setup, cfg, values)
            emit_csv(result, args.out)
            print(f"wrote {args.out}: {len(result.rows)} points")
            return 0

        if args.command == "crossover":
            clock = dv_cv_crossover(cfg, setup=args.setup)
            if math.isinf(clock):
                print("crossover: none within the searchable clock range")
            else:
                print(f"crossover clock: {clock:.6e} Hz")
            return 0

        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

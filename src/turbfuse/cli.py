"""Command-line entry point.

    turbfuse <command> --config <path> [--set section.key=value]... [--out <dir>]

``--out`` sets the config's output_dir, over the config file and ``--set``.

Commands: synth, degrade, restore, pretrain, train, eval, ablate,
gradcheck. Exit codes: 0 success, 2 config error, 3 upstream artifact
missing, made under another config or damaged (the message names the
command that rewrites it), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import ConfigError, ContractError, DependencyError, EvaluationError, TrainingError
from .harness import COMMANDS


def build_parser():
    parser = argparse.ArgumentParser(prog="turbfuse", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file (defaults apply if omitted)")
    parser.add_argument(
        "--set", dest="sets", action="append", default=[], metavar="KEY=VALUE", help="override section.key=value"
    )
    parser.add_argument("--out", default=None, help="output directory (sets output_dir, over --config and --set)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, sets=args.sets)
        if args.out:
            cfg["output_dir"] = args.out
        result = COMMANDS[args.command](cfg)
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except (TrainingError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    summary = {k: v for k, v in result.items() if not isinstance(v, (dict, list))}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: one subcommand per experiment plus `oracle`.

Exit codes: 0 success, 1 runtime failure (including runs where more than
10 percent of replicas failed), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .experiments import (ConfigError, REQUIRED_KEYS, _jsonable, load_config,
                          parse_complex, run)
from .oracles import (bridge_barrier_bound, envelope_curve,
                      gaussian_tail_bound, limit_max_cdf,
                      many_to_two_pair_moment, martingale_second_moment)
from .partition import m_of_t
from .phase import classify, limiting_free_energy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbmlab",
        description="Branching random energy simulations at complex "
                    "temperature")
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="base seed override")
    common.add_argument("--replicas", type=int, help="replica count override")
    common.add_argument("--out", help="output directory override")
    common.add_argument("--threads", type=int,
                        help="worker processes (default: all cores)")
    for name in sorted(REQUIRED_KEYS):
        sub.add_parser(name, parents=[common],
                       help=f"run the {name} experiment")
    oracle = sub.add_parser("oracle", help="evaluate one closed form")
    oracle.add_argument("name", help="which quantity (see `oracle list`)")
    oracle.add_argument("args", nargs="*", help="positional arguments")
    return parser


# name -> (argument names for the usage line, closed form); BETA and
# LAMBDA arguments are complex, every other argument is a float
_ORACLES = {
    "m_of_t": ("T", m_of_t),
    "gaussian_tail": ("X", gaussian_tail_bound),
    "bridge_bound": ("A T", bridge_barrier_bound),
    "envelope": ("S T GAMMA", envelope_curve),
    "martingale_m2": ("BETA T K", functools.partial(
        martingale_second_moment, allow_unbounded=True)),
    "pair_moment": ("LAMBDA RHO TAU T K", many_to_two_pair_moment),
    "free_energy": ("BETA", limiting_free_energy),
    "classify": ("BETA", lambda beta: classify(beta).value),
    "limit_max_cdf": ("Y C Z", limit_max_cdf),
}


def _oracle_arg(name: str, raw: str):
    return parse_complex(raw) if name in ("BETA", "LAMBDA") else float(raw)


def _run_oracle(args) -> int:
    if args.name == "list":
        for name, (params, _) in _ORACLES.items():
            print(f"{name} {params}")
        return 0
    if args.name not in _ORACLES:
        print(f"error: unknown oracle {args.name!r}", file=sys.stderr)
        return 2
    params, closed_form = _ORACLES[args.name]
    names = params.split()
    try:
        if len(args.args) != len(names):
            raise ValueError(f"expected {len(names)} arguments, "
                             f"got {len(args.args)}")
        value = closed_form(*map(_oracle_arg, names, args.args))
    except ValueError as exc:
        print(f"error: {exc} (usage: {args.name} {params})", file=sys.stderr)
        return 2
    print(value)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "oracle":
        return _run_oracle(args)
    overrides = {
        "experiment": args.command,
        "seed": args.seed,
        "replicas": args.replicas,
        "output_dir": args.out,
        "threads": args.threads,
    }
    try:
        cfg, provided = load_config(args.config, overrides)
        result = run(cfg, provided)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(result.run_dir)
    print(json.dumps(_jsonable(result.summary), indent=2, sort_keys=True))
    if result.failures:
        print(f"{len(result.failures)} of {result.tasks} tasks failed",
              file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())

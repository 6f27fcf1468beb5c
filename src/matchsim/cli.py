"""Command line interface.

Subcommands:

* ``generate`` -- build an instance file for a family descriptor.
* ``run``      -- run an algorithm over seeds, verify, write a CSV.
* ``verify``   -- check a matching file against an instance and a budget.
* ``bench``    -- sweep instance sizes and record round counts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import BoundCheck, count_blocking_pairs
from .errors import MatchsimError
from .maximal import MatchingSubroutineSpec
from .protocols import AlgorithmSpec
from .workbench import (
    ExperimentConfig,
    GeneratorSpec,
    generate,
    load_instance,
    load_matching,
    open_output,
    run_experiment,
    save_instance,
    write_csv,
    write_long_csv,
)


def parse_seeds(text: str) -> list[int]:
    """``a..b`` (inclusive) or a comma-separated list."""
    if ".." in text:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"bad seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _algorithm_from_args(args) -> AlgorithmSpec:
    mm = MatchingSubroutineSpec.parse(args.mm) if args.mm else None
    return AlgorithmSpec.parse(args.alg, mm=mm)


def cmd_generate(args) -> int:
    spec = GeneratorSpec.parse(args.family, n=args.n, seed=args.seed)
    profile = generate(spec)
    save_instance(profile, args.output)
    print(f"wrote {args.output}: n={profile.n}, edges={profile.num_edges}")
    return 0


def cmd_run(args) -> int:
    spec = _algorithm_from_args(args)
    seeds = parse_seeds(args.seeds)
    generator = None
    if args.instance is None:
        if args.family is None or args.n is None:
            raise ValueError("need --instance or both --family and --n")
        generator = GeneratorSpec.parse(args.family, n=args.n, seed=0)
    elif args.family is not None or args.n is not None:
        raise ValueError("--instance cannot be combined with --family or --n")
    config = ExperimentConfig(
        algorithm=spec,
        seeds=seeds,
        generator=generator,
        instance_path=args.instance,
        round_cap=args.round_cap,
        csv_path=args.output,
        message_log_path=args.message_log,
    )
    with open_output(args.plot_data) as plot_file:  # the CSV and log open in run_experiment
        outcome = run_experiment(config)
        if plot_file:
            write_long_csv(outcome.rows, plot_file)
    print(f"{len(outcome.rows)} runs, {outcome.failures} failed rows -> {args.output}")
    return 0 if outcome.ok else 1


def cmd_verify(args) -> int:
    for flag, value in (("--eps", args.eps), ("--threshold", args.threshold)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")
    profile = load_instance(args.instance)
    matching = load_matching(args.matching)
    bound = args.eps * profile.num_edges
    if not math.isfinite(bound):
        raise ValueError(f"--eps {args.eps} times {profile.num_edges} edges is not a finite budget")
    check = BoundCheck.of(bound, count_blocking_pairs(profile, matching))
    payload = {
        "n": profile.n,
        "edges": profile.num_edges,
        "matching_size": len(matching),
        "eps": args.eps,
        "blocking_pairs": check.observed,
        "bound": check.bound,
        "passed": check.passed,
    }
    if args.threshold is not None:
        payload["eps_blocking_pairs"] = count_blocking_pairs(profile, matching, args.threshold)
        payload["threshold"] = args.threshold
    print(json.dumps(payload, indent=2))
    return 0 if check.passed else 1


def cmd_bench(args) -> int:
    spec = _algorithm_from_args(args)
    seeds = parse_seeds(args.seeds)
    generators = (GeneratorSpec.parse(args.family, n=int(n), seed=0) for n in args.n_list.split(","))
    configs = [ExperimentConfig(spec, seeds, generator, round_cap=args.round_cap) for generator in generators]
    all_rows = []
    ok = True
    with open_output(args.output) as out:
        for config in configs:
            outcome = run_experiment(config)
            ok = ok and outcome.ok
            all_rows.extend(outcome.rows)
            rounds = [row["rounds"] for row in outcome.rows if row["rounds"] != ""]
            print(f"n={config.generator.n}: rounds={rounds}")
        write_csv(all_rows, out)
    print(f"wrote {args.output}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchsim",
        description="Distributed matching protocols over a synchronous round simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate an instance file")
    p_gen.add_argument("--family", required=True, help="complete | random:P | bounded:D | aregular:A,B")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run an algorithm over a batch of seeds")
    p_run.add_argument("--alg", required=True, help="gs | asm:E | randasm:E,D | aregasm:E,D,A")
    p_run.add_argument("--instance", help="instance file (alternative to --family/--n)")
    p_run.add_argument("--family", help="generator family descriptor")
    p_run.add_argument("--n", type=int)
    p_run.add_argument("--mm", help="subroutine override: det | rand:S | amm:ETA,DELTA")
    p_run.add_argument("--seeds", required=True, help="a..b inclusive, or comma list")
    p_run.add_argument("--round-cap", type=int)
    p_run.add_argument("-o", "--output", required=True, help="CSV output path")
    p_run.add_argument("--message-log", help="newline-delimited JSON message log")
    p_run.add_argument("--plot-data", help="also write tidy long-format CSV here")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="verify a matching file against an instance")
    p_ver.add_argument("--instance", required=True)
    p_ver.add_argument("--matching", required=True)
    p_ver.add_argument("--eps", type=float, required=True)
    p_ver.add_argument("--threshold", type=float, help="also count eps-blocking pairs at this threshold")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="round counts across instance sizes")
    p_bench.add_argument("--alg", required=True)
    p_bench.add_argument("--n-list", required=True, help="comma-separated sizes")
    p_bench.add_argument("--family", default="complete")
    p_bench.add_argument("--mm")
    p_bench.add_argument("--seeds", default="0..0")
    p_bench.add_argument("--round-cap", type=int)
    p_bench.add_argument("-o", "--output", required=True)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatchsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

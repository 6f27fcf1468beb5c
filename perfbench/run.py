"""matchsim benchmark: run one workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 0 --seconds 30 --trace 0

Workloads: ``dense``, ``sparse``, ``verify-files`` (see README.md in this
directory). ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
untraced and traced passes and prints the per-layer metrics, writing the
spans to ``perfbench/_out/``. The program under test is imported from the
checkout's ``src/`` and nowhere else; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit with code 2."""
    if not (SRC / "matchsim" / "__init__.py").is_file():
        print(f"error: no matchsim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import matchsim

    if Path(matchsim.__file__).resolve().parent != SRC / "matchsim":
        print(f"error: matchsim imported from {matchsim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["dense", "sparse", "verify-files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    use_checkout_src()
    import workloads

    measurement = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for cell, text in measurement.failures():
        print(f"FAILED {args.workload} seed {args.seed} {cell}: {text}", file=sys.stderr)
    result = workloads.summarize(measurement, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

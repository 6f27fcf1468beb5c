"""Record the digests that ``pins.json`` pins, from the code as it is now.

    python3 perfbench/pin.py --seeds 0..9 [--workload dense ...]

Runs one untraced pass per (workload, seed) and stores each cell's digest.
Pins change only when a change means to change simulated outputs; such a
change says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import use_checkout_src


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a..b inclusive")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    use_checkout_src()
    import workloads

    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    pins = json.loads(workloads.PINS_PATH.read_text()) if workloads.PINS_PATH.exists() else {}
    for name in args.workload or workloads.WORKLOADS:
        for seed in seeds:
            measurement = workloads.measure(name, seed, 0, False, pins={})
            if measurement.failures():
                print(f"{name} seed {seed}: not pinned, run failed: {measurement.failures()}",
                      file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = measurement.digests
            print(f"{name} seed {seed}: {measurement.digests}")
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

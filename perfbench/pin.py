"""Regenerate the pinned digests the benchmark checks results against.

    python3 perfbench/pin.py                       # full scale, all seeds
    python3 perfbench/pin.py --scale small --seeds 0,1 --out pins.json

A pin is the list of digests one unit produces: one per simulation for
the simulation workloads, one per sweep point for ``campaign`` (whose
five series must already agree).  Each workload's table is rewritten
from the seeds given.  When two or more seeds are given and all give the
same pin, the workload gets that one pin, under ``"any"``, and every
seed is checked against it (``run.py`` says which workloads that is).
Re-pin only when a change is meant to alter simulated results, and say
so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checkout
from run import ANY_SEED, HELD_OUT_SEED, PINS, WORKLOADS

TUNING_SEEDS = tuple(range(20))


def unit_digests(workload: str, seed: int, scale: str) -> list[str]:
    """The digests of one untraced unit of ``workload``."""
    if workload == "campaign":
        import campaign

        work = checkout.WORK / "pin"
        try:
            record = campaign.launch_round(seed, scale, False, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        tables = [digests for series in campaign.SERIES
                  for digests in record["series"][series]["digests"]]
        if any(table != tables[0] for table in tables):
            raise SystemExit(f"campaign seed {seed}: series disagree")
        return tables[0]
    import workloads

    records = [workloads.run_kernel(kernel, seed)
               for kernel in workloads.SIM_WORKLOADS[workload][scale]]
    failed = [record.label for record in records if not record.ok]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: {failed} failed")
    return [record.digest for record in records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "small"),
                        default="full")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (default: 0-19 and "
                             "the held-out seed)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, default=PINS)
    args = parser.parse_args(argv)
    seeds = ([int(seed) for seed in args.seeds.split(",")]
             if args.seeds else [*TUNING_SEEDS, HELD_OUT_SEED])
    checkout.use_checkout_sources()
    pins = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workloads.split(","):
        table = {}
        for seed in seeds:
            table[str(seed)] = unit_digests(workload, seed, args.scale)
            print(f"{args.scale} {workload} seed {seed}: "
                  f"{table[str(seed)]}", flush=True)
        first = table[str(seeds[0])]
        if len(seeds) > 1 and all(pin == first for pin in table.values()):
            table = {ANY_SEED: first}
        pins.setdefault(args.scale, {})[workload] = table
    args.out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

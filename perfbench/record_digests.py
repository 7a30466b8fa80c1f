"""Record the output digest of every workload for a range of seeds.

Run from the root of a checkout, at the commit whose simulated outputs
later commits must reproduce exactly::

    python3 perfbench/record_digests.py --seeds 0-99 9973

``run.py`` then counts every operation of a run as failed when its run
digest (over the outputs of all the seed's inputs) differs from the one
recorded here.  Seeds with no recorded digest are still checked by the
per-operation output checks and by repetition-to-repetition digest
equality.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import (DIGESTS, Rep, digest_key, run_digest,  # noqa: E402
                 setup_workload)
from workloads import WORKLOADS  # noqa: E402


def _seeds(specs):
    for spec in specs:
        low, _, high = spec.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["0-31"],
                        help="seeds or inclusive ranges like 0-31")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)

    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    for name in args.workload or sorted(WORKLOADS):
        for seed in _seeds(args.seeds):
            workload = setup_workload(name, seed)
            reps = []
            for index in range(workload.inputs):
                if index:
                    workload.prepare(index)
                outcome = workload.check(workload.run())
                if outcome.failed:
                    # Pinned all the same: the digest guards exactness,
                    # and the run reports these operations as failed.
                    print(f"{name} input {workload.subseed(index)}: "
                          f"{outcome.failed} of {outcome.attempted} "
                          "operations failed", file=sys.stderr)
                reps.append(Rep(index, 1.0, 0.0, outcome, None))
            key = digest_key(workload)
            table.setdefault(key, {})[str(seed)] = run_digest(reps)
            print(key, seed, flush=True)
    for key in table:
        table[key] = dict(sorted(table[key].items(), key=lambda kv:
                                 int(kv[0])))
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(table.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

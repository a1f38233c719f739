#!/usr/bin/env python3
"""Pin sim-mrmw's deterministic outputs for a range of seeds.

The benchmark fails a sim-mrmw run whose outputs (commits in the peak
window, light-phase commits) differ from the values pinned here for its
seed; a seed with none is checked against the reference seed's. Re-pin
only when a change is meant to alter the simulated protocol's
behaviour, and say so in the change::

    python3 perfbench/pin_sim.py 0 99
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    run._load_repro()
    from workloads import WORKLOADS
    workload = WORKLOADS["sim-mrmw"]
    pinned = {}
    for seed in range(first, last + 1):
        pinned[str(seed)] = list(run.sim_repetition(workload, seed)["outputs"])
        print(seed, pinned[str(seed)], flush=True)
    path = os.path.join(run.HERE, "sim_expected.json")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(seed)}: {json.dumps(out)}"
                                    for seed, out in pinned.items())
                 + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Set-up probe: one fresh interpreter's import of the package plus the
building of one workload's seeded inputs, timed from inside.

    python3 perfbench/probe.py --workload series --seed 1 --size full

Prints one JSON object: ``{"setup_s": <seconds>, "kernel_s": <seconds>,
"ops": <op count>}``, where ``kernel_s`` is the median time of the host
speed kernel in this process, taken around the timed part.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seed", type=int, required=True)
ap.add_argument("--size", default="full")
args = ap.parse_args()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from harness import kernel  # noqa: E402  (standard library only)

costs = [kernel() for _ in range(5)]
t0 = time.perf_counter()
import diffalg  # noqa: E402,F401

if args.workload == "laws":
    import diffalg.suites  # noqa: E402,F401
if args.workload == "cli":
    import diffalg.cli  # noqa: E402,F401
import workloads  # noqa: E402

ops = workloads.build(args.workload, args.seed, args.size)
setup_s = time.perf_counter() - t0
costs += [kernel() for _ in range(5)]
print(json.dumps({"setup_s": setup_s, "kernel_s": statistics.median(costs), "ops": len(ops)}))

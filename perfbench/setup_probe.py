"""Child process of the set-up probe: import cifm, set one workload up, say ready.

    python3 perfbench/setup_probe.py gate-level

The parent times from spawning this interpreter until the ``ready`` line.
Only cifm's own set-up runs here, the same as ``workloads.setup`` does.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import cifm  # noqa: E402  (needs the path above)

cifm.mul4(0, 0)                         # builds the mul4 truth tables from the netlist
if sys.argv[1] == "gate-level":
    from cifm import multiplier, revlogic

    for level in ("mul12", "mul24"):
        revlogic.expand(multiplier.export_netlist(level))
print("ready", flush=True)

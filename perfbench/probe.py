"""Set-up probe: import strongdim, write one workload's inputs, print the clock.

    python3 perfbench/probe.py WORKLOAD SEED DIR

It imports only strongdim and the input writer, so the set-up it shows is the
program's own. The last stdout line is `time.monotonic()` right after the
inputs are written; run.py subtracts the moment it started this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import strongdim.cli  # noqa: E402,F401  (import cost is part of set-up)
from workloads import WORKLOADS  # noqa: E402

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workdir.mkdir(parents=True)
WORKLOADS[workload].plan(seed, workdir)
print(repr(time.monotonic()))

"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs twice in a fresh process through run.py, once untraced
(end-to-end metrics) and once traced (per-layer metrics). Rows are
`workload metric value unit`; a failed job makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if not proc.stdout.strip():  # exit code 1 with a result line only means failed jobs
        raise SystemExit(f"report: run.py {name} exited {proc.returncode} without a result")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, args.seed, args.seconds, trace)
            ok &= res["correct"]
            print(f"{name} error_rate {res['failed'] / res['attempted']:.6g} "
                  f"({res['failed']}/{res['attempted']} jobs, trace {trace})")
            for metric, m in res["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

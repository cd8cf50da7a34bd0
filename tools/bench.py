"""Write BENCH_<pr>.json: every perfbench metric of every workload, per side.

    python3 tools/bench.py --pr N [--against REV] [--pairs P] [--seconds S]
                           [--seed N] [--workload NAME ...] [--out FILE]

Each run is `perfbench/run.py` in a fresh interpreter, once at `--trace 0`
(the end-to-end metrics) and once at `--trace 1` (the per-layer metrics), for
every workload of BENCHMARK.json unless `--workload` names some. Without
`--against` the file holds P runs of this checkout. With `--against REV`, REV's
committed files are unpacked into a temporary directory (`git archive`, as the
benchmark itself runs each commit from a fresh directory) and the two trees
run pair by pair, REV first in even pairs and this checkout first in odd ones.

The file holds, per workload and side, every run's metrics, correctness and
failure counts, and the median of each metric; per end-to-end metric, the
pairs the change won by BENCHMARK.json's direction (ties count for neither);
both commit hashes (null outside a git repository), whether this checkout's
src/ or perfbench/ differs from its HEAD, the seed,
`--seconds`, the pair count and PYTHONDONTWRITEBYTECODE as this process saw it.
perfbench is only run, never edited or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str | None:
    """git's output in this checkout, or None when git fails or is missing (a copy of
    the files without its repository)."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def unpack(rev: str, into: Path) -> None:
    """REV's committed files, extracted under into."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"bench: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in a fresh interpreter: its last stdout line, a JSON object."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"bench: {' '.join(cmd)} printed nothing (exit {proc.returncode})")
    out = json.loads(lines[-1])
    return {"trace": trace, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def medians(runs: list[dict]) -> dict[str, float]:
    names = {name for run in runs for name in run["metrics"]}
    return {name: statistics.median(run["metrics"][name] for run in runs if name in run["metrics"])
            for name in sorted(names)}


def wins(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict[str, int]:
    """Per end-to-end metric, the pairs whose change run beats its parent run."""
    out = {}
    for name, direction in better.items():
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        out[name] = sum(c < p if direction == "lower" else c > p for p, c in pairs)
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    ap.add_argument("--against", metavar="REV", help="a commit to alternate with this checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repository root")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out_path = args.out or ROOT / f"BENCH_{args.pr}.json"

    parent = None
    if args.against:
        parent = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
        if parent is None:
            ap.error(f"--against {args.against}: not a commit of this repository")
    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    doc = {
        "pr": args.pr,
        "commits": {"parent": parent, "change": git("rev-parse", "HEAD")},
        "change_dirty": None if dirty is None else bool(dirty),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workloads": {},
    }
    runs = {w: {"parent": [], "change": []} for w in workloads}
    scratch = Path(tempfile.mkdtemp(prefix="bench-")) if args.against else None
    try:
        trees = {"change": ROOT}
        if scratch is not None:
            trees["parent"] = scratch
            unpack(parent, scratch)
        for pair in range(args.pairs):
            sides = sorted(trees, reverse=pair % 2 == 0)  # "parent" first in even pairs
            for side in sides:
                for w in workloads:
                    for trace in (0, 1):
                        run = run_once(trees[side], w, args.seed, args.seconds, trace)
                        runs[w][side].append({"pair": pair, **run})
                        print(f"bench: pair {pair} {side} {w} trace {trace}: "
                              f"correct={run['correct']} wall_s="
                              f"{run['metrics'].get('wall_s', run['metrics'].get('trace.wall_s'))}",
                              file=sys.stderr)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    for w in workloads:
        entry = {"runs": {}, "medians": {}}
        for side in trees:
            entry["runs"][side] = runs[w][side]
            entry["medians"][side] = medians(runs[w][side])
        if args.against:
            untraced = {side: [r for r in runs[w][side] if r["trace"] == 0] for side in trees}
            entry["wins"] = wins(untraced["parent"], untraced["change"], better)
        doc["workloads"][w] = entry
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {out_path}", file=sys.stderr)
    return 0 if all(r["correct"] for w in workloads for side in trees for r in runs[w][side]) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload through `strongdim.cli.main` in this process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: it imports strongdim from `src/` next to this
directory and refuses to run without it. With `--trace 0` it reports the
end-to-end metrics (wall_s, setup_s, peak_rss_mb) from untraced runs of the
job list, with the two timings scaled to a nominal machine speed
(speed.py); with `--trace 1` it alternates untraced and traced runs and
reports the per-layer metrics from raw times. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A job fails on a wrong exit code, a traceback, an output that breaks its
check, a seed-0 digest mismatch or stdout that differs between runs; the
exit code is 1 if any job failed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import speed  # noqa: E402
from check import CheckError  # noqa: E402
from spans import Tracer, group_totals  # noqa: E402
from workloads import WORKLOADS, Job, JobOutput  # noqa: E402

# Set-up is timed in this many fresh interpreters before the first run of the
# job list and again after every run, so that the probes are spread over the
# whole measuring window and not all caught in one slow or fast spell of the
# machine.
SETUP_PROBES = 3
MIN_RUNS = 2  # the job list runs at least twice, so stdout can be compared

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graph.self_s": "s",
    "graph.apsp.calls": "count",
    "graph.apsp.self_s": "s",
    "graph.apsp.calls_per_set": "ratio",
    "graph.bfs.calls": "count",
    "graph.bfs.self_s": "s",
    "graph.parse.self_s": "s",
    "dimension.self_s": "s",
    "dimension.check.calls": "count",
    "dimension.check.self_s": "s",
    "dimension.check.true_ratio": "ratio",
    "dimension.srgraph.self_s": "s",
    "cover.calls": "count",
    "cover.self_s": "s",
    "cover.nodes": "count",
    "cover.nodes_per_s": "1/s",
    "cover.share": "ratio",
    "embedding.self_s": "s",
    "embedding.certify.calls": "count",
    "embedding.certify.self_s": "s",
    "embedding.certify.fail_ratio": "ratio",
    "embedding.dve.calls": "count",
    "embedding.dve.self_s": "s",
    "constructions.build.calls": "count",
    "constructions.build.self_s": "s",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.sets": "count",
    "search.sets_yes": "count",
    "search.sets_no": "count",
    "search.sets_budget": "count",
    "search.nodes_per_set": "ratio",
    "search.budget_waste": "ratio",
    "search.orbit_ratio": "ratio",
    "search.auts.self_s": "s",
    "search.auts.count": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def import_cli():
    """strongdim.cli from this checkout's src/, never from site-packages."""
    pkg = SRC / "strongdim"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no strongdim sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import strongdim.cli

    if Path(strongdim.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported strongdim from {strongdim.__file__}, not {pkg}")
    return strongdim.cli


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_jobs(main, jobs: list[Job], tracer: Tracer | None = None,
             sampler: speed.Sampler | None = None):
    """Run the job list once; returns (seconds inside cli.main per job, outputs).
    The time the sampler's handler took is not counted."""
    times, outputs = [], []
    for job in jobs:
        if job.writes is not None and job.writes.exists():
            job.writes.unlink()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            spent = sampler.spent if sampler else 0.0
            t0 = time.perf_counter()
            try:
                rc = tracer.call_root(main, job.argv) if tracer else main(job.argv)
            except Exception:
                rc = None
                traceback.print_exc()
            t = time.perf_counter() - t0
            if sampler:
                t -= sampler.spent - spent
            times.append(t)
        stdout = out.getvalue()
        if job.stdout_to is not None:
            job.stdout_to.write_text(stdout)
        written = job.writes.read_text() if job.writes is not None and job.writes.exists() else ""
        outputs.append(JobOutput(rc, stdout, err.getvalue(), written))
    return times, outputs


def digest(out: JobOutput) -> str:
    return hashlib.sha256(f"{out.rc}\0{out.stdout}\0{out.written}".encode()).hexdigest()[:16]


def job_failure(job: Job, out: JobOutput, expected_digest: str | None) -> str | None:
    if out.rc != job.expect_rc:
        return f"exit code {out.rc}, expected {job.expect_rc}"
    if "Traceback" in out.stderr:
        return "traceback: " + out.stderr.strip().splitlines()[-1]
    try:
        job.check(out)
    except CheckError as exc:
        return f"check failed: {exc}"
    except Exception as exc:  # malformed output is a failed job, not a crash
        return f"unreadable output: {exc!r}"
    if expected_digest is not None and digest(out) != expected_digest:
        return f"stdout digest {digest(out)}, expected {expected_digest}"
    return None


def count_failures(workload, seed: int, jobs: list[Job], runs: list[list[JobOutput]]):
    """(attempted, failed) over every job of every run; reasons go to stderr."""
    pinned = workload.digests if (seed == 0 or not workload.seeded) else []
    first = runs[0]
    reasons = {}
    for i, (job, out) in enumerate(zip(jobs, first)):
        reason = job_failure(job, out, pinned[i] if i < len(pinned) else None)
        if reason:
            reasons[i] = reason
    failed = 0
    for r, outs in enumerate(runs):
        for i, out in enumerate(outs):
            if r and (out.rc, out.stdout, out.written) != (first[i].rc, first[i].stdout,
                                                           first[i].written):
                reasons.setdefault(i, f"output of run {r} differs from run 0")
                failed += 1
            elif i in reasons:
                failed += 1
    for i, reason in sorted(reasons.items()):
        print(f"perfbench: job {i} {' '.join(jobs[i].argv)}: {reason}", file=sys.stderr)
    return sum(len(outs) for outs in runs), failed


def time_setup(workload: str, seed: int, probe_dir: Path) -> list[float]:
    """Seconds from starting each of SETUP_PROBES fresh interpreters until it
    has imported strongdim and written the inputs (probe.py; its exit is not
    counted), each scaled to nominal speed by reference chunks timed just
    before it."""
    times = []
    for _ in range(SETUP_PROBES):
        scale = speed.scale_now()
        cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(probe_dir)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        times.append((float(proc.stdout.splitlines()[-1]) - t0) * scale)
        shutil.rmtree(probe_dir)
    return times


def search_counters(cli, jobs: list[Job], outputs: list[JobOutput]) -> dict[str, float]:
    """Totals over every threshold result in the jobs' JSON `stats`."""
    c = dict.fromkeys(("nodes", "sets", "sets_yes", "sets_budget", "waste", "orbits", "total"), 0)
    parser = cli.build_parser()
    for job, out in zip(jobs, outputs):
        if job.argv[0] not in ("threshold", "gap-experiment"):
            continue
        budget = parser.parse_args(job.argv).budget
        try:
            doc = out.json()
            results = [doc] if job.argv[0] == "threshold" else [
                r for rep in doc for r in (rep["tau"], rep["tau_s"])]
        except (CheckError, ValueError, KeyError, TypeError):
            continue  # a broken output is already a failed job
        for res in results:
            levels = res["stats"]["levels"]
            exhausted = sum(lv["budget_exhausted"] for lv in levels)
            c["nodes"] += res["stats"]["nodes"]
            c["sets"] += sum(lv["sets_searched"] for lv in levels)
            c["sets_yes"] += res["witness_W"] is not None
            c["sets_budget"] += exhausted
            c["waste"] += exhausted * (budget + 1)
            c["orbits"] += sum(lv["orbits"] for lv in levels)
            c["total"] += sum(lv["sets_total"] for lv in levels)
    return c


def layer_metrics(cli, tracer: Tracer, jobs, outputs, wall: float) -> dict[str, float]:
    t = group_totals(tracer)
    s = search_counters(cli, jobs, outputs)

    def layer(prefix: str) -> float:
        return sum(v["self_s"] for g, v in t.items() if g.split(".")[0] == prefix)

    return {
        "graph.self_s": layer("graph"),
        "graph.apsp.calls": t["graph.apsp"]["calls"],
        "graph.apsp.self_s": t["graph.apsp"]["self_s"],
        "graph.apsp.calls_per_set": _ratio(t["graph.apsp"]["calls"], s["sets"]),
        "graph.bfs.calls": t["graph.bfs"]["calls"],
        "graph.bfs.self_s": t["graph.bfs"]["self_s"],
        "graph.parse.self_s": t["graph.parse"]["self_s"],
        "dimension.self_s": layer("dimension"),
        "dimension.check.calls": t["dimension.check"]["calls"],
        "dimension.check.self_s": t["dimension.check"]["self_s"],
        "dimension.check.true_ratio": _ratio(t["dimension.check"]["count"],
                                             t["dimension.check"]["calls"]),
        "dimension.srgraph.self_s": t["dimension.srgraph"]["self_s"],
        "cover.calls": t["cover"]["calls"],
        "cover.self_s": t["cover"]["self_s"],
        "cover.nodes": t["cover"]["count"],
        "cover.nodes_per_s": _ratio(t["cover"]["count"], t["cover"]["self_s"]),
        "cover.share": _ratio(t["cover"]["self_s"], wall),
        "embedding.self_s": layer("embedding"),
        "embedding.certify.calls": t["embedding.certify"]["calls"],
        "embedding.certify.self_s": t["embedding.certify"]["self_s"],
        "embedding.certify.fail_ratio": _ratio(t["embedding.certify"]["count"],
                                               t["embedding.certify"]["calls"]),
        "embedding.dve.calls": t["embedding.dve"]["calls"],
        "embedding.dve.self_s": t["embedding.dve"]["self_s"],
        "constructions.build.calls": t["constructions.build"]["calls"],
        "constructions.build.self_s": t["constructions.build"]["self_s"],
        "search.self_s": t["search"]["self_s"],
        "search.nodes": s["nodes"],
        "search.nodes_per_s": _ratio(s["nodes"], t["search"]["self_s"]),
        "search.sets": s["sets"],
        "search.sets_yes": s["sets_yes"],
        "search.sets_no": s["sets"] - s["sets_yes"] - s["sets_budget"],
        "search.sets_budget": s["sets_budget"],
        "search.nodes_per_set": _ratio(s["nodes"], s["sets"]),
        "search.budget_waste": _ratio(s["waste"], s["nodes"]),
        "search.orbit_ratio": _ratio(s["orbits"], s["total"]),
        "search.auts.self_s": t["search.auts"]["self_s"],
        "search.auts.count": t["search.auts"]["count"],
        "cli.self_s": t["cli"]["self_s"],
        "trace.wall_s": wall,
    }


def job_list_seconds(job_times: list[list[float]]) -> float:
    """Sum over jobs of each job's median time across runs.

    Per-job medians drop a job slowed by a burst of machine noise without
    needing a whole extra run of the job list.
    """
    return sum(statistics.median(col) for col in zip(*job_times))


def measure(cli, jobs: list[Job], seconds: float, traced: bool, probe=None):
    """Run the job list until another run would pass `seconds`: at least
    MIN_RUNS untraced runs, or at least one untraced and traced pair.
    `probe()` times set-up; it runs before the first run and after each.
    Untraced runs of an untraced measurement are scaled to nominal machine
    speed by reference chunks sampled during the run (speed.py); a traced
    measurement reports raw times."""
    runs, untraced, raw, traced_runs, layers = [], [], [], [], []
    tracer = None
    sampler = None if traced else speed.Sampler()
    setup = probe() if probe else []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if sampler:
            first = len(sampler.samples)
            sampler.start()
            try:
                times, outs = run_jobs(cli.main, jobs, sampler=sampler)
            finally:
                sampler.stop()
            scale = sampler.scale_since(first)
            raw.append(times)
            times = [t * scale for t in times]
        else:
            times, outs = run_jobs(cli.main, jobs)
        runs.append(outs)
        untraced.append(times)
        if len(untraced) == 1:  # the peak of set-up plus one run, as a CLI user sees it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                times, outs = run_jobs(cli.main, jobs, tracer)
            finally:
                tracer.uninstall()
            runs.append(outs)
            traced_runs.append(times)
            layers.append(layer_metrics(cli, tracer, jobs, outs, sum(times)))
        if probe:
            setup += probe()
        now = time.perf_counter()
        if (traced or len(runs) >= MIN_RUNS) and now - t_start + (now - t_round) > seconds:
            break
    print(f"perfbench: {len(untraced)} untraced runs {['%.3f' % sum(t) for t in untraced]}"
          f" (raw {['%.3f' % sum(t) for t in raw]}), {len(traced_runs)} traced "
          f"{['%.3f' % sum(t) for t in traced_runs]}", file=sys.stderr)
    if not traced:
        return runs, {"wall_s": job_list_seconds(untraced), "peak_rss_mb": peak_rss_mb,
                      "setup_s": statistics.median(setup)}, None
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead"] = job_list_seconds(traced_runs) / job_list_seconds(untraced) - 1
    return runs, metrics, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_cli()
    workload = WORKLOADS[args.workload]

    runtag = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = WORK / runtag
    workdir.mkdir(parents=True)
    try:
        jobs = workload.plan(args.seed, workdir)
        probe = None if args.trace else partial(time_setup, args.workload, args.seed,
                                                workdir / "probe")
        runs, metrics, tracer = measure(cli, jobs, args.seconds, bool(args.trace), probe)
        attempted, failed = count_failures(workload, args.seed, jobs, runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
        units = PER_LAYER
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

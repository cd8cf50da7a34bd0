"""The BENCH writer, tools/bench.py, on one short workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_writes_every_end_to_end_metric(tmp_path):
    """A run on refute-k2 at --seconds 0.1 without --against writes one untraced and one
    traced run of this checkout, each correct, with every end-to-end metric name of
    BENCHMARK.json in the untraced run and in the medians."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH_0.json"
    cmd = [sys.executable, str(ROOT / "tools" / "bench.py"), "--pr", "0", "--pairs", "1",
           "--workload", "refute-k2", "--seconds", "0.1", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tmp_path, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert (doc["pr"], doc["pairs"], doc["seed"], doc["seconds"]) == (0, 1, 0, 0.1)
    assert doc["commits"]["parent"] is None  # change: HEAD, or null in a copy without git
    assert "PYTHONDONTWRITEBYTECODE" in doc
    entry = doc["workloads"]["refute-k2"]
    assert set(entry["runs"]) == {"change"}
    runs = entry["runs"]["change"]
    assert [r["trace"] for r in runs] == [0, 1] and all(r["correct"] for r in runs)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names <= set(runs[0]["metrics"]) and names <= set(entry["medians"]["change"])
    assert {m["name"] for m in spec["per_layer"]} <= set(runs[1]["metrics"])

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


def test_bench_names_a_run_whose_last_line_is_not_json(tmp_path):
    """A perfbench run whose last stdout line is not JSON ends bench with its message
    naming the command and the exit code, not a raw JSONDecodeError."""
    import importlib.util

    import pytest

    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('Traceback (most recent call last): boom')\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as raised:
        bench.run_once(tmp_path, "refute-k2", 0, 0.1, 0)
    message = str(raised.value)
    assert message.startswith("bench: ") and message.endswith("(exit 3)"), message
    assert "perfbench" in message and "boom" in message, message


def test_bench_keeps_the_pairs_it_finished(tmp_path):
    """BENCH_<pr>.json is written after every pair: a copy of bench in a fake tree whose
    perfbench/run.py fails in the second pair ends with its message, and the file still
    holds pair 0's untraced and traced runs, with pairs_done 1 of the 3 asked."""
    import shutil

    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "bench.py", tmp_path / "tools" / "bench.py")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "count = pathlib.Path(__file__).with_name('count')\n"
        "n = int(count.read_text()) if count.exists() else 0\n"
        "count.write_text(str(n + 1))\n"
        "if n >= 2:  # each pair runs untraced, then traced\n"
        "    sys.exit(5)\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
        "                  'metrics': {'wall_s': {'value': 1.0 + n}}}))\n")
    out = tmp_path / "BENCH_0.json"
    cmd = [sys.executable, str(tmp_path / "tools" / "bench.py"), "--pr", "0", "--pairs", "3",
           "--workload", "refute-k2", "--seconds", "0.1", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tmp_path, stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 1 and "printed nothing (exit 5)" in proc.stderr, proc.stderr
    doc = json.loads(out.read_text())
    assert (doc["pairs"], doc["pairs_done"]) == (3, 1)
    runs = doc["workloads"]["refute-k2"]["runs"]["change"]
    assert [(r["pair"], r["trace"], r["metrics"]["wall_s"]) for r in runs] == [(0, 0, 1.0),
                                                                               (0, 1, 2.0)]
    assert doc["workloads"]["refute-k2"]["medians"]["change"] == {"wall_s": 1.5}

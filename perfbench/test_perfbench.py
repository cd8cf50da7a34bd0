"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
from check import CheckError, check_embedding, check_strong_resolving, parse_edges  # noqa: E402
from spans import ROOT, Tracer, group_totals, self_times  # noqa: E402
from workloads import WORKLOADS, Job, JobOutput  # noqa: E402

from strongdim import constructions, dimension, embedding, graph  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0,10] > a [1,6] > b [2,4] > c [2.5,3];  root > d [7,9]
    start = [0.0, 1.0, 2.0, 2.5, 7.0]
    end = [10.0, 6.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 2, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 3.0, 1.5, 0.5, 2.0])
    assert sum(self_times(start, end, parent)) == pytest.approx(10.0)


def test_self_times_merge_overlapping_and_clip_children():
    # children overlap each other and stick out of the parent: covered time
    # is the union inside the parent, [1,5] plus [8,10]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(4.0)


def test_tracer_accounts_for_nested_layers_and_restores_functions():
    g = graph.cycle_graph(7)
    originals = (dimension.strong_resolving_graph, dimension.all_pairs_distances, graph.bfs_from)
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.call_root(dimension.strong_dimension, g)
    finally:
        tracer.uninstall()
    assert (dimension.strong_resolving_graph, dimension.all_pairs_distances,
            graph.bfs_from) == originals
    assert result.value == 4
    spans = tracer.spans()
    names = [tracer.names[span[0]] for span in spans]
    parent_of = {names[i]: names[span[3]] for i, span in enumerate(spans) if span[3] >= 0}
    assert parent_of["strongdim.dimension.strong_dimension"] == ROOT
    assert parent_of["strongdim.dimension.strong_resolving_graph"] == (
        "strongdim.dimension.strong_dimension")
    assert "strongdim.graph.bfs_from" not in names  # internal to graph
    totals = group_totals(tracer)
    assert totals["dimension.srgraph"]["calls"] == 1
    assert totals["cover"]["calls"] == 1 and totals["cover"]["count"] > 0  # cover nodes
    root_s = spans[0][2] - spans[0][1]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_s)


def _cycle_graph_and_embedding(n: int):
    g = graph.cycle_graph(n)
    return parse_edges(graph.to_edge_list(g)), g, constructions.cycle_embedding(n)


def test_checker_accepts_certified_embeddings():
    for n in (8, 9):
        adj, _, emb = _cycle_graph_and_embedding(n)
        check_embedding(adj, emb.to_json(), strong=True)


def test_checker_rejects_one_moved_coordinate():
    adj, _, emb = _cycle_graph_and_embedding(9)
    doc = emb.to_json()
    doc["placement"]["2"][0] += 1
    with pytest.raises(CheckError):
        check_embedding(adj, doc, strong=False)


def test_checker_agrees_with_strongdim_on_every_single_move():
    g, emb = constructions.l3n_family(4)
    adj = parse_edges(graph.to_edge_list(g))
    rejected = 0
    for lb, c in emb.placement.items():
        for i in range(emb.k):
            for delta in (-1, 1):
                moved = list(c)
                moved[i] += delta
                placement = dict(emb.placement, **{lb: tuple(moved)})
                other = embedding.Embedding(emb.k, emb.side, emb.anchors, placement)
                ours = True
                try:
                    check_embedding(adj, other.to_json(), strong=True)
                except CheckError:
                    ours = False
                theirs = bool(embedding.is_w_resolved(other, g)) and bool(
                    embedding.is_isometric_in_product(other))
                assert ours == theirs, (lb, i, delta)
                rejected += not ours
    assert rejected > 0


def test_checker_rejects_non_resolving_witness():
    adj, g, _ = _cycle_graph_and_embedding(6)
    check_strong_resolving(adj, dimension.strong_dimension(g).witness)
    with pytest.raises(CheckError):
        check_strong_resolving(adj, ["0", "1"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_reproducible_per_seed(name, tmp_path):
    def inputs(seed: int, sub: str):
        d = tmp_path / sub
        d.mkdir()
        jobs = WORKLOADS[name].plan(seed, d)
        argv = [[a.replace(str(d), "DIR") for a in job.argv] for job in jobs]
        return argv, {p.name: p.read_text() for p in sorted(d.iterdir())}

    assert inputs(3, "a") == inputs(3, "b")
    if WORKLOADS[name].seeded:
        assert inputs(3, "c") != inputs(4, "d")


def test_failures_count_wrong_checks_and_unstable_output():
    def check(out):
        if out.stdout != "ok\n":
            raise CheckError("not ok")

    jobs = [Job(["a"], 0, check), Job(["b"], 0, check)]
    good, bad = JobOutput(0, "ok\n", ""), JobOutput(0, "no\n", "")
    workload = WORKLOADS["dim-random"]
    assert run.count_failures(workload, 1, jobs, [[good, good], [good, good]]) == (4, 0)
    assert run.count_failures(workload, 1, jobs, [[good, bad], [good, bad]]) == (4, 2)
    assert run.count_failures(workload, 1, jobs, [[good, good], [bad, good]]) == (4, 1)
    crashed = JobOutput(None, "", "Traceback (most recent call last):\nValueError\n")
    assert run.count_failures(workload, 1, jobs, [[crashed, good], [crashed, good]]) == (4, 2)


def test_speed_sampler_keeps_its_own_time_and_scales_to_nominal():
    sampler = speed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.7:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < 0.7
    assert speed.trimmed_mean([1.0] * 18 + [100.0, 0.0]) == 1.0
    assert speed.scale_for([2 * speed.NOMINAL_S] * 5) == pytest.approx(0.5)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-k3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

import itertools
import random

import pytest

from strongdim import (
    GraphError,
    PlacementSearchConfig,
    complete_graph,
    cycle_graph,
    dim2_pruned_search,
    exists_supergraph_resolved_by,
    graph_automorphisms,
    is_strong_resolving_set,
    induced_supergraph,
    path_graph,
    star_graph,
    strong_dimension,
    tau_gap_experiment,
    threshold_dimension,
)
from strongdim.constructions import gn_family
from strongdim.graph import Graph

from .conftest import atlas_connected, random_connected_graph, supergraph_oracle, to_nx


def cfg_for(strong: bool, **kw) -> PlacementSearchConfig:
    return PlacementSearchConfig(
        mode="strongly_resolved" if strong else "resolved", **kw
    )


def test_oracle_equivalence_n4_exhaustive():
    for g in atlas_connected(4, min_n=2):
        for k in range(1, g.n + 1):
            for W in itertools.combinations(g.labels, k):
                for strong in (False, True):
                    got = exists_supergraph_resolved_by(g, list(W), cfg_for(strong))
                    want = supergraph_oracle(g, list(W), strong)
                    assert (got.status == "yes") == want, (g.label_edges(), W, strong)


def test_oracle_equivalence_n6_exhaustive():
    for g in atlas_connected(6, min_n=6):
        for k in range(1, g.n + 1):
            for W in itertools.combinations(g.labels, k):
                for strong in (False, True):
                    got = exists_supergraph_resolved_by(g, list(W), cfg_for(strong))
                    want = supergraph_oracle(g, list(W), strong)
                    assert (got.status == "yes") == want, (g.label_edges(), W, strong)


def test_yes_embeddings_strongly_resolve_their_supergraph(rng):
    seen = 0
    while seen < 30:
        g = random_connected_graph(rng.randrange(3, 8), rng)
        W = rng.sample(list(g.labels), rng.randrange(1, g.n))
        out = exists_supergraph_resolved_by(g, W, cfg_for(True))
        if out.status != "yes":
            continue
        sup = induced_supergraph(out.embedding, g)
        assert is_strong_resolving_set(sup, W)
        assert set(g.label_edges()) <= set(sup.label_edges())
        seen += 1


def test_dim2_pruned_agrees_with_generic(rng):
    for _ in range(40):
        g = random_connected_graph(rng.randrange(3, 8), rng)
        W = rng.sample(list(g.labels), 2)
        for strong in (False, True):
            mode = "strongly_resolved" if strong else "resolved"
            a = exists_supergraph_resolved_by(g, W, cfg_for(strong))
            b = dim2_pruned_search(g, W, mode)
            assert a.status == b.status, (g.label_edges(), W, mode)


def test_dim2_degree_cap_immediate_no():
    g = star_graph(4)  # center has degree 4
    out = dim2_pruned_search(g, ["0", "1"], "strongly_resolved")
    assert out.status == "no" and out.nodes == 0


def test_threshold_paths():
    for n in (2, 5, 9):
        for mode in ("metric", "strong"):
            r = threshold_dimension(path_graph(n), mode)
            assert (r.status, r.value) == ("exact", 1)


def test_threshold_cycle_strong_two():
    r = threshold_dimension(cycle_graph(7), "strong")
    assert (r.status, r.value) == ("exact", 2)
    assert r.embedding is not None


def test_threshold_complete():
    for n in (3, 5):
        r = threshold_dimension(complete_graph(n), "strong")
        assert (r.status, r.value) == ("exact", n - 1)


def test_threshold_k1_graph():
    g = Graph.from_edges(["0"], [])
    r = threshold_dimension(g, "strong")
    assert (r.status, r.value) == ("exact", 0)


def test_tau_le_tau_s_le_beta_s(rng):
    for _ in range(15):
        g = random_connected_graph(rng.randrange(2, 8), rng)
        tau = threshold_dimension(g, "metric")
        tau_s = threshold_dimension(g, "strong")
        assert tau.status == tau_s.status == "exact"
        assert tau.value <= tau_s.value <= strong_dimension(g).value


def test_threshold_invariant_under_relabeling(rng):
    base = random_connected_graph(6, rng)
    want = threshold_dimension(base, "strong").value
    for _ in range(20):
        perm = list(range(base.n))
        rng.shuffle(perm)
        assert threshold_dimension(base.relabeled(perm), "strong").value == want


def test_budget_exhaustion_surfaces():
    g1 = gn_family(1)
    cfg = PlacementSearchConfig(mode="strongly_resolved", node_budget=5)
    out = exists_supergraph_resolved_by(g1, ["a1_1", "b2_1", "c3_1"], cfg)
    assert out.status == "budget_exhausted"
    r = threshold_dimension(g1, "strong", PlacementSearchConfig(node_budget=3), max_k=2)
    assert r.status == "bounds"


def test_fast_path_uses_distance_vectors():
    g = complete_graph(4)
    out = exists_supergraph_resolved_by(g, ["0", "1", "2"], cfg_for(True))
    assert out.status == "yes" and out.nodes == 0


def test_g1_resolved_yes_strong_no():
    g1 = gn_family(1)
    yes = exists_supergraph_resolved_by(g1, ["w1_1", "w2_1"], cfg_for(False))
    assert yes.status == "yes"
    no = exists_supergraph_resolved_by(g1, ["w1_1", "w2_1"], cfg_for(True))
    assert no.status == "no"
    pruned = dim2_pruned_search(g1, ["w1_1", "w2_1"], "strongly_resolved")
    assert pruned.status == "no"
    assert pruned.nodes <= no.nodes


def test_k0_and_duplicate_anchor_validation():
    g = path_graph(3)
    assert exists_supergraph_resolved_by(g, [], cfg_for(True)).status == "no"
    with pytest.raises(GraphError):
        exists_supergraph_resolved_by(g, ["0", "0"], cfg_for(True))
    with pytest.raises(GraphError):
        dim2_pruned_search(g, ["0"], "resolved")


def test_automorphisms_against_networkx(rng):
    import networkx as nx

    for g in atlas_connected(6, min_n=2)[::7]:
        auts = graph_automorphisms(g)
        G = to_nx(g)
        matcher = nx.algorithms.isomorphism.GraphMatcher(G, G)
        want = sum(1 for _ in matcher.isomorphisms_iter())
        assert auts is not None and len(auts) == want


def test_jobs_do_not_change_results():
    # gn_family(1) at budget 20 has refuted and budget-exhausted sets at k=2 and k=3
    for g, budget, max_k in ((cycle_graph(8), 10_000_000, None), (gn_family(1), 20, 3)):
        seq = threshold_dimension(g, "strong", PlacementSearchConfig(node_budget=budget), max_k)
        par = threshold_dimension(
            g, "strong", PlacementSearchConfig(node_budget=budget, jobs=2), max_k
        )
        assert seq.to_json() == par.to_json()


def test_jobs_pool_is_capped_at_cpu_count(monkeypatch):
    """A pool never gets more workers than CPUs, and one CPU runs serially."""
    import os

    import strongdim.search

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(strongdim.search, "ProcessPoolExecutor", SerialPool)
    g = cycle_graph(7)
    want = threshold_dimension(g, "strong").to_json()
    for cpus, pools in ((3, [3]), (1, []), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        got = threshold_dimension(g, "strong", PlacementSearchConfig(jobs=5000))
        assert sizes == pools and got.to_json() == want


def test_max_side_must_be_positive():
    for side in (0, -3):
        with pytest.raises(GraphError, match="max_side"):
            PlacementSearchConfig(max_side=side)


def test_threshold_rejects_a_grid_too_small_to_refute():
    """A grid of side at most the diameter cannot hold every placement, so its "no"
    refutes nothing: P5 (diameter 4, strong threshold 1) is not reported as 4."""
    g = path_graph(5)
    for side in (1, 2, 4):
        with pytest.raises(GraphError, match="max_side"):
            threshold_dimension(g, "strong", PlacementSearchConfig(max_side=side))
    for side in (5, 7):
        got = threshold_dimension(g, "strong", PlacementSearchConfig(max_side=side))
        assert (got.status, got.value) == ("exact", 1)


def test_max_k_must_be_positive():
    for max_k in (0, -1):
        with pytest.raises(GraphError, match="max_k"):
            threshold_dimension(path_graph(3), "strong", max_k=max_k)


def test_jobs_must_be_positive():
    for jobs in (0, -3):
        with pytest.raises(GraphError):
            PlacementSearchConfig(jobs=jobs)


def test_distances_computed_once_per_graph(monkeypatch):
    """APSP and the connectivity check run a fixed number of times per call,
    however many anchor sets are searched (946 at k=2 for gn_family(2))."""
    import strongdim.dimension
    import strongdim.search

    calls = {"apsp": 0, "connected": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (strongdim.search, strongdim.dimension):
        monkeypatch.setattr(
            module, "all_pairs_distances", counting("apsp", module.all_pairs_distances)
        )
        monkeypatch.setattr(
            module, "require_connected", counting("connected", module.require_connected)
        )
    seen = []
    for n in (1, 2):
        calls.update(apsp=0, connected=0)
        r = threshold_dimension(gn_family(n), "strong", max_k=2)
        assert r.status == "bounds" and r.bounds[0] == 3
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[1]["apsp"] <= 2 and seen[1]["connected"] <= 2


def test_search_counters_golden():
    """Node-for-node counters of the placement DFS and the orbit fold.

    The node counts were recorded before the DFS's cell lookup, the whole stats
    dicts before its explicit stack.
    """
    g = gn_family(1)
    res = threshold_dimension(g, "strong", PlacementSearchConfig(node_budget=20), max_k=3)
    assert res.status == "bounds" and res.bounds == (2, 4)
    assert res.stats["nodes"] == 36531
    levels = [(lv["k"], lv["sets_searched"], lv["refuted"], lv["budget_exhausted"])
              for lv in res.stats["levels"]]
    assert levels == [(1, 12, 23, 0), (2, 132, 252, 1), (3, 1747, 55, 1716)]
    assert res.stats == {"nodes": 36531, "levels": [
        {"k": 1, "sets_total": 23, "orbits": 12, "sets_searched": 12, "refuted": 23,
         "budget_exhausted": 0},
        {"k": 2, "sets_total": 253, "orbits": 132, "sets_searched": 132, "refuted": 252,
         "budget_exhausted": 1},
        {"k": 3, "sets_total": 1771, "orbits": 891, "sets_searched": 1747, "refuted": 55,
         "budget_exhausted": 1716},
    ]}
    metric = threshold_dimension(g, "metric", PlacementSearchConfig(node_budget=20), max_k=3)
    assert (metric.status, metric.value, metric.stats["nodes"]) == ("exact", 2, 34)
    assert metric.stats == {"nodes": 34, "levels": [
        {"k": 1, "sets_total": 23, "orbits": 12, "sets_searched": 12, "refuted": 23,
         "budget_exhausted": 0},
        {"k": 2, "sets_total": 253, "orbits": 132, "sets_searched": 16, "refuted": 27,
         "budget_exhausted": 0},
    ]}
    W = ["w1_1", "w2_1"]
    assert dim2_pruned_search(g, W, "strongly_resolved").nodes == 87
    assert exists_supergraph_resolved_by(g, W).nodes == 96


def test_placement_dfs_deeper_than_the_recursion_limit():
    g = cycle_graph(1200)
    W = ["0", "599"]  # they do not strongly resolve C_1200, so the DFS places every vertex
    for out in (exists_supergraph_resolved_by(g, W), dim2_pruned_search(g, W)):
        assert (out.status, out.nodes) == ("yes", 1200)


def test_automorphisms_of_a_long_path():
    r = threshold_dimension(path_graph(1200), "strong")
    assert (r.status, r.value) == ("exact", 1)


def test_symmetry_pruning_preserves_results():
    g = cycle_graph(9)
    on = threshold_dimension(g, "strong", PlacementSearchConfig(symmetry_pruning=True))
    off = threshold_dimension(g, "strong", PlacementSearchConfig(symmetry_pruning=False))
    assert on.value == off.value == 2
    assert on.witness_W == off.witness_W


def test_threshold_matches_supergraph_minimum():
    """End to end: threshold value == min dimension over all explicit supergraphs."""
    from strongdim import brute_force_dimension

    for g in atlas_connected(5, min_n=2):
        non_edges = [
            e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)
        ]
        for mode in ("metric", "strong"):
            want = g.n
            for r in range(len(non_edges) + 1):
                for extra in itertools.combinations(non_edges, r):
                    want = min(want, brute_force_dimension(g.with_edges(list(extra)), mode).value)
            got = threshold_dimension(g, mode)
            assert (got.status, got.value) == ("exact", want), (g.label_edges(), mode)


def test_limited_side_yes_is_still_a_certificate():
    from strongdim.constructions import l3n_family
    from strongdim import all_pairs_distances

    g, emb = l3n_family(4)
    D = all_pairs_distances(g).diameter
    assert emb.side == D  # the family embedding fits a grid smaller than D+1
    out = exists_supergraph_resolved_by(
        g, list(emb.anchors), cfg_for(True, max_side=emb.side)
    )
    assert out.status == "yes"
    assert max(max(c) for c in out.embedding.placement.values()) < emb.side


def test_three_block_corridor_strong_threshold_three():
    """The chained corridor keeps strong threshold 3 at three blocks."""
    g3 = gn_family(3)
    for W in itertools.combinations(g3.labels, 2):
        assert dim2_pruned_search(g3, list(W), "strongly_resolved").status == "no"
    out = exists_supergraph_resolved_by(
        g3,
        ["w1_1", "b4_1", "d3_1"],
        PlacementSearchConfig(mode="strongly_resolved", max_side=6, node_budget=100_000),
    )
    assert out.status == "yes"
    sup = induced_supergraph(out.embedding, g3)
    assert is_strong_resolving_set(sup, ["w1_1", "b4_1", "d3_1"])
    assert set(g3.label_edges()) <= set(sup.label_edges())


def test_gap_experiment_row_and_budget():
    rep = tau_gap_experiment(1, PlacementSearchConfig(node_budget=3_000_000), max_k=3)
    assert rep.tau.status == "exact" and rep.tau.value == 2
    assert rep.tau_s.status == "exact" and rep.tau_s.value == 3
    assert "tau" in rep.row()
    tiny = tau_gap_experiment(1, PlacementSearchConfig(node_budget=2), max_k=2)
    assert tiny.tau_s.status == "bounds"


def test_shell_memo_matches_the_direct_gap_test():
    """The per-placement shell answers each cell as the anchor-gap test does, hit or miss."""
    from strongdim import chebyshev
    from strongdim.search import _Shell

    rng = random.Random(23)
    for k in range(1, 5):
        for side in range(2, 8):
            for t in range(4):
                # as the DFS places them (anchor j on coordinate j = 0), then anywhere
                anchor_cells = [
                    tuple(0 if i == j and t < 2 else rng.randrange(side) for i in range(k))
                    for j in range(k)
                ]
                shell = _Shell(anchor_cells)
                grid = list(itertools.product(range(side), repeat=k))
                for c in rng.sample(grid, len(grid)) * 2:
                    want = all(chebyshev(c, cw) == c[j] for j, cw in enumerate(anchor_cells))
                    assert shell[c] == want, (anchor_cells, c)
                assert len(shell) == len(grid)


def test_two_anchor_shell_is_the_feasible_region():
    """With anchors at (0, a) and (a, 0) the shell on the grid is the two-anchor region,
    which is why the DFS needs no separate region test."""
    from strongdim import feasible_region
    from strongdim.search import _Shell

    for side in range(1, 16):
        grid = list(itertools.product(range(side), repeat=2))
        for a in range(side):
            shell = _Shell([(0, a), (a, 0)])
            assert {c for c in grid if shell[c]} == set(feasible_region(side - 1, a).cells())


def test_k3_orbit_reps_golden():
    """Statuses and node counts of the first 40 k=3 orbit representatives of G_2, in
    threshold_dimension's enumeration order, at budget 128 (recorded before the shell)."""
    import hashlib
    import json

    from strongdim import all_pairs_distances

    g = gn_family(2)
    ecc = all_pairs_distances(g).eccentricities
    auts = graph_automorphisms(g)
    sets = sorted(
        itertools.combinations(range(g.n), 3),
        key=lambda W: (-sum(ecc[v] for v in W), tuple(g.labels[v] for v in W)),
    )
    reps: dict = {}
    for W in sets:
        reps.setdefault(min(tuple(sorted(p[w] for w in W)) for p in auts), W)
    reps_40 = [[g.labels[v] for v in W] for W in list(reps.values())[:40]]
    assert reps_40[0] == ["a3_1", "b4_1", "c5_1"] and reps_40[28] == ["a1_1", "a3_1", "b4_1"]

    exhausted = ("budget_exhausted", 129)
    strong = [exhausted] * 28 + [("no", 66)] + [exhausted] * 11
    metric = [exhausted] * 40
    for i in (10, 24, 26, 27, 30, 39):
        metric[i] = ("yes", 0)  # the distance vectors already resolve G_2
    metric[15] = ("yes", 104)
    metric[28] = ("no", 66)
    for mode, want in (("strongly_resolved", strong), ("resolved", metric)):
        cfg = PlacementSearchConfig(mode=mode, node_budget=128)
        got = [exists_supergraph_resolved_by(g, W, cfg) for W in reps_40]
        assert [(r.status, r.nodes) for r in got] == want, mode
    emb = got[15].embedding.to_json()
    assert emb["anchors"] == ["b4_1", "c5_1", "w2_2"]
    digest = hashlib.sha256(json.dumps(emb, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == "126fbadd1e78c513"

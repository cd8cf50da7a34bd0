"""Acceptance suite: every gate criterion with its stated scope and budget.

Each test prints one PASS line with a short summary and its elapsed time.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from strongdim import (
    PlacementSearchConfig,
    all_pairs_distances,
    brute_force_dimension,
    complete_graph,
    cycle_graph,
    dim2_diagnostics,
    dim2_pruned_search,
    distance_vector_embedding,
    exists_supergraph_resolved_by,
    feasible_region,
    induced_supergraph,
    is_isometric_in_product,
    is_resolving_set,
    is_strong_resolving_set,
    is_w_resolved,
    path_graph,
    random_tree,
    strong_dimension,
    strong_resolving_graph,
    threshold_dimension,
)
from strongdim.constructions import (
    FiveLeafTreeParams,
    FourLeafTreeParams,
    StarPairSpec,
    chromatic_bound_supergraph,
    cycle_embedding,
    five_leaf_tree,
    four_leaf_tree,
    gn_family,
    greedy_coloring,
    l3n_family,
    tree_bound_supergraph,
    tree_dim3_embedding,
    tree_dim4_embedding,
    type_graph,
    verify_type_sr,
)
from strongdim.graph import leaves_of

from .conftest import atlas_connected, random_connected_graph, supergraph_oracle


def _strongly_resolves_all(dm, witness_idx, n: int) -> bool:
    """Plain interval-arithmetic check that the set strongly resolves all pairs."""
    d = dm.dist
    for u in range(n):
        for v in range(u + 1, n):
            if not any(
                d[u][w] == d[u][v] + d[v][w] or d[v][w] == d[v][u] + d[u][w]
                for w in witness_idx
            ):
                return False
    return True


def _report(num: int, summary: str, t0: float, limit_s: float) -> None:
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num}: PASS - {summary} ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its runtime target"


def test_criterion_01_reduction_equals_brute_force():
    """Reduction pipeline agrees with subset enumeration on all graphs n <= 7."""
    t0 = time.time()
    count = 0
    for g in atlas_connected(7):
        assert strong_dimension(g).value == brute_force_dimension(g, "strong").value, (
            g.label_edges()
        )
        count += 1
    assert count == 996  # connected graphs on 1..7 vertices up to isomorphism
    _report(1, f"reduction = brute force on all {count} connected graphs n<=7", t0, 600)


def test_criterion_02_tree_leaf_formula():
    t0 = time.time()
    rng = random.Random(42)
    for i in range(500):
        n = rng.randrange(4, 41)
        t = random_tree(n, seed=i)
        assert strong_dimension(t).value == len(leaves_of(t)) - 1, (n, i)
    _report(2, "500 random trees 4<=n<=40: dimension = leaves - 1", t0, 60)


def test_criterion_03_paths_and_cliques():
    t0 = time.time()
    for n in range(2, 13):
        assert strong_dimension(path_graph(n)).value == 1
    for n in range(2, 8):
        assert strong_dimension(complete_graph(n)).value == n - 1
        r = threshold_dimension(complete_graph(n), "strong")
        assert (r.status, r.value) == ("exact", n - 1), n
    _report(3, "paths have dimension 1; cliques have dimension = threshold = n-1", t0, 300)


def test_criterion_04_cycles():
    t0 = time.time()
    for n in range(4, 15):
        emb = cycle_embedding(n)
        g = cycle_graph(n)
        assert is_w_resolved(emb, g) and is_isometric_in_product(emb), n
        r = threshold_dimension(g, "strong")
        assert (r.status, r.value) == ("exact", 2), n
        assert r.stats["levels"][0]["refuted"] == n  # k=1 exhaustively refuted
    for n in range(4, 13):
        assert brute_force_dimension(cycle_graph(n), "strong").value == (n + 1) // 2
        assert strong_dimension(cycle_graph(n)).value == (n + 1) // 2
    _report(4, "cycles n=4..14: certified embeddings and exact threshold 2", t0, 600)


def test_criterion_05_characterization_equivalence():
    """Placement search == explicit supergraph enumeration, both modes/directions."""
    t0 = time.time()
    instances = 0
    for g in atlas_connected(5, min_n=2):
        for k in range(1, g.n + 1):
            for W in itertools.combinations(g.labels, k):
                for strong in (False, True):
                    got = exists_supergraph_resolved_by(g, list(W), strong=strong)
                    assert got.status in ("yes", "no")
                    want = supergraph_oracle(g, list(W), strong)
                    assert (got.status == "yes") == want, (g.label_edges(), W, strong)
                    if got.status == "yes" and strong:
                        sup = induced_supergraph(got.embedding, g)
                        assert is_strong_resolving_set(sup, list(W))
                    instances += 1
    _report(5, f"search = supergraph enumeration on {instances} (g,W,mode) instances", t0, 1800)


def test_criterion_06_corridor_separates_thresholds():
    t0 = time.time()
    g1 = gn_family(1)
    # metric threshold is 2, witnessed at the corner pair
    yes = exists_supergraph_resolved_by(g1, ["w1_1", "w2_1"], strong=False)
    assert yes.status == "yes"
    tau = threshold_dimension(g1, "metric")
    assert (tau.status, tau.value) == ("exact", 2)
    # every 2-anchor strong search is exhaustively refuted
    refuted = 0
    for W in itertools.combinations(g1.labels, 2):
        out = dim2_pruned_search(g1, list(W), strong=True)
        assert out.status == "no", W
        refuted += 1
    assert refuted == 253
    # the 3-anchor witness settles the exact value (not a literature-backed number)
    ts = threshold_dimension(g1, "strong", PlacementSearchConfig(node_budget=3_000_000), max_k=3)
    assert (ts.status, ts.value) == ("exact", 3)
    _report(
        6,
        "23-vertex corridor: tau=2, all 253 two-anchor strong searches refuted, tau_s=3",
        t0,
        3600,
    )


@pytest.mark.slow
def test_criterion_07_double_corridor_stretch():
    t0 = time.time()
    g2 = gn_family(2)
    assert g2.n == 44
    # required lower bound: exhaustive k=2 refutation
    for W in itertools.combinations(g2.labels, 2):
        assert dim2_pruned_search(g2, list(W), strong=True).status == "no", W
    # cross-check a few pairs with the generic (unpruned) engine
    for W in [("w1_1", "w2_2"), ("c5_1", "f3_2"), ("a1_1", "d2_2")]:
        out = exists_supergraph_resolved_by(g2, list(W), strong=True)
        assert out.status == "no", W
    # required upper bound (<= 4): a recorded 3-anchor witness, re-searched and
    # re-certified here; it also sharpens the literature value 4 down to 3
    witness = ["b3_1", "w1_1", "d3_1"]
    out = exists_supergraph_resolved_by(
        g2, witness, PlacementSearchConfig(node_budget=100_000), strong=True
    )
    assert out.status == "yes"
    sup = induced_supergraph(out.embedding, g2)
    assert set(g2.label_edges()) <= set(sup.label_edges())
    assert is_strong_resolving_set(sup, witness)
    assert strong_dimension(sup).value == 3
    # reduction-free double check: no pair strongly resolves the witness
    # supergraph, so its dimension really is 3, not 2
    dmh = all_pairs_distances(sup)
    for W in itertools.combinations(range(sup.n), 2):
        assert not _strongly_resolves_all(dmh, W, sup.n)
    # the budgeted k<=3 sweep reports the attempt: it terminates early with the
    # witness rather than a refutation (full-budget rerun: `strongdim
    # gap-experiment --n 2 --budget 100000000`)
    sweep = threshold_dimension(g2, "strong", PlacementSearchConfig(node_budget=2000), max_k=3)
    assert sweep.status == "exact" and sweep.value == 3
    k3 = sweep.stats["levels"][2]
    _report(
        7,
        "44-vertex double corridor: tau_s = 3 exactly (upper bound 4 required, 3 found; "
        f"k=3 attempt report: {k3['refuted']} refuted, {k3['budget_exhausted']} budgeted "
        f"of {k3['sets_total']})",
        t0,
        3600,
    )


def test_criterion_08_constructive_bounds():
    t0 = time.time()
    rng = random.Random(7)
    for i in range(100):
        n = rng.randrange(2, 65)
        t = random_tree(n, seed=1000 + i)
        h, bound = tree_bound_supergraph(t)
        assert strong_dimension(h).value == bound, (n, i)
        assert set(t.label_edges()) <= set(h.label_edges())
    for i in range(50):
        g = random_connected_graph(rng.randrange(2, 21), rng, p=rng.choice([0.2, 0.4, 0.6]))
        coloring = greedy_coloring(g)
        h, bound = chromatic_bound_supergraph(g, coloring)
        assert strong_dimension(h).value == bound, (i, g.label_edges())
        assert set(g.label_edges()) <= set(h.label_edges())
    _report(8, "tree and coloring bound supergraphs realize their bounds exactly", t0, 900)


def test_criterion_09_two_star_realizations():
    t0 = time.time()
    checked = 0
    for tp in (1, 2, 3, 4):
        for m in range(1, 7):
            for n in range(m, 7):
                spec = StarPairSpec(m, n, tp)
                res = verify_type_sr(type_graph(spec), spec)
                assert res, (tp, m, n, res.clause, res.detail)
                checked += 1
    _report(9, f"all {checked} two-star realizations verified structurally", t0, 300)


def test_criterion_10_trees_dim3_dim4():
    t0 = time.time()
    rng = random.Random(10)

    def params4():
        k2, k3 = sorted((rng.randrange(1, 6) for _ in range(2)), reverse=True)
        k4, k5 = sorted((rng.randrange(1, 6) for _ in range(2)), reverse=True)
        return FourLeafTreeParams(rng.randrange(1, 6), k2, k3, k4, k5)

    four, five = [], []
    for _ in range(200):
        p = params4()
        four.append(p)
        emb = tree_dim3_embedding(p)
        t = four_leaf_tree(p)
        assert is_w_resolved(emb, t) and is_isometric_in_product(emb), p
    for _ in range(200):
        p4 = params4()
        p = FiveLeafTreeParams(
            p4.k1, p4.k2, p4.k3, p4.k4, p4.k5,
            rng.randrange(1, 6), rng.randrange(1, p4.k1 + 1),
        )
        five.append(p)
        emb = tree_dim4_embedding(p)
        t = five_leaf_tree(p)
        assert is_w_resolved(emb, t) and is_isometric_in_product(emb), p
    # independent confirmation by exact search on a sample
    for p in rng.sample(four, 10):
        r = threshold_dimension(four_leaf_tree(p), "strong")
        assert (r.status, r.value) == ("exact", 2), p
    for p in rng.sample(five, 10):
        r = threshold_dimension(five_leaf_tree(p), "strong")
        assert (r.status, r.value) == ("exact", 2), p
    # pinned coordinate fixtures
    assert tree_dim3_embedding(FourLeafTreeParams(3, 4, 4, 4, 3)).placement["y4"] == (0, 9)
    assert tree_dim3_embedding(FourLeafTreeParams(4, 2, 2, 3, 2)).placement["y3"] == (0, 7)
    e12 = tree_dim4_embedding(FiveLeafTreeParams(3, 2, 2, 3, 2, 3, 2))
    assert [e12.placement[f"t{j}"] for j in (1, 2, 3)] == [(5, 4), (6, 5), (7, 6)]
    e13 = tree_dim4_embedding(FiveLeafTreeParams(4, 2, 2, 3, 2, 2, 4))
    assert [e13.placement[f"t{j}"] for j in (1, 2)] == [(6, 3), (7, 4)]
    _report(10, "400 random 4/5-leaf trees certify; 20 sampled exact searches give 2", t0, 1800)


def test_criterion_11_leaf_decorated_paths():
    t0 = time.time()
    for n in range(2, 9):
        g, emb = l3n_family(n)
        assert is_w_resolved(emb, g) and is_isometric_in_product(emb), n
        assert strong_dimension(g).value == 2 * n - 1, n
    g4, e4 = l3n_family(4)
    assert e4.placement["v1"] == (1, 1) and e4.placement["u1"] == (0, 1)
    assert e4.placement["w1"] == (1, 0) and e4.placement["w4"] == (4, 3)
    assert e4.side == 5
    _report(11, "leaf-decorated paths n=2..8 certify; dimension 2n-1; fixture matches", t0, 60)


def test_criterion_12_structure_properties():
    t0 = time.time()
    graphs = atlas_connected(7, min_n=3)
    beta2 = beta_s2 = 0
    for g in graphs:
        dm = all_pairs_distances(g)
        metric = brute_force_dimension(g, "metric")
        if metric.value == 2:
            beta2 += 1
            for W in itertools.combinations(sorted(g.labels), 2):
                if not is_resolving_set(g, W, dm):
                    continue
                a = dm.dist[g.index(W[0])][g.index(W[1])]
                region = feasible_region(dm.diameter, a)
                emb = distance_vector_embedding(g, list(W))
                assert all(region.contains(x, y) for x, y in emb.placement.values()), (
                    g.label_edges(), W,
                )
                if len(W) == metric.value:  # any basis passes the structure checks
                    rep = dim2_diagnostics(g, list(W))
                    assert rep.all_ok, (g.label_edges(), W, rep.failures)
        if strong_dimension(g).value == 2:
            beta_s2 += 1
            sr = strong_resolving_graph(g)
            # no two vertices share two common neighbours in the MMD graph
            for u, v in itertools.combinations(range(sr.n), 2):
                common = set(sr.adj[u]) & set(sr.adj[v])
                assert len(common) <= 1, (g.label_edges(), u, v)
            # every minimum 2-cover shares at most one common neighbour
            for u, v in itertools.combinations(range(sr.n), 2):
                cov = {u, v}
                if all(a in cov or b in cov for a, b in sr.edges()):
                    assert len(set(sr.adj[u]) & set(sr.adj[v])) <= 1
    assert beta2 > 50 and beta_s2 > 50
    _report(
        12,
        f"region/structure checks on {beta2} metric-2 and {beta_s2} strong-2 graphs (n<=7)",
        t0,
        1200,
    )

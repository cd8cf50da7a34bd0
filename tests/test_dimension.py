import itertools
import random

import pytest

from strongdim import (
    GraphError,
    all_pairs_distances,
    brute_force_dimension,
    complete_graph,
    cycle_graph,
    is_mmd,
    is_resolving_set,
    is_strong_resolving_set,
    path_graph,
    random_tree,
    star_graph,
    strong_dimension,
    strong_resolving_graph,
    strongly_resolves,
)
from strongdim.graph import Graph, leaves_of

from .conftest import atlas_connected, random_connected_graph


def test_mmd_complete():
    g = complete_graph(4)
    dm = all_pairs_distances(g)
    for u, v in itertools.combinations(range(4), 2):
        assert is_mmd(g, dm, u, v)


def test_mmd_path_and_cycle():
    p3 = path_graph(3)
    dm = all_pairs_distances(p3)
    assert is_mmd(p3, dm, 0, 2)
    assert not is_mmd(p3, dm, 0, 1)
    c4 = cycle_graph(4)
    dm = all_pairs_distances(c4)
    assert is_mmd(c4, dm, 0, 2)


def test_mmd_rejects_equal_vertices():
    g = path_graph(3)
    dm = all_pairs_distances(g)
    with pytest.raises(GraphError):
        is_mmd(g, dm, 1, 1)


def test_mmd_symmetric_random(rng):
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 10), rng)
        dm = all_pairs_distances(g)
        for u, v in itertools.combinations(range(g.n), 2):
            assert is_mmd(g, dm, u, v) == is_mmd(g, dm, v, u)


def test_sr_of_complete_is_complete():
    sr = strong_resolving_graph(complete_graph(5))
    assert sr.m == 10


def test_sr_of_path_is_endpoint_edge():
    sr = strong_resolving_graph(path_graph(6))
    assert sr.label_edges() == [("0", "5")]


def test_tree_sr_is_leaf_clique():
    for seed in range(200):
        t = random_tree(random.Random(seed).randrange(2, 30), seed=seed)
        sr = strong_resolving_graph(t)
        leaves = {t.labels[v] for v in leaves_of(t)}
        expected = sorted(
            tuple(sorted(e)) for e in itertools.combinations(sorted(leaves), 2)
        )
        assert sr.label_edges() == expected


def test_sr_matches_is_mmd(monkeypatch):
    """The MMD graph from distance layers has exactly the pairs is_mmd accepts, in
    index order, with the adjacency from_edges builds of them (K1's vertex, maximally
    distant from itself, gets no loop), and never asks is_mmd; a disconnected graph
    is refused."""
    from strongdim import dimension

    mmd = dimension.is_mmd

    def refuse(*args):
        raise AssertionError("strong_resolving_graph called is_mmd")

    monkeypatch.setattr(dimension, "is_mmd", refuse)
    rng = random.Random(23)
    graphs = atlas_connected(6, min_n=2) + [
        random_connected_graph(rng.randrange(2, 61), rng, rng.choice((0.05, 0.1, 0.2, 0.35, 0.6)))
        for _ in range(60)
    ]
    graphs += [complete_graph(n) for n in range(1, 13)]
    graphs += [path_graph(n) for n in range(2, 41)] + [cycle_graph(n) for n in range(3, 41)]
    for g in graphs:
        dm = all_pairs_distances(g)
        pairs = [
            (u, v) for u, v in itertools.combinations(range(g.n), 2) if mmd(g, dm, u, v)
        ]
        sr = strong_resolving_graph(g)
        assert sr.labels == g.labels and sr.edges() == pairs
        assert sr.adj == Graph.from_edges(g.labels, pairs).adj
        assert sr.label_edges() == sorted(
            tuple(sorted((g.labels[u], g.labels[v]))) for u, v in pairs
        )
    split = Graph.from_label_edges([("a", "b"), ("b", "c"), ("d", "e")])
    with pytest.raises(GraphError):
        strong_resolving_graph(split)


def test_strong_dimension_golden():
    """Dimensions, witnesses and MMD graphs of 40 random graphs on 20-60 vertices,
    plus P2000's MMD graph, pinned while the MMD graph was built one is_mmd call
    per pair and the lex-min cover pass kept its forced vertices in every search."""
    import hashlib
    import json

    rng = random.Random(23)
    out = []
    for _ in range(40):
        g = random_connected_graph(rng.randrange(20, 61), rng, rng.choice((0.05, 0.1, 0.2, 0.35)))
        out.append((strong_dimension(g).to_json(), strong_resolving_graph(g).label_edges()))
    out.append(strong_resolving_graph(path_graph(2000)).label_edges())
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16] == "ece2daf9c06aec3e"


def test_strongly_resolves_examples():
    p4 = path_graph(4)
    dm = all_pairs_distances(p4)
    assert strongly_resolves(dm, 0, 1, 3)
    c4 = cycle_graph(4)
    dmc = all_pairs_distances(c4)
    assert not strongly_resolves(dmc, 0, 1, 3)
    # degenerate: w equals one of the pair
    assert strongly_resolves(dm, 1, 1, 3)


def test_strong_resolving_set_examples():
    for g in (path_graph(5), cycle_graph(5), complete_graph(4)):
        assert is_strong_resolving_set(g, list(g.labels))
    assert is_strong_resolving_set(path_graph(8), ["0"])
    assert not is_strong_resolving_set(complete_graph(3), ["0"])


def test_resolving_set_examples():
    assert not is_resolving_set(cycle_graph(4), ["0"])
    assert is_resolving_set(path_graph(9), ["0"])


def test_strong_implies_resolving(rng):
    for _ in range(40):
        g = random_connected_graph(rng.randrange(2, 9), rng)
        for k in range(1, g.n + 1):
            for W in itertools.combinations(g.labels, k):
                if is_strong_resolving_set(g, W):
                    assert is_resolving_set(g, W)


def test_strong_dimension_complete_and_trees():
    for n in range(2, 8):
        assert strong_dimension(complete_graph(n)).value == n - 1
    for seed in range(30):
        t = random_tree(4 + seed % 20, seed=seed)
        assert strong_dimension(t).value == len(leaves_of(t)) - 1


def test_strong_dimension_star_example():
    assert strong_dimension(star_graph(7)).value == 6


def test_strong_dimension_k1():
    g = Graph.from_edges(["0"], [])
    res = strong_dimension(g)
    assert res.value == 0 and res.witness == ()


def test_cycle_dimension_matches_brute_force():
    for n in range(4, 11):
        c = cycle_graph(n)
        brute = brute_force_dimension(c, "strong")
        assert brute.value == (n + 1) // 2
        assert strong_dimension(c).value == brute.value


def test_brute_force_path_strong_is_one():
    assert brute_force_dimension(path_graph(7), "strong").value == 1


def test_brute_force_metric_complete():
    for n in (3, 5, 6):
        assert brute_force_dimension(complete_graph(n), "metric").value == n - 1


def test_reduction_agrees_with_brute_force_small(rng):
    # the full exhaustive n<=7 run lives in the acceptance suite
    for g in atlas_connected(6, min_n=2)[::3]:
        assert strong_dimension(g).value == brute_force_dimension(g, "strong").value
    for _ in range(50):
        g = random_connected_graph(rng.randrange(2, 10), rng)
        assert strong_dimension(g).value == brute_force_dimension(g, "strong").value


def test_metric_le_strong(rng):
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 9), rng)
        assert (
            brute_force_dimension(g, "metric").value
            <= brute_force_dimension(g, "strong").value
        )


def test_witness_is_deterministic_and_valid(rng):
    for _ in range(20):
        g = random_connected_graph(rng.randrange(2, 9), rng)
        a = strong_dimension(g)
        b = strong_dimension(g)
        assert a == b
        assert is_strong_resolving_set(g, a.witness)
        assert len(a.witness) == a.value


def test_resolving_checks_match_the_definition_on_random_graphs():
    """is_strong_resolving_set and is_resolving_set agree with the definition on
    seeded random connected graphs of 1 to 30 vertices: some anchor strongly
    resolves every pair, or the anchors' distance vectors are distinct."""
    rng = random.Random(2027)
    verdicts = {(strong, ok): 0 for strong in (True, False) for ok in (True, False)}
    for n in range(1, 31):
        for p in (0.1, 0.3):
            g = random_connected_graph(n, rng, p)
            dm = all_pairs_distances(g)
            labels = list(g.labels)
            pick = rng.choice(labels)
            sets = [[], labels, [pick, pick] + rng.sample(labels, n // 3),
                    list(strong_dimension(g).witness)]
            sets += [[lb] for lb in labels]
            sets += [[lb for lb in labels if rng.random() < q] for q in (0.1, 0.2, 0.4, 0.6)]
            for W in sets:
                idx = [g.index(lb) for lb in W]
                strong = all(
                    any(strongly_resolves(dm, w, u, v) for w in idx)
                    for u, v in itertools.combinations(range(n), 2)
                )
                metric = len({tuple(dm.dist[u][w] for w in idx) for u in range(n)}) == n
                assert is_strong_resolving_set(g, W) == strong, (g.label_edges(), W)
                assert is_resolving_set(g, W) == metric, (g.label_edges(), W)
                verdicts[True, strong] += 1
                verdicts[False, metric] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_resolving_check_of_a_large_complete_graph_is_fast():
    """Any n - 1 vertices of K_n (strongly) resolve it and n - 2 do not; the
    check reads no pair with an endpoint in the witness, so K_400's basis
    is settled at once (about 1 s when every pair was read)."""
    import time

    g = complete_graph(400)
    g.distances()  # kept on g, so the timed checks do not include APSP
    for check in (is_strong_resolving_set, is_resolving_set):
        t0 = time.perf_counter()
        assert check(g, g.labels[:-1])
        assert not check(g, g.labels[:-2])
        assert time.perf_counter() - t0 < 0.2

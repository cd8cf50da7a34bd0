import random
from collections import deque

import networkx as nx
import pytest

from strongdim import (
    DisconnectedError,
    Graph,
    GraphError,
    ParseError,
    all_pairs_distances,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    generate,
    parse_edge_list,
    path_graph,
    random_tree,
    star_graph,
    to_edge_list,
)
from strongdim.graph import UNREACHABLE, bfs_from, is_connected, require_connected

from .conftest import random_connected_graph, to_nx


def test_parse_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.labels == ("0", "1", "2")
    assert g.label_edges() == [("0", "1"), ("1", "2")]


def test_parse_collapses_duplicates():
    g = parse_edge_list("a b\nb a")
    assert g.n == 2 and g.m == 1


def test_parse_self_loop_names_line():
    with pytest.raises(ParseError, match="self-loop at line 1"):
        parse_edge_list("x x")


def test_parse_token_count():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("a b\na b c")


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list("# header\n\na b\n  # trailing comment\nb c\n")
    assert g.m == 2


def test_roundtrip_edge_set():
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected_graph(rng.randrange(2, 12), rng)
        again = parse_edge_list(to_edge_list(g))
        assert sorted(again.label_edges()) == sorted(g.label_edges())
        assert to_edge_list(parse_edge_list(to_edge_list(again))) == to_edge_list(g)


@pytest.mark.parametrize(
    "family,n,expected_edges",
    [("path", 5, 4), ("cycle", 6, 6), ("complete", 5, 10), ("star", 6, 6)],
)
def test_family_edge_counts(family, n, expected_edges):
    assert generate(family, n=n).m == expected_edges


def test_star_center_and_leaves():
    g = star_graph(6)
    assert g.n == 7 and g.labels[0] == "0"
    assert g.degree(0) == 6
    assert all(g.degree(v) == 1 for v in range(1, 7))


def test_multipartite():
    g = complete_multipartite_graph([2, 3])
    assert g.n == 5 and g.m == 6
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)


def test_generate_rejects_zero():
    for family in ("path", "complete", "star"):
        with pytest.raises(GraphError):
            generate(family, n=0)


def test_random_tree_is_tree():
    for seed in range(20):
        t = random_tree(10, seed=seed)
        assert t.m == 9 and is_connected(t)
    assert random_tree(10, seed=7).label_edges() == random_tree(10, seed=7).label_edges()


def test_random_tree_smallest():
    one = random_tree(1)
    assert (one.n, one.m) == (1, 0)
    for seed in range(5):
        assert random_tree(2, seed=seed).label_edges() == [("0", "1")]


def test_distances_against_networkx():
    rng = random.Random(11)
    for _ in range(100):
        g = random_connected_graph(rng.randrange(2, 31), rng, p=0.15)
        dm = all_pairs_distances(g)
        lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for u in range(g.n):
            for v in range(g.n):
                assert dm.dist[u][v] == lengths[g.labels[u]][g.labels[v]]


@pytest.mark.parametrize(
    "g,pair,dist,diam",
    [
        (path_graph(4), (0, 3), 3, 3),
        (complete_graph(5), (0, 4), 1, 1),
        (cycle_graph(6), (0, 3), 3, 3),
    ],
)
def test_distance_examples(g, pair, dist, diam):
    dm = all_pairs_distances(g)
    assert dm.dist[pair[0]][pair[1]] == dist
    assert dm.diameter == diam


def test_k1_diameter_zero():
    g = Graph.from_edges(["0"], [])
    assert all_pairs_distances(g).diameter == 0


def test_triangle_inequality_random():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng.randrange(3, 15), rng)
        d = all_pairs_distances(g).dist
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    assert d[u][v] <= d[u][w] + d[w][v]


def test_disconnected_marker_and_error():
    g = Graph.from_label_edges([("a", "b"), ("c", "d")])
    dm = all_pairs_distances(g)
    assert dm.dist[0][2] == UNREACHABLE
    with pytest.raises(DisconnectedError) as exc:
        require_connected(g)
    assert set(exc.value.pair) == {"a", "c"}


def _deque_bfs(adj, source):
    """The deque BFS that bfs_from replaced, kept as its reference."""
    dist = [UNREACHABLE] * len(adj)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                q.append(v)
    return dist


def test_bfs_from_matches_deque_bfs():
    rng = random.Random(7)
    split = 0
    for _ in range(300):
        n = rng.randrange(1, 30)
        p = rng.choice((0.02, 0.08, 0.3))  # sparse draws leave several components
        nbrs = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    nbrs[u].append(v)
                    nbrs[v].append(u)
        for a in nbrs:
            rng.shuffle(a)  # visiting order must not matter either
        for s in range(n):
            row = bfs_from(nbrs, s)
            assert row == _deque_bfs(nbrs, s)
            split += UNREACHABLE in row
    assert split > 100  # disconnected graphs were exercised


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges([str(i) for i in range(n)], edges)


def test_all_pairs_distances_match_bfs_from_and_the_maximal_rule():
    """The bitset BFS against bfs_from row by row, and maximal[u] against the
    one-sided rule of is_mmd: v is in it iff v is reachable from u and no
    neighbour of v is farther from u."""
    rng = random.Random(28)
    graphs = [_random_graph(rng.randrange(41), rng.choice((0.03, 0.1, 0.3, 0.8)), rng)
              for _ in range(160)]
    graphs += [Graph.from_edges(["a"], [])] + [
        make(n) for make in (path_graph, cycle_graph, complete_graph) for n in (3, 4, 9, 40)
    ]
    split = 0
    for g in graphs:
        dm = all_pairs_distances(g)
        rows = tuple(tuple(bfs_from(g.adj, s)) for s in range(g.n))
        assert dm.dist == rows
        eccs = tuple(max(x for x in row if x != UNREACHABLE) for row in rows)
        assert dm.eccentricities == eccs
        assert dm.diameter == max(eccs, default=0)
        split += any(UNREACHABLE in row for row in rows)
        for u, row in enumerate(rows):
            rule = [
                row[v] != UNREACHABLE and all(row[x] <= row[v] for x in g.adj[v])
                for v in range(g.n)
            ]
            assert [bool(dm.maximal[u] >> v & 1) for v in range(g.n)] == rule
    assert 20 < split < len(graphs) - 20  # connected and split graphs both exercised


def test_all_pairs_distances_of_a_large_complete_graph_is_fast():
    """A layer costs a few mask operations, not a step per edge: K_400's
    79,800 edges took 1.4-2.1 s with one adjacency-list BFS per source."""
    import time

    g = complete_graph(400)
    t0 = time.perf_counter()
    dm = all_pairs_distances(g)
    assert time.perf_counter() - t0 < 0.5
    assert dm.diameter == 1 and dm.dist[0][399] == 1
    assert dm.maximal[7] == (1 << 400) - 1 ^ 1 << 7


def test_graph_distances_is_the_kept_matrix_of_a_connected_graph():
    """Graph.distances() equals all_pairs_distances and a repeat call returns
    the same object; a split graph raises require_connected's error, the
    empty graph "empty graph"; a supergraph from with_edges has its own."""
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_graph(rng.randrange(1, 30), rng, rng.choice((0.05, 0.2, 0.5)))
        dm = g.distances()
        assert dm == all_pairs_distances(g)
        assert g.distances() is dm
    split = Graph.from_label_edges([("a", "b"), ("c", "d")])
    with pytest.raises(DisconnectedError) as want:
        require_connected(split)
    for _ in range(2):  # a refusal is not kept either
        with pytest.raises(DisconnectedError) as got:
            split.distances()
        assert str(got.value) == str(want.value) and got.value.pair == want.value.pair
    with pytest.raises(GraphError) as exc:
        Graph.from_edges([], []).distances()
    assert type(exc.value) is GraphError and str(exc.value) == "empty graph"
    p4 = path_graph(4)
    assert p4.distances().diameter == 3
    c4 = p4.with_edges([(0, 3)])
    assert c4.distances() == all_pairs_distances(c4) and c4.distances().diameter == 2
    assert p4.distances().diameter == 3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph.from_edges(["a", "a"], []), "duplicate vertex labels"),
        (lambda: Graph.from_edges(["a", "b"], [(0, 2)]), r"edge \(0,2\) out of range"),
        (lambda: Graph.from_edges(["a", "b"], [(1, 1)]), "self-loop at vertex 'b'"),
        (lambda: generate("complete_multipartite"), "complete_multipartite needs sizes"),
        (lambda: generate("moebius", n=3), "unknown family 'moebius'"),
        (lambda: generate("path"), "path needs n"),
        (lambda: generate("cycle", n=0), "cycle needs n >= 3"),
    ],
    ids=["duplicate_label", "edge_out_of_range", "self_loop", "no_sizes", "unknown_family",
         "no_n", "cycle_zero"],
)
def test_graph_input_checks(build, message):
    with pytest.raises(GraphError, match=message):
        build()

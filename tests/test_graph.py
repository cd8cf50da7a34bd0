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
from strongdim.graph import UNREACHABLE, bfs_from, is_connected, isomorphisms, require_connected

from .conftest import atlas_connected, random_connected_graph, to_nx


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


def _is_isomorphism(g: Graph, h: Graph, image: tuple[int, ...]) -> bool:
    return sorted(image) == list(range(h.n)) and all(
        h.has_edge(image[u], image[v]) == g.has_edge(u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def test_isomorphisms_onto_a_shuffled_copy_count_the_automorphisms():
    rng = random.Random(11)
    graphs = atlas_connected(6, min_n=1)[::3] + [random_connected_graph(9, rng) for _ in range(6)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph.from_edges(g.labels, [(perm[u], perm[v]) for u, v in g.edges()])
        got = list(isomorphisms(g, h))
        assert all(_is_isomorphism(g, h, image) for image in got), g.label_edges()
        assert len(set(got)) == len(got)
        G = to_nx(g)
        want = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())
        assert len(got) == want, g.label_edges()


def test_isomorphisms_need_more_than_colour_refinement():
    two_triangles = Graph.from_edges([str(i) for i in range(6)],
                                     [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert list(isomorphisms(cycle_graph(6), two_triangles)) == []
    assert list(isomorphisms(two_triangles, cycle_graph(6))) == []
    assert list(isomorphisms(path_graph(3), path_graph(4))) == []
    assert list(isomorphisms(path_graph(4), star_graph(3))) == []
    assert list(isomorphisms(Graph.from_edges([], []), Graph.from_edges([], []))) == [()]


def _scan_isomorphisms(g: Graph, h: Graph):
    """isomorphisms as it was before neighbour-driven candidates (the reference): g's
    vertices in colour order, each image found by a scan of all of h, checked against
    every earlier image."""
    from strongdim.graph import _refine_colors

    if g.n != h.n:
        return
    colors, h_colors = _refine_colors(g), _refine_colors(h)
    if sorted(colors) != sorted(h_colors):
        return
    if g.n == 0:
        yield ()
        return
    adj, h_adj = [set(a) for a in g.adj], [set(a) for a in h.adj]
    order = sorted(range(g.n), key=lambda v: (colors[v], v))
    image, used = [-1] * g.n, [False] * g.n

    def images(p):
        v = order[p]
        for w in range(g.n):
            if used[w] or h_colors[w] != colors[v]:
                continue
            if all((order[q] in adj[v]) == (image[order[q]] in h_adj[w]) for q in range(p)):
                yield w

    stack = [images(0)]
    while stack:
        p = len(stack) - 1
        v = order[p]
        if image[v] != -1:
            used[image[v]] = False
            image[v] = -1
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        image[v] = w
        used[w] = True
        if p + 1 < g.n:
            stack.append(images(p + 1))
            continue
        yield tuple(image)


def test_neighbour_driven_isomorphisms_match_the_full_scan():
    """Taking each image from a mapped neighbour's image's neighbours finds the same maps
    as scanning all of h, onto the graph itself and onto a relabelled copy, connected or
    not."""
    from strongdim.constructions import gn_family

    rng = random.Random(7)
    pairs = [
        (Graph.from_edges([str(i) for i in range(6)],
                          [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), cycle_graph(6)),
        (path_graph(3), path_graph(4)),
        (path_graph(4), star_graph(3)),
        (Graph.from_edges([], []), Graph.from_edges([], [])),
    ]
    pairs += [(h, g) for g, h in pairs]
    graphs = atlas_connected(7, min_n=1) + [cycle_graph(n) for n in range(3, 41)]
    graphs += [gn_family(1), gn_family(2), complete_multipartite_graph([3, 3, 3])]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = Graph.from_edges(g.labels, [(perm[u], perm[v]) for u, v in g.edges()])
        pairs += [(g, g), (g, shuffled)]
    for g, h in pairs:
        got = list(isomorphisms(g, h))
        assert len(set(got)) == len(got)
        assert set(got) == set(_scan_isomorphisms(g, h)), (g.label_edges(), h.label_edges())
    assert len(list(isomorphisms(*pairs[-2]))) == 1296  # K3,3,3: 3! * (3!)^3


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

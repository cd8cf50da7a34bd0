import functools
import itertools
import random

import pytest

from strongdim import (
    GraphError,
    PlacementSearchConfig,
    brute_force_dimension,
    certify,
    complete_graph,
    cycle_graph,
    dim2_pruned_search,
    distance_vector_embedding,
    exists_supergraph_resolved_by,
    graph_automorphisms,
    is_strong_resolving_set,
    path_graph,
    star_graph,
    strong_dimension,
    tau_gap_experiment,
    threshold_dimension,
)
from strongdim.constructions import gn_family
from strongdim.graph import Graph

from .conftest import atlas_connected, random_connected_graph, supergraph_oracle, to_nx
from .lemmas import dim2_diagnostics, feasible_region, induced_supergraph, relabeled


def test_oracle_equivalence_n4_exhaustive():
    for g in atlas_connected(4, min_n=2):
        for k in range(1, g.n + 1):
            for W in itertools.combinations(g.labels, k):
                for strong in (False, True):
                    got = exists_supergraph_resolved_by(g, list(W), strong=strong)
                    want = supergraph_oracle(g, list(W), strong)
                    assert (got.status == "yes") == want, (g.label_edges(), W, strong)


def test_oracle_equivalence_n6_exhaustive():
    for g in atlas_connected(6, min_n=6):
        for k in range(1, g.n + 1):
            for W in itertools.combinations(g.labels, k):
                for strong in (False, True):
                    got = exists_supergraph_resolved_by(g, list(W), strong=strong)
                    want = supergraph_oracle(g, list(W), strong)
                    assert (got.status == "yes") == want, (g.label_edges(), W, strong)


def test_yes_embeddings_strongly_resolve_their_supergraph(rng):
    seen = 0
    while seen < 30:
        g = random_connected_graph(rng.randrange(3, 8), rng)
        W = rng.sample(list(g.labels), rng.randrange(1, g.n))
        out = exists_supergraph_resolved_by(g, W, strong=True)
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
            a = exists_supergraph_resolved_by(g, W, strong=strong)
            b = dim2_pruned_search(g, W, strong=strong)
            assert a.status == b.status, (g.label_edges(), W, strong)


def test_dim2_degree_cap_immediate_no():
    g = star_graph(4)  # center has degree 4
    out = dim2_pruned_search(g, ["0", "1"], strong=True)
    assert out.status == "no" and out.nodes == 0


def _k7_with_hanging_anchors() -> Graph:
    cs = [f"c{i}" for i in range(7)]
    hang = [("w0", "c0"), ("w0", "c1"), ("w1", "c5"), ("w1", "c6")]
    return Graph.from_label_edges(list(itertools.combinations(cs, 2)) + hang)


def _region_cap_of(side: int, a: int) -> dict:
    """_region_cap(side, a) as a dict: each cell of the region -> its neighbours there."""
    from strongdim.search import _grid, _region_cap

    grid, cap = _grid(side, 2), _region_cap(side, a)
    bits = {c: grid.bit(c) for c in itertools.product(range(side), repeat=2)}
    return {c: sum(m >> b & 1 for m in cap[1:]) for c, b in bits.items() if cap[0] >> b & 1}


def test_dim2_empty_pool_refutes():
    """An interior diagonal cell that no vertex can fill ends the search at the anchors.

    w0 hangs on c0, c1 and w1 on c5, c6 of a K7 on c0..c6: the diameter is 3,
    so the side is 4, and every non-anchor has degree >= 6, above the
    capacity of any interior diagonal cell.
    """
    from strongdim.search import _Dim2Prune, _SearchContext

    g = _k7_with_hanging_anchors()
    ctx = _SearchContext(g)
    anchors = [g.index("w0"), g.index("w1")]
    rest = [v for v in range(g.n) if v not in anchors]
    assert min(g.degree(v) for v in rest) == 6
    for a in (1, 2, 3):
        cap = _region_cap_of(4, a)
        assert all(cap[c] >= 2 for c in ((0, a), (a, 0)))  # the anchors fit
        assert all(cap[(t, a - t)] < 6 for t in range(1, a))
        got = _Dim2Prune.open(ctx, anchors, rest, 4, ((0, a), (a, 0)))
        assert (got is None) == (a > 1), a  # a = 1 has no interior diagonal cell
    for strong in (False, True):
        pruned = dim2_pruned_search(g, ["w0", "w1"], strong=strong)
        plain = exists_supergraph_resolved_by(g, ["w0", "w1"], strong=strong)
        assert (pruned.status, pruned.nodes) == ("no", 6), strong
        assert (plain.status, plain.nodes) == ("no", 31), strong


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
        assert threshold_dimension(relabeled(base, perm), "strong").value == want


def test_budget_exhaustion_surfaces():
    g1 = gn_family(1)
    cfg = PlacementSearchConfig(node_budget=5)
    out = exists_supergraph_resolved_by(g1, ["a1_1", "b2_1", "c3_1"], cfg, strong=True)
    assert out.status == "budget_exhausted"
    r = threshold_dimension(g1, "strong", PlacementSearchConfig(node_budget=3), max_k=2)
    assert r.status == "bounds"


def test_fast_path_uses_distance_vectors():
    g = complete_graph(4)
    out = exists_supergraph_resolved_by(g, ["0", "1", "2"], strong=True)
    assert out.status == "yes" and out.nodes == 0


def test_fast_path_embedding_that_fails_certify_is_an_error(monkeypatch):
    """The fast path's distance vectors always certify, so a refusal is a fault, not a
    reason to fall through to the DFS."""
    from strongdim.embedding import CheckResult

    def refuse(e, g, strong):
        return CheckResult(False, "isometric", "refused")

    monkeypatch.setattr("strongdim.search.certify", refuse)
    with pytest.raises(AssertionError, match="fast path"):
        exists_supergraph_resolved_by(path_graph(5), ["0"])


def test_g1_resolved_yes_strong_no():
    g1 = gn_family(1)
    yes = exists_supergraph_resolved_by(g1, ["w1_1", "w2_1"], strong=False)
    assert yes.status == "yes"
    no = exists_supergraph_resolved_by(g1, ["w1_1", "w2_1"], strong=True)
    assert no.status == "no"
    pruned = dim2_pruned_search(g1, ["w1_1", "w2_1"], strong=True)
    assert pruned.status == "no"
    assert pruned.nodes <= no.nodes


def test_k0_and_duplicate_anchor_validation():
    g = path_graph(3)
    assert exists_supergraph_resolved_by(g, [], strong=True).status == "no"
    with pytest.raises(GraphError):
        exists_supergraph_resolved_by(g, ["0", "0"], strong=True)
    with pytest.raises(GraphError):
        dim2_pruned_search(g, ["0"], strong=False)


def test_unknown_anchor_label_raises_and_is_never_refuted():
    """A "no" is an exhaustive refutation, so an anchor that is not a vertex raises before
    the fast path and the pigeonhole rule can answer."""
    tiny = PlacementSearchConfig(max_side=2)  # 2**2 < 5: the pigeonhole rule would say "no"
    with pytest.raises(GraphError, match="zz"):
        exists_supergraph_resolved_by(cycle_graph(5), ["zz"])
    with pytest.raises(GraphError, match="zz"):
        exists_supergraph_resolved_by(path_graph(5), ["zz", "0"], tiny)
    with pytest.raises(GraphError, match="zz"):
        dim2_pruned_search(path_graph(5), ["zz", "0"], cfg=tiny)


def test_shell_cells_are_never_nearer_an_anchor_than_their_coordinate():
    """Cells at Chebyshev gap c[i] from anchor i's cell, as the DFS's shell keeps every
    placed cell: in the Chebyshev graph of any subset holding the anchors, no cell is
    nearer anchor i than c[i]. So a partial placement needs no anchor-distance check,
    and the leaf's mask rule (every cell but anchor i's has a neighbour one lower in
    coordinate i) holds exactly when the BFS from anchor i reads the coordinates."""
    from strongdim import chebyshev, chebyshev_adjacency, distance_vector_embedding
    from strongdim.graph import UNREACHABLE, bfs_from
    from strongdim.search import _grid

    rng = random.Random(17)
    placements = tight = 0
    rule = {True: 0, False: 0}
    while placements < 300:
        g = random_connected_graph(rng.randrange(2, 11), rng, rng.choice((0.1, 0.3)))
        W = rng.sample(list(g.labels), rng.randrange(1, min(g.n, 3) + 1))
        try:
            emb = distance_vector_embedding(g, W)
        except GraphError:
            continue  # W does not resolve g
        anchor_cells = [emb.placement[w] for w in W]
        shell = {
            c for c in itertools.product(range(emb.side), repeat=len(W))
            if all(chebyshev(c, a) == c[i] for i, a in enumerate(anchor_cells))
        }
        assert set(emb.placement.values()) <= shell
        others = sorted(shell - set(anchor_cells))
        for pool in (sorted(set(emb.placement.values()) - set(anchor_cells)), others):
            cells = anchor_cells + rng.sample(pool, rng.randrange(len(pool) + 1))
            adj = chebyshev_adjacency(cells)
            grid = _grid(emb.side, len(W))
            mask = sum(1 << grid.bit(c) for c in cells)
            for i in range(len(W)):
                row = bfs_from(adj, i)
                for c, d in zip(cells, row):
                    assert d == UNREACHABLE or d >= c[i], (g.label_edges(), W, cells)
                    tight += d == c[i]
                holds = not (mask ^ 1 << grid.bit(cells[i])) & ~grid.supported(mask, i)
                assert holds == (row == [c[i] for c in cells]), (g.label_edges(), W, cells, i)
                rule[holds] += 1
            placements += 1
    assert tight > 3 * placements  # not only the anchors meet the bound
    assert min(rule.values()) > placements // 4, rule


@functools.lru_cache(maxsize=None)  # two tests ask about the same 995 atlas graphs
def _whole_group(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of g as an index permutation, identity included, from
    networkx's GraphMatcher (the reference)."""
    import networkx as nx

    G = to_nx(g)
    return tuple(tuple(g.index(m[lb]) for lb in g.labels)
                 for m in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())


def test_automorphisms_against_networkx():
    """The generators, none the identity, close to networkx's automorphism set on every
    connected graph with 2-7 vertices (the regular ones colour refinement cannot split
    included), on K_{3,3,3} and on C6 beside two triangles, all 2-regular; and there is
    one generator per point of each stabiliser orbit, as pinned below."""
    from strongdim import complete_multipartite_graph

    def closure(gens, n):
        todo = [tuple(range(n))]
        seen = set(todo)
        for p in todo:
            for q in (tuple(map(p.__getitem__, s)) for s in gens):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return seen

    c6_and_two_triangles = Graph.from_edges(
        [str(i) for i in range(12)],
        [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)])
    graphs = atlas_connected(7, min_n=2)
    graphs += [complete_multipartite_graph((3, 3, 3)), c6_and_two_triangles]
    for g in graphs:
        gens = graph_automorphisms(g)
        assert tuple(range(g.n)) not in gens
        assert closure(gens, g.n) == set(_whole_group(g)), g.label_edges()
    assert len(closure(graph_automorphisms(c6_and_two_triangles), 12)) == 12 * 72
    counts = [len(graph_automorphisms(g)) for g in (
        gn_family(1), gn_family(2), gn_family(3), cycle_graph(9),
        complete_multipartite_graph((3, 3, 3)), star_graph(12), _spider(9, 3))]
    assert counts == [1, 1, 1, 9, 18, 66, 36]  # orders 2, 2, 2, 18, 1296, 12! and 9!


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


def test_distances_computed_once_per_graph(monkeypatch):
    """APSP runs once per call, however many anchor sets are searched (946 at
    k=2 for gn_family(2)), and the strong basis that settles hi after max_k
    reuses the search's distance matrix; connectivity is read off that matrix,
    so require_connected never runs."""
    import strongdim.graph

    calls = {"apsp": 0, "connected": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, key in (("all_pairs_distances", "apsp"), ("require_connected", "connected")):
        monkeypatch.setattr(strongdim.graph, name, counting(key, getattr(strongdim.graph, name)))
    seen = []
    for n in (1, 2):
        calls.update(apsp=0, connected=0)
        r = threshold_dimension(gn_family(n), "strong", max_k=2)
        assert r.status == "bounds" and r.bounds[0] == 3
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[1] == {"apsp": 1, "connected": 0}


def test_solvers_share_one_distance_matrix_per_graph(monkeypatch):
    """strong_dimension, distance_vector_embedding, dim2_diagnostics and a
    max_k=1 threshold sweep, asked about one graph object, run APSP once
    between them: each reads the matrix the graph keeps."""
    import strongdim.graph

    calls = []
    real = strongdim.graph.all_pairs_distances
    monkeypatch.setattr(strongdim.graph, "all_pairs_distances",
                        lambda g: calls.append(g) or real(g))
    g = cycle_graph(7)
    assert strong_dimension(g).value == 4
    assert distance_vector_embedding(g, ["0", "1"]).side == 4
    assert dim2_diagnostics(g, ["0", "1"]).all_ok
    assert threshold_dimension(g, "strong", max_k=1).bounds == (2, 4)
    assert calls == [g]


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
    assert dim2_pruned_search(g, W, strong=True).nodes == 87
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
    """With symmetry pruning on and off, the same status, value, witness and embedding,
    and fewer sets searched with it on: C9 whole, and at max_k 2 K_{1,12}, the spider
    with 9 legs of 3 vertices, K_{3,3,3} and K_{6,6}, whose groups have 12!, 9!, 1,296
    and 1,036,800 elements. K_{1,12} has 2 orbits at k = 1 and at k = 2, and the
    spider 4 at k = 1."""
    from strongdim import complete_multipartite_graph

    cases = [(cycle_graph(9), None), (star_graph(12), 2), (_spider(9, 3), 2)]
    cases += [(complete_multipartite_graph(s), 2) for s in ((3, 3, 3), (6, 6))]
    for g, max_k in cases:
        for mode in ("metric", "strong"):
            on, off = (threshold_dimension(g, mode, PlacementSearchConfig(symmetry_pruning=sym),
                                           max_k=max_k) for sym in (True, False))
            assert (on.status, on.value, on.bounds) == (off.status, off.value, off.bounds)
            assert (on.witness_W, on.embedding) == (off.witness_W, off.embedding)
            searched = [sum(lv["sets_searched"] for lv in r.stats["levels"]) for r in (on, off)]
            assert searched[0] < searched[1], (g.label_edges(), mode, searched)
    assert threshold_dimension(cycle_graph(9), "strong").value == 2
    assert [lv["orbits"] for lv in threshold_dimension(star_graph(12)).stats["levels"][:2]] == [2, 2]
    assert threshold_dimension(_spider(9, 3), max_k=2).stats["levels"][0]["orbits"] == 4


def test_threshold_matches_supergraph_minimum():
    """End to end: threshold value == min dimension over all explicit supergraphs."""
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
        g, list(emb.anchors), PlacementSearchConfig(max_side=emb.side), strong=True
    )
    assert out.status == "yes"
    assert max(max(c) for c in out.embedding.placement.values()) < emb.side


def test_three_block_corridor_strong_threshold_three():
    """The chained corridor keeps strong threshold 3 at three blocks."""
    g3 = gn_family(3)
    for W in itertools.combinations(g3.labels, 2):
        assert dim2_pruned_search(g3, list(W), strong=True).status == "no"
    out = exists_supergraph_resolved_by(
        g3,
        ["w1_1", "b4_1", "d3_1"],
        PlacementSearchConfig(max_side=6, node_budget=100_000),
        strong=True,
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
    """The ring masks, ANDed per placed anchor, answer each cell as the anchor-gap test does."""
    from strongdim import chebyshev
    from strongdim.search import _grid, _ring

    rng = random.Random(23)
    for k in range(1, 5):
        for side in range(2, 8):
            grid = _grid(side, k)
            for t in range(4):
                # as the DFS places them (anchor j on coordinate j = 0), then anywhere
                anchor_cells = [
                    tuple(0 if i == j and t < 2 else rng.randrange(side) for i in range(k))
                    for j in range(k)
                ]
                shell = grid.cells
                for j, cw in enumerate(anchor_cells):
                    shell &= _ring(grid, cw, j)
                grid_cells = list(itertools.product(range(side), repeat=k))
                for c in rng.sample(grid_cells, len(grid_cells)):
                    want = all(chebyshev(c, cw) == c[j] for j, cw in enumerate(anchor_cells))
                    assert (shell >> grid.bit(c) & 1) == want, (anchor_cells, c)
                assert not shell & ~grid.cells  # bits at cells only


def test_two_anchor_shell_is_the_feasible_region():
    """With anchors at (0, a) and (a, 0) the shell on the grid is the two-anchor region,
    which is why the DFS needs no separate region test."""
    from strongdim.search import _grid, _ring

    for side in range(1, 16):
        grid = _grid(side, 2)
        cells = list(itertools.product(range(side), repeat=2))
        for a in range(side):
            shell = _ring(grid, (0, a), 0) & _ring(grid, (a, 0), 1)
            assert {c for c in cells if shell >> grid.bit(c) & 1} == set(
                feasible_region(side - 1, a).cells())


class _DictShell(dict):
    """The anchor-gap test memoised per cell, as a dict (the reference for the ring masks)."""

    def __init__(self, anchor_cells):
        super().__init__()
        self.anchor_cells = anchor_cells

    def __missing__(self, c):
        inside = self[c] = all(
            max(abs(x - y) for x, y in zip(c, cw)) == x for cw, x in zip(self.anchor_cells, c)
        )
        return inside


def _product_candidates(lows, highs, used, shell):
    """A depth's candidates as the DFS listed them before its cells were bits: the box
    by itertools.product, each cell looked up in used and the shell, then sorted."""
    box = itertools.product(*map(range, lows, [h + 1 for h in highs]))
    out = [c for c in box if c not in used and shell[c]]
    out.sort(key=lambda c: (-sum(c), c))
    return out


def test_bit_candidates_match_the_product_box_and_sort():
    """Shell AND free cells AND box, read highest bit first, is the old candidate list, in
    order, for k 1-4 and side 1-8, with anchors placed as the DFS places them or anywhere."""
    from strongdim.search import _bits, _grid, _ring

    rng = random.Random(16)
    checked = nonempty = 0
    for k in range(1, 5):
        for side in range(1, 9):
            grid = _grid(side, k)
            cells = list(itertools.product(range(side), repeat=k))
            for t in range(6):
                placed = rng.randrange(k + 1)  # anchors placed so far
                anchor_cells = [
                    tuple(0 if i == j and t % 2 else rng.randrange(side) for i in range(k))
                    for j in range(placed)
                ]
                shell = grid.cells
                for j, cw in enumerate(anchor_cells):
                    shell &= _ring(grid, cw, j)
                used = set(rng.sample(cells, rng.randrange(len(cells) + 1)))
                used_bits = sum(1 << grid.bit(c) for c in used)
                for _ in range(8):
                    lows = [rng.randrange(side) for _ in range(k)]
                    highs = [rng.randrange(lo, side) for lo in lows]
                    want = _product_candidates(lows, highs, used, _DictShell(anchor_cells))
                    mask, base = grid.box(lows, highs)
                    got = [grid.cell[b] for b in _bits((shell & ~used_bits) >> base & mask, base)]
                    assert got == want, (k, side, anchor_cells, lows, highs)
                    checked += 1
                    nonempty += bool(want)
    assert checked == 4 * 8 * 6 * 8 and nonempty > checked // 3, nonempty


def test_supported_cells_match_a_pairwise_reference():
    """_Grid.supported marks exactly the cells with an occupied cell at Chebyshev
    distance 1 whose coordinate i is one lower, for every cell of the grid and each i."""
    from operator import sub

    from strongdim.search import _grid

    rng = random.Random(17)
    checked = hits = 0
    for k in range(1, 5):
        for side in range(1, 9):
            grid = _grid(side, k)
            cells = list(itertools.product(range(side), repeat=k))
            for _ in range(3):
                occupied = rng.sample(cells, rng.randrange(len(cells) + 1))
                mask = sum(1 << grid.bit(c) for c in occupied)
                for i in range(k):
                    got = grid.supported(mask, i)
                    layers = [[y for y in occupied if y[i] == r] for r in range(-1, side)]
                    for c in cells:  # layers[c[i]]: the occupied cells with y_i = c_i - 1
                        want = any(max(map(abs, map(sub, c, y))) == 1 for y in layers[c[i]])
                        assert (got >> grid.bit(c) & 1) == want, (k, side, i, c)
                        checked += 1
                        hits += want
    assert 0 < hits < checked


def test_below_is_supported_the_other_way():
    """_Grid.below marks, among the cells, exactly those one unit step from the cell u
    and one lower in coordinate i, for every cell u, each i, k 1-4 and side 1-6."""
    from strongdim.search import _grid

    for k in range(1, 5):
        for side in range(1, 7):
            grid = _grid(side, k)
            steps = list(itertools.product((-1, 0, 1), repeat=k))
            for u in itertools.product(range(side), repeat=k):
                for i in range(k):
                    got = grid.below(1 << grid.bit(u), i) & grid.cells
                    below = {tuple(map(sum, zip(u, dc))) for dc in steps if dc[i] == -1}
                    want = sum(1 << grid.bit(c) for c in below if 0 <= min(c) <= max(c) < side)
                    assert got == want, (k, side, u, i)


def test_reach_shifted_to_a_cell_is_below_that_cell():
    """Settling reads below(1 << b, i) as the precomputed reach[i] << b >> lift, for
    every cell's bit b, each i, k 1-4 and side 1-8."""
    from strongdim.search import _grid

    for k in range(1, 5):
        for side in range(1, 9):
            grid = _grid(side, k)
            for b in map(grid.bit, itertools.product(range(side), repeat=k)):
                for i in range(k):
                    assert grid.reach[i] << b >> grid.lift == grid.below(1 << b, i), (k, side, b, i)


def test_up_offsets_give_the_chebyshev_adjacency():
    """_Grid.adjacency, one positive offset per opposite pair of unit steps (up), equals
    chebyshev_adjacency on random cell sets with a cell on every face of the grid, in
    any vertex order, for k 1-4 and side 1-8."""
    from strongdim import chebyshev_adjacency
    from strongdim.search import _grid

    rng = random.Random(29)
    edges = 0
    for k in range(1, 5):
        for side in range(1, 9):
            grid = _grid(side, k)
            assert len(grid.up) == (3**k - 1) // 2
            cells = list(itertools.product(range(side), repeat=k))
            for _ in range(3):
                placed = set(rng.sample(cells, rng.randrange(len(cells) + 1)))
                for j, x in itertools.product(range(k), (0, side - 1)):
                    placed.add(rng.choice([c for c in cells if c[j] == x]))
                placed = sorted(placed)
                rng.shuffle(placed)
                at = {grid.bit(c): i for i, c in enumerate(placed)}
                got = grid.adjacency(sum(1 << b for b in at), at)
                assert [sorted(row) for row in got] == chebyshev_adjacency(placed), (k, side)
                edges += sum(map(len, got))
    assert edges


def test_cones_match_their_inequality():
    """_cone(side, k, i, j, a, e) holds exactly the cells with |c_i - a| + e <= c_j, for
    every i, j and a, e in {0, 1}, k 1-4 and side 1-8, and sets no bit outside
    grid.cells, which holds exactly the side^k cells."""
    from strongdim.search import _cone, _grid

    for k in range(1, 5):
        for side in range(1, 9):
            grid = _grid(side, k)
            cells = list(itertools.product(range(side), repeat=k))
            assert grid.cells == sum(1 << grid.bit(c) for c in cells)
            for i, j, a, e in itertools.product(range(k), range(k), range(side), (0, 1)):
                cone = _cone(side, k, i, j, a, e)
                want = sum(1 << grid.bit(c) for c in cells if abs(c[i] - a) + e <= c[j])
                assert cone == want, (k, side, i, j, a, e)


def test_grid_tables_stay_small_on_a_long_cycle():
    """The placement DFS on C400 (side 201) keeps its tracemalloc peak within 1.25 times
    that of the per-cell dicts and cell trie it replaced, both searches starting with
    empty per-process caches (3.73 and 11.18 MB then, measured on one host)."""
    import tracemalloc

    import strongdim.search

    g = cycle_graph(400)
    for search, parent_mb in ((exists_supergraph_resolved_by, 3.73), (dim2_pruned_search, 11.18)):
        for cache in (strongdim.search._grid, strongdim.search._cone, strongdim.search._region_cap):
            cache.cache_clear()
        tracemalloc.start()
        try:
            out = search(g, ["0", "199"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.nodes) == ("yes", 400)
        assert peak < 1.25 * parent_mb * 1e6, (search.__name__, peak)


def test_box_table_matches_box_by_widths():
    """_Grid.boxes[key], key being the widths less one read as a base-side number,
    coordinate 0 first, is _Grid.box([0]*k, widths less one)'s mask for every key, k 1-4
    and side 1-6, whether kept or not; the table keeps at most _BOX_CAP of them."""
    from strongdim.search import _BOX_CAP, _grid

    for k in range(1, 5):
        for side in range(1, 7):
            grid = _grid(side, k)
            for highs in itertools.product(range(side), repeat=k):
                key = 0
                for h in highs:
                    key = key * side + h
                assert grid.boxes[key] == grid.box([0] * k, list(highs))[0], (k, side, highs)
            assert len(grid.boxes) <= _BOX_CAP
    assert len(_grid(6, 4).boxes) == _BOX_CAP  # 6^4 keys asked


def test_box_table_stays_small_in_the_g2_sweep():
    """The G_2 strong sweep at budget 128 up to k = 3, started from empty per-process
    caches, keeps at most _BOX_CAP box masks on its (12, 3) grid."""
    from strongdim.search import _BOX_CAP, _grid

    _grid.cache_clear()
    res = threshold_dimension(gn_family(2), "strong", PlacementSearchConfig(node_budget=128),
                              max_k=3)
    assert res.stats["nodes"] == 280316
    assert 0 < len(_grid(12, 3).boxes) <= _BOX_CAP


def test_rings_of_placed_anchors_build_only_their_outer_cones():
    """An anchor the DFS places has coordinate 0 for itself, so its ring needs only the
    k cones of its outer set: two anchors on C400 build 4 cones from empty caches."""
    import strongdim.search

    for cache in (strongdim.search._grid, strongdim.search._cone):
        cache.cache_clear()
    out = exists_supergraph_resolved_by(cycle_graph(400), ["0", "199"])
    assert (out.status, out.nodes) == ("yes", 400)
    assert strongdim.search._cone.cache_info().misses == 4


def test_k3_orbit_reps_golden():
    """Statuses and node counts of the first 40 k=3 orbit representatives of G_2, in
    threshold_dimension's enumeration order, at budget 128 (recorded before the shell)."""
    import hashlib
    import json

    from strongdim import all_pairs_distances

    g = gn_family(2)
    ecc = all_pairs_distances(g).eccentricities
    auts = _whole_group(g)
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
    cfg = PlacementSearchConfig(node_budget=128)
    for is_strong, want in ((True, strong), (False, metric)):
        got = [exists_supergraph_resolved_by(g, W, cfg, strong=is_strong) for W in reps_40]
        assert [(r.status, r.nodes) for r in got] == want, is_strong
    emb = got[15].embedding.to_json()
    assert emb["anchors"] == ["b4_1", "c5_1", "w2_2"]
    digest = hashlib.sha256(json.dumps(emb, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == "126fbadd1e78c513"


def _nothing_shadowed(ctx, v, placed):
    """The shadow rule switched off: every depth is bounded by every vertex placed above
    it (the reference)."""
    return 0


def test_shadow_masks_and_bounding_sets_pair_by_pair():
    """Each cached shadow is W_xv = {u : d(x,u) < d(v,u)} less x; the bounding set drops
    exactly the placed vertices some placed neighbour shadows, and never a neighbour."""
    from strongdim.search import _SearchContext, _shadowed

    rng = random.Random(41)
    graphs = [cycle_graph(9), gn_family(1), path_graph(6)]
    graphs += [random_connected_graph(rng.randrange(2, 13), rng) for _ in range(30)]
    for g in graphs:
        ctx = _SearchContext(g)
        d = ctx.dm.dist
        for v in range(g.n):
            for x in g.adj[v]:
                want = sum(1 << u for u in range(g.n) if d[x][u] < d[v][u] and u != x)
                assert ctx.shadows[v, x] == want, (g.label_edges(), v, x)
            for _ in range(10):
                placed = {u for u in range(g.n) if u != v and rng.random() < 0.6}
                mask = sum(1 << u for u in placed)
                got = mask & ~_shadowed(ctx, v, mask)
                want = {
                    u for u in placed
                    if not any(x != u and d[x][u] < d[v][u] for x in g.adj[v] if x in placed)
                }
                assert got == sum(1 << u for u in want), (g.label_edges(), v, placed)
                assert placed & set(g.adj[v]) <= want
        assert len(ctx.shadows) <= 2 * g.m


def test_shadows_kept_per_first_anchor_match_the_bounding_set_definition():
    """Past the anchors, _bounding_set(ctx, a, amask, v) is the anchors and the vertices
    before v in a's (d(a, .), index) order, less those some neighbour of v among them
    shadows, for every first anchor a, every non-anchor v and random anchor sets that
    share a's kept shadows, on C9, G_1 and random connected graphs."""
    from strongdim.search import _bounding_set, _SearchContext

    rng = random.Random(43)
    graphs = [cycle_graph(9), gn_family(1)]
    graphs += [random_connected_graph(rng.randrange(2, 13), rng) for _ in range(20)]
    checked = 0
    for g in graphs:
        ctx = _SearchContext(g)
        d = ctx.dm.dist
        for a in range(g.n):
            for _ in range(4):
                W = {a, *rng.sample([u for u in range(g.n) if u != a], min(g.n - 1, rng.randrange(3)))}
                amask = sum(1 << w for w in W)
                for v in set(range(g.n)) - W:
                    placed = W | {u for u in range(g.n) if (d[a][u], u) < (d[a][v], v)}
                    want = {u for u in placed
                            if not any(x != u and d[x][u] < d[v][u] for x in g.adj[v] if x in placed)}
                    assert _bounding_set(ctx, a, amask, v) == sum(1 << u for u in want), (
                        g.label_edges(), W, v)
                    checked += 1
    assert checked > 2000, checked


def test_implied_anchor_bounds_give_the_old_box_at_every_depth(monkeypatch):
    """Past the anchors a depth's box starts each coordinate at (1, side - 1), not at
    (1, min(d(v, w_i), side - 1)): every box the G_1 sweep reads, in both modes, has the
    widths and low corner (read off the candidates frame) of the box that every placed
    vertex cuts from those per-anchor starts. An empty box is left out: it is empty
    from either start, the per-anchor one being the narrower."""
    import inspect

    import strongdim.search
    from strongdim.search import _Boxes, _grid

    g = gn_family(1)
    d = g.distances().dist
    seen = {"boxes": 0, "tighter": 0}

    class CheckedBoxes(_Boxes):
        def __getitem__(self, key):
            frame = inspect.currentframe().f_back
            at = frame.f_locals  # candidates'
            run = frame
            while run.f_code.co_name != "_run_search":
                run = run.f_back
            v = run.f_locals["order"][at["p"]]
            coords, anchors, side = at["coords"], at["anchors"], at["side"]
            if v not in anchors:
                want_key = want_base = 0
                for i, w in enumerate(anchors):
                    lo, hi = 1, min(d[v][w], side - 1)
                    seen["tighter"] += hi < side - 1
                    for u, c in enumerate(coords):
                        if c is not None:
                            lo, hi = max(lo, c[i] - d[v][u]), min(hi, c[i] + d[v][u])
                    want_key = want_key * side + hi - lo
                    want_base += lo * at["units"][i]
                assert (at["key"], at["base"]) == (want_key, want_base), (anchors, v)
                seen["boxes"] += 1
            return super().__getitem__(key)

    monkeypatch.setattr(strongdim.search, "_Boxes", CheckedBoxes)
    _grid.cache_clear()
    try:
        for mode, nodes in (("metric", 34), ("strong", 164)):
            res = threshold_dimension(g, mode, PlacementSearchConfig(node_budget=1000))
            assert res.stats["nodes"] == nodes
    finally:
        _grid.cache_clear()  # no grid keeps the checking table
    assert seen["boxes"] > 100 and seen["tighter"] > 100, seen


def test_bounding_set_rule_keeps_every_search_node_for_node(monkeypatch):
    """The shadow rule, kept per first anchor past the anchors, leaves every box as
    bounding by all placed vertices does, so the whole search (status, nodes, embedding)
    is the same, with and without the dim2 prunes. The reference switches the rule off
    at every depth, in a context of its own, since the shadows kept are per context."""
    import strongdim.search
    from strongdim.search import _SearchContext, _run_search

    rng = random.Random(5)
    cases = [(cycle_graph(9), W, 3000) for W in (["0", "4"], ["0", "1", "5"], ["3"])]
    g1 = gn_family(1)
    cases += [(g1, W, 300) for W in (["w1_1", "w2_1"], ["a3_1", "b4_1", "c5_1"], ["a1_1"])]
    while len(cases) < 200:
        g = random_connected_graph(rng.randrange(5, 13), rng, rng.choice((0.05, 0.1, 0.2, 0.35)))
        W = rng.sample(list(g.labels), rng.choice((1, 2, 2, 3, 3, 3)))
        cases.append((g, W, rng.choice((30, 3000))))
    seen = {"yes": 0, "no": 0, "budget_exhausted": 0}
    searched = 0
    contexts = {}  # one per graph, so anchor sets with one first anchor share its shadows
    for g, W, budget in cases:
        if id(g) not in contexts:
            contexts[id(g)] = _SearchContext(g)
        ctx = contexts[id(g)]
        cfg = PlacementSearchConfig(node_budget=budget)
        for strong in (False, True):
            for dim2 in (False, True):
                got = _run_search(ctx, list(map(g.index, W)), cfg, strong, dim2)
                with monkeypatch.context() as m:
                    m.setattr(strongdim.search, "_shadowed", _nothing_shadowed)
                    want = _run_search(_SearchContext(g), list(map(g.index, W)), cfg, strong,
                                       dim2)
                assert got == want, (g.label_edges(), W, strong, dim2)
                seen[got.status] += 1
                searched += got.nodes > 0
    assert min(seen.values()) >= 40 and searched >= 400, (seen, searched)


def test_strong_leaf_matches_the_chebyshev_adjacency_in_vertex_order(monkeypatch):
    """Every strong leaf that reaches the isometry check gets the Chebyshev adjacency of
    its cells, and the verdict of chebyshev_adjacency over the cells in vertex-index order
    (the leaf's coords, read off its frame), with and without the dim2 prunes; cones
    decide the leaves of the two 40-cycle cases."""
    import inspect

    import strongdim.embedding
    import strongdim.search
    from strongdim import chebyshev_adjacency
    from strongdim.embedding import is_isometric, isometry_mismatch
    from strongdim.search import _SearchContext, _run_search

    verdicts = {True: 0, False: 0}
    cones, by_cones = [], []

    def checked(cells, adj):
        coords = inspect.currentframe().f_back.f_locals["coords"]
        assert sorted(cells) == sorted(coords)
        assert [sorted(row) for row in adj] == chebyshev_adjacency(cells), cells
        before = len(cones)
        got = is_isometric(cells, adj)
        assert got == (isometry_mismatch(coords, chebyshev_adjacency(coords)) is None)
        verdicts[got] += 1
        by_cones.append(len(cones) > before)
        return got

    real_cones = strongdim.embedding.isometric_by_cones
    monkeypatch.setattr(strongdim.embedding, "isometric_by_cones",
                        lambda *a: cones.append(1) or real_cones(*a))
    monkeypatch.setattr(strongdim.search, "is_isometric", checked)
    rng = random.Random(13)
    cases = [(cycle_graph(9), W) for W in (["0"], ["0", "4"], ["0", "1", "5"])]
    g1 = gn_family(1)
    cases += [(g1, W) for W in (["a1_1"], ["w1_1", "w2_1"], ["a3_1", "b4_1", "c5_1"],
                                ["b1_1", "b3_1", "e2_1"])]  # the last, over 800 bad leaves
    while len(cases) < 150:
        g = random_connected_graph(rng.randrange(5, 13), rng, rng.choice((0.05, 0.1, 0.2, 0.35)))
        cases.append((g, rng.sample(list(g.labels), rng.choice((1, 2, 3)))))
    cases += [(cycle_graph(40), W) for W in (["0", "19"], ["0", "10"])]  # leaves of 40 cells: cones
    cfg = PlacementSearchConfig(node_budget=3000)
    for g, W in cases:
        ctx = _SearchContext(g)
        for dim2 in (False, True):
            _run_search(ctx, list(map(g.index, W)), cfg, True, dim2)
    assert verdicts[False] >= 200 and verdicts[True] >= 1, verdicts
    assert any(by_cones), len(by_cones)


def test_strong_sweep_builds_chebyshev_adjacency_only_to_certify(monkeypatch):
    """The placement search reads the isometry check's adjacency off the bit grid, so in
    a strong sweep every chebyshev_adjacency call comes from certify."""
    import strongdim.embedding
    import strongdim.search

    calls = {"adjacency": 0, "certify": 0, "leaf": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(strongdim.embedding, "chebyshev_adjacency",
                        counting("adjacency", strongdim.embedding.chebyshev_adjacency))
    monkeypatch.setattr(strongdim.search, "certify", counting("certify", strongdim.search.certify))
    monkeypatch.setattr(strongdim.search, "is_isometric",
                        counting("leaf", strongdim.search.is_isometric))
    res = threshold_dimension(gn_family(1), "strong", PlacementSearchConfig(node_budget=1000))
    assert (res.status, res.value, res.stats["nodes"]) == ("exact", 3, 164)
    assert not hasattr(strongdim.search, "chebyshev_adjacency")
    assert calls["leaf"] >= 2 and calls["adjacency"] == calls["certify"] >= 1, calls


class _FrameStackDim2Prune:
    """The two-anchor pool prune as a stack of pool copies, one pushed per placement
    and popped per undo (the reference for the stateless _Dim2Prune).

    allows replays the DFS's undos and its push from the depth and the occupied
    cells; kills counts the prunes of each rule.
    """

    kills = {"pool": 0, "count": 0}

    def __init__(self, cap, diag, admissible, pools, rest, grid):
        self.cap = [  # per degree, the region cells with room for it, as the DFS reads them
            sum(1 << grid.bit(c) for c, room in cap.items() if room >= deg) for deg in range(10)
        ]
        self.grid = grid
        self.admissible = admissible  # vertex -> the diagonal cells it could fill
        self.frames = [(pools, frozenset(diag))]  # (cell -> fillers left, unfilled cells)
        self.rest = rest

    @classmethod
    def open(cls, ctx, anchors, rest, side, cells):
        from strongdim.search import _grid

        g, dG = ctx.g, ctx.dm.dist
        a = cells[0][1]
        cap, diag = _region_cap_of(side, a), [(t, a - t) for t in range(1, a)]
        if any(cap.get(c, 0) < g.degree(w) for c, w in zip(cells, anchors)):
            return None
        w0, w1 = anchors
        admissible = {
            v: frozenset(
                r for r in diag
                if r[0] <= dG[v][w0] and r[1] <= dG[v][w1] and cap[r] >= g.degree(v)
            )
            for v in rest
        }
        pools = {r: 0 for r in diag}
        for rs in admissible.values():
            for r in rs:
                pools[r] += 1
        if any(pools[r] <= 0 for r in diag):
            cls.kills["pool"] += 1
            return None
        return cls(cap, diag, admissible, pools, rest, _grid(side, 2))

    def push(self, v, c):
        pools, unfilled = self.frames[-1]
        pools = dict(pools)
        if c in unfilled:
            unfilled = unfilled - {c}
        for r in self.admissible[v]:
            if r != c:
                pools[r] -= 1
        # admissible holds every non-anchor vertex; frames, one more than were placed before v
        unplaced = len(self.admissible) - len(self.frames)
        self.frames.append((pools, unfilled))
        if len(unfilled) > unplaced:
            self.kills["count"] += 1
            return False
        if not all(pools[r] > 0 for r in unfilled):
            self.kills["pool"] += 1
            return False
        return True

    def pop(self):
        self.frames.pop()

    def allows(self, p, used, n):
        while len(self.frames) > p - 1:  # frames[j] follows depth j + 1; the DFS undid the rest
            self.pop()
        # the one unfilled cell of depth p - 1 that is used now is depth p's, if any
        c = next((r for r in self.frames[-1][1] if used >> self.grid.bit(r) & 1), None)
        return self.push(self.rest[p - 2], c)


def test_stateless_dim2_prune_matches_the_frame_stack(monkeypatch):
    """Testing the free diagonal cells against the depth's fill mask, and their count
    against the vertices left, prunes as the pool copies pushed and popped with the
    DFS did: the whole search (status, nodes, embedding) is the same."""
    import strongdim.search
    from strongdim.search import _SearchContext, _run_search

    kills = _FrameStackDim2Prune.kills
    kills.update(pool=0, count=0)

    def check(g, W):
        ctx = _SearchContext(g)
        for strong in (False, True):
            for budget in (30, 3000):
                cfg = PlacementSearchConfig(node_budget=budget)
                got = _run_search(ctx, list(map(g.index, W)), cfg, strong, True)
                with monkeypatch.context() as m:
                    m.setattr(strongdim.search, "_Dim2Prune", _FrameStackDim2Prune)
                    want = _run_search(ctx, list(map(g.index, W)), cfg, strong, True)
                assert got == want, (g.label_edges(), W, strong, budget)

    cases = [(cycle_graph(9), W) for W in (["0", "4"], ["0", "3"], ["2", "5"])]
    cases += [(gn_family(1), W) for W in (["w1_1", "w2_1"], ["w1_1", "c5_1"], ["c5_1", "f3_1"])]
    cases.append((_k7_with_hanging_anchors(), ["w0", "w1"]))
    for g, W in cases:
        check(g, W)
    # A few hard strong-mode searches on sparse graphs make almost every kill, so
    # seeded random cases are drawn until each rule has pruned often enough.
    rng = random.Random(15)
    searched = len(cases)
    while searched < 200 or min(kills.values()) < 20:
        assert searched < 2000, kills
        g = random_connected_graph(rng.randrange(5, 13), rng, rng.choice((0, 0.05, 0.1, 0.2, 0.35)))
        check(g, rng.sample(list(g.labels), 2))
        searched += 1
    assert kills["pool"] >= 20 and kills["count"] >= 20, kills


def test_diagonal_pool_cuts_an_antipodal_cycle(monkeypatch):
    """On C24 with antipodal anchors the diagonal pool prune takes the two-anchor search
    from the unpruned engine's 2,528 nodes to 81; the degree and capacity rules alone,
    with allows always passing, leave all 2,528."""
    import strongdim.search

    g, W = cycle_graph(24), ["0", "12"]
    plain = exists_supergraph_resolved_by(g, W)
    assert (plain.status, plain.nodes) == ("yes", 2528)
    pruned = dim2_pruned_search(g, W)
    assert (pruned.status, pruned.nodes) == ("yes", 81)
    monkeypatch.setattr(strongdim.search._Dim2Prune, "allows", lambda self, p, used, n: True)
    unpooled = dim2_pruned_search(g, W)
    assert (unpooled.status, unpooled.nodes) == ("yes", 2528)


def test_exact_needs_only_the_level_below_refuted(monkeypatch):
    """A yes at size k after size k-1 was refuted is exact even when an earlier level was
    left undecided: refuting size k-1 refutes every smaller size."""
    import strongdim.search
    from strongdim.search import SearchOutcome

    real = strongdim.search._search_set
    undecided = []

    def scripted(ctx, cfg, strong, W):
        if len(W) == 4:
            return real(ctx, cfg, strong, W)
        if len(W) == 2 and not undecided:
            undecided.append(W)
            return SearchOutcome("budget_exhausted", None, 1)
        return SearchOutcome("no", None, 1)

    monkeypatch.setattr(strongdim.search, "_search_set", scripted)
    g = cycle_graph(7)
    res = threshold_dimension(g, "strong", PlacementSearchConfig(symmetry_pruning=False), max_k=4)
    assert [lv["budget_exhausted"] for lv in res.stats["levels"]] == [0, 1, 0, 0]
    assert (res.status, res.value, res.bounds) == ("exact", 4, None)
    assert len(res.witness_W) == 4 and certify(res.embedding, g, strong=True)


def test_one_vertex_graph_is_resolved_by_no_anchor():
    g = Graph.from_edges(["a"], [])
    res = exists_supergraph_resolved_by(g, [])
    assert (res.status, res.nodes, res.embedding.k) == ("yes", 0, 0)
    assert certify(res.embedding, g, strong=True)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PlacementSearchConfig(node_budget=0), "node_budget must be positive"),
        (lambda: threshold_dimension(cycle_graph(5), "resolved"), "mode must be"),
        (lambda: brute_force_dimension(cycle_graph(5), "x"), "mode must be"),
        (lambda: tau_gap_experiment(0), "need n >= 1"),
    ],
    ids=["node_budget", "threshold_mode", "brute_force_mode", "gap_n"],
)
def test_search_input_checks(call, message):
    with pytest.raises(GraphError, match=message):
        call()


def _outcome_digest(outcomes):
    """sha256 prefix of (status, nodes, embedding JSON) per search, in order."""
    import hashlib
    import json

    rows = [(r.status, r.nodes, r.embedding.to_json() if r.embedding else None) for r in outcomes]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def test_small_graph_searches_golden():
    """Every anchor set of every connected graph on 2-5 vertices, at every max_side up to
    diameter + 1, in both modes: 4,900 searches, pinned before the last depth was one
    mask and re-pinned when the counting rules first ran for every k (every status and
    embedding the same; 606 searches took 2,330 fewer nodes in all, none more). Anchor
    sets with k == n make the last vertex an anchor, whose own cell needs no support;
    the (status, nodes) list alone has its own digest as a cross-check."""
    import hashlib

    from strongdim import all_pairs_distances

    outcomes = []
    for g in atlas_connected(5, min_n=2):
        for side in range(1, all_pairs_distances(g).diameter + 2):
            cfg = PlacementSearchConfig(max_side=side)
            for k in range(1, g.n + 1):
                for W in itertools.combinations(g.labels, k):
                    for strong in (False, True):
                        outcomes.append(exists_supergraph_resolved_by(g, W, cfg, strong=strong))
    assert len(outcomes) == 4900
    counts = repr([(r.status, r.nodes) for r in outcomes]).encode()
    assert hashlib.sha256(counts).hexdigest()[:16] == "c93ba10ff41ceab4"
    assert _outcome_digest(outcomes) == "21a8f8820da1b96b"


def test_budget_boundaries_golden():
    """Budgets 1, 2, 3 and N - 1, N, N + 1 around each search's unbounded node count N
    give the outcomes pinned before the last depth was one mask: a budget that ends at
    or inside the last depth stops there with node_budget + 1 nodes. Re-pinned when the
    counting rules first ran for every k: 26 of the 372 unbudgeted searches take fewer
    nodes (none more, every status and embedding the same), so fewer budgets bracket
    them, and 78 budget_exhausted outcomes, all where a rule fires, became no."""
    from strongdim.search import _SearchContext, _run_search

    rng = random.Random(21)
    graphs = [gn_family(1)] + [
        random_connected_graph(rng.randrange(5, 11), rng, rng.choice((0.05, 0.1, 0.2, 0.35)))
        for _ in range(30)
    ]
    outcomes = []
    for g in graphs:
        ctx = _SearchContext(g)
        for k in (1, 2, 3):
            W = list(map(g.index, rng.sample(list(g.labels), k)))
            for strong, dim2 in itertools.product((False, True), repeat=2):
                N = _run_search(ctx, W, PlacementSearchConfig(), strong, dim2).nodes
                for budget in sorted({1, 2, 3, N - 1, N, N + 1} - {-1, 0}):
                    cfg = PlacementSearchConfig(node_budget=budget)
                    outcomes.append(_run_search(ctx, W, cfg, strong, dim2))
    statuses = [r.status for r in outcomes]
    assert len(outcomes) == 1488
    assert min(map(statuses.count, ("yes", "no", "budget_exhausted"))) >= 400
    assert _outcome_digest(outcomes) == "78267eb2c75f3d07"


def test_threshold_matches_the_definition_on_six_vertices():
    """tau_s(G) (tau(G)) is by definition the least strong (metric) dimension of a
    spanning supergraph of G: threshold_dimension returns it exactly on every connected
    graph with 2-6 vertices, in both modes, with symmetry pruning on and off. With
    max_k one below it, the result is bounds from it to beta_s(G), exact when they
    meet. A superset of a (strong) resolving set is one too, so a supergraph lowers
    the least dimension found so far exactly when some set one smaller resolves it;
    n - 1 vertices resolve any graph."""
    from strongdim import is_resolving_set

    graphs = atlas_connected(6, min_n=2)
    assert len(graphs) == 142
    checks = {"metric": is_resolving_set, "strong": is_strong_resolving_set}
    tails = {"exact": 0, "bounds": 0}  # the results with max_k one below
    for g in graphs:
        best = dict.fromkeys(checks, g.n - 1)
        non_edges = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)]
        for r in range(len(non_edges) + 1):
            for extra in itertools.combinations(non_edges, r):
                h = g.with_edges(list(extra))
                for mode, resolves in checks.items():
                    while best[mode] > 1 and any(
                        resolves(h, W) for W in itertools.combinations(h.labels, best[mode] - 1)
                    ):
                        best[mode] -= 1
        beta_s = strong_dimension(g).value
        for mode, want in best.items():
            for symmetry in (True, False):
                cfg = PlacementSearchConfig(symmetry_pruning=symmetry)
                got = threshold_dimension(g, mode, cfg)
                assert (got.status, got.value) == ("exact", want), (g.label_edges(), mode, cfg)
            if want > 1:
                got = threshold_dimension(g, mode, max_k=want - 1)
                assert got.to_json()["value"] == (
                    want if want == beta_s else {"lo": want, "hi": beta_s}
                ), (g.label_edges(), mode)
                tails[got.status] += 1
    assert min(tails.values()) >= 20, tails


def _spider(legs: int, length: int) -> Graph:
    """legs paths of length vertices each, hung on one centre c."""
    edges = []
    for i in range(legs):
        prev = "c"
        for j in range(length):
            edges.append((prev, f"l{i}_{j}"))
            prev = f"l{i}_{j}"
    return Graph.from_label_edges(edges)


def test_levels_match_the_sorted_key_and_whole_group_reference(monkeypatch):
    """Each level lists its anchor sets by (-sum of eccentricities, label ranks in index
    order), and its orbits are the classes of the least sorted image over every
    automorphism, the identity included, each with its members in that order, so the
    representative is the first one: on every level of every connected graph with 2-7
    vertices, of G_1 up to k = 3 and of G_2 up to k = 2, with symmetry pruning on and
    off. Every search runs out of budget, so every level is listed whole."""
    from strongdim import search
    from strongdim.search import SearchOutcome

    real, seen = search._level, []

    def level(k, *args):
        seen.append((k, real(k, *args)))
        return seen[-1][1]

    monkeypatch.setattr(search, "_level", level)
    monkeypatch.setattr(search, "_search_set",
                        lambda *a: SearchOutcome("budget_exhausted", None, 0))
    cases = [(g, g.n - 1) for g in atlas_connected(7, min_n=2)]
    assert len(cases) == 995
    for g, top in cases + [(gn_family(1), 3), (gn_family(2), 2)]:
        n, ecc = g.n, g.distances().eccentricities
        rank = {v: r for r, v in enumerate(sorted(range(n), key=g.labels.__getitem__))}
        whole = _whole_group(g)
        for symmetry in (True, False):
            auts = whole if symmetry else None
            seen.clear()
            threshold_dimension(g, "metric", PlacementSearchConfig(symmetry_pruning=symmetry),
                                max_k=top)
            assert [k for k, _ in seen] == list(range(1, top + 1))
            for k, (sets, orbits) in seen:
                want = sorted(itertools.combinations(range(n), k),
                              key=lambda W: (-sum(ecc[v] for v in W), tuple(rank[v] for v in W)))
                groups: dict = {}
                for W in want:
                    key = min(tuple(sorted(p[w] for w in W)) for p in auts) if auts else W
                    groups.setdefault(key, []).append(W)
                assert sets == want, (g.label_edges(), k)
                assert orbits == list(groups.values()), (g.label_edges(), k, symmetry)


def test_counting_rules_fire_only_where_g_itself_is_not_resolved():
    """Where a counting rule refutes an anchor set at the default side, the set neither
    resolves nor strongly resolves g, so the rules, which run before the fast path,
    never turn its yes into a no: every anchor set of every connected graph with 2-6
    vertices."""
    from strongdim.dimension import _is_set
    from strongdim.search import _counted_out, _SearchContext

    fired = 0
    for g in atlas_connected(6, min_n=2):
        ctx = _SearchContext(g)
        for k in range(1, g.n + 1):
            for W in itertools.combinations(range(g.n), k):
                if _counted_out(ctx, k, ctx.dm.diameter + 1) & sum(1 << v for v in W):
                    fired += 1
                    assert not _is_set(ctx.dm, W, g.n, False), (g.label_edges(), W)
                    assert not _is_set(ctx.dm, W, g.n, True), (g.label_edges(), W)
    assert fired == 1643


def test_sweep_searches_only_orbits_the_counting_mask_leaves(monkeypatch):
    """G_2's sweeps up to k = 2 call the search only for orbits whose first member
    avoids the level's counting mask; each refuted orbit still counts one set searched
    and all its members refuted, so the stats are those of searching it."""
    from strongdim import search

    g = gn_family(2)
    ctx = search._SearchContext(g)
    masks = {k: search._counted_out(ctx, k, ctx.dm.diameter + 1) for k in (1, 2)}
    level, calls, orbits = search._level, [], {}
    monkeypatch.setattr(search, "_level", lambda k, *a: orbits.setdefault(k, level(k, *a)))
    real = search._search_set
    monkeypatch.setattr(search, "_search_set", lambda *a: calls.append(a[-1]) or real(*a))
    want = {  # sets_searched, refuted and nodes, as when every orbit called the search
        "metric": ([(23, 44), (16, 27)], 54),
        "strong": ([(23, 44), (484, 946)], 546),
    }
    for mode, (counts, nodes) in want.items():
        calls.clear()
        orbits.clear()
        res = threshold_dimension(g, mode, max_k=2)
        levels = res.stats["levels"]
        assert [(lv["sets_searched"], lv["refuted"]) for lv in levels] == counts, mode
        assert res.stats["nodes"] == nodes, mode
        assert calls and all(not masks[len(W)] & sum(1 << v for v in W) for W in calls)
        if mode == "strong":  # no yes ends a level early
            left = [members[0] for k in (1, 2) for members in orbits[k][1]
                    if not masks[k] & sum(1 << v for v in members[0])]
            assert calls == left


def test_fast_path_runs_only_for_sets_the_counting_rules_leave(monkeypatch):
    """G_2's strong sweep up to k = 2 searches 507 sets; the counting rules refute all
    but 9 before the fast path, which then runs for those 9 alone (for all 507 before)."""
    from strongdim import search

    real, calls = search._try_fast_path, []
    monkeypatch.setattr(search, "_try_fast_path", lambda *a: calls.append(a[1]) or real(*a))
    res = threshold_dimension(gn_family(2), "strong", max_k=2)
    assert sum(level["sets_searched"] for level in res.stats["levels"]) == 507
    assert len(calls) == 9


def test_counting_rules_agree_with_the_engine_without_them(monkeypatch):
    """With and without the counting rules, both engines give the same status and
    embedding, and the rules never add a node: every anchor set of up to three
    vertices of stars, spiders and complete multipartite graphs with 3-12 vertices
    (K_{1,11} up to two, as its three-anchor sets take 109,620 nodes without them)."""
    from strongdim import complete_multipartite_graph, search

    graphs = [(star_graph(m), 3) for m in (2, 3, 6, 10)] + [(star_graph(11), 2)]
    graphs += [(_spider(a, b), 3) for a, b in ((3, 2), (4, 2), (5, 2), (3, 3))]
    graphs += [(complete_multipartite_graph(s), 3)
               for s in ((2, 2, 2), (1, 2, 3), (3, 3, 3), (2, 5, 5), (4, 4, 4), (1, 1, 10), (6, 6))]
    runs = [
        (engine, g, W, strong)
        for g, top in graphs
        for k in range(1, top + 1)
        for W in itertools.combinations(g.labels, k)
        for strong in (False, True)
        for engine in (exists_supergraph_resolved_by, dim2_pruned_search)[:1 + (k == 2)]
    ]
    with_rules = [engine(g, W, strong=strong) for engine, g, W, strong in runs]
    monkeypatch.setattr(search, "_counted_out", lambda *a: 0)
    without = [engine(g, W, strong=strong) for engine, g, W, strong in runs]
    fewer = 0
    for run, a, b in zip(runs, with_rules, without):
        assert (a.status, a.embedding) == (b.status, b.embedding), run
        assert a.nodes <= b.nodes, run
        fewer += a.nodes < b.nodes
    assert (len(runs), fewer) == (6064, 4080)


def test_counting_rules_refute_stars_and_spiders_at_once():
    """K_{1,12} has threshold (strong) dimension 4; its k = 3 level took 24 million
    nodes before the count n <= (side-1)^k + k refuted each set. Every two-anchor set of
    the spider with 9 legs of 3 vertices has an endpoint of degree 9 > 3^2 - 1 (9,702
    nodes before)."""
    for mode in ("metric", "strong"):
        res = threshold_dimension(star_graph(12), mode)
        assert (res.status, res.value) == ("exact", 4)
        assert res.stats["nodes"] < 100, res.stats["nodes"]
        res = threshold_dimension(_spider(9, 3), mode, max_k=2)
        assert (res.to_json()["value"], res.stats["nodes"]) == ({"lo": 3, "hi": 8}, 0)

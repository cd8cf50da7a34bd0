import hashlib
import random
import time
import tracemalloc
from functools import partial
from operator import add

import pytest

from strongdim import (
    CheckResult,
    Embedding,
    GraphError,
    UnresolvedPairError,
    all_pairs_distances,
    brute_force_dimension,
    certify,
    chebyshev,
    chebyshev_adjacency,
    complete_graph,
    cycle_graph,
    distance_vector_embedding,
    is_isometric_in_product,
    is_resolving_set,
    is_strong_resolving_set,
    is_w_resolved,
    path_graph,
    render_grid,
)
from strongdim.constructions import cycle_embedding, gn_family
from strongdim import embedding
from strongdim.embedding import _anchor_distance_rows, isometry_mismatch
from strongdim.graph import bfs_from

from .conftest import random_connected_graph
from .lemmas import (
    anchor_distances_collapse,
    dim2_diagnostics,
    feasible_region,
    g1_placement,
    induced_supergraph,
)


def test_chebyshev_examples():
    assert chebyshev((0, 0), (3, 1)) == 3
    assert chebyshev((2, 5), (2, 5)) == 0
    assert chebyshev((2, 5), (3, 4)) == 1
    with pytest.raises(GraphError):
        chebyshev((1, 2), (1, 2, 3))


def test_chebyshev_is_a_metric(rng):
    for _ in range(10_000):
        k = rng.randrange(1, 5)
        x, y, z = (tuple(rng.randrange(8) for _ in range(k)) for _ in range(3))
        assert chebyshev(x, y) == chebyshev(y, x)
        assert (chebyshev(x, y) == 0) == (x == y)
        assert chebyshev(x, z) <= chebyshev(x, y) + chebyshev(y, z)


def _pairwise_adjacency(cells):
    return [[j for j, y in enumerate(cells) if chebyshev(x, y) == 1] for x in cells]


def test_chebyshev_adjacency_matches_pairwise(rng):
    for k in (1, 2, 3):
        for _ in range(30):
            cells = [tuple(rng.randrange(4) for _ in range(k)) for _ in range(rng.randrange(1, 25))]
            cells += rng.sample(cells, rng.randrange(len(cells) + 1))  # duplicate cells
            rng.shuffle(cells)
            assert chebyshev_adjacency(cells) == _pairwise_adjacency(cells)
    for k in range(6):  # k = 0-5, each also with every coordinate moved 10**18 either way
        for _ in range(20):
            cells = [tuple(rng.randrange(3) for _ in range(k)) for _ in range(rng.randrange(1, 41))]
            cells += rng.sample(cells, rng.randrange(len(cells) + 1))
            rng.shuffle(cells)
            assert chebyshev_adjacency(cells) == _pairwise_adjacency(cells)
            shift = [rng.choice((10**18, -10**18)) for _ in range(k)]
            far = [tuple(map(add, c, shift)) for c in cells]
            assert chebyshev_adjacency(far) == _pairwise_adjacency(far)
    assert chebyshev_adjacency([]) == []
    assert chebyshev_adjacency([(2, 2), (2, 2), (3, 1)]) == [[2], [2], [0, 1]]
    with pytest.raises(GraphError):
        chebyshev_adjacency([(0, 0), (0, 1, 0)])


def test_certify_many_anchors_is_not_exponential_in_k():
    # 16 coordinates: a 3^k offset walk would need tens of millions of steps per cell
    g = complete_graph(17)
    e = distance_vector_embedding(g, list(g.labels[:16]))
    start = time.perf_counter()
    assert is_w_resolved(e, g).ok and is_isometric_in_product(e).ok
    assert time.perf_counter() - start < 2.0


def test_distance_vector_embedding_path():
    e = distance_vector_embedding(path_graph(4), ["0"])
    assert e.placement == {"0": (0,), "1": (1,), "2": (2,), "3": (3,)}
    assert e.side == 4


def test_distance_vector_embedding_collision():
    with pytest.raises(UnresolvedPairError) as exc:
        distance_vector_embedding(cycle_graph(4), ["0"])
    assert set(exc.value.pair) == {"1", "3"}


def test_g1_fixture_distance_vectors_match_grid():
    g1 = gn_family(1)
    emb = distance_vector_embedding(g1, ["w1_1", "w2_1"])
    assert emb.placement == g1_placement()
    assert is_w_resolved(emb, g1)
    assert anchor_distances_collapse(emb)
    # the anchors resolve the graph but do not strongly resolve it
    assert is_resolving_set(g1, ["w1_1", "w2_1"])
    assert not is_strong_resolving_set(g1, ["w1_1", "w2_1"])
    assert not is_isometric_in_product(emb)


def test_w_resolved_perturbation_fails_clause_c():
    from strongdim.constructions import l3n_family

    g, e = l3n_family(3)
    placement = dict(e.placement)
    placement["u3"] = (3, 4)  # leaf shifted: edges and injectivity survive
    bad = Embedding(2, 5, e.anchors, placement)
    res = is_w_resolved(bad, g)
    assert not res and res.clause == "W-resolved(c)"


def test_w_resolved_clause_a_and_b():
    g = path_graph(3)
    bad = Embedding(1, 3, ("0",), {"0": (0,), "1": (2,), "2": (1,)})
    assert is_w_resolved(bad, g).clause == "W-resolved(a)"
    g2 = cycle_graph(4)
    collide = Embedding(2, 3, ("0", "1"), {"0": (0, 1), "1": (1, 0), "2": (1, 1), "3": (1, 1)})
    assert is_w_resolved(collide, g2).clause in ("W-resolved(a)", "W-resolved(b)")


def test_distance_vector_roundtrip_random(rng):
    """Distance-vector embeddings of resolving sets certify and collapse."""
    done = 0
    while done < 200:
        g = random_connected_graph(rng.randrange(2, 11), rng)
        k = rng.randrange(1, min(4, g.n) + 1)
        W = rng.sample(list(g.labels), k)
        if not is_resolving_set(g, W):
            continue
        e = distance_vector_embedding(g, W)
        assert is_w_resolved(e, g)
        assert anchor_distances_collapse(e)
        done += 1


def _pairwise_isometry_mismatch(cells, adj):
    """The per-pair scan that isometry_mismatch replaced, kept as its reference."""
    for i, c in enumerate(cells):
        dist = bfs_from(adj, i)
        for j in range(i + 1, len(cells)):
            want = chebyshev(c, cells[j])
            if dist[j] != want:
                return i, j, dist[j], want
    return None


def _pairwise_is_isometric_in_product(e: Embedding) -> CheckResult:
    """is_isometric_in_product on the per-pair scan."""
    labels = tuple(sorted(e.placement))
    cells = [e.placement[lb] for lb in labels]
    bad = _pairwise_isometry_mismatch(cells, chebyshev_adjacency(cells))
    if bad is None:
        return CheckResult(True)
    i, j, got, want = bad
    if got < 0:
        return CheckResult(
            False, "isometric", f"{labels[i]!r} and {labels[j]!r} are in different components"
        )
    return CheckResult(
        False,
        "isometric",
        f"d({labels[i]!r},{labels[j]!r}) = {got} in the image but {want} in the product",
    )


def _seeded_placement(rng, k: int, side: int) -> Embedding:
    """Random or lazy-walk cells, sometimes with duplicates, under shuffled labels."""
    n = 1 if rng.random() < 0.1 else rng.choice((rng.randrange(2, 8), rng.randrange(8, 30)))
    if rng.random() < 0.5:
        cells = [tuple(rng.randrange(side) for _ in range(k)) for _ in range(n)]
    else:  # a lazy walk: each coordinate steps by -1, 0 or +1 and stays on the grid
        c = [rng.randrange(side) for _ in range(k)]
        cells = []
        for _ in range(n):
            cells.append(tuple(c))
            c = [min(side - 1, max(0, x + rng.choice((-1, 0, 0, 1)))) for x in c]
        if rng.random() < 0.5:
            cells = list(dict.fromkeys(cells))  # the walk's first visits only
    if rng.random() < 0.2:
        cells += rng.sample(cells, rng.randrange(1, len(cells) + 1))
    labels = [f"v{i}" for i in rng.sample(range(100), len(cells))]
    anchors = tuple(rng.sample(labels, min(k, len(labels))))
    return Embedding(k, side, anchors, dict(zip(labels, cells)))


def test_isometry_rows_match_the_pairwise_checks():
    rng = random.Random(11)
    passing = split = wrong_gap = 0
    for t in range(3000):
        e = _seeded_placement(rng, t % 5, 2 + (t // 5) % 5)
        want = _pairwise_is_isometric_in_product(e)
        got = is_isometric_in_product(e)
        assert (got.ok, got.clause, got.detail) == (want.ok, want.clause, want.detail), e
        passing += got.ok and len(e.placement) > 1
        split += "components" in (got.detail or "")
        wrong_gap += "in the product" in (got.detail or "")
    assert min(passing, split, wrong_gap) > 300, (passing, split, wrong_gap)


def test_isometry_mismatch_reports_the_first_pair():
    # a path bent into an L: (0,0)-(1,0)-(2,1) ... the ends are 2 apart in both
    cells = [(0, 0), (1, 0), (2, 1)]
    assert isometry_mismatch(cells, chebyshev_adjacency(cells)) is None
    cells = [(0, 0), (1, 1), (2, 0), (3, 1), (0, 2)]
    adj = chebyshev_adjacency(cells)  # (0, 2) touches (1, 1) only
    assert isometry_mismatch(cells, adj) is None
    cells = [(0, 0), (2, 0), (1, 1), (1, 1)]
    assert isometry_mismatch(cells, chebyshev_adjacency(cells)) == (2, 3, 2, 0)
    assert isometry_mismatch([(0,), (2,)], [[], []]) == (0, 1, -1, 2)
    # edges 0-2 and 2-3 give source 0 the row [0, -1, 1, 2]: its sum, 2, equals
    # the Chebyshev sum of (0,), but cell 1 is unreachable
    assert isometry_mismatch([(0,), (1,), (1,), (0,)], [[2], [], [0, 3], [2]]) == (0, 1, -1, 1)
    assert isometry_mismatch([(), ()], [[], []]) == (0, 1, -1, 0)
    assert isometry_mismatch([(5, 5)], [[]]) is None
    assert isometry_mismatch([], []) is None


def test_strong_certify_runs_the_bfs_check_only_on_small_or_failing_images(monkeypatch):
    """Cones decide large images, where isometry_mismatch runs only to name a failing
    pair; a small image that fails runs it twice, to decide and then to name the pair."""
    from strongdim import constructions as cons

    calls = []
    real = embedding.isometry_mismatch
    monkeypatch.setattr(embedding, "isometry_mismatch", lambda *a: calls.append(1) or real(*a))
    p4 = cons.FourLeafTreeParams(10, 94, 13, 181, 2)
    p5 = cons.FiveLeafTreeParams(11, 60, 11, 121, 70, 27, 6)
    built = [  # the seed-0 certify-families embeddings
        (cycle_graph(398), cycle_embedding(398)),
        cons.l3n_family(132),
        (cons.four_leaf_tree(p4), cons.tree_dim3_embedding(p4)),
        (cons.five_leaf_tree(p5), cons.tree_dim4_embedding(p5)),
    ]
    for g, e in built:
        assert certify(e, g, True)
    assert calls == []
    g1 = gn_family(1)
    res = certify(distance_vector_embedding(g1, ["w1_1", "w2_1"]), g1, True)
    assert res.clause == "isometric" and calls == [1, 1]  # 23 cells on 2 coordinates
    # an image of fewer than 16 cells per coordinate is decided by the BFS alone
    small, large = cycle_embedding(31), cycle_embedding(32)
    calls.clear()
    cones = []
    real_cones = embedding.isometric_by_cones
    monkeypatch.setattr(embedding, "isometric_by_cones", lambda *a: cones.append(1) or real_cones(*a))
    assert certify(small, cycle_graph(31), True) and calls == [1] and cones == []
    assert certify(large, cycle_graph(32), True) and calls == [1] and cones == [1]


def _traced_peak(fn) -> tuple[object, int]:
    """fn's result and the peak of the memory it allocates, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_isometry_check_memory_does_not_grow_with_the_coordinates():
    def two_paths(gap: int) -> Embedding:
        placement = {f"p{i}": (i, 0) for i in range(40)}
        placement.update({f"q{i}": (gap + i, 3 - gap) for i in range(40)})
        return Embedding(2, gap + 50, (), placement)

    peaks = []
    for gap in (10, 10**18):
        e = two_paths(gap)
        got, peak = _traced_peak(partial(is_isometric_in_product, e))
        assert got == _pairwise_is_isometric_in_product(e)
        assert got.detail == "'p0' and 'q0' are in different components"
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0], peaks
    shifted = {lb: (x + 10**18, y - 10**18) for lb, (x, y) in cycle_embedding(40).placement.items()}
    assert is_isometric_in_product(Embedding(2, 10**18 + 40, (), shifted))


def test_certify_of_a_long_cycle_stays_small():
    # two forms, so the mask tables hold at most 2 * 2001 masks of 2000 bits: about 1.1 MB
    g, e = cycle_graph(2000), cycle_embedding(2000)
    got, peak = _traced_peak(partial(certify, e, g, True))
    assert got and peak < 4_000_000, peak


def test_passing_plane_embeddings_build_no_chebyshev_row(monkeypatch):
    from strongdim.constructions import l3n_family

    calls = []
    row = embedding._chebyshev_row

    def counted(*args):
        calls.append(args[1])
        return row(*args)

    monkeypatch.setattr(embedding, "_chebyshev_row", counted)
    cycle = cycle_embedding(401)
    _, l3n = l3n_family(40)
    assert is_isometric_in_product(cycle) and is_isometric_in_product(l3n)
    assert calls == []
    assert not is_isometric_in_product(Embedding(2, 3, (), {"a": (0, 0), "b": (2, 2)}))
    assert calls == [(0, 0)] * 2  # a failing source decides, then names its pair from a row


def test_isometry_mismatch_matches_the_row_scan_on_subgraphs():
    """Subgraphs of the Chebyshev adjacency keep the precondition; deleted edges split
    pairs and stretch gaps."""
    rng = random.Random(17)
    passing = split = wrong_gap = 0
    for t in range(3000):
        e = _seeded_placement(rng, t % 5, 2 + (t // 5) % 5)
        cells = list(e.placement.values())
        p = rng.choice((0.0, 0.05, 0.2, 0.5))
        adj = [[] for _ in cells]
        for u, nbrs in enumerate(chebyshev_adjacency(cells)):
            for v in nbrs:
                if u < v and rng.random() >= p:
                    adj[u].append(v)
                    adj[v].append(u)
        want = _pairwise_isometry_mismatch(cells, adj)
        assert isometry_mismatch(cells, adj) == want, (cells, adj)
        passing += want is None and len(cells) > 1
        split += want is not None and want[2] < 0
        wrong_gap += want is not None and want[2] >= 0
    assert min(passing, split, wrong_gap) > 200, (passing, split, wrong_gap)


def _seeded_cells(rng, k: int, side: int, n: int) -> list:
    """Distinct random cells of {0..side-1}^k, or the first visits of a lazy walk."""
    if rng.random() < 0.5:
        cells = {tuple(rng.randrange(side) for _ in range(k)) for _ in range(n)}
        return rng.sample(sorted(cells), len(cells))
    c, cells = [rng.randrange(side) for _ in range(k)], []
    for _ in range(n):
        cells.append(tuple(c))
        c = [min(side - 1, max(0, x + rng.choice((-1, 0, 1)))) for x in c]
    return list(dict.fromkeys(cells))


def test_cones_decide_isometry_as_isometry_mismatch_does():
    """induced adjacencies, induced ones with edges dropped, and one duplicated cell"""
    rng = random.Random(19)
    outcomes: dict = {}
    for t in range(21_000):
        kind, k = t % 3, 1 + t // 3 % 3
        cells = _seeded_cells(rng, k, rng.randint(1, 6), rng.randint(1, 14))
        if kind == 2:
            cells.insert(rng.randrange(len(cells) + 1), rng.choice(cells))
        adj = chebyshev_adjacency(cells)
        if kind == 1:
            drop = rng.choice((0.05, 0.2, 0.5))
            kept = [(u, v) for u in range(len(cells)) for v in adj[u] if u < v and rng.random() >= drop]
            adj = [[] for _ in cells]
            for u, v in kept:
                adj[u].append(v)
                adj[v].append(u)
        elif kind == 2 and rng.random() < 0.5:  # join the two copies: an edge of Chebyshev length 0
            u, v = (i for i, c in enumerate(cells) if cells.count(c) > 1)
            adj[u].append(v)
            adj[v].append(u)
        want = isometry_mismatch(cells, adj) is None
        assert embedding.isometric_by_cones(cells, adj) == want, (cells, adj)
        outcomes[kind, want] = outcomes.get((kind, want), 0) + 1
    for want in (True, False):
        assert sum(outcomes.get((kind, want), 0) for kind in range(3)) >= 3000, outcomes
    assert min(outcomes.get((kind, False), 0) for kind in range(3)) >= 1000, outcomes
    assert min(outcomes.get((kind, True), 0) for kind in range(2)) >= 1000, outcomes


def test_cones_on_small_and_far_apart_cells():
    cones = embedding.isometric_by_cones
    assert cones([], []) and cones([(5, 5)], [[]]) and cones([()], [[]])
    assert not cones([(), ()], [[], []]) and not cones([(), ()], [[1], [0]])
    assert cones([(0,), (1,), (2,)], [[1], [0, 2], [1]])
    assert not cones([(0,), (1,), (2,)], [[1], [0], []])
    far = 10**18
    assert cones([(far, -far), (far + 1, -far), (far + 2, 1 - far)], [[1], [0, 2], [1]])
    assert not cones([(0, 0), (far, 0)], [[], []])


def test_isometric_examples():
    e = cycle_embedding(9)
    assert is_isometric_in_product(e)
    single = Embedding(2, 1, ("v",), {"v": (0, 0)})
    assert is_isometric_in_product(single)


def test_induced_supergraph_contains_host():
    g = cycle_graph(7)
    e = cycle_embedding(7)
    sup = induced_supergraph(e, g)
    host_edges = set(g.label_edges())
    sup_edges = set(sup.label_edges())
    assert host_edges <= sup_edges
    assert len(sup_edges) > len(host_edges)


def test_feasible_region_examples():
    r = feasible_region(5, 5)
    assert r.contains(0, 5) and not r.contains(0, 0)
    r2 = feasible_region(5, 2)
    assert not r2.contains(5, 2)  # x - y exceeds the anchor distance
    with pytest.raises(GraphError):
        feasible_region(3, 4)


def test_feasible_region_contains_every_basis_embedding(rng):
    checked = 0
    while checked < 25:
        g = random_connected_graph(rng.randrange(3, 8), rng)
        res = brute_force_dimension(g, "metric")
        if res.value != 2:
            continue
        W = list(res.witness)
        dm = all_pairs_distances(g)
        a = dm.dist[g.index(W[0])][g.index(W[1])]
        region = feasible_region(dm.diameter, a)
        e = distance_vector_embedding(g, W)
        assert all(region.contains(x, y) for x, y in e.placement.values())
        checked += 1


def test_dim2_diagnostics_on_fixture():
    g1 = gn_family(1)
    rep = dim2_diagnostics(g1, ["w1_1", "w2_1"])
    assert rep.all_ok
    assert rep.unique_geodesic
    assert rep.geodesic == ("w1_1", "a1_1", "b1_1", "c1_1", "d1_1", "w2_1")
    assert rep.anchor_degrees == {"w1_1": 3, "w2_1": 3}


def test_dim2_diagnostics_rejects_non_resolving():
    with pytest.raises(UnresolvedPairError):
        dim2_diagnostics(cycle_graph(4), ["0", "2"])


def test_dim2_diagnostics_on_brute_forced_cycle_basis():
    g = cycle_graph(6)
    basis = brute_force_dimension(g, "metric")
    assert basis.value == 2
    rep = dim2_diagnostics(g, list(basis.witness))
    assert rep.all_ok


def test_render_grid():
    e = distance_vector_embedding(path_graph(3), ["0", "2"])
    art = render_grid(e)
    assert art.splitlines() == ["0 . .", ". 1 .", ". . 2"]
    with pytest.raises(GraphError, match="k=2"):
        render_grid(distance_vector_embedding(path_graph(3), ["0"]))


def test_render_grid_cycle_fixture():
    art = render_grid(cycle_embedding(11))
    rows = art.splitlines()
    # w1 at (0,5) sits in the top row, w2 at (5,0) in the bottom row
    assert rows[0].split()[0] == "0"
    assert rows[-1].split()[-1] == "5"


def test_embedding_json_roundtrip():
    e = cycle_embedding(8)
    again = Embedding.from_json(e.to_json())
    assert again == e


def _graph_order_distance_clause(e: Embedding, g) -> CheckResult:
    """Clause (c) on an induced adjacency of its own, built in g's label order."""
    rows, index = _anchor_distance_rows(
        e, g.labels, chebyshev_adjacency([e.placement[lb] for lb in g.labels])
    )
    for i, w in enumerate(e.anchors):
        for lb in g.labels:
            if rows[i][index[lb]] != e.placement[lb][i]:
                return CheckResult(
                    False,
                    "W-resolved(c)",
                    f"coordinate {i} of {lb!r} is {e.placement[lb][i]} but distance to {w!r} "
                    f"is {rows[i][index[lb]]}",
                )
    return CheckResult(True)


def _family_embeddings(rng):
    """Graphs of the gen families with their embeddings, and with distance-vector ones."""
    from strongdim.constructions import (
        FiveLeafTreeParams,
        FourLeafTreeParams,
        five_leaf_tree,
        four_leaf_tree,
        l3n_family,
        tree_dim3_embedding,
        tree_dim4_embedding,
    )

    for g in (gn_family(1), cycle_graph(9), cycle_graph(10), path_graph(6)):
        tries = 0
        while tries < 6:
            W = rng.sample(list(g.labels), rng.randrange(2, 4))
            if is_resolving_set(g, W):  # W-resolved, and isometric only sometimes
                tries += 1
                yield g, distance_vector_embedding(g, W)
    for n in range(4, 11):
        yield cycle_graph(n), cycle_embedding(n)
    for n in range(2, 6):
        yield l3n_family(n)
    for _ in range(5):
        k1 = rng.randrange(1, 5)
        k2, k3 = sorted((rng.randrange(1, 5) for _ in range(2)), reverse=True)
        k4, k5 = sorted((rng.randrange(1, 5) for _ in range(2)), reverse=True)
        p4 = FourLeafTreeParams(k1, k2, k3, k4, k5)
        yield four_leaf_tree(p4), tree_dim3_embedding(p4)
        p5 = FiveLeafTreeParams(k1, k2, k3, k4, k5, rng.randrange(1, 5), rng.randrange(1, k1 + 1))
        yield five_leaf_tree(p5), tree_dim4_embedding(p5)


def _corrupted(rng, e: Embedding) -> Embedding:
    """e with one seeded fault: a moved, swapped, nudged or copied cell, or another anchor."""
    placement = dict(e.placement)
    labels = sorted(placement)
    a, b = rng.sample(labels, 2)
    kind = rng.randrange(6)
    if kind == 0:
        placement[a] = tuple(rng.randrange(e.side) for _ in range(e.k))
    elif kind == 1:
        placement[a], placement[b] = placement[b], placement[a]
    elif kind == 2:
        i = rng.randrange(e.k)
        placement[a] = tuple(x + rng.choice((-1, 1)) * (j == i) for j, x in enumerate(placement[a]))
    elif kind == 3:
        placement[a] = placement[b]
    elif kind == 4:
        anchors = list(e.anchors)
        anchors[rng.randrange(e.k)] = rng.choice([lb for lb in labels if lb not in anchors])
        return Embedding(e.k, e.side, tuple(anchors), placement)
    return Embedding(e.k, e.side, e.anchors, placement)


def test_certify_matches_the_separate_checks_on_corrupted_family_embeddings():
    """certify's two checks share one induced adjacency; its verdicts and texts equal
    those of checks that each build their own."""
    from strongdim import certify

    rng = random.Random(5)
    seen: dict = {}
    for g, built in _family_embeddings(rng):
        for e in [built] + [_corrupted(rng, built) for _ in range(12)]:
            want = is_w_resolved(e, g)
            if want or want.clause == "W-resolved(c)":  # the placement clauses passed
                assert want == _graph_order_distance_clause(e, g)
            assert certify(e, g, False) == want
            if want:
                want = _pairwise_is_isometric_in_product(e)
                assert is_isometric_in_product(e) == want
            got = certify(e, g, True)
            assert (got.ok, got.clause, got.detail) == (want.ok, want.clause, want.detail)
            seen[got.clause] = seen.get(got.clause, 0) + 1
    clauses = (None, "range", "W-resolved(a)", "W-resolved(b)", "W-resolved(c)", "isometric")
    assert min(seen.get(c, 0) for c in clauses) >= 10, seen


def _large_embeddings(rng):
    """Images of 40-64 cells, over 16 per coordinate: cycles and l3n graphs with their
    embeddings, and cycles with distance-vector ones, W-resolved and isometric only sometimes."""
    from strongdim.constructions import l3n_family

    for n in (40, 49, 64):
        g = cycle_graph(n)
        yield g, cycle_embedding(n)
        for _ in range(3):
            W = rng.sample(list(g.labels), 2)
            if is_resolving_set(g, W):
                yield g, distance_vector_embedding(g, W)
    for n in (14, 21):
        yield l3n_family(n)


def _certify_digest(seed: int) -> tuple[str, dict]:
    """sha256 of (ok, clause, detail) of certify in both modes over seeded family
    embeddings and their corruptions, with the count of each strong clause, apart
    for the large images."""
    rng = random.Random(seed)
    h, seen = hashlib.sha256(), {}
    for size, embeddings in (("small", _family_embeddings), ("large", _large_embeddings)):
        for g, built in embeddings(rng):
            for e in [built] + [_corrupted(rng, built) for _ in range(8)]:
                for strong in (False, True):
                    res = certify(e, g, strong)
                    h.update(repr((res.ok, res.clause, res.detail)).encode() + b"\n")
                seen[size, res.clause] = seen.get((size, res.clause), 0) + 1
    return h.hexdigest()[:16], seen


def test_certify_verdicts_and_failure_texts_are_frozen():
    digest, seen = _certify_digest(41)
    for key in (("small", "isometric"), ("small", None), ("large", "isometric"), ("large", None)):
        assert seen.get(key, 0) >= 5, seen
    assert digest == "5916495b34135bfc", seen


def test_certify_builds_the_induced_adjacency_once(monkeypatch):
    import strongdim.embedding as embedding

    calls = []
    real = embedding.chebyshev_adjacency
    monkeypatch.setattr(embedding, "chebyshev_adjacency", lambda cells: calls.append(1) or real(cells))
    g = gn_family(1)
    e = distance_vector_embedding(g, ["w1_1", "w2_1"])  # W-resolved, not isometric
    for strong, clause in ((True, "isometric"), (False, None)):
        calls.clear()
        assert embedding.certify(e, g, strong).clause == clause
        assert len(calls) == 1
    bad = Embedding(e.k, e.side, e.anchors, {**e.placement, "w1_1": (e.side, 0)})
    calls.clear()
    assert embedding.certify(bad, g, True).clause == "range" and calls == []


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["placement"].pop("3"), "domain: placement missing '3'"),
        (lambda obj: obj.pop("k"), "embedding JSON lacks 'k'"),
        (lambda obj: obj["anchors"].__setitem__(0, 0), "embedding 'anchors' must be a list of labels"),
    ],
    ids=["missing_vertex", "no_k", "int_anchor"],
)
def test_malformed_embeddings_are_refused(edit, message):
    obj = cycle_embedding(7).to_json()
    edit(obj)
    try:
        res = certify(Embedding.from_json(obj), cycle_graph(7), strong=True)
    except GraphError as exc:
        got = str(exc)
    else:
        got = f"{res.clause}: {res.detail}"
    assert got == message

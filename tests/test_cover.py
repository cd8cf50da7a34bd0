import itertools
import random

import pytest

from strongdim import (
    CoverResult,
    Graph,
    complete_graph,
    cycle_graph,
    min_vertex_cover,
    path_graph,
    star_graph,
    strong_resolving_graph,
)

from .conftest import random_connected_graph
from .lemmas import is_vertex_cover


def brute_min_cover(g: Graph):
    """Smallest cover by subset enumeration in (size, label) order."""
    order = sorted(range(g.n), key=lambda v: g.labels[v])
    edges = g.edges()
    for size in range(g.n + 1):
        for combo in itertools.combinations(order, size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                return size, tuple(sorted(g.labels[v] for v in combo))
    raise AssertionError


def test_complete_graphs():
    for n in range(1, 8):
        res = min_vertex_cover(complete_graph(n))
        assert res.size == max(n - 1, 0)


def test_edgeless():
    g = Graph.from_edges(["a", "b", "c"], [])
    res = min_vertex_cover(g)
    assert res.size == 0 and res.cover == ()


def test_c5_size_three():
    # brute force over all subsets confirms 3
    size, _ = brute_min_cover(cycle_graph(5))
    assert size == 3
    assert min_vertex_cover(cycle_graph(5)).size == 3


def test_is_vertex_cover_examples():
    g = star_graph(4)
    assert is_vertex_cover(g, {"0"})
    assert is_vertex_cover(g, set(g.labels))
    p3 = path_graph(3)
    assert not is_vertex_cover(p3, {"0"})


def test_lexicographic_tie_break():
    res = min_vertex_cover(cycle_graph(4))
    assert res.size == 2 and res.cover == ("0", "2")


def test_agreement_with_brute_force_500_random():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randrange(2, 9)
        g = random_connected_graph(n, rng, p=rng.choice([0.15, 0.35, 0.6]))
        size, lex = brute_min_cover(g)
        res = min_vertex_cover(g)
        assert res.size == size
        assert res.cover == lex


def test_minimality_is_witnessed(rng):
    for _ in range(80):
        g = random_connected_graph(rng.randrange(2, 10), rng)
        res = min_vertex_cover(g)
        cover = set(res.cover)
        assert is_vertex_cover(g, cover)
        for lb in res.cover:
            assert not is_vertex_cover(g, cover - {lb})


def test_disconnected_allowed():
    g = Graph.from_label_edges([("a", "b"), ("c", "d")])
    res = min_vertex_cover(g)
    assert res.size == 2


def test_nodes_explored_reproducible():
    g = random_connected_graph(9, random.Random(5))
    assert min_vertex_cover(g).nodes_explored == min_vertex_cover(g).nodes_explored


def reference_fold(nb: list[int], P: int) -> tuple[int, int, int]:
    """The earlier _fold, kept verbatim: a full rescan of P after every pass that
    takes a vertex."""
    taken = count = 0
    changed = True
    while changed:
        changed = False
        Q = P
        while Q:
            bit = Q & -Q
            Q ^= bit
            nu = nb[bit.bit_length() - 1] & P
            if not nu & (nu - 1):
                P &= ~(bit | nu)
                Q &= ~nu
                taken |= bit
                count += 1
                changed = True
    return P, taken, count


def test_fold_matches_full_rescans():
    """Re-examining only the vertices whose degree fell takes what full rescans take:
    random sparse graphs, where chains of folds are long, and subsets of them."""
    from strongdim.cover import _fold, _Search

    rng = random.Random(34)
    folded = 0
    for _ in range(400):
        g = random_connected_graph(rng.randrange(2, 40), rng, p=rng.choice([0.0, 0.03, 0.08, 0.2]))
        nb = _Search(g).nb
        for _ in range(10):
            P = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            want = reference_fold(nb, P)
            assert _fold(nb, P) == want, (g.label_edges(), P)
            folded += want[2]
    assert folded > 10_000


def test_nodes_on_the_benchmark_graphs():
    """The cover's search opens 3,794 nodes over the MMD graphs of the 32 dim-random
    benchmark graphs (perfbench's generator, imported read-only)."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import DIM_GRAPHS, random_graph_edges
    finally:
        sys.path.pop(0)
    graphs = [Graph.from_label_edges(random_graph_edges(n, s)) for n, s in DIM_GRAPHS]
    nodes = sum(min_vertex_cover(strong_resolving_graph(g)).nodes_explored for g in graphs)
    assert (len(graphs), nodes) == (32, 3794)


# --- the earlier branch-and-bound solver, kept verbatim as the reference ----
# Branching is on a highest-degree vertex (in-cover vs. all-neighbours-in-cover)
# with degree-0/1 reduction rules and a greedy-matching lower bound.


class _Counter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _copy_adj(adj: dict[int, set[int]]) -> dict[int, set[int]]:
    return {u: set(vs) for u, vs in adj.items()}


def _delete(adj: dict[int, set[int]], u: int) -> None:
    for v in adj[u]:
        adj[v].discard(u)
    del adj[u]


def _reduce(adj: dict[int, set[int]], picked: list[int]) -> None:
    """Apply degree-0/1 rules: drop isolated vertices, take leaf neighbours."""
    changed = True
    while changed:
        changed = False
        for u in list(adj):
            if u not in adj:
                continue
            if not adj[u]:
                del adj[u]
                changed = True
            elif len(adj[u]) == 1:
                v = next(iter(adj[u]))
                picked.append(v)
                _delete(adj, v)
                if u in adj and not adj[u]:
                    del adj[u]
                changed = True


def _matching_lower_bound(adj: dict[int, set[int]]) -> int:
    """Greedy maximal matching size: any cover needs one vertex per edge."""
    used: set[int] = set()
    size = 0
    for u in sorted(adj):
        if u in used:
            continue
        for v in adj[u]:
            if v not in used and v != u:
                used.add(u)
                used.add(v)
                size += 1
                break
    return size


def _min_cover_size(adj: dict[int, set[int]], best: int, counter: _Counter) -> int:
    """Smallest cover size of the residual graph, or best if >= best (prune)."""
    counter.nodes += 1
    adj = _copy_adj(adj)
    picked: list[int] = []
    _reduce(adj, picked)
    base = len(picked)
    if base >= best:
        return best
    if not adj:
        return base
    if base + _matching_lower_bound(adj) >= best:
        return best
    # deterministic branch vertex: highest degree, then smallest index
    u = min(adj, key=lambda x: (-len(adj[x]), x))

    # branch 1: u in the cover
    a1 = _copy_adj(adj)
    _delete(a1, u)
    best = min(best, base + 1 + _min_cover_size(a1, best - base - 1, counter))

    # branch 2: u excluded, so all its neighbours are in the cover
    nbrs = sorted(adj[u])
    if base + len(nbrs) < best:
        a2 = _copy_adj(adj)
        for v in nbrs:
            _delete(a2, v)
        del a2[u]
        best = min(best, base + len(nbrs) + _min_cover_size(a2, best - base - len(nbrs), counter))
    return best


def _size_of(adj: dict[int, set[int]], counter: _Counter) -> int:
    upper = sum(1 for u in adj if adj[u])  # all non-isolated vertices always cover
    return _min_cover_size(adj, upper + 1, counter)


def reference_min_vertex_cover(g: Graph) -> CoverResult:
    """Exact minimum cover; ties broken to the lexicographically smallest set."""
    adj = {u: set(g.adj[u]) for u in range(g.n)}
    counter = _Counter()
    k = _size_of(adj, counter)

    # committed greedy for the lex-min minimum cover, in string label order:
    # a vertex goes in iff some minimum cover extends the commitments with it.
    order = sorted(range(g.n), key=lambda u: g.labels[u])
    residual = _copy_adj(adj)
    chosen: list[int] = []
    budget = k
    for u in order:
        if budget == 0:
            break
        if u not in residual or not residual[u]:
            continue  # a minimum cover never contains isolated vertices
        trial = _copy_adj(residual)
        _delete(trial, u)
        if _size_of(trial, counter) <= budget - 1:
            chosen.append(u)
            residual = trial
            budget -= 1
        # else every minimum cover extending the commitments avoids u
    assert len(chosen) == k and all(not residual[v] for v in residual)
    labels = tuple(sorted(g.labels[u] for u in chosen))
    return CoverResult(k, labels, counter.nodes)


def _same_cover(g: Graph) -> CoverResult:
    res, ref = min_vertex_cover(g), reference_min_vertex_cover(g)
    assert (res.size, res.cover) == (ref.size, ref.cover)
    return res


def test_agrees_with_reference_on_mmd_graphs():
    rng = random.Random(58)
    for _ in range(12):
        g = random_connected_graph(rng.randrange(40, 59), rng, p=rng.choice([0.05, 0.08, 0.12]))
        _same_cover(strong_resolving_graph(g))


def test_lex_min_pass_drops_forced_vertices(monkeypatch):
    """Once a lex-min search finds that its vertex p lies in every maximum
    independent set of what is left, no later search holds p or a neighbour of p."""
    from strongdim.cover import _bits, _Search

    calls = []
    search = _Search.independent_set

    def record(self, P, target):
        found = search(self, P, target)
        calls.append((self, P, found))
        return found

    monkeypatch.setattr(_Search, "independent_set", record)
    rng = random.Random(58)
    forced = 0
    for _ in range(12):
        g = random_connected_graph(rng.randrange(40, 59), rng, p=rng.choice([0.05, 0.08, 0.12]))
        calls.clear()
        sr = strong_resolving_graph(g)
        min_vertex_cover(sr)
        s = calls[0][0]
        everything = (1 << sr.n) - 1
        label = [sr.labels[v] for v in s.vertex]
        gone = 0  # the forced vertices so far and their neighbours
        for _, P, found in calls:
            if P == everything:
                continue  # the size pass
            assert not P & gone
            # the pass takes vertices in label order and drops each once decided
            p = max(_bits(everything & ~P & ~gone), key=label.__getitem__)
            if found is None:
                forced += 1
                gone |= 1 << p | s.nb[p]
    assert forced


@pytest.mark.parametrize("build, size", [
    (lambda: path_graph(2000), 1000),
    (lambda: cycle_graph(1001), 501),
    (lambda: strong_resolving_graph(cycle_graph(401)), 201),
], ids=["path2000", "cycle1001", "mmd_cycle401"])
def test_large_inputs_agree_with_reference(build, size):
    """Deeper than the recursion limit, were the search to recurse per vertex."""
    g = build()
    res = _same_cover(g)
    assert res.size == size and is_vertex_cover(g, res.cover)

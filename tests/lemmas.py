"""The paper's lemmas as checkers, and small fixtures, that only the tests use as oracles:
two-anchor placements (the feasible region, the level and geodesic structure), the
two-star strong resolving graphs of Oellermann & Peters-Fransen, and 4- and 5-leaf trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import networkx as nx

from strongdim import constructions
from strongdim.constructions import FiveLeafTreeParams, FourLeafTreeParams, StarPairSpec
from strongdim.dimension import strong_resolving_graph
from strongdim.embedding import (
    CheckResult, Embedding, _anchor_distance_rows, chebyshev, chebyshev_adjacency,
    distance_vector_embedding,
)
from strongdim.graph import Graph, GraphError, is_tree, leaves_of

from .conftest import to_nx


def relabeled(g: Graph, perm: Sequence[int]) -> Graph:
    """Graph with vertex i renamed to g.labels[perm[i]]."""
    return Graph(tuple(g.labels[perm[i]] for i in range(g.n)), g.adj)


def is_vertex_cover(g: Graph, cover: set[str] | list[str] | tuple[str, ...]) -> bool:
    """True iff every edge has an endpoint in the cover."""
    idx = {g.index(lb) for lb in cover}
    return all(u in idx or v in idx for u, v in g.edges())


def induced_supergraph(e: Embedding, host: Graph) -> Graph:
    """Graph induced by the placement on host's labels."""
    adj = chebyshev_adjacency([e.placement[lb] for lb in host.labels])
    return Graph.from_edges(host.labels, [(u, v) for u in range(host.n) for v in adj[u] if u < v])


def g1_placement(copy: int = 1) -> dict[str, tuple[int, int]]:
    """Grid cells of the 23-vertex corridor fixture (labels suffixed _copy)."""
    return {f"{name}_{copy}": cell for name, cell in constructions._G1_CELLS.items()}


def anchor_distances_collapse(e: Embedding) -> CheckResult:
    """Induced distance to each anchor must equal the Chebyshev distance to it.

    Checked pair by pair; every anchor must be a placed label.
    """
    labels = tuple(sorted(e.placement))
    rows, index = _anchor_distance_rows(
        e, labels, chebyshev_adjacency([e.placement[lb] for lb in labels])
    )
    for i, w in enumerate(e.anchors):
        cw = e.placement[w]
        for lb in labels:
            want = chebyshev(e.placement[lb], cw)
            if rows[i][index[lb]] != want:
                return CheckResult(
                    False,
                    "anchor-collapse",
                    f"d({lb!r},{w!r}) = {rows[i][index[lb]]} but Chebyshev gap is {want}",
                )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# two-star strong-resolving-graph realizations


def _nx_target(spec: StarPairSpec) -> nx.Graph:
    """The literal target graph of spec, in networkx."""
    G = nx.Graph()
    G.add_edges_from(("c1", f"l1_{i}") for i in range(spec.m))
    G.add_edges_from(("c2", f"r1_{i}") for i in range(spec.n))
    if spec.type in (2, 4):
        G.add_edge("c1", "c2")
    if spec.type in (3, 4):
        G.add_edges_from([("v", "c1"), ("v", "c2")])
    return G


def verify_type_sr(g: Graph, spec: StarPairSpec) -> bool:
    """networkx's answer: is the non-isolated MMD graph of g isomorphic to the target?"""
    H = nx.Graph()
    H.add_edges_from(strong_resolving_graph(g).label_edges())
    return nx.is_isomorphic(H, _nx_target(spec))


# ---------------------------------------------------------------------------
# two-anchor structure


@dataclass(frozen=True)
class FeasibleRegion:
    """Lattice region that contains every 2-anchor resolved placement.

    Bounded by the grid (x,y <= D), the triangle inequality floor
    (x + y >= a) and the two diagonals (|x - y| <= a), where a is the
    anchor distance.
    """

    D: int
    a: int

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x <= self.D and 0 <= y <= self.D and x + y >= self.a and abs(x - y) <= self.a

    def cells(self) -> Iterator[tuple[int, int]]:
        span = range(self.D + 1)
        return ((x, y) for x in span for y in span if self.contains(x, y))


def feasible_region(D: int, a: int) -> FeasibleRegion:
    if not 0 <= a <= D:
        raise GraphError(f"need 0 <= a <= D, got a={a}, D={D}")
    return FeasibleRegion(D, a)


@dataclass(frozen=True)
class Dim2Report:
    """Structure checks available to any graph resolved by two anchors."""

    anchor_degrees: dict[str, int]
    unique_geodesic: bool
    geodesic: tuple[str, ...] | None
    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _count_geodesics(g: Graph, dm, s: int, t: int):
    """Number of shortest s-t paths, plus one such path if unique."""
    ds, dt = dm.dist[s], dm.dist[t]
    total = ds[t]
    counts = [0] * g.n
    counts[s] = 1
    for v in sorted(range(g.n), key=lambda v: ds[v]):
        if ds[v] + dt[v] != total or v == s:
            continue
        counts[v] = sum(counts[u] for u in g.adj[v] if ds[u] == ds[v] - 1 and ds[u] + dt[u] == total)
    if counts[t] != 1:
        return counts[t], None
    path, cur = [t], t
    while cur != s:
        cur = next(u for u in g.adj[cur] if ds[u] == ds[cur] - 1 and ds[u] + dt[u] == total and counts[u] > 0)
        path.append(cur)
    return 1, tuple(reversed(path))


def dim2_diagnostics(h: Graph, anchors: Sequence[str]) -> Dim2Report:
    """Run the two-anchor structure checks; anchors must resolve h."""
    if len(anchors) != 2:
        raise GraphError("dim2 diagnostics needs exactly two anchors")
    distance_vector_embedding(h, anchors)  # raises UnresolvedPairError
    dm = h.distances()
    w = [h.index(lb) for lb in anchors]
    nx_h = to_nx(h)

    failures: list[str] = []
    degs = {anchors[j]: h.degree(w[j]) for j in range(2)}
    if any(d > 3 for d in degs.values()):
        failures.append("anchor degree exceeds 3")

    count, path = _count_geodesics(h, dm, w[0], w[1])
    unique = count == 1
    if not unique:
        failures.append(f"{count} shortest paths between the anchors")
    geodesic = tuple(h.labels[v] for v in path) if path else None
    if path and any(h.degree(v) > 5 for v in path):
        failures.append("a geodesic vertex has degree above 5")

    level_paths_ok = level_size_ok = up_down_ok = True
    for j in range(2):
        row = dm.dist[w[j]]
        ecc = dm.eccentricities[w[j]]
        levels: dict[int, list[int]] = {}
        for v in range(h.n):
            levels.setdefault(row[v], []).append(v)
        for i in range(ecc + 1):
            members = levels.get(i, [])
            if len(members) > 2 * i + 1:
                level_size_ok = False
            # the level induces disjoint paths: max degree 2 and acyclic
            sub = nx_h.subgraph(h.labels[v] for v in members)
            if members and not (all(d <= 2 for _, d in sub.degree) and nx.is_forest(sub)):
                level_paths_ok = False
            for v in members:
                up = sum(1 for x in h.adj[v] if row[x] == i + 1)
                down = sum(1 for x in h.adj[v] if row[x] == i - 1)
                if up > 3 or down > 3:
                    up_down_ok = False
    if not level_size_ok:
        failures.append("a distance level exceeds the 2i+1 cap")
    if not level_paths_ok:
        failures.append("a distance level does not induce disjoint paths")
    if not up_down_ok:
        failures.append("a vertex has more than 3 neighbours in an adjacent level")

    return Dim2Report(
        anchor_degrees=degs,
        unique_geodesic=unique,
        geodesic=geodesic,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# 4- and 5-leaf tree parameters


def canonical_tree_params(
    t: Graph,
) -> FourLeafTreeParams | FiveLeafTreeParams | None:
    """Segment lengths of a 4- or 5-leaf tree, normalized; None otherwise.

    Each leaf's leg is walked inward to its branch vertex. With five leaves
    exactly one branch vertex carries an odd number of legs (5, 3 or 1), and
    its smallest leg by (length, leaf label) is the extra path. The branch
    vertices still carrying legs are the ends of the central path: a single
    end carries all four base legs; of two ends, v_k1 (legs u and x) is the
    one with the larger pair, then the one carrying the extra path, then the
    smaller index.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    leaves = leaves_of(t)
    if len(leaves) not in (4, 5):
        return None
    legs: dict[int, list[tuple[int, str]]] = {}
    for leaf in leaves:
        prev, cur, length = leaf, t.adj[leaf][0], 1
        while t.degree(cur) == 2:
            prev, cur, length = cur, next(x for x in t.adj[cur] if x != prev), length + 1
        legs.setdefault(cur, []).append((length, t.labels[leaf]))
    host = extra = None
    if len(leaves) == 5:
        host = next(b for b, ls in legs.items() if len(ls) % 2)
        extra = min(legs[host])
        legs[host].remove(extra)
    pairs = {b: sorted((ln for ln, _ in ls), reverse=True) for b, ls in legs.items() if ls}
    if len(pairs) == 1:
        (b, lens), = pairs.items()
        path, ux, yz = [b], lens[0::2], lens[1::2]
    else:
        v1, vk = sorted(pairs, key=lambda b: (pairs[b], b == host, -b))
        path = [t.index(lb) for lb in nx.shortest_path(to_nx(t), t.labels[v1], t.labels[vk])]
        ux, yz = pairs[vk], pairs[v1]
    if extra is None:
        return FourLeafTreeParams(len(path), *ux, *yz)
    return FiveLeafTreeParams(len(path), *ux, *yz, extra[0], path.index(host) + 1)

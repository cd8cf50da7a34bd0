"""Strong/metric dimension of connected graphs.

The strong dimension is computed by reduction: build the graph on the same
vertex set whose edges are the mutually-maximally-distant (MMD) pairs, then
take a minimum vertex cover of it. The MMD pairs come from the bitsets of
maximally distant vertices that `all_pairs_distances` records while it runs
each source's BFS, not from one `is_mmd` call per pair; `is_mmd` stays as the
definition. Every solver reads the graph's own cached matrix
(`Graph.distances`), which refuses split and empty graphs. Brute-force subset
enumeration is kept alongside as an independent oracle for small graphs, on a
matrix of its own.

A witness vertex w resolves every pair {w, v} by the definition alone
(strongly as d(v,w) = d(v,w) + d(w,w), metrically as d(w,w) = 0 < d(v,w)),
so the resolving checks read only pairs outside the witness and stay
independent of the cover theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .cover import _bits, min_vertex_cover
from .graph import DistanceMatrix, Graph, GraphError, all_pairs_distances, require_connected


@dataclass(frozen=True)
class DimensionResult:
    value: int
    witness: tuple[str, ...]
    method: str  # "reduction" | "brute_force"

    def to_json(self) -> dict:
        return {"value": self.value, "witness": list(self.witness), "method": self.method}


def _check_pair(g: Graph, u: int, v: int) -> None:
    if u == v:
        raise GraphError(f"u and v must differ, both are {g.labels[u]!r}")


def is_mmd(g: Graph, dm: DistanceMatrix, u: int, v: int) -> bool:
    """True iff u and v are mutually maximally distant.

    v is maximally distant from u when no neighbour of v is farther from u
    than v itself; the relation here requires it both ways.
    """
    _check_pair(g, u, v)
    d = dm.dist
    if d[u][v] < 0:
        raise GraphError("is_mmd requires a connected graph")
    duv = d[u][v]
    if any(d[u][x] > duv for x in g.adj[v]):
        return False
    return all(d[v][y] <= duv for y in g.adj[u])


def strong_resolving_graph(g: Graph) -> Graph:
    """Graph on the same labels whose edges are exactly the MMD pairs.

    maximal[u] of g's distance matrix, found by the BFS that computed u's
    distance row, is the bitset of the vertices maximally distant from u.
    {u, v} is an edge iff each is maximally distant from the other, so u's
    ascending adjacency tuple is read straight off maximal[u], keeping each
    v whose maximal[v] holds u. Only an isolated vertex is maximally distant
    from itself, and it is left out.
    """
    maximal = g.distances().maximal
    adj = tuple(
        tuple(v for v in _bits(m & ~(1 << u)) if maximal[v] >> u & 1)
        for u, m in enumerate(maximal)
    )
    return Graph(g.labels, adj)


def strongly_resolves(dm: DistanceMatrix, w: int, u: int, v: int) -> bool:
    """w strongly resolves u,v: one of them lies on a geodesic from the other to w."""
    if u == v:
        raise GraphError("u and v must differ")
    d = dm.dist
    return d[u][w] == d[u][v] + d[v][w] or d[v][w] == d[v][u] + d[u][w]


def _is_set(dm: DistanceMatrix, witness_idx: Sequence[int], n: int, strong: bool) -> bool:
    """True iff some anchor (strongly) resolves every pair of vertices.

    The strong test is that of strongly_resolves, read from the anchors'
    distance rows: the matrix is symmetric, so row w holds d[u][w]. A pair
    with an endpoint w in the witness is resolved by w itself (module
    docstring), so only pairs of non-witness vertices are read.
    """
    d = dm.dist
    rows = [d[w] for w in witness_idx]
    inside = set(witness_idx)
    for u in range(n):
        if u in inside:
            continue
        du = d[u]
        for v in range(u + 1, n):
            if v in inside:
                continue
            duv = du[v]
            if strong:
                for r in rows:
                    if r[u] == duv + r[v] or r[v] == duv + r[u]:
                        break
                else:
                    return False
            else:
                for r in rows:
                    if r[u] != r[v]:
                        break
                else:
                    return False
    return True


def is_strong_resolving_set(g: Graph, witness: Iterable[str]) -> bool:
    return _is_set(g.distances(), [g.index(lb) for lb in witness], g.n, strong=True)


def is_resolving_set(g: Graph, witness: Iterable[str]) -> bool:
    return _is_set(g.distances(), [g.index(lb) for lb in witness], g.n, strong=False)


def strong_dimension(g: Graph) -> DimensionResult:
    """Strong dimension via the MMD-pair graph's minimum vertex cover."""
    cov = min_vertex_cover(strong_resolving_graph(g))
    if not is_strong_resolving_set(g, cov.cover):
        raise AssertionError("cover of the MMD graph failed the strong-resolving check")
    return DimensionResult(cov.size, cov.cover, "reduction")


def brute_force_dimension(g: Graph, mode: str = "strong") -> DimensionResult:
    """Smallest witness by subset enumeration (size, then label order); n <= ~12."""
    if mode not in ("metric", "strong"):
        raise GraphError(f"mode must be 'metric' or 'strong', got {mode!r}")
    require_connected(g)
    strong = mode == "strong"
    if g.n == 1:
        return DimensionResult(0, (), "brute_force")
    dm = all_pairs_distances(g)
    order = sorted(range(g.n), key=lambda u: g.labels[u])
    for size in range(1, g.n + 1):
        for combo in combinations(order, size):
            if _is_set(dm, combo, g.n, strong):
                return DimensionResult(
                    size, tuple(sorted(g.labels[u] for u in combo)), "brute_force"
                )
    raise AssertionError("the full vertex set always resolves a connected graph")

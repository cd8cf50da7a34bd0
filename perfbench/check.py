"""Independent certificate checks for the benchmark's outputs.

Stdlib only and deliberately separate from strongdim: edge lists are parsed
here, the induced supergraph of a placement is built from a cell index, and
distances come from this module's own BFS. A defect shared with
strongdim.embedding therefore cannot pass both.
"""

from __future__ import annotations

from collections import deque
from itertools import product


class CheckError(Exception):
    """An output broke its certificate or the workload's invariants."""


def parse_edges(text: str) -> dict[str, set[str]]:
    """Adjacency sets by label from "u v" lines; '#' lines are comments."""
    adj: dict[str, set[str]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        u, v = line.split()
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def bfs(adj: dict[str, set[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if v not in dist:
                dist[v] = du
                queue.append(v)
    return dist


def chebyshev(a, b) -> int:
    return max(abs(x - y) for x, y in zip(a, b))


def induced_adjacency(placement: dict[str, tuple[int, ...]]) -> dict[str, set[str]]:
    """Join two placed vertices exactly when their cells are Chebyshev-adjacent."""
    cell = {c: lb for lb, c in placement.items()}
    k = len(next(iter(cell)))
    offsets = [d for d in product((-1, 0, 1), repeat=k) if any(d)]
    adj = {}
    for c, lb in cell.items():
        near = (tuple(a + b for a, b in zip(c, d)) for d in offsets)
        adj[lb] = {cell[x] for x in near if x in cell}
    return adj


def check_embedding(graph: dict[str, set[str]], emb: dict, strong: bool) -> None:
    """Raise CheckError unless emb is an anchor-resolved embedding of graph.

    Clauses: the placement covers exactly the graph's vertices, inside the
    grid and injectively; every graph edge joins adjacent cells; every
    coordinate equals the induced-supergraph distance to its anchor; and, if
    strong, induced distances equal Chebyshev distances for every pair.
    """
    k, side, anchors = emb["k"], emb["side"], emb["anchors"]
    placement = {lb: tuple(c) for lb, c in emb["placement"].items()}
    if set(placement) != set(graph):
        raise CheckError("placement domain differs from the vertex set")
    if len(anchors) != k or any(w not in placement for w in anchors):
        raise CheckError(f"anchors {anchors} do not match k={k}")
    for lb, c in placement.items():
        if len(c) != k or any(not 0 <= x < side for x in c):
            raise CheckError(f"{lb} -> {c} lies outside the grid")
    if len(set(placement.values())) != len(placement):
        raise CheckError("two vertices share a cell")
    for u, nbrs in graph.items():
        for v in nbrs:
            if chebyshev(placement[u], placement[v]) != 1:
                raise CheckError(f"edge {u}-{v} does not join adjacent cells")
    h = induced_adjacency(placement)
    for i, w in enumerate(anchors):
        dist = bfs(h, w)
        for lb, c in placement.items():
            if dist.get(lb) != c[i]:
                raise CheckError(f"coordinate {i} of {lb} is {c[i]}, distance to {w} is {dist.get(lb)}")
    if strong:
        labels = sorted(placement)
        for i, u in enumerate(labels):
            dist = bfs(h, u)
            cu = placement[u]
            for v in labels[i + 1:]:
                if dist.get(v) != chebyshev(cu, placement[v]):
                    raise CheckError(f"d({u},{v}) is not the Chebyshev distance")


def check_strong_resolving(graph: dict[str, set[str]], witness) -> None:
    """Raise CheckError unless every vertex pair u, v has some w in witness
    with u on a shortest v-w path or v on a shortest u-w path."""
    labels = sorted(graph)
    if not witness or any(w not in graph for w in witness):
        raise CheckError("witness names a vertex outside the graph")
    from_w = {w: bfs(graph, w) for w in witness}
    if any(len(d) != len(labels) for d in from_w.values()):
        raise CheckError("graph is disconnected")
    for i, u in enumerate(labels):
        du = bfs(graph, u)
        for v in labels[i + 1:]:
            duv = du[v]
            if not any(d[u] == duv + d[v] or d[v] == duv + d[u] for d in from_w.values()):
                raise CheckError(f"no witness vertex strongly resolves {u} and {v}")

"""Embeddings into strong products of paths, and their certification.

A placement maps each vertex to a k-tuple over {0..side-1}. The induced
supergraph joins two placed vertices exactly when their tuples are at
Chebyshev distance 1; a placement is anchor-resolved when, for every vertex,
its i-th coordinate equals its induced-graph distance to the i-th anchor.
Certification operations return the first violated clause for testability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import repeat
from operator import add, sub
from typing import Callable, Iterator, Sequence

from .graph import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    GraphError,
    all_pairs_distances,
    bfs_from,
    require_connected,
)

Coord = tuple[int, ...]


class UnresolvedPairError(GraphError):
    """The anchor set fails to resolve the graph; carries one colliding pair."""

    def __init__(self, u: str, v: str):
        self.pair = (u, v)
        super().__init__(f"anchors do not resolve the graph: {u!r} and {v!r} collide")


@dataclass(frozen=True)
class Embedding:
    k: int
    side: int
    anchors: tuple[str, ...]
    placement: dict[str, Coord]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "side": self.side,
            "anchors": list(self.anchors),
            "placement": {lb: list(c) for lb, c in sorted(self.placement.items())},
        }

    @staticmethod
    def from_json(obj) -> "Embedding":
        """Inverse of to_json; raises GraphError when obj does not have its shape."""
        if not isinstance(obj, dict):
            raise GraphError("embedding JSON must be an object")
        missing = [key for key in ("k", "side", "anchors", "placement") if key not in obj]
        if missing:
            raise GraphError(f"embedding JSON lacks {missing[0]!r}")
        k, side, anchors, placement = obj["k"], obj["side"], obj["anchors"], obj["placement"]
        if type(k) is not int or type(side) is not int:
            raise GraphError("embedding 'k' and 'side' must be integers")
        if not isinstance(anchors, list) or not all(isinstance(w, str) for w in anchors):
            raise GraphError("embedding 'anchors' must be a list of labels")
        if not isinstance(placement, dict) or not all(
            isinstance(c, list) and all(type(x) is int for x in c) for c in placement.values()
        ):
            raise GraphError("embedding 'placement' must map labels to lists of integers")
        return Embedding(k, side, tuple(anchors), {lb: tuple(c) for lb, c in placement.items()})


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    clause: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def chebyshev(x: Sequence[int], y: Sequence[int]) -> int:
    """Max coordinate gap; the strong-product distance between tuples."""
    if len(x) != len(y):
        raise GraphError(f"tuple length mismatch: {len(x)} vs {len(y)}")
    return max((abs(a - b) for a, b in zip(x, y)), default=0)


class CellIndex:
    """Cells of Z^k in a trie of their coordinates, for strong-product adjacency.

    Two cells are adjacent in the strong product of paths when they are at
    Chebyshev distance 1. near() walks the trie one coordinate at a time and
    extends a prefix by -1, 0 or +1 only where an indexed cell has that
    prefix, so a query costs O(k * indexed cells) at worst, never 3^k.
    Each cell may carry several indices (duplicate cells).
    """

    def __init__(self) -> None:
        self.root: dict = {}  # depth < k: coordinate -> subtrie; depth k: index -> None

    def add(self, c: Coord, i: int) -> None:
        node = self.root
        for x in c:
            node = node.setdefault(x, {})
        node[i] = None

    def near(self, c: Coord) -> list[int]:
        """Indices of the cells at Chebyshev distance 1 from c (unordered)."""
        level, centre = [self.root], self.root  # centre: the subtrie of c's own prefix
        for x in c:
            nxt, ys = [], (x - 1, x, x + 1)
            for node in level:
                for y in ys:
                    child = node.get(y)
                    if child is not None:
                        nxt.append(child)
            level = nxt
            if centre is not None:
                centre = centre.get(x)
        return [i for node in level if node is not centre for i in node]


def chebyshev_adjacency(cells: Sequence[Coord]) -> list[list[int]]:
    """For each cell, the sorted indices of the cells at Chebyshev distance 1.

    Duplicate cells are kept (not adjacent to each other); cells of
    different lengths raise GraphError, as chebyshev does.
    """
    k = len(cells[0]) if cells else 0
    index = CellIndex()
    for i, c in enumerate(cells):
        if len(c) != k:
            raise GraphError(f"tuple length mismatch: {k} vs {len(c)}")
        index.add(c, i)
    return [sorted(index.near(c)) for c in cells]


def _chebyshev_row(cols: Sequence[Sequence[int]], c: Coord, start: int, n: int) -> list[int]:
    """Chebyshev distances from cell c to cells start..n-1, read off their coordinate columns."""
    gaps = [map(abs, map(sub, col[start:], repeat(x))) for col, x in zip(cols, c)]
    if len(gaps) > 1:
        return list(map(max, *gaps))
    if gaps:
        return list(gaps[0])
    return [0] * (n - start)  # k = 0: every cell is the empty tuple


def _gap_sums(xs: Sequence[int]) -> list[int]:
    """For each value of xs, the sum of its absolute gaps to all values of xs.

    One sort and a running prefix sum: a value at sorted rank r, with the
    values ranked before it summing to below, is total - 2*below + x*(2r - n).
    """
    n, total, below = len(xs), sum(xs), 0
    out = [0] * n
    for r, i in enumerate(sorted(range(n), key=xs.__getitem__)):
        x = xs[i]
        out[i] = total - 2 * below + x * (2 * r - n)
        below += x
    return out


def _chebyshev_sums(cols: Sequence[Sequence[int]], n: int) -> list[int] | None:
    """Each cell's sum of Chebyshev distances to all n cells, given their coordinate columns.

    O(n log n) for k <= 2: zeros for k = 0, the gap sums of the one column for
    k = 1, and for k = 2 half the gap sums along x+y plus those along x-y
    (max(|dx|, |dy|) = (|dx + dy| + |dx - dy|) / 2). None for k >= 3.
    """
    if not cols:
        return [0] * n
    if len(cols) == 1:
        return _gap_sums(cols[0])
    if len(cols) == 2:
        xs, ys = cols
        diag = _gap_sums(list(map(add, xs, ys)))
        anti = _gap_sums(list(map(sub, xs, ys)))
        return [(a + b) // 2 for a, b in zip(diag, anti)]
    return None


def isometry_mismatch(
    cells: Sequence[Coord], adj: Sequence[Sequence[int]]
) -> tuple[int, int, int, int] | None:
    """First pair whose graph distance in adj differs from its cells' Chebyshev distance.

    Pairs are taken i < j, by i and then j. Returns (i, j, graph distance,
    Chebyshev distance), the graph distance UNREACHABLE for split pairs, or
    None when the graph is isometric in the product. The cells share one
    length, as chebyshev_adjacency requires.

    Precondition: every edge of adj joins cells at Chebyshev distance at most
    1, as chebyshev_adjacency builds it.
    Graph distances are then never below Chebyshev distances, so for k <= 2
    a source's BFS row is right iff it reaches every cell and its sum equals
    the cell's Chebyshev sum. Each source costs one BFS; its Chebyshev row is built only
    for k >= 3 or when the sum test fails. The first source to fail has
    every earlier row right, so its first mismatch lies at some j > i.
    """
    n = len(cells)
    cols = [list(col) for col in zip(*cells)]
    sums = _chebyshev_sums(cols, n)
    for i in range(n - 1):
        dist = bfs_from(adj, i)
        if sums is not None and UNREACHABLE not in dist and sum(dist) == sums[i]:
            continue
        dist = dist[i + 1:]
        cheb = _chebyshev_row(cols, cells[i], i + 1, n)
        if dist != cheb:
            j = next(j for j, (d, x) in enumerate(zip(dist, cheb)) if d != x)
            return i, i + 1 + j, dist[j], cheb[j]
    return None


def induced_supergraph(e: Embedding, host: Graph) -> Graph:
    """Graph induced by the placement on host's labels."""
    adj = chebyshev_adjacency([e.placement[lb] for lb in host.labels])
    return Graph.from_edges(host.labels, [(u, v) for u in range(host.n) for v in adj[u] if u < v])


def distance_vector_embedding(h: Graph, anchors: Sequence[str],
                              dm: DistanceMatrix | None = None) -> Embedding:
    """Map each vertex to its vector of graph distances to the anchors.

    Raises UnresolvedPairError when two vertices get the same vector, i.e.
    the anchors do not resolve h. A caller that already holds h's distance
    matrix passes it as dm, which also vouches that h is connected.
    """
    if dm is None:
        require_connected(h)
        dm = all_pairs_distances(h)
    if not anchors:
        raise GraphError("at least one anchor is required")
    a_idx = [h.index(lb) for lb in anchors]
    placement = {
        h.labels[v]: tuple(dm.dist[w][v] for w in a_idx) for v in range(h.n)
    }
    seen: dict[Coord, str] = {}
    for lb in h.labels:
        c = placement[lb]
        if c in seen:
            raise UnresolvedPairError(seen[c], lb)
        seen[c] = lb
    return Embedding(len(anchors), dm.diameter + 1, tuple(anchors), placement)


def _induced_adjacency(e: Embedding) -> tuple[tuple[str, ...], list[Coord], list[list[int]]]:
    """The placed labels in sorted order, their cells, and the induced graph's adjacency."""
    labels = tuple(sorted(e.placement))
    cells = [e.placement[lb] for lb in labels]
    return labels, cells, chebyshev_adjacency(cells)


def _anchor_distance_rows(e: Embedding, labels: Sequence[str], adj: Sequence[Sequence[int]]):
    """BFS distances in the induced graph from each anchor, by label.

    adj is the induced adjacency of the cells of labels, in that order.
    Every anchor must be one of the labels.
    """
    index = {lb: i for i, lb in enumerate(labels)}
    return [bfs_from(adj, index[w]) for w in e.anchors], index


_Induced = Callable[[], tuple[tuple[str, ...], list[Coord], list[list[int]]]]


def is_w_resolved(e: Embedding, g: Graph, induced: _Induced | None = None) -> CheckResult:
    """Check the three clauses of an anchor-resolved embedding of g.

    (a) every edge of g maps to Chebyshev-adjacent tuples,
    (b) the placement is injective,
    (c) each coordinate equals the induced-supergraph distance to its anchor.
    The anchors must be k vertices of g, and the placed labels g's vertices.
    induced, when given, returns the induced graph as (sorted labels, their
    cells, adjacency); certify passes one that builds it once for both checks.
    """
    if len(e.anchors) != e.k:
        return CheckResult(False, "domain", f"{len(e.anchors)} anchors for k = {e.k}")
    missing = [lb for lb in g.labels if lb not in e.placement]
    if missing:
        return CheckResult(False, "domain", f"placement missing {missing[0]!r}")
    vertices = set(g.labels)
    for w in e.anchors:
        if w not in vertices:
            return CheckResult(False, "domain", f"anchor {w!r} is not a vertex of the graph")
    extra = [lb for lb in e.placement if lb not in vertices]
    if extra:
        return CheckResult(False, "domain", f"placed label {extra[0]!r} is not a vertex of the graph")
    for lb in g.labels:
        c = e.placement[lb]
        if len(c) != e.k or any(x < 0 or x >= e.side for x in c):
            return CheckResult(False, "range", f"{lb!r} -> {c} outside the grid")

    for u, v in g.edges():
        a, b = g.labels[u], g.labels[v]
        if chebyshev(e.placement[a], e.placement[b]) > 1:
            return CheckResult(False, "W-resolved(a)", f"edge {a!r}-{b!r} not adjacent in the product")

    seen: dict[Coord, str] = {}
    for lb in g.labels:
        c = e.placement[lb]
        if c in seen:
            return CheckResult(False, "W-resolved(b)", f"{seen[c]!r} and {lb!r} share cell {c}")
        seen[c] = lb

    labels, _, adj = induced() if induced is not None else _induced_adjacency(e)
    rows, index = _anchor_distance_rows(e, labels, adj)
    for i, w in enumerate(e.anchors):
        for lb in g.labels:
            want = e.placement[lb][i]
            got = rows[i][index[lb]]
            if got != want:
                return CheckResult(
                    False,
                    "W-resolved(c)",
                    f"coordinate {i} of {lb!r} is {want} but distance to {w!r} is {got}",
                )
    return CheckResult(True)


def is_isometric_in_product(e: Embedding, induced: _Induced | None = None) -> CheckResult:
    """True iff induced-graph distances equal Chebyshev distances for all pairs.

    induced is as for is_w_resolved.
    """
    labels, cells, adj = induced() if induced is not None else _induced_adjacency(e)
    bad = isometry_mismatch(cells, adj)
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


def certify(e: Embedding, g: Graph, strong: bool) -> CheckResult:
    """First failed clause of e as an embedding of g: W-resolved, and isometric when strong.

    The two checks share one induced graph, built when clause (c) first needs
    it, so a placement that fails an earlier clause never builds it.
    """
    induced = cache(partial(_induced_adjacency, e))
    res = is_w_resolved(e, g, induced)
    if res and strong:
        return is_isometric_in_product(e, induced)
    return res


def anchor_distances_collapse(e: Embedding) -> CheckResult:
    """Induced distance to each anchor must equal the Chebyshev distance to it."""
    for w in e.anchors:
        if w not in e.placement:
            return CheckResult(False, "domain", f"anchor {w!r} is not a placed label")
    labels, cells, adj = _induced_adjacency(e)
    rows, _ = _anchor_distance_rows(e, labels, adj)
    cols = [list(col) for col in zip(*cells)]
    for w, row in zip(e.anchors, rows):
        want = _chebyshev_row(cols, e.placement[w], 0, len(labels))
        if row != want:
            j = next(j for j, (d, x) in enumerate(zip(row, want)) if d != x)
            return CheckResult(
                False,
                "anchor-collapse",
                f"d({labels[j]!r},{w!r}) = {row[j]} but Chebyshev gap is {want[j]}",
            )
    return CheckResult(True)


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
        return (
            0 <= x <= self.D
            and 0 <= y <= self.D
            and x + y >= self.a
            and y - x <= self.a
            and x - y <= self.a
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        for x in range(self.D + 1):
            for y in range(self.D + 1):
                if self.contains(x, y):
                    yield (x, y)


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
    ds = dm.dist[s]
    dt = dm.dist[t]
    total = ds[t]
    counts = [0] * g.n
    counts[s] = 1
    for v in sorted(range(g.n), key=lambda v: ds[v]):
        if ds[v] + dt[v] != total or v == s:
            continue
        counts[v] = sum(counts[u] for u in g.adj[v] if ds[u] == ds[v] - 1 and ds[u] + dt[u] == total)
    if counts[t] != 1:
        return counts[t], None
    path = [t]
    cur = t
    while cur != s:
        cur = next(u for u in g.adj[cur] if ds[u] == ds[cur] - 1 and ds[u] + dt[u] == total and counts[u] > 0)
        path.append(cur)
    return 1, tuple(reversed(path))


def dim2_diagnostics(h: Graph, anchors: Sequence[str]) -> Dim2Report:
    """Run the two-anchor structure checks; anchors must resolve h."""
    if len(anchors) != 2:
        raise GraphError("dim2 diagnostics needs exactly two anchors")
    require_connected(h)
    dm = all_pairs_distances(h)
    distance_vector_embedding(h, anchors, dm=dm)  # raises UnresolvedPairError
    w = [h.index(lb) for lb in anchors]

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

    level_paths_ok = True
    level_size_ok = True
    up_down_ok = True
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
            if not _induces_disjoint_paths(h, members):
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


def _induces_disjoint_paths(g: Graph, members: list[int]) -> bool:
    """The induced subgraph is a disjoint union of paths (max degree 2, acyclic)."""
    pos = {v: i for i, v in enumerate(members)}
    adj = [[pos[x] for x in g.adj[v] if x in pos] for v in members]
    if any(len(nbrs) > 2 for nbrs in adj):
        return False
    # acyclic iff every component is a tree: edges = vertices - components
    unseen = set(range(len(adj)))
    components = 0
    while unseen:
        components += 1
        row = bfs_from(adj, min(unseen))
        unseen.difference_update(i for i, d in enumerate(row) if d != UNREACHABLE)
    return sum(map(len, adj)) // 2 == len(members) - components


def render_grid(e: Embedding) -> str:
    """ASCII grid for 2-coordinate embeddings: rows are y descending.

    Coordinates of another length are left out; certification reports them.
    """
    if e.k != 2:
        raise GraphError("grid rendering requires k=2")
    cells = {c: lb for lb, c in e.placement.items() if len(c) == 2}
    width = max((len(lb) for lb in e.placement), default=1)
    side = min(e.side, len(e.placement))  # certified coordinates are distances below n
    rows = []
    for y in range(side - 1, -1, -1):
        row = [cells.get((x, y), ".").rjust(width) for x in range(side)]
        rows.append(" ".join(row).rstrip())
    return "\n".join(rows)

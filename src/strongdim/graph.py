"""Simple undirected graphs with string labels, BFS metrics, and generators.

Vertices carry stable string labels externally and dense 0-based indices
internally; everything downstream (dimension solvers, embeddings, searches)
works on indices and reports labels. Graphs are immutable after construction;
a graph caches its label index and its distance matrix on first use, so the
solvers asked about one graph object share one all-pairs BFS.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

UNREACHABLE = -1


class GraphError(ValueError):
    """Domain error: bad family parameters, disconnected input, unknown label."""


class ParseError(GraphError):
    """Edge-list text that does not follow the format."""


class DisconnectedError(GraphError):
    """Raised by operations that require a connected graph; names a split pair."""

    def __init__(self, u: str, v: str):
        self.pair = (u, v)
        super().__init__(f"graph is disconnected: no path between {u!r} and {v!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    labels: vertex labels, index i <-> labels[i]
    adj: per-vertex sorted tuples of neighbour indices
    """

    labels: tuple[str, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def index(self, label: str) -> int:
        idx = getattr(self, "_index", None)
        if idx is None:
            idx = {lb: i for i, lb in enumerate(self.labels)}
            object.__setattr__(self, "_index", idx)
        try:
            return idx[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def distances(self) -> "DistanceMatrix":
        """The all-pairs distance matrix, computed on the first call and kept.

        Raises GraphError on the empty graph and DisconnectedError on a split
        one, naming the pair require_connected names (row 0 of the matrix is
        its BFS), so a matrix from here always belongs to a connected graph.
        """
        dm = getattr(self, "_distances", None)
        if dm is None:
            if self.n == 0:
                raise GraphError("empty graph")
            dm = all_pairs_distances(self)
            if UNREACHABLE in dm.dist[0]:
                raise DisconnectedError(self.labels[0], self.labels[dm.dist[0].index(UNREACHABLE)])
            object.__setattr__(self, "_distances", dm)
        return dm

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as index pairs (u < v), in index order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def label_edges(self) -> list[tuple[str, str]]:
        """Edges as label pairs, each sorted, the list sorted."""
        out = [tuple(sorted((self.labels[u], self.labels[v]))) for u, v in self.edges()]
        return sorted(out)

    @staticmethod
    def from_edges(labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> "Graph":
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise GraphError("duplicate vertex labels")
        nbrs: list[set[int]] = [set() for _ in labels]
        n = len(labels)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            if u == v:
                raise GraphError(f"self-loop at vertex {labels[u]!r}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(labels, tuple(tuple(sorted(s)) for s in nbrs))

    @staticmethod
    def from_label_edges(edges: Iterable[tuple[str, str]]) -> "Graph":
        """Build from label pairs; vertices appear in first-mention order."""
        order: list[str] = []
        seen: dict[str, int] = {}

        def idx(lb: str) -> int:
            if lb not in seen:
                seen[lb] = len(order)
                order.append(lb)
            return seen[lb]

        idx_edges = [(idx(a), idx(b)) for a, b in edges]
        return Graph.from_edges(order, idx_edges)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """A supergraph on the same labels with the extra index edges added."""
        return Graph.from_edges(self.labels, self.edges() + list(extra))

@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs BFS hop counts with derived eccentricities and diameter.

    dist[u][v] is UNREACHABLE (-1) for split pairs. Eccentricities and the
    diameter are taken over finite entries only; K1 has diameter 0.
    maximal[u] is the bitset of the vertices v of u's component that are
    maximally distant from u: no neighbour of v is farther from u than v.
    """

    dist: tuple[tuple[int, ...], ...]
    diameter: int
    eccentricities: tuple[int, ...]
    maximal: tuple[int, ...]


def bfs_from(adj: Sequence[Sequence[int]], source: int) -> list[int]:
    dist = [UNREACHABLE] * len(adj)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the list grows behind the loop: a FIFO queue without pops
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return dist


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """One BFS per source over neighbour bitmasks, a whole layer per step.

    Each vertex of the current layer gets its distance and ORs its
    neighbour mask into reach; the next layer is reach minus the vertices
    seen so far. A vertex of the previous layer that lies in reach has a
    neighbour one layer farther, so it is not maximally distant from the
    source. A source costs one mask OR per vertex and a few n-bit
    operations per layer, never a step per edge: K_400 takes tens of
    milliseconds, but a long path or cycle, one or two vertices per layer,
    runs up to about twice as slow as a BFS over adjacency lists.
    """
    n = g.n
    bit = [1 << v for v in range(n)]
    nbr = [sum(bit[w] for w in a) for a in g.adj]
    rows, eccs, maximal = [], [], []
    for s in range(n):
        row = [UNREACHABLE] * n
        seen = layer = bit[s]
        prev = inner = 0
        d = 0
        while layer:
            reach = 0
            m = layer
            while m:
                v = m.bit_length() - 1
                row[v] = d
                reach |= nbr[v]
                m ^= bit[v]
            inner |= prev & reach
            new = seen | reach
            prev, layer, seen = layer, new ^ seen, new
            d += 1
        rows.append(tuple(row))
        eccs.append(d - 1)
        maximal.append(seen & ~inner)
    return DistanceMatrix(tuple(rows), max(eccs, default=0), tuple(eccs), tuple(maximal))


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return bfs_from(g.adj, 0).count(UNREACHABLE) == 0


def require_connected(g: Graph) -> None:
    """Raise DisconnectedError naming one vertex from each of two components."""
    if g.n == 0:
        raise GraphError("empty graph")
    dist = bfs_from(g.adj, 0)
    for v, d in enumerate(dist):
        if d == UNREACHABLE:
            raise DisconnectedError(g.labels[0], g.labels[v])


def _refine_colors(g: Graph) -> list[int]:
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sig = [(colors[v], tuple(sorted(colors[u] for u in g.adj[v]))) for v in range(g.n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def isomorphisms(g: Graph, h: Graph) -> Iterator[tuple[int, ...]]:
    """Every isomorphism from g onto h, as the tuple of images of g's vertices.

    Colour refinement is canonical, so an isomorphism keeps each vertex's
    colour. g's vertices are mapped in BFS order, each component from its
    first vertex in colour order and each vertex's neighbours in colour
    order, so every vertex but a component's first has a mapped neighbour
    x. Its images are the free vertices of its colour next to x's image
    whose mapped neighbours are the images of its own: each of those is
    checked, and a count of mapped neighbours stands for the non-edges. A
    component's first vertex has no mapped neighbour, so it scans all of h
    for a free vertex of its colour with none either. Colour alone cannot
    tell C6 from two triangles; these checks can.
    """
    if g.n != h.n:
        return
    colors = _refine_colors(g)
    h_colors = colors if h is g else _refine_colors(h)
    if sorted(colors) != sorted(h_colors):
        return
    if g.n == 0:
        yield ()
        return
    h_adj = [set(a) for a in h.adj]
    key = [(c, v) for v, c in enumerate(colors)]
    order: list[int] = []
    seen = [False] * g.n
    for root in sorted(range(g.n), key=key.__getitem__):
        if seen[root]:
            continue
        seen[root] = True
        i = len(order)
        order.append(root)
        while i < len(order):  # order[i:] is the BFS queue
            for u in sorted(g.adj[order[i]], key=key.__getitem__):
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            i += 1
    depth = [0] * g.n
    for p, v in enumerate(order):
        depth[v] = p
    back = [[u for u in g.adj[v] if depth[u] < p] for p, v in enumerate(order)]
    image = [-1] * g.n
    used = [False] * g.n
    mapped = [0] * g.n  # per vertex of h, its neighbours that are images so far

    def images(p: int):
        """Lazily, each w that order[p] may map to given the images of order[:p]."""
        color, nbrs = colors[order[p]], back[p]
        for w in h.adj[image[nbrs[0]]] if nbrs else range(g.n):
            if (not used[w] and h_colors[w] == color and mapped[w] == len(nbrs)
                    and all(image[u] in h_adj[w] for u in nbrs)):
                yield w

    # One pending image iterator per depth, an explicit stack so that long
    # paths do not hit the recursion limit; depth p is assigned when
    # image[order[p]] != -1.
    stack = [images(0)]
    while stack:
        p = len(stack) - 1
        v = order[p]
        w = image[v]
        if w != -1:
            used[w] = False
            for z in h.adj[w]:
                mapped[z] -= 1
            image[v] = -1
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        image[v] = w
        used[w] = True
        for z in h.adj[w]:
            mapped[z] += 1
        if p + 1 < g.n:
            stack.append(images(p + 1))
            continue
        yield tuple(image)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" label pairs, one edge per line.

    Blank lines and lines starting with '#' are ignored. Duplicate edges
    collapse. Vertices keep first-appearance order.
    """
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels, got {len(tokens)}")
        u, v = tokens
        if u == v:
            raise ParseError(f"self-loop at line {lineno}")
        edges.append((u, v))
    return Graph.from_label_edges(edges)


def to_edge_list(g: Graph) -> str:
    """Canonical edge-list text: label pairs sorted within and across lines."""
    return "".join(f"{a} {b}\n" for a, b in g.label_edges())


def _canonical_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph.from_edges(_canonical_labels(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph.from_edges(_canonical_labels(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph.from_edges(_canonical_labels(n), list(combinations(range(n), 2)))


def star_graph(n: int) -> Graph:
    """K_{1,n}: center "0" plus n leaves."""
    if n < 1:
        raise GraphError("star needs n >= 1 leaves")
    return Graph.from_edges(_canonical_labels(n + 1), [(0, i) for i in range(1, n + 1)])


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("multipartite sizes must be non-empty positive")
    n = sum(sizes)
    block = []
    start = 0
    for s in sizes:
        block.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for i, bi in enumerate(block)
        for bj in block[i + 1 :]
        for u in bi
        for v in bj
    ]
    return Graph.from_edges(_canonical_labels(n), edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform labeled tree on n vertices via Prufer decoding."""
    if n < 1:
        raise GraphError("tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(_canonical_labels(1), [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(_canonical_labels(n), edges)


def generate(family: str, *, n: int | None = None, sizes: Sequence[int] | None = None,
             seed: int = 0) -> Graph:
    """Dispatch to the named standard family."""
    if family == "path":
        return path_graph(_need_n(family, n))
    if family == "cycle":
        return cycle_graph(_need_n(family, n))
    if family == "complete":
        return complete_graph(_need_n(family, n))
    if family == "star":
        return star_graph(_need_n(family, n))
    if family == "complete_multipartite":
        if sizes is None:
            raise GraphError("complete_multipartite needs sizes")
        return complete_multipartite_graph(sizes)
    if family == "random_tree":
        return random_tree(_need_n(family, n), seed)
    raise GraphError(f"unknown family {family!r}")


def _need_n(family: str, n: int | None) -> int:
    if n is None:
        raise GraphError(f"{family} needs n")
    return n


def leaves_of(g: Graph) -> list[int]:
    return [v for v in range(g.n) if g.degree(v) == 1]


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1

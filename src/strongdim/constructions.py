"""Generators and verifiers for the explicit construction families.

Covers: grid-region graphs whose strong resolving graph is a union of two
stars (optionally with extra connector edges), supergraph constructions that
realize logarithmic upper bounds for the threshold strong dimension, and
certified two-anchor embeddings for cycles, leaf-decorated paths, 4- and
5-leaf trees, and the chained corridor family separating the two threshold
invariants. Every embedding-producing operation certifies its output before
returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dimension import strong_resolving_graph
from .embedding import (
    CheckResult,
    Embedding,
    certify,
    chebyshev_adjacency,
)
from .graph import Graph, GraphError, bfs_from, cycle_graph, is_tree, isomorphisms, leaves_of


# ---------------------------------------------------------------------------
# two-star strong-resolving-graph realizations


@dataclass(frozen=True)
class StarPairSpec:
    """Target: two stars of m and n leaves, plus type-dependent connectors.

    type 1: the disjoint stars themselves
    type 2: plus an edge between the two centers
    type 3: plus a new vertex adjacent to both centers
    type 4: plus both the new vertex and the center-center edge
    """

    m: int
    n: int
    type: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise GraphError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.type not in (1, 2, 3, 4):
            raise GraphError(f"type must be 1..4, got {self.type}")


def _cell(x: int, y: int) -> str:
    return f"({x},{y})"


def _region_cells(m: int, n: int) -> set[tuple[int, int]]:
    e = 1 if (n - m) % 2 == 0 else 0
    y_top = (3 * n - m) // 2 + 1
    return {
        (x, y)
        for x in range(n + e + 1)
        for y in range(y_top + 1)
        if n <= x + y <= 2 * n + e and abs(x - y) <= n
    }


def _grid_graph(cells: set[tuple[int, int]], leaves_at: list[tuple[int, int]]) -> Graph:
    cl = sorted(cells)
    leaf_labels = [f"leaf@{_cell(x, y)}" for x, y in leaves_at]
    order = [_cell(x, y) for x, y in cl] + leaf_labels
    index = {lb: i for i, lb in enumerate(order)}
    edges = [(i, j) for i, nbrs in enumerate(chebyshev_adjacency(cl)) for j in nbrs if i < j]
    for host, leaf in zip(leaves_at, leaf_labels):
        edges.append((index[_cell(*host)], index[leaf]))
    return Graph.from_edges(order, edges)


def type_graph(spec: StarPairSpec) -> Graph:
    """A graph whose strong resolving graph matches the requested target."""
    m, n = spec.m, spec.n
    cells = _region_cells(m, n)
    same = (n - m) % 2 == 0
    if spec.type in (3, 4):
        cells = cells | {((n + m) // 2 + 1, (3 * n - m) // 2 + 1)}
    leaves_at: list[tuple[int, int]] = []
    if spec.type == 2:
        leaves_at = [(0, n), (n, 0)] if same else [(0, n)]
    elif spec.type == 4:
        leaves_at = [(0, n), (n, 0)]
    return _grid_graph(cells, leaves_at)


def _target_graph(spec: StarPairSpec) -> Graph:
    """The two stars of spec, plus the center-center edge and/or middle vertex of its type."""
    edges = [("c1", f"a{i}") for i in range(spec.m)] + [("c2", f"b{i}") for i in range(spec.n)]
    if spec.type in (2, 4):
        edges.append(("c1", "c2"))
    if spec.type in (3, 4):
        edges += [("mid", "c1"), ("mid", "c2")]
    return Graph.from_label_edges(edges)


def verify_type_sr(g: Graph, spec: StarPairSpec) -> CheckResult:
    """Match g's strong resolving graph, less its isolated vertices, with the target.

    They match when some isomorphism maps one onto the other. A mismatch is
    clause size when the vertex or edge counts differ, else clause shape.
    """
    target = _target_graph(spec)
    sr = strong_resolving_graph(g)
    core = Graph.from_label_edges((sr.labels[u], sr.labels[v]) for u, v in sr.edges())
    if (core.n, core.m) != (target.n, target.m):
        return CheckResult(False, "size", f"{core.n} vertices / {core.m} edges, "
                                          f"the target has {target.n} / {target.m}")
    if next(isomorphisms(core, target), None) is None:
        return CheckResult(False, "shape", "not isomorphic to the target")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# log-bound supergraph constructions


@dataclass(frozen=True)
class ProperColoring:
    classes: tuple[tuple[str, ...], ...]  # sorted by size, each sorted by label


def greedy_coloring(g: Graph) -> ProperColoring:
    """First-fit coloring in label order; deterministic."""
    order = sorted(range(g.n), key=lambda v: g.labels[v])
    color: dict[int, int] = {}
    for v in order:
        taken = {color[u] for u in g.adj[v] if u in color}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    k = max(color.values()) + 1 if color else 0
    classes = [
        tuple(sorted(g.labels[v] for v in range(g.n) if color[v] == c)) for c in range(k)
    ]
    classes.sort(key=lambda cl: (len(cl), cl))
    return ProperColoring(tuple(classes))


def _check_proper(g: Graph, coloring: ProperColoring) -> None:
    seen: list[str] = []
    for cl in coloring.classes:
        seen.extend(cl)
        idx = [g.index(lb) for lb in cl]
        for a, b in combinations(idx, 2):
            if g.has_edge(a, b):
                raise GraphError(
                    f"coloring is not proper: {g.labels[a]!r} and {g.labels[b]!r} share a class"
                )
    if sorted(seen) != sorted(g.labels):
        raise GraphError("coloring classes do not partition the vertex set")


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _subsets_in_counter_order(ws: list[str]):
    for cnt in range(1 << len(ws)):
        yield frozenset(ws[t] for t in range(len(ws)) if cnt >> t & 1)


def chromatic_bound_supergraph(g: Graph, coloring: ProperColoring) -> tuple[Graph, int]:
    """Complete the coloring to a multipartite graph and pin distinct
    sub-neighbourhoods of a small selector set inside each class.

    Returns the supergraph H and the bound max(l-1, 0) + sum ceil(log2 |Vi|)
    over non-singleton classes, where l counts singleton classes; the strong
    dimension of H equals the bound.
    """
    _check_proper(g, coloring)
    classes = sorted(coloring.classes, key=lambda cl: (len(cl), cl))
    ell = sum(1 for cl in classes if len(cl) == 1)
    ix = g.index
    extra = [
        (ix(a), ix(b))
        for ci, cl in enumerate(classes)
        for other in classes[ci + 1 :]
        for a in cl
        for b in other
    ]

    bound = max(ell - 1, 0)
    for cl in classes:
        if len(cl) == 1:
            continue
        ws = list(cl[: _ceil_log2(len(cl))])
        bound += len(ws)
        others = [lb for lb in cl if lb not in ws]
        # len(others) < 2**len(ws), so the counter stops before the full selector set
        for v, s in zip(others, _subsets_in_counter_order(ws)):
            extra += [(ix(v), ix(w)) for w in s]
        extra += [(ix(a), ix(b)) for a, b in combinations(others, 2)]
    return g.with_edges(extra), bound


def tree_bound_supergraph(t: Graph) -> tuple[Graph, int]:
    """Supergraph of a tree whose strong dimension is ceil(log2 n).

    When the tree has fewer leaves than that, the tree itself already
    witnesses the smaller value leaf_count - 1 and is returned unchanged.
    """
    if not is_tree(t):
        raise GraphError("input is not a tree")
    n = t.n
    if n < 2:
        raise GraphError("need at least 2 vertices")
    leaf_labels = sorted(t.labels[v] for v in leaves_of(t))
    b = _ceil_log2(n)
    if len(leaf_labels) < b:
        return t, len(leaf_labels) - 1
    if n == 3:
        # the literal construction returns the 3-path itself, whose strong
        # dimension is 1; the triangle is the matching witness for bound 2
        return t.with_edges(combinations(range(3), 2)), 2

    ws = leaf_labels[:b]
    wset = frozenset(ws)
    ix = t.index
    others = sorted(lb for lb in t.labels if lb not in wset)
    reserved: dict[str, frozenset[str]] = {}
    for v in others:
        s = frozenset(t.labels[u] for u in t.adj[ix(v)] if t.labels[u] in wset)
        if s:
            reserved[v] = s

    assigned = dict(reserved)
    free = [v for v in others if v not in reserved]
    if wset not in reserved.values():
        if free:
            assigned[free[0]] = wset
            free = free[1:]
        else:
            # no vertex can take the full selector set as stated; widening one
            # reserved neighbourhood only adds edges and restores the bound
            promoted = min(reserved, key=lambda v: (-len(reserved[v]), v))
            assigned[promoted] = wset

    used = set(assigned.values())
    pool = iter(_subsets_in_counter_order(list(ws)))
    for v in free:
        s = next(pool)
        while s in used:
            s = next(pool)
        assigned[v] = s
        used.add(s)

    extra = [(ix(v), ix(w)) for v, s in assigned.items() for w in s]
    extra += [(ix(a), ix(b2)) for a, b2 in combinations(others, 2)]
    return t.with_edges(extra), b


# ---------------------------------------------------------------------------
# 4- and 5-leaf trees with two-anchor embeddings


@dataclass(frozen=True)
class FourLeafTreeParams:
    """Segment lengths: central path k1, legs k2/k3 at one end, k4/k5 at the
    other; normalized so k2 >= k3 and k4 >= k5."""

    k1: int
    k2: int
    k3: int
    k4: int
    k5: int

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3, self.k4, self.k5) < 1:
            raise GraphError("all segment lengths must be >= 1")


@dataclass(frozen=True)
class FiveLeafTreeParams:
    k1: int
    k2: int
    k3: int
    k4: int
    k5: int
    k6: int
    k7: int

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3, self.k4, self.k5, self.k6, self.k7) < 1:
            raise GraphError("all segment lengths must be >= 1")
        if self.k7 > self.k1:
            raise GraphError("the extra path must attach on the central path (k7 <= k1)")

    def base(self) -> FourLeafTreeParams:
        return FourLeafTreeParams(self.k1, self.k2, self.k3, self.k4, self.k5)


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def four_leaf_tree(p: FourLeafTreeParams) -> Graph:
    vs = _names("v", p.k1)
    us, xs = _names("u", p.k2), _names("x", p.k3)
    ys, zs = _names("y", p.k4), _names("z", p.k5)
    edges: list[tuple[str, str]] = []
    for chain in (vs, us, xs, ys, zs):
        edges.extend(zip(chain, chain[1:]))
    edges += [(vs[0], ys[0]), (vs[0], zs[0]), (vs[-1], us[0]), (vs[-1], xs[0])]
    return Graph.from_label_edges(edges)


def five_leaf_tree(p: FiveLeafTreeParams) -> Graph:
    base = four_leaf_tree(p.base())
    ts = _names("t", p.k6)
    edges = [(base.labels[u], base.labels[v]) for u, v in base.edges()]
    edges.extend(zip(ts, ts[1:]))
    edges.append((f"v{p.k7}", ts[0]))
    return Graph.from_label_edges(edges)


def _require_normalized(p: FourLeafTreeParams) -> None:
    if p.k2 < p.k3 or p.k4 < p.k5:
        raise GraphError("params must be normalized: k2 >= k3 and k4 >= k5")


def _four_leaf_placement(p: FourLeafTreeParams) -> tuple[dict[str, tuple[int, int]], int]:
    """Two-diagonal placement; returns (placement, k) with anchors at (0,k),(k,0)."""
    k1, k2, k3, k4, k5 = p.k1, p.k2, p.k3, p.k4, p.k5
    k = (k1 + 1 + 1) // 2 + k2 + k4 - 1  # ceil((k1+1)/2) + k2 + k4 - 1
    ys = [f"y{i}" for i in range(k4, 0, -1)]
    zs = [f"z{i}" for i in range(k5, 0, -1)]
    us = _names("u", k2)
    xs = _names("x", k3)
    if k1 % 2 == 1:
        v_main = [f"v{i}" for i in range(1, k1 + 1, 2)]
        v_off = [f"v{i}" for i in range(2, k1, 2)]
    else:
        v_main = [f"v{i}" for i in range(1, k1, 2)] + [f"v{k1}"]
        v_off = [f"v{i}" for i in range(2, k1 - 1, 2)]
    diag1 = ys + v_main + us
    diag2 = zs + v_off + xs
    assert len(diag1) == k + 1, (p, len(diag1), k)
    placement = {lb: (i, k - i) for i, lb in enumerate(diag1)}
    x0 = k4 - k5 + 1
    for j, lb in enumerate(diag2):
        placement[lb] = (x0 + j, k + 1 - (x0 + j))
    return placement, k


def _certified(emb: Embedding, host: Graph) -> Embedding:
    res = certify(emb, host, strong=True)
    if not res:
        raise AssertionError(f"embedding failed certification: {res.clause}: {res.detail}")
    return emb


def tree_dim3_embedding(p: FourLeafTreeParams) -> Embedding:
    """Certified two-anchor embedding of the 4-leaf tree along two diagonals."""
    _require_normalized(p)
    placement, k = _four_leaf_placement(p)
    side = max(max(c) for c in placement.values()) + 1
    emb = Embedding(2, side, (f"y{p.k4}", f"u{p.k2}"), placement)
    return _certified(emb, four_leaf_tree(p))


def tree_dim4_embedding(p: FiveLeafTreeParams) -> Embedding:
    """Certified embedding of the 5-leaf tree: 4-leaf base plus the extra
    path along the rising diagonal through its attachment vertex."""
    _require_normalized(p.base())
    placement, k = _four_leaf_placement(p.base())
    vx, vy = placement[f"v{p.k7}"]
    for j in range(1, p.k6 + 1):
        placement[f"t{j}"] = (vx + j, vy + j)
    side = max(max(c) for c in placement.values()) + 1
    emb = Embedding(2, side, (f"y{p.k4}", f"u{p.k2}"), placement)
    return _certified(emb, five_leaf_tree(p))


def _tree_path(t: Graph, a: int, b: int) -> list[int]:
    dist = bfs_from(t.adj, a)
    path = [b]
    cur = b
    while cur != a:
        cur = next(x for x in t.adj[cur] if dist[x] == dist[cur] - 1)
        path.append(cur)
    return list(reversed(path))


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
        path, ux, yz = _tree_path(t, v1, vk), pairs[vk], pairs[v1]
    if extra is None:
        return FourLeafTreeParams(len(path), *ux, *yz)
    return FiveLeafTreeParams(len(path), *ux, *yz, extra[0], path.index(host) + 1)


# ---------------------------------------------------------------------------
# cycles, leaf-decorated paths, chained corridors


def cycle_embedding(n: int) -> Embedding:
    """Certified two-anchor embedding of the n-cycle on two anti-diagonals."""
    if n < 4:
        raise GraphError("need n >= 4 (the triangle is complete)")
    g = cycle_graph(n)
    if n % 2 == 1:
        a = (n - 1) // 2
        side = a + 1
    else:
        a = (n - 2) // 2
        side = a + 2
    placement: dict[str, tuple[int, int]] = {}
    for i in range(a + 1):
        placement[str(i)] = (i, a - i)
    for j in range(1, a + 1):
        placement[str(a + j)] = (a + 1 - j, j)
    if n % 2 == 0:
        placement[str(n - 1)] = (1, a + 1)
    emb = Embedding(2, side, ("0", str(a)), placement)
    return _certified(emb, g)


def l3n_family(n: int) -> tuple[Graph, Embedding]:
    """Path of n spine vertices with two leaves each, embedded on three
    rising diagonals; certified."""
    if n < 2:
        raise GraphError("need n >= 2")
    vs, us, ws = _names("v", n), _names("u", n), _names("w", n)
    edges = list(zip(vs, vs[1:]))
    edges += [(vs[i], us[i]) for i in range(n)]
    edges += [(vs[i], ws[i]) for i in range(n)]
    g = Graph.from_label_edges(edges)
    placement: dict[str, tuple[int, int]] = {}
    for i in range(1, n + 1):
        placement[f"v{i}"] = (i, i)
        placement[f"u{i}"] = (i - 1, i)
        placement[f"w{i}"] = (i, i - 1)
    emb = Embedding(2, n + 1, ("u1", "w1"), placement)
    return g, _certified(emb, g)


_G1_CELLS: dict[str, tuple[int, int]] = {
    "w1": (0, 5),
    "a1": (1, 4), "a2": (1, 5), "a3": (1, 6),
    "b1": (2, 3), "b2": (2, 4), "b3": (2, 5), "b4": (2, 6),
    "c1": (3, 2), "c2": (3, 3), "c3": (3, 4), "c4": (3, 5), "c5": (3, 6),
    "d1": (4, 1), "d2": (4, 2), "d3": (4, 3),
    "e1": (5, 1), "e2": (5, 2), "e3": (5, 3),
    "f1": (6, 1), "f2": (6, 2), "f3": (6, 3),
    "w2": (5, 0),
}


def g1_placement(copy: int = 1) -> dict[str, tuple[int, int]]:
    """Grid cells of the 23-vertex corridor fixture (labels suffixed _copy)."""
    return {f"{name}_{copy}": cell for name, cell in _G1_CELLS.items()}


def _g1_edges() -> list[tuple[str, str]]:
    names = sorted(_G1_CELLS)
    adj = chebyshev_adjacency([_G1_CELLS[a] for a in names])
    return [(names[i], names[j]) for i, nbrs in enumerate(adj) for j in nbrs if i < j]


def gn_family(n: int) -> Graph:
    """Chain of corridor blocks: consecutive copies share two vertices and
    gain two extra edges. Copy i's labels carry the suffix _i; the shared
    vertices keep the earlier copy's label."""
    if n < 1:
        raise GraphError("need n >= 1")
    base_edges = _g1_edges()

    def name(v: str, i: int) -> str:
        if i > 1 and v == "w1":
            return f"w2_{i - 1}"
        if i > 1 and v == "a3":
            return f"f1_{i - 1}"
        return f"{v}_{i}"

    edges: list[tuple[str, str]] = []
    for i in range(1, n + 1):
        edges.extend((name(a, i), name(b, i)) for a, b in base_edges)
        if i > 1:
            edges.append((f"f2_{i - 1}", f"b4_{i}"))
            edges.append((f"e1_{i - 1}", f"a2_{i}"))
    return Graph.from_label_edges(edges)

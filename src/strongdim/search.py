"""Placement search for threshold (strong) dimension.

Whether some supergraph of g on the same vertex set is (strongly) resolved
by a given anchor set W is a finite question: the supergraph is determined
by an injective placement of V(g) into the grid {0..side-1}^|W|, where each
vertex's i-th coordinate must equal its distance to the i-th anchor in the
graph the placement induces (Chebyshev-adjacency), and g's edges must map
to adjacent cells. In the strong mode the induced graph must additionally
be isometric in the product. The DFS below enumerates placements with sound
interval prunes and verifies candidates exactly at the leaves, so "no" is a
certificate; running out of node budget is a distinct outcome. The anchors
are placed first. Once some are placed, whether a cell's Chebyshev gap to
each placed anchor's cell equals its own coordinate for that anchor depends
on the cell alone, so that test is memoised per placement of the anchors
so far (the "shell") instead of repeated per node. Every placed cell passes
it, and adjacent cells are one Chebyshev step apart, so no partial placement
puts a vertex nearer an anchor than its coordinate: the anchor distances
can only go wrong upward, and are checked once per complete placement by a
BFS from each anchor.

Threshold dimensions iterate the anchor-set size k upward, refuting every
set of size k before accepting k+1. Anchor sets are grouped into orbits
under graph automorphisms so a refuted orbit is searched once; outcomes and
counters do not depend on the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, islice, product
from operator import lt, sub

from .constructions import gn_family
from .dimension import is_resolving_set, is_strong_resolving_set, strong_dimension
from .embedding import (
    CellIndex,
    Embedding,
    certify,
    chebyshev_adjacency,
    distance_vector_embedding,
    feasible_region,
    isometry_mismatch,
)
from .graph import (
    DistanceMatrix,
    Graph,
    GraphError,
    all_pairs_distances,
    bfs_from,
    isomorphisms,
    require_connected,
)

MODE_RESOLVED = "resolved"
MODE_STRONG = "strongly_resolved"
_AUTOMORPHISM_CAP = 20000


@dataclass(frozen=True)
class PlacementSearchConfig:
    mode: str = MODE_STRONG
    max_side: int | None = None  # default diam(g)+1 at call time
    node_budget: int = 10_000_000
    symmetry_pruning: bool = True
    jobs: int = 1

    def __post_init__(self):
        if self.node_budget <= 0:
            raise GraphError("node_budget must be positive")
        if self.jobs < 1:
            raise GraphError(f"jobs must be at least 1, got {self.jobs}")
        if self.max_side is not None and self.max_side < 1:
            raise GraphError(f"max_side must be at least 1, got {self.max_side}")
        if self.mode not in (MODE_RESOLVED, MODE_STRONG):
            raise GraphError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "yes" | "no" | "budget_exhausted"
    embedding: Embedding | None
    nodes: int


@dataclass(frozen=True)
class ThresholdResult:
    status: str  # "exact" | "bounds"
    value: int | None
    bounds: tuple[int, int] | None
    witness_W: tuple[str, ...] | None
    embedding: Embedding | None
    stats: dict

    def to_json(self) -> dict:
        if self.status == "exact":
            value: object = self.value
        else:
            value = {"lo": self.bounds[0], "hi": self.bounds[1]}
        return {
            "status": self.status,
            "value": value,
            "witness_W": list(self.witness_W) if self.witness_W is not None else None,
            "embedding": self.embedding.to_json() if self.embedding else None,
            "stats": self.stats,
        }


# ---------------------------------------------------------------------------
# automorphisms (used only to skip orbit-mates of refuted anchor sets)


def graph_automorphisms(g: Graph) -> list[tuple[int, ...]] | None:
    """All automorphisms as index permutations, or None when more than _AUTOMORPHISM_CAP."""
    auts = list(islice(isomorphisms(g, g), _AUTOMORPHISM_CAP + 1))
    return auts if len(auts) <= _AUTOMORPHISM_CAP else None


def _canonical_set(W: tuple[int, ...], auts: list[tuple[int, ...]]) -> tuple[int, ...]:
    return min(tuple(sorted(p[w] for w in W)) for p in auts)


# ---------------------------------------------------------------------------
# the placement DFS


class _Shell(dict):
    """The anchor-gap test against the anchors placed so far, memoised per cell.

    A vertex's induced distance to anchor j is its coordinate j, and it must
    coincide with the Chebyshev gap between its cell and anchor j's cell.
    With anchors 0..len(anchor_cells)-1 placed this depends on the cell
    alone: shell[c] is whether c passes it for each of them, computed on
    first lookup.
    """

    def __init__(self, anchor_cells: list[tuple[int, ...]]):
        super().__init__()
        self.anchor_cells = anchor_cells

    def __missing__(self, c: tuple[int, ...]) -> bool:
        inside = self[c] = all(
            max(map(abs, map(sub, c, cw))) == x for cw, x in zip(self.anchor_cells, c)
        )
        return inside


@lru_cache(maxsize=64)  # per process, so --jobs workers reuse it too
def _region_cap(side: int, a: int) -> dict[tuple[int, ...], int]:
    """Each cell of the two-anchor feasible region for anchor distance a, with its
    neighbour count there, which bounds the degree of a vertex placed in it. With the
    anchors at (0, a) and (a, 0) the region is the DFS's anchor-gap shell."""
    cells = list(feasible_region(side - 1, a).cells())
    return {c: len(nbrs) for c, nbrs in zip(cells, chebyshev_adjacency(cells))}


@dataclass(frozen=True)
class _Dim2Prune:
    """The two-anchor prunes of one DFS, from both anchor cells onward.

    Candidate cells must have room for the vertex's degree (the DFS's shell
    already keeps them in the region). Every interior cell of the diagonal
    between the anchors ends up occupied (the anchors need a geodesic), so a
    free one needs a filler below the current depth; the vertex order is
    fixed, so that is one comparison per cell, with nothing to undo.
    """

    cap: dict[tuple[int, ...], int]
    last: dict[tuple[int, ...], int]  # interior diagonal cell -> deepest depth that could fill it

    @classmethod
    def open(cls, ctx: _SearchContext, anchors: list[int], rest: list[int], side: int,
             cells: tuple[tuple[int, ...], ...]) -> _Dim2Prune | None:
        """The prunes for anchors placed at cells, or None when these already fail."""
        g, dG = ctx.g, ctx.dm.dist
        a = cells[0][1]
        cap = _region_cap(side, a)
        if any(cap[c] < g.degree(w) for c, w in zip(cells, anchors)):
            return None
        w0, w1 = anchors
        diag = [(t, a - t) for t in range(1, a)]
        last = {  # rest follows the anchors in DFS order, so the deepest filler is kept
            r: p for p, v in enumerate(rest, 2) for r in diag
            if r[0] <= dG[v][w0] and r[1] <= dG[v][w1] and cap[r] >= g.degree(v)
        }
        return cls(cap, last) if len(last) == len(diag) else None  # else a cell has no filler

    def allows(self, p: int, used: set[tuple[int, ...]], n: int) -> bool:
        """Whether the n - 1 - p vertices below depth p can fill each free diagonal cell."""
        free = [q for r, q in self.last.items() if r not in used]
        return len(free) < n - p and all(q > p for q in free)


class _SearchContext:
    """Per-graph data shared by every anchor-set search on one connected graph.

    shadows caches the W_xv masks that _bounding_set reads, per process.
    """

    def __init__(self, g: Graph, dm: DistanceMatrix):
        self.g = g
        self.dm = dm
        self.shadows = _Shadows(dm.dist)

    def __getstate__(self):
        # A pool pickles tasks in a feeder thread while the parent's own searches
        # fill the cache, so no cache is sent: each worker fills its own.
        return {**self.__dict__, "shadows": _Shadows(self.dm.dist)}


class _Shadows(dict):
    """shadows[v, x], for a G-edge (v, x): the Djokovic-Winkler set
    W_xv = {u : d(x, u) < d(v, u)} less x itself, as a bitmask.

    x lies on a v-u geodesic for every u in it. Built on first lookup, so
    there is at most one mask per directed edge.
    """

    def __init__(self, dist: tuple[tuple[int, ...], ...]):
        super().__init__()
        self.dist = dist

    def __missing__(self, key: tuple[int, int]) -> int:
        v, x = key
        bits = bytes(map(lt, self.dist[x], self.dist[v]))[::-1].translate(_BIT_DIGITS)
        mask = self[key] = int(bits, 2) & ~(1 << x)  # bits holds vertex 0 last
        return mask


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bounding_set(ctx: _SearchContext, v: int, placed: int) -> list[int]:
    """The placed vertices (bitmask placed) whose gap constraints bound v's box.

    A placed u is left out when a placed G-neighbour x of v shadows it:
    d(x, u) = d(v, u) - 1, so with |c_v - c_x| <= 1 and |c_x - c_u| <= d(x, u)
    (every placed pair already meets its constraint) x's interval for v lies
    inside u's. The box is the same; no placed neighbour is ever left out.
    """
    shadows = ctx.shadows
    shadowed = 0
    for x in ctx.g.adj[v]:
        if placed >> x & 1:
            shadowed |= shadows[v, x]
    out = []
    rest = placed & ~shadowed
    while rest:  # from the top bit down: cheaper on long masks than lowest-bit tricks
        u = rest.bit_length() - 1
        out.append(u)
        rest ^= 1 << u
    return out


def _prepare(g: Graph) -> _SearchContext:
    require_connected(g)
    return _SearchContext(g, all_pairs_distances(g))


def _try_fast_path(ctx: _SearchContext, anchors: list[str], mode: str) -> Embedding | None:
    """If W, a nonempty set of g's labels, already (strongly) resolves g itself,
    its distance vectors work; None when it does not."""
    g, dm = ctx.g, ctx.dm
    resolves = is_resolving_set if mode == MODE_RESOLVED else is_strong_resolving_set
    if not resolves(g, anchors, dm):
        return None
    emb = distance_vector_embedding(g, anchors, dm=dm)
    check = certify(emb, g, mode == MODE_STRONG)  # independent of the resolving test
    if not check:
        raise AssertionError(f"fast path embedding fails {check.clause}: {check.detail}")
    return emb


def _run_search(
    ctx: _SearchContext, anchor_labels: list[str], cfg: PlacementSearchConfig, dim2_prunes: bool
) -> SearchOutcome:
    """Place the vertices one at a time, anchors first, each in a cell that can still work.

    A vertex's candidates are the free cells of its interval box (its graph
    distances to the placed vertices bound each coordinate) that pass the
    anchor-gap test, nearest first to its graph-distance vector. The box is
    cut only by the placed vertices of the depth's _bounding_set, whose
    bounds imply the others'; the order is fixed, so each depth computes its
    set once. Each time an anchor is placed, a fresh _Shell over the anchors
    placed so far memoises the test per cell for the vertex below it, and
    after the last anchor for every vertex below; no shell outlives the call.
    An anchor's coordinate for a placed anchor is pinned to that anchor's
    coordinate for it, as induced distances are symmetric. Placing a vertex
    joins it to the placed subgraph. The shell keeps every placed cell at
    Chebyshev gap c[i] from anchor i's cell, so no placed subgraph, whose
    edges are single Chebyshev steps, brings a vertex nearer an anchor than
    its coordinate; a complete placement is checked exactly, by a BFS from
    each anchor and, in the strong mode, the isometry check. dim2_prunes adds
    the two-anchor prunes when k == 2.
    """
    g, dm = ctx.g, ctx.dm
    mode = cfg.mode
    if len(set(anchor_labels)) != len(anchor_labels):
        raise GraphError("anchor labels must be distinct")
    anchors = [g.index(lb) for lb in anchor_labels]  # an unknown label raises before any "no"
    k = len(anchors)
    n = g.n
    if k == 0:
        if n == 1:
            return SearchOutcome("yes", Embedding(0, 1, (), {g.labels[0]: ()}), 0)
        return SearchOutcome("no", None, 0)

    D = dm.diameter
    side = cfg.max_side if cfg.max_side is not None else D + 1

    if side >= D + 1:
        fast = _try_fast_path(ctx, anchor_labels, mode)
        if fast is not None:
            return SearchOutcome("yes", fast, 0)
    if side**k < n:
        return SearchOutcome("no", None, 0)

    dim2_prunes = dim2_prunes and k == 2  # the prunes hold for two anchors only
    if dim2_prunes and any(g.degree(w) > 3 for w in anchors):
        return SearchOutcome("no", None, 0)

    dG = dm.dist
    in_anchor = {v: i for i, v in enumerate(anchors)}
    root = dG[anchors[0]]
    rest = sorted((v for v in range(n) if v not in in_anchor), key=lambda v: (root[v], v))
    order = anchors + rest

    coords: list[tuple[int, ...] | None] = [None] * n
    used: set[tuple[int, ...]] = set()
    occupied = CellIndex()  # placed vertices by cell
    hadj: list[list[int]] = [[] for _ in range(n)]  # placed-subgraph adjacency
    shell = _Shell([])  # of the anchors placed so far: none yet
    statics: list = [None] * n  # per depth, built on its first visit, in depth order
    before = [0]  # bitmask of the vertices placed above each depth built so far

    def static(p: int):
        """Depth p's fixed data: each coordinate's anchor bounds (None when pinned),
        the bounding vertices with their G-distances to v, and deg(v)."""
        v = order[p]
        row_v = dG[v]
        slot = in_anchor.get(v)
        inits = [
            (0, 0) if v == w
            else None if slot is not None and i < slot  # that anchor is placed
            else (1, min(row_v[w], side - 1))
            for i, w in enumerate(anchors)
        ]
        before.append(before[p] | 1 << v)
        bounding = [(u, row_v[u]) for u in _bounding_set(ctx, v, before[p])]
        statics[p] = data = (slot, inits, bounding, g.degree(v))
        return data

    def candidates(p: int, dim2: _Dim2Prune | None) -> list[tuple[int, ...]]:
        slot, inits, bounding, deg_v = statics[p] or static(p)
        lows, highs = [], []
        for i in range(k):
            lohi = inits[i]
            if lohi is None:
                lo = hi = coords[anchors[i]][slot]  # induced anchor distances are symmetric
            else:
                lo, hi = lohi
            for u, b in bounding:
                ci = coords[u][i]
                if ci - b > lo:
                    lo = ci - b
                if ci + b < hi:
                    hi = ci + b
            if lo > hi:
                return []
            lows.append(lo)
            highs.append(hi + 1)
        box = product(*map(range, lows, highs))
        # the shell holds the gap test to every anchor placed so far
        out = [
            c for c in box
            if c not in used and shell[c] and (dim2 is None or dim2.cap[c] >= deg_v)
        ]
        if len(out) > 1:
            # nearest first, by L1 gap, to v's graph distances capped at side-1;
            # these bound every coordinate from above, so the gap is their sum
            # less sum(c)
            out.sort(key=lambda c: (-sum(c), c))
        return out

    def leaf_ok() -> bool:
        for i, w in enumerate(anchors):
            if bfs_from(hadj, w) != [c[i] for c in coords]:
                return False
        return mode != MODE_STRONG or isometry_mismatch(coords, hadj) is None

    # One pending candidate iterator per depth, as in graph.isomorphisms;
    # depth p holds a placement while coords[order[p]] is set. The shell
    # belongs to the placement held at the deepest anchor depth (k-1 once
    # the non-anchors are reached); the dim2 prunes are open while depth 2
    # is on the stack.
    stack = [iter(candidates(0, None))]
    dim2: _Dim2Prune | None = None
    nodes = 0
    while stack:
        p = len(stack) - 1
        v = order[p]
        c = coords[v]
        if c is not None:
            for u in hadj[v]:  # v was placed last, so it is last in each neighbour's list
                hadj[u].pop()
            occupied.remove(c, v)
            used.discard(c)
            coords[v] = None
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            if p == 2:
                dim2 = None
            continue
        nodes += 1
        if nodes > cfg.node_budget:
            return SearchOutcome("budget_exhausted", None, nodes)
        coords[v] = c
        used.add(c)
        occupied.add(c, v)
        # hadj joins only cells that CellIndex.near finds at Chebyshev distance 1,
        # as the leaf's isometry_mismatch requires of its adjacency
        hadj[v] = near = occupied.near(c)
        for u in near:
            hadj[u].append(v)
        if dim2 is not None and not dim2.allows(p, used, n):
            continue
        if p + 1 == n:
            if leaf_ok():
                break
            continue
        if p < k:
            shell = _Shell([coords[w] for w in anchors[:p + 1]])
        if p == k - 1 and dim2_prunes:
            dim2 = _Dim2Prune.open(ctx, anchors, rest, side, tuple(shell.anchor_cells))
            if dim2 is None:
                continue
        stack.append(iter(candidates(p + 1, dim2)))
    if not stack:
        return SearchOutcome("no", None, nodes)

    emb = Embedding(k, side, tuple(anchor_labels), {g.labels[v]: coords[v] for v in range(n)})
    check = certify(emb, g, mode == MODE_STRONG)  # independent of the DFS's own checks
    if not check:
        raise AssertionError(f"search produced an invalid embedding: {check.clause}: "
                             f"{check.detail}")
    return SearchOutcome("yes", emb, nodes)


def exists_supergraph_resolved_by(
    g: Graph, anchors: list[str] | tuple[str, ...], cfg: PlacementSearchConfig | None = None
) -> SearchOutcome:
    """Search all placements for the given anchor set; exhaustive unless budgeted out."""
    cfg = cfg or PlacementSearchConfig()
    return _run_search(_prepare(g), list(anchors), cfg, dim2_prunes=False)


def dim2_pruned_search(
    g: Graph,
    anchors: list[str] | tuple[str, ...],
    mode: str = MODE_STRONG,
    cfg: PlacementSearchConfig | None = None,
) -> SearchOutcome:
    """Two-anchor specialization: anchor degree cap, cell capacities, forced diagonal."""
    if len(anchors) != 2:
        raise GraphError("dim2 pruned search needs exactly two anchors")
    cfg = replace(cfg or PlacementSearchConfig(), mode=mode)
    return _run_search(_prepare(g), list(anchors), cfg, dim2_prunes=True)


# ---------------------------------------------------------------------------
# threshold dimension


def _search_task(args):
    ctx, W, cfg = args
    return _run_search(ctx, [ctx.g.labels[v] for v in W], cfg, dim2_prunes=True)


def threshold_dimension(
    g: Graph,
    mode: str = "strong",
    cfg: PlacementSearchConfig | None = None,
    max_k: int | None = None,
) -> ThresholdResult:
    """Smallest anchor-set size admitting a certified placement, or bounds.

    mode "metric" searches resolved placements, "strong" adds the isometry
    requirement. lo is one above the largest size refuted exhaustively;
    feasibility is monotone in the anchor set, so a refuted level also
    refutes every smaller one. hi is the first size with a yes, or, when
    max_k ends the sweep first, the strong dimension, whose basis always
    works. The result is exact when lo meets hi, else bounds (lo, hi). A
    set cfg.max_side must exceed the diameter: coordinates reach the
    diameter, so a "no" on a smaller grid refutes nothing.
    """
    if mode not in ("metric", "strong"):
        raise GraphError(f"mode must be 'metric' or 'strong', got {mode!r}")
    if max_k is not None and max_k < 1:
        raise GraphError(f"max_k must be at least 1, got {max_k}")
    cfg = replace(
        cfg or PlacementSearchConfig(),
        mode=MODE_RESOLVED if mode == "metric" else MODE_STRONG,
    )
    ctx = _prepare(g)
    if cfg.max_side is not None and cfg.max_side <= ctx.dm.diameter:
        raise GraphError(f"max_side must exceed the diameter {ctx.dm.diameter}, "
                         f"got {cfg.max_side}")
    n = g.n
    if n == 1:
        return ThresholdResult("exact", 0, None, (), None, {"nodes": 0, "levels": []})

    ecc = ctx.dm.eccentricities
    # None when symmetry pruning is off, the group is trivial, or it is past the cap
    auts = graph_automorphisms(g) if cfg.symmetry_pruning else None
    if auts is not None and len(auts) <= 1:
        auts = None

    # at most one worker per CPU: a fork-started pool starts all of them at the first submit
    workers = min(cfg.jobs, os.cpu_count() or 1)
    pool = None
    if workers > 1:
        import concurrent.futures  # here, so that a serial run never loads multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor(workers)
    run = map if pool is None else pool.map  # pool.map submits every task at once
    total_nodes = 0
    levels: list[dict] = []
    lo = 1
    hi = witness = emb = None
    try:
        top = max_k if max_k is not None else n - 1
        for k in range(1, top + 1):
            sets = sorted(
                combinations(range(n), k),
                key=lambda W: (-sum(ecc[v] for v in W), tuple(g.labels[v] for v in W)),
            )
            # orbit grouping: search one representative, first in enumeration order
            orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for W in sets:
                orbits.setdefault(_canonical_set(W, auts) if auts is not None else W, []).append(W)
            level = {
                "k": k,
                "sets_total": len(sets),
                "orbits": len(orbits),
                "sets_searched": 0,
                "refuted": 0,
                "budget_exhausted": 0,
            }
            level_all_refuted = True
            rep_results = run(_search_task, [(ctx, ms[0], cfg) for ms in orbits.values()])
            # Fold each orbit: a budget-exhausted member falls through to the
            # next one; a single exhaustive "no" refutes every isomorphic copy.
            for members, res in zip(orbits.values(), rep_results):
                for i, W in enumerate(members):
                    if i:
                        res = _search_task((ctx, W, cfg))
                    level["sets_searched"] += 1
                    total_nodes += res.nodes
                    if res.status != "budget_exhausted":
                        break
                    level["budget_exhausted"] += 1
                if res.status == "yes":
                    hi, witness, emb = k, tuple(g.labels[v] for v in W), res.embedding
                    break
                if res.status == "no":
                    level["refuted"] += len(members) - i
                else:
                    level_all_refuted = False
            levels.append(level)
            if hi is not None:
                break
            if level_all_refuted:
                lo = k + 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    if hi is None:  # max_k ended the sweep; a strong basis always works
        basis = strong_dimension(g)
        hi = basis.value
        if lo == hi:  # a strong basis resolves g in either mode
            witness, emb = basis.witness, _try_fast_path(ctx, list(basis.witness), cfg.mode)
    stats = {"nodes": total_nodes, "levels": levels}
    if lo == hi:  # size lo - 1 refuted, and so every smaller size
        return ThresholdResult("exact", lo, None, witness, emb, stats)
    return ThresholdResult("bounds", None, (lo, hi), witness, emb, stats)


@dataclass(frozen=True)
class GapReport:
    n: int
    vertices: int
    tau: ThresholdResult
    tau_s: ThresholdResult

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": self.vertices,
            "tau": self.tau.to_json(),
            "tau_s": self.tau_s.to_json(),
        }

    def row(self) -> str:
        ts = self.tau_s
        span = str(ts.value) if ts.status == "exact" else f"[{ts.bounds[0]}, {ts.bounds[1]}]"
        tau = self.tau.value if self.tau.status == "exact" else f">={self.tau.bounds[0]}"
        return (
            f"G_{self.n}  vertices={self.vertices}  tau={tau}  tau_s={span}  "
            f"status={ts.status}  nodes={ts.stats['nodes']}"
        )


def tau_gap_experiment(
    n: int, cfg: PlacementSearchConfig | None = None, max_k: int | None = None
) -> GapReport:
    """Threshold vs. threshold-strong dimension on the chained corridor family."""
    if n < 1:
        raise GraphError("need n >= 1")
    g = gn_family(n)
    cfg = cfg or PlacementSearchConfig()
    tau = threshold_dimension(g, "metric", cfg, max_k=max_k)
    tau_s = threshold_dimension(g, "strong", cfg, max_k=max_k)
    return GapReport(n, g.n, tau, tau_s)

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
so far (the "shell") instead of repeated per node.

Threshold dimensions iterate the anchor-set size k upward, refuting every
set of size k before accepting k+1. Anchor sets are grouped into orbits
under graph automorphisms so a refuted orbit is searched once; outcomes and
counters do not depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, islice, product
from operator import sub

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


def graph_automorphisms(g: Graph, cap: int = _AUTOMORPHISM_CAP) -> list[tuple[int, ...]] | None:
    """All automorphisms as index permutations, or None when more than cap."""
    auts = list(islice(isomorphisms(g, g), cap + 1))
    return auts if len(auts) <= cap else None


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


class _Dim2Region:
    """Two-anchor prunes for anchor distance a.

    The per-cell neighbour capacity of the feasible region bounds any
    resolved placement; the interior cells of the anchor-to-anchor diagonal
    must all end up occupied (the induced graph needs a geodesic between the
    anchors). Region membership itself is the DFS's anchor-gap shell: with
    the anchors at (0, a) and (a, 0) the two are the same cells of the grid.
    """

    def __init__(self, side: int, a: int):
        cells = list(feasible_region(side - 1, a).cells())
        self.cap = {c: len(nbrs) for c, nbrs in zip(cells, chebyshev_adjacency(cells))}
        self.diag = [(t, a - t) for t in range(1, a)]


_dim2_region = lru_cache(maxsize=64)(_Dim2Region)  # per process, so --jobs workers reuse it too


class _Dim2Prune:
    """The two-anchor prunes of one DFS, from both anchor cells onward.

    Candidate cells must have room for the vertex's degree (the DFS's shell
    already keeps them in the region). Each interior diagonal cell keeps a
    pool: the unplaced vertices that could still fill it, which must not run
    dry while the cell is unfilled. The DFS calls push(v, c) after placing
    each further vertex and pop() when undoing it; push always records a frame.
    """

    def __init__(self, reg: _Dim2Region, admissible: dict[int, frozenset], pools: dict):
        self.cap = reg.cap
        self.admissible = admissible  # vertex -> the diagonal cells it could fill
        self.frames = [(pools, frozenset(reg.diag))]  # (cell -> fillers left, unfilled cells)

    @classmethod
    def open(cls, ctx: _SearchContext, anchors: list[int], rest: list[int], side: int,
             cells: tuple[tuple[int, ...], ...]) -> _Dim2Prune | None:
        """The prunes for anchors placed at cells, or None when these already fail."""
        g, dG = ctx.g, ctx.dm.dist
        reg = _dim2_region(side, cells[0][1])
        if any(reg.cap.get(c, 0) < g.degree(w) for c, w in zip(cells, anchors)):
            return None
        w0, w1 = anchors
        admissible = {
            v: frozenset(
                r
                for r in reg.diag
                if r[0] <= dG[v][w0] and r[1] <= dG[v][w1] and reg.cap[r] >= g.degree(v)
            )
            for v in rest
        }
        pools = {r: 0 for r in reg.diag}
        for rs in admissible.values():
            for r in rs:
                pools[r] += 1
        if any(pools[r] <= 0 for r in reg.diag):
            return None
        return cls(reg, admissible, pools)

    def push(self, v: int, c: tuple[int, ...]) -> bool:
        """Record v placed at c; False when some unfilled diagonal cell can no longer be filled."""
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
        return len(unfilled) <= unplaced and all(pools[r] > 0 for r in unfilled)

    def pop(self) -> None:
        self.frames.pop()


@dataclass(frozen=True)
class _SearchContext:
    """Per-graph data shared by every anchor-set search on one connected graph.

    auts is None when symmetry pruning is off, the group is trivial, or it
    has more than _AUTOMORPHISM_CAP elements.
    """

    g: Graph
    dm: DistanceMatrix
    auts: list[tuple[int, ...]] | None


def _prepare(g: Graph, symmetry: bool) -> _SearchContext:
    require_connected(g)
    dm = all_pairs_distances(g)
    auts = graph_automorphisms(g) if symmetry else None
    if auts is not None and len(auts) <= 1:
        auts = None
    return _SearchContext(g, dm, auts)


def _try_fast_path(ctx: _SearchContext, anchors: list[str], mode: str) -> Embedding | None:
    """If W already (strongly) resolves g itself, its distance vectors work."""
    g, dm = ctx.g, ctx.dm
    try:
        if mode == MODE_RESOLVED:
            if not is_resolving_set(g, anchors, dm):
                return None
        else:
            if not is_strong_resolving_set(g, anchors, dm):
                return None
        emb = distance_vector_embedding(g, anchors, dm=dm)
    except GraphError:
        return None
    return emb if certify(emb, g, mode == MODE_STRONG) else None


def _run_search(
    ctx: _SearchContext, anchor_labels: list[str], cfg: PlacementSearchConfig, dim2_prunes: bool
) -> SearchOutcome:
    """Place the vertices one at a time, anchors first, each in a cell that can still work.

    A vertex's candidates are the free cells of its interval box (its graph
    distances to the placed vertices bound each coordinate) that pass the
    anchor-gap test, nearest first to its graph-distance vector. Each time
    an anchor is placed, a fresh _Shell over the anchors placed so far
    memoises the test per cell for the vertex below it, and after the last
    anchor for every vertex below; no shell outlives the call. An anchor's
    coordinate for a placed anchor is pinned to that anchor's coordinate for
    it, as induced distances are symmetric. Placing a vertex relaxes the
    partial induced distances (attach), and a complete placement is checked
    exactly (leaf_ok). dim2_prunes adds the two-anchor prunes when k == 2.
    """
    g, dm = ctx.g, ctx.dm
    mode = cfg.mode
    if len(set(anchor_labels)) != len(anchor_labels):
        raise GraphError("anchor labels must be distinct")
    k = len(anchor_labels)
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

    anchors = [g.index(lb) for lb in anchor_labels]
    dim2_prunes = dim2_prunes and k == 2  # the prunes hold for two anchors only
    if dim2_prunes and any(g.degree(w) > 3 for w in anchors):
        return SearchOutcome("no", None, 0)

    dG = dm.dist
    in_anchor = {v: i for i, v in enumerate(anchors)}
    root = dG[anchors[0]]
    rest = sorted((v for v in range(n) if v not in in_anchor), key=lambda v: (root[v], v))
    order = anchors + rest
    krange = range(k)

    INF = n + 2
    coords: list[tuple[int, ...] | None] = [None] * n
    used: set[tuple[int, ...]] = set()
    occupied = CellIndex()  # placed vertices by cell
    placed: list[int] = []
    hadj: list[list[int]] = [[] for _ in range(n)]  # placed-subgraph adjacency
    pdist = [[INF] * n for _ in krange]  # partial-subgraph distance to each anchor
    shell = _Shell([])  # of the anchors placed so far: none yet

    def candidates(v: int, dim2: _Dim2Prune | None) -> list[tuple[int, ...]]:
        lows, highs = [], []
        row_v = dG[v]
        slot = in_anchor.get(v)
        for i in krange:
            w = anchors[i]
            if v == w:
                lo = hi = 0
            elif slot is not None and coords[w] is not None:
                lo = hi = coords[w][slot]  # induced anchor distances are symmetric
            else:
                lo, hi = 1, min(row_v[w], side - 1)
            for u in placed:
                cu = coords[u][i]
                b = row_v[u]  # 1 for a neighbour of v
                if cu - b > lo:
                    lo = cu - b
                if cu + b < hi:
                    hi = cu + b
            if lo > hi:
                return []
            lows.append(lo)
            highs.append(hi + 1)
        box = product(*map(range, lows, highs))
        # the shell holds the gap test to every anchor placed so far
        deg_v = g.degree(v) if dim2 is not None else 0
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

    def attach(v: int, c: tuple[int, ...]):
        """Join v to the placed subgraph and relax anchor distances through it.

        Returns (ok, undo). Placing v can only shorten partial-subgraph
        distances; any placed vertex whose distance to an anchor drops below
        its claimed coordinate kills the whole subtree (the final induced
        graph only gains more edges).
        """
        nbrs = occupied.near(c)
        hadj[v] = nbrs
        for u in nbrs:
            hadj[u].append(v)
        dist_undo: list[tuple[int, int, int]] = []
        ok = True
        for i in krange:
            row = pdist[i]
            if v == anchors[i]:
                d0 = 0
            else:
                d0 = INF
                for u in nbrs:
                    if row[u] + 1 < d0:
                        d0 = row[u] + 1
            if d0 >= row[v]:
                continue
            if d0 < c[i]:
                ok = False
                break
            dist_undo.append((i, v, row[v]))
            row[v] = d0
            queue = [v]
            for u in queue:  # a FIFO queue without pops, as in bfs_from
                du1 = row[u] + 1
                for x in hadj[u]:
                    if du1 < row[x]:
                        if du1 < coords[x][i]:
                            ok = False
                            break
                        dist_undo.append((i, x, row[x]))
                        row[x] = du1
                        queue.append(x)
                if not ok:
                    break
            if not ok:
                break
        return ok, (v, nbrs, dist_undo)

    def detach(undo) -> None:
        v, nbrs, dist_undo = undo
        for i, u, old in reversed(dist_undo):
            pdist[i][u] = old
        for u in nbrs:
            hadj[u].pop()
        hadj[v] = []

    def leaf_ok() -> bool:
        # hadj joins only cells that CellIndex.near found at Chebyshev
        # distance 1, as isometry_mismatch requires of its adjacency
        for i in krange:
            if pdist[i] != [c[i] for c in coords]:
                return False
        return mode != MODE_STRONG or isometry_mismatch(coords, hadj) is None

    # One pending candidate iterator per depth, as in graph.isomorphisms;
    # depth p holds a placement while coords[order[p]] is set. The shell
    # belongs to the placement held at the deepest anchor depth (k-1 once
    # the non-anchors are reached); the dim2 prunes are open while depth 2
    # is on the stack.
    stack = [iter(candidates(order[0], None))]
    undos: list = []  # attach() undo records, one per placed vertex
    dim2: _Dim2Prune | None = None
    nodes = 0
    while stack:
        p = len(stack) - 1
        v = order[p]
        c = coords[v]
        if c is not None:
            if dim2 is not None:
                dim2.pop()
            detach(undos.pop())
            placed.pop()
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
        placed.append(v)
        ok, undo = attach(v, c)
        undos.append(undo)
        if dim2 is not None:
            ok = dim2.push(v, c) and ok
        if not ok:
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
        stack.append(iter(candidates(order[p + 1], dim2)))
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
    return _run_search(_prepare(g, symmetry=False), list(anchors), cfg, dim2_prunes=False)


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
    return _run_search(_prepare(g, symmetry=False), list(anchors), cfg, dim2_prunes=True)


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
    requirement. Size k is reported exact only when size k-1 was refuted
    exhaustively; feasibility is monotone in the anchor set, so a refuted
    level also refutes every smaller one. When max_k ends the sweep, the
    upper bound is the strong dimension, whose basis always works; a lower
    bound that meets it is exact, with that basis as the witness. A set
    cfg.max_side must exceed the diameter: coordinates reach the diameter,
    so a "no" on a smaller grid refutes nothing.
    """
    if mode not in ("metric", "strong"):
        raise GraphError(f"mode must be 'metric' or 'strong', got {mode!r}")
    if max_k is not None and max_k < 1:
        raise GraphError(f"max_k must be at least 1, got {max_k}")
    cfg = replace(
        cfg or PlacementSearchConfig(),
        mode=MODE_RESOLVED if mode == "metric" else MODE_STRONG,
    )
    ctx = _prepare(g, cfg.symmetry_pruning)
    if cfg.max_side is not None and cfg.max_side <= ctx.dm.diameter:
        raise GraphError(f"max_side must exceed the diameter {ctx.dm.diameter}, "
                         f"got {cfg.max_side}")
    n = g.n
    if n == 1:
        return ThresholdResult("exact", 0, None, (), None, {"nodes": 0, "levels": []})

    ecc = ctx.dm.eccentricities
    auts = ctx.auts
    task_ctx = replace(ctx, auts=None)  # orbits are grouped here, not in the searches

    # at most one worker per CPU: a fork-started pool starts all of them at the first submit
    workers = min(cfg.jobs, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    run = map if pool is None else pool.map  # pool.map submits every task at once
    total_nodes = 0
    levels: list[dict] = []
    lo = 1
    prev_exhaustive = True
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
            level_yes: tuple[tuple[str, ...], Embedding] | None = None
            level_all_refuted = True
            rep_results = run(_search_task, [(task_ctx, ms[0], cfg) for ms in orbits.values()])
            # Fold each orbit: a budget-exhausted member falls through to the
            # next one; a single exhaustive "no" refutes every isomorphic copy.
            for members, res in zip(orbits.values(), rep_results):
                for i, W in enumerate(members):
                    if i:
                        res = _search_task((task_ctx, W, cfg))
                    level["sets_searched"] += 1
                    total_nodes += res.nodes
                    if res.status != "budget_exhausted":
                        break
                    level["budget_exhausted"] += 1
                if res.status == "yes":
                    level_yes = (tuple(g.labels[v] for v in W), res.embedding)
                    break
                if res.status == "no":
                    level["refuted"] += len(members) - i
                else:
                    level_all_refuted = False
            levels.append(level)

            if level_yes is not None:
                stats = {"nodes": total_nodes, "levels": levels}
                witness, emb = level_yes
                if prev_exhaustive:
                    return ThresholdResult("exact", k, None, witness, emb, stats)
                return ThresholdResult("bounds", None, (lo, k), witness, emb, stats)
            if level_all_refuted:
                lo = k + 1
            else:
                prev_exhaustive = False
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    stats = {"nodes": total_nodes, "levels": levels}
    basis = strong_dimension(g)
    if lo == basis.value:  # every smaller size refuted, and a strong basis always works
        emb = _try_fast_path(ctx, list(basis.witness), cfg.mode)
        if emb is not None:
            return ThresholdResult("exact", lo, None, basis.witness, emb, stats)
    return ThresholdResult("bounds", None, (lo, basis.value), None, None, stats)


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

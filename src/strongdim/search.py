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
on the cell alone. The grid's cells are the bits of one integer, numbered
in the DFS's candidate order (_Grid), so that test is one cached ring mask
per anchor cell and slot, ANDed in as each anchor is placed (the "shell").
A depth's candidates are then the free shell cells of its interval box,
read off one mask. Every placed cell passes the shell, so no placement
puts a vertex nearer an anchor than its coordinate, and a complete one has
its anchor distances right exactly when every placed cell but anchor i's
has a placed neighbour one lower in coordinate i: a few shifts of the
occupied mask per anchor (_Grid.supported). So the last depth's passing
cells are one mask, read off its parent's occupied mask. The DFS keeps no
adjacency; only a strong search with passing last cells reads the parent's
off the occupied mask, one shift per pair of opposite unit steps
(_Grid.adjacency), and adds each cell's own steps for embedding.is_isometric,
the same isometry decision that certify makes.

Three counting rules refute an anchor set whose anchors meet their vertex
mask for (k, side) (_counted_out) at 0 nodes before the fast path, for
every k, in both modes and both engines.

Threshold dimensions iterate the anchor-set size k upward, refuting every
set of size k before accepting k+1. Anchor sets are grouped into orbits by
union-find under automorphism generators so a refuted orbit is searched once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product, repeat
from math import comb
from operator import add, lt, mul

from .constructions import gn_family
from .dimension import is_resolving_set, is_strong_resolving_set, strong_dimension
from .embedding import (
    Embedding,
    certify,
    distance_vector_embedding,
    is_isometric,
)
from .graph import Graph, GraphError


@dataclass(frozen=True)
class PlacementSearchConfig:
    """Limits of a placement search. Every search reads max_side and
    node_budget; threshold_dimension alone reads symmetry_pruning."""

    max_side: int | None = None  # default diam(g)+1 at call time
    node_budget: int = 10_000_000
    symmetry_pruning: bool = True

    def __post_init__(self):
        if self.node_budget <= 0:
            raise GraphError("node_budget must be positive")
        if self.max_side is not None and self.max_side < 1:
            raise GraphError(f"max_side must be at least 1, got {self.max_side}")


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


def graph_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """A strong generating set of g's automorphism group, as index permutations.

    Colour refinement is canonical, so an automorphism keeps each vertex's
    colour. The vertices are mapped in BFS order, each component from its first
    vertex in colour order and each vertex's neighbours in colour order. A
    vertex's images are the free vertices of its colour next to a mapped
    neighbour's image whose mapped neighbours are the images of its own; a count
    of mapped neighbours stands for the non-edges, so C6 is not two triangles. A
    component's first vertex scans all vertices. Below each image w != order[p]
    of order[p], with order[:p] fixed, the first leaf is kept and the search goes
    back to depth p's next image: one automorphism per point of order[p]'s orbit
    under the stabiliser of order[:p] (Sims 1970), so |Aut(g)| is the product
    over p of one more than the number kept at p.
    """
    n, adj = g.n, g.adj
    colors, new = None, list(map(len, adj))  # colour refinement from the degrees
    while new != colors:
        colors = new
        sig = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
    adj_sets = [set(a) for a in adj]
    key = [(c, v) for v, c in enumerate(colors)]
    order: list[int] = []
    depth = [-1] * n  # each vertex's place in order, -1 until it is queued
    for root in sorted(range(n), key=key.__getitem__):
        if depth[root] != -1:
            continue
        depth[root] = i = len(order)
        order.append(root)
        while i < len(order):  # order[i:] is the BFS queue
            for u in sorted(adj[order[i]], key=key.__getitem__):
                if depth[u] == -1:
                    depth[u] = len(order)
                    order.append(u)
            i += 1
    back = [[u for u in adj[v] if depth[u] < p] for p, v in enumerate(order)]
    image = [-1] * n
    used = [False] * n
    mapped = [0] * n  # per vertex, its neighbours that are images so far

    def images(p: int):
        """Lazily, each w that order[p] may map to given the images of order[:p]."""
        color, nbrs = colors[order[p]], back[p]
        for w in adj[image[nbrs[0]]] if nbrs else range(n):
            if (not used[w] and colors[w] == color and mapped[w] == len(nbrs)
                    and all(image[u] in adj_sets[w] for u in nbrs)):
                yield w

    # One pending image iterator per depth, an explicit stack so that long
    # paths do not hit the recursion limit; depth p is assigned when
    # image[order[p]] != -1.
    gens = []
    stack = [images(0)] if n else []
    while stack:
        p = len(stack) - 1
        v = order[p]
        w = image[v]
        if w != -1:
            used[w] = False
            for z in adj[w]:
                mapped[z] -= 1
            image[v] = -1
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        image[v] = w
        used[w] = True
        for z in adj[w]:
            mapped[z] += 1
        if p + 1 < n:
            stack.append(images(p + 1))
            continue
        # keep a non-identity leaf and go back to depth moved, the first it moves:
        # each depth below unmaps its vertex and pops, out of images
        moved = next((q for q, u in enumerate(order) if image[u] != u), n)
        if moved < n:
            gens.append(tuple(image))
            stack[moved + 1:] = [iter(())] * (n - 1 - moved)
    return gens


# ---------------------------------------------------------------------------
# the placement DFS


class _Grid:
    """The cells {0..side-1}^k of one search grid, one bit each.

    Cell c sits at bit sum(c_j * u_j), where u_{k-1} = T = (side+1)^(k-1)
    and u_j = T - (side+1)^(k-2-j) for j < k-1: T * sum(c) less c_0..c_{k-2}
    read as a base side+1 number. So:
    - bits descend in the DFS's candidate order (-sum(c), c);
    - the cells of a box are the products of one power of two per
      coordinate, so box() is k multiplications of geometric sums; shifted
      down to its low corner a box depends on its widths alone, so the DFS
      reads it from boxes, a table keyed by the widths (_Boxes);
    - no cell has a base side+1 digit equal to side, so a unit step is a
      fixed bit offset that never carries into another cell: two cells are
      one step apart exactly when their bits are its offset apart, since no
      nonzero difference within +-side per coordinate sits at bit 0.
    A set of cells is a mask with bits at cells only; supported() and below()
    give masks that also cover bits holding no cell, read through such a set.
    below(1 << b, i) is reach[i] << b >> lift: no unit step spans lift bits.
    A grid keeps no mask per cell: every mask it builds is a union of boxes
    (box()), from one full column of side powers per coordinate.
    up holds one offset per opposite pair of unit steps, the positive one,
    (3^k - 1)/2 in all: by the lemma above, the cells of a set one step
    apart are the bits b and b + o of set & set >> o, o in up (adjacency()).
    """

    def __init__(self, side: int, k: int):
        self.side, self.k = side, k
        self.T = T = (side + 1) ** (k - 1)
        self.units = [T - (side + 1) ** (k - 2 - j) for j in range(k - 1)] + [T]
        # full[j]: bits 0, u_j, ..., (side-1) u_j: every value of c_j from c_j = 0
        self.full = [_geometric(u, side) for u in self.units]
        # down[i]: the bit offsets of the 3^(k-1) unit steps with dc_i = -1
        steps = list(product((-1, 0, 1), repeat=k))
        self.down = [[self.bit(dc) for dc in steps if dc[i] == -1] for i in range(k)]
        self.up = [o for o in map(self.bit, steps) if o > 0]
        self.lift = sum(self.units)
        self.reach = [self.below(1 << self.lift, i) for i in range(k)]
        self.cells = self.box([0] * k, [side - 1] * k)[0]  # every cell
        self.cell = _CellOf(self)
        self.boxes = _Boxes(self)

    def bit(self, c: tuple[int, ...]) -> int:
        return sum(map(mul, c, self.units))

    def box(self, lows: list[int], highs: list[int]) -> tuple[int, int]:
        """(mask, base): mask << base holds the cells with lows[i] <= c_i <= highs[i]
        for each i, 0 <= lows[i] and highs[i] < side. Width w on coordinate j is
        full[j] shifted down by side - w values, so an empty range gives mask 0."""
        mask, base = 1, 0
        for full, u, lo, hi in zip(self.full, self.units, lows, highs):
            mask *= full >> (self.side - 1 - hi + lo) * u
            base += lo * u
        return mask, base

    def adjacency(self, cells: int, at: dict[int, int]) -> list[list[int]]:
        """The strong-product adjacency of the cells in the mask cells, vertex
        at[b] being the cell at bit b, one list per number up to the largest in
        at: the pairs one step apart are the bits b and b + o of cells & cells
        >> o, for o in up."""
        adj: list[list[int]] = [[] for _ in range(max(at.values()) + 1)]
        for o in self.up:
            for b in _bits(cells & cells >> o):
                x, y = at[b], at[b + o]
                adj[x].append(y)
                adj[y].append(x)
        return adj

    def supported(self, cells: int, i: int) -> int:
        """Each cell with a cell of cells one unit step away and one lower in
        coordinate i, plus bits holding no cell. Those steps are -u_i plus -u_j,
        0 or u_j per j != i: cells raised by lift = sum(u_j), then ORed with its
        shifts down by u_j twice per j != i. Every shift after the raise is
        down, so a bit that one drops below 0 would end there."""
        out = cells << self.lift
        for j, u in enumerate(self.units):
            if j != i:
                out |= out >> u
                out |= out >> u
        return out

    def below(self, cells: int, i: int) -> int:
        """Each bit one unit step from a cell of cells and one lower in coordinate
        i, some holding no cell: supported()'s shifts the other way."""
        out = 0
        for o in self.down[i]:
            out |= cells << o if o > 0 else cells >> -o
        return out


class _CellOf(dict):
    """bit -> cell of one _Grid, decoded on first lookup."""

    def __init__(self, grid: _Grid):
        super().__init__()
        self.grid = grid

    def __missing__(self, b: int) -> tuple[int, ...]:
        grid = self.grid
        total = -(-b // grid.T)  # sum(c)
        r = total * grid.T - b  # c_0..c_{k-2} in base side+1
        c = []
        for j in range(grid.k - 2, -1, -1):
            x, r = divmod(r, (grid.side + 1) ** j)
            c.append(x)
        c.append(total - sum(c))
        cell = self[b] = tuple(c)
        return cell


class _Boxes(dict):
    """key -> the box mask of one _Grid with its low corner at 0, key being the
    widths less one read as a base-side number, coordinate 0 first. Built on
    first lookup and kept up to _BOX_CAP keys, as _cone is bounded. Past the
    anchors a vertex's BFS parent toward anchor 0 is placed, is never
    shadowed and bounds each coordinate to its own +-1, so every width is at
    most 3 and few keys come up (97 on the 12^3 grid of the G_2 sweep)."""

    def __init__(self, grid: _Grid):
        super().__init__()
        self.grid = grid

    def __missing__(self, key: int) -> int:
        grid = self.grid
        highs, rest = [0] * grid.k, key
        for i in range(grid.k - 1, -1, -1):
            rest, highs[i] = divmod(rest, grid.side)
        mask = grid.box([0] * grid.k, highs)[0]
        if len(self) < _BOX_CAP:
            self[key] = mask
        return mask


_BOX_CAP = 256  # box masks kept per grid


def _geometric(u: int, w: int) -> int:
    """Bits 0, u, 2u, ..., (w-1)u."""
    return ((1 << w * u) - 1) // ((1 << u) - 1)


def _bits(m: int, base: int = 0):
    """base + each set bit of m, highest first."""
    while m:
        b = m.bit_length() - 1
        yield base + b
        m ^= 1 << b


@lru_cache(maxsize=16)  # per process, so every search of a sweep reuses it
def _grid(side: int, k: int) -> _Grid:
    return _Grid(side, k)


@lru_cache(maxsize=256)  # 256 masks of one grid's bits at most
def _cone(side: int, k: int, i: int, j: int, a: int, e: int) -> int:
    """The cells c of the grid with |c_i - a| + e <= c_j, a union of boxes.

    For i != j, one box per value x of c_i, with c_j from |x - a| + e. For
    i == j, c_j - a + e <= c_j needs e <= a, and then a - c_j + e <= c_j is
    c_j >= ceil((a + e) / 2).
    """
    grid = _grid(side, k)
    lows, highs = [0] * k, [side - 1] * k
    if i == j:
        lows[j] = (a + e + 1) // 2 if e <= a else side  # side: an empty range
        mask, base = grid.box(lows, highs)
        return mask << base
    out = 0
    for x in range(side):
        lows[i] = highs[i] = x
        lows[j] = abs(x - a) + e  # from side on, the box is empty
        mask, base = grid.box(lows, highs)
        out |= mask << base
    return out


def _ring(grid: _Grid, cell: tuple[int, ...], j: int) -> int:
    """The anchor-gap shell of one anchor: the cells c whose Chebyshev gap to
    the anchor's cell equals c_j, for the anchor in slot j.

    That gap is at most c_j in every coordinate (one cone each) and not at
    most c_j - 1 in all of them. An anchor the DFS places has coordinate 0
    for itself, so its second set is empty.
    """
    side, k = grid.side, grid.k
    outer = inner = grid.cells
    for i, a in enumerate(cell):
        outer &= _cone(side, k, i, j, a, 0)
    if cell[j] == 0:
        return outer
    for i, a in enumerate(cell):
        inner &= _cone(side, k, i, j, a, 1)
    return outer & ~inner


@lru_cache(maxsize=64)  # per process, so every search of a sweep reuses it
def _region_cap(side: int, a: int) -> tuple[int, ...]:
    """cap[d]: the cells of the two-anchor feasible region for anchor distance
    a with at least d neighbours there, which bounds the degree of a vertex
    placed in them; a cell has 8 neighbours at most, so cap[9] is empty and
    cap[min(deg, 9)] answers any degree. With the anchors at (0, a) and
    (a, 0) the region is the DFS's anchor-gap shell."""
    grid = _grid(side, 2)
    region = _ring(grid, (0, a), 0) & _ring(grid, (a, 0), 1)
    cap = [region] + [0] * 9
    for o in grid.up:
        for nbr in (region >> o & region, region << o & region):  # a neighbour at b + o, b - o
            for d in range(8, 0, -1):  # cap[d] |= cells with d - 1 neighbours before this one
                cap[d] |= cap[d - 1] & nbr
    return tuple(cap)


@dataclass(frozen=True)
class _Dim2Prune:
    """The two-anchor prunes of one DFS, from both anchor cells onward.

    Candidate cells must have room for the vertex's degree (the DFS's shell
    already keeps them in the region). Every interior cell of the diagonal
    between the anchors ends up occupied (the anchors need a geodesic), so a
    free one needs a filler below the current depth; the vertex order is
    fixed, so their cells are one mask per depth, with nothing to undo.
    """

    cap: tuple[int, ...]  # _region_cap
    shift: int  # the diagonal's cells are the bits shift + i, i < a - 1
    diag: int  # the mask of those i
    fill: tuple[int, ...]  # fill[p]: the diagonal cells some vertex below depth p can take

    @classmethod
    def open(cls, ctx: _SearchContext, anchors: list[int], rest: list[int], side: int,
             cells: tuple[tuple[int, ...], ...]) -> _Dim2Prune | None:
        """The prunes for anchors placed at cells, or None when these already fail."""
        g, dG = ctx.g, ctx.dm.dist
        a = cells[0][1]
        grid = _grid(side, 2)
        cap = _region_cap(side, a)
        if not all(cap[min(g.degree(w), 9)] >> grid.bit(c) & 1 for c, w in zip(cells, anchors)):
            return None
        w0, w1 = anchors
        shift = grid.bit((a - 1, 1))  # (t, a - t) is bit a*T - t, so i = a - 1 - t
        diag = (1 << a - 1) - 1
        room = [c >> shift & diag for c in cap]  # per degree, on the diagonal
        fill = [diag] * (len(rest) + 1) + [0]  # no vertex is below the last depth
        for p in range(len(rest) + 1, 1, -1):  # deepest first: a suffix OR
            v = rest[p - 2]
            # t <= d(v, w0) and a - t <= d(v, w1), with room for deg(v)
            span = (1 << dG[v][w1]) - (1 << max(a - 1 - dG[v][w0], 0))
            fill[p - 1] = fill[p] | span & room[min(g.degree(v), 9)]
            if fill[p - 1] == diag:  # every mask above it is diag too
                return cls(cap, shift, diag, tuple(fill))
        return None  # a cell has no filler

    def allows(self, p: int, used: int, n: int) -> bool:
        """Whether the n - 1 - p vertices below depth p can fill each free diagonal
        cell, used being the occupied cells."""
        free = self.diag & ~(used >> self.shift)
        return free.bit_count() < n - p and not free & ~self.fill[p]


class _SearchContext:
    """Per-graph data shared by every anchor-set search on one connected graph.

    counted_out holds the counting rules' masks (_counted_out), orders each
    first anchor's vertex order with the shadows behind each vertex there
    (_Orders), and shadows the W_xv masks that _shadowed reads, all kept
    across the searches of one sweep.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.dm = g.distances()
        self.counted_out: dict[tuple[int, int], int] = {}
        self.orders = _Orders(self.dm.dist)
        self.shadows = _Shadows(self.dm.dist)


class _Orders(dict):
    """orders[a]: the vertices by (d(a, v), v); prefix[v], the vertices before v
    there as a bitmask; and behind[v], None until _bounding_set fills it with
    _shadowed(ctx, v, prefix[v]). Built on first lookup, kept up to
    _ORDER_BITS mask bits, prefix and behind masks counted alike."""

    def __init__(self, dist: tuple[tuple[int, ...], ...]):
        super().__init__()
        self.dist = dist

    def __missing__(self, a: int) -> tuple[list[int], list[int], list[int | None]]:
        n = len(self.dist)
        order = sorted(range(n), key=self.dist[a].__getitem__)  # stable: ties by v
        prefix, m = [0] * n, 0
        for v in order:
            prefix[v], m = m, m | 1 << v
        entry = order, prefix, [None] * n
        if (len(self) + 1) * 2 * n * n <= _ORDER_BITS:
            self[a] = entry
        return entry


_ORDER_BITS = 1 << 27  # 16 MB of prefix and behind masks per graph at most


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


def _shadowed(ctx: _SearchContext, v: int, placed: int) -> int:
    """The vertices some G-neighbour x of v in placed (a bitmask) shadows, as a
    bitmask: the union of their W_xv masks.

    A placed u that a placed x shadows need not bound v's box: d(x, u) =
    d(v, u) - 1, so with |c_v - c_x| <= 1 and |c_x - c_u| <= d(x, u) (every
    placed pair already meets its constraint) x's interval for v lies inside
    u's. The box is the same; no neighbour is ever shadowed.
    """
    shadows = ctx.shadows
    out = 0
    for x in ctx.g.adj[v]:
        if placed >> x & 1:
            out |= shadows[v, x]
    return out


def _bounding_set(ctx: _SearchContext, first: int, amask: int, v: int) -> int:
    """The bitmask of the vertices above v's depth that bound its box, v not an
    anchor: the anchors (amask) and the vertices before v in the first anchor's
    order, less those _shadowed. v's neighbours before it are placed whatever
    the other anchors are, so their shadows are kept per (first, v)."""
    prefix, behind = ctx.orders[first][1:]
    shadowed = behind[v]
    if shadowed is None:
        shadowed = behind[v] = _shadowed(ctx, v, prefix[v])
    placed = amask | prefix[v]
    return placed & ~(shadowed | _shadowed(ctx, v, amask & ~prefix[v]))


def _try_fast_path(ctx: _SearchContext, anchors: list[str], strong: bool) -> Embedding | None:
    """If W, a nonempty set of g's labels, already (strongly) resolves g itself,
    its distance vectors work; None when it does not."""
    g = ctx.g
    resolves = is_strong_resolving_set if strong else is_resolving_set
    if not resolves(g, anchors):
        return None
    emb = distance_vector_embedding(g, anchors)
    check = certify(emb, g, strong)  # independent of the resolving test
    if not check:
        raise AssertionError(f"fast path embedding fails {check.clause}: {check.detail}")
    return emb


def _counted_out(ctx: _SearchContext, k: int, side: int) -> int:
    """The vertices whose presence among k anchors lets counting refute the set on
    the side^k grid, as a bitmask kept on ctx: every vertex when one of the first two
    rules fires, else those of degree > 3^(k-1). Each rule holds for any supergraph
    the anchors resolve there, so for g itself wherever the fast path could say
    yes: every vertex takes its own cell, a non-anchor one with coordinates in
    1..side-1; g's edges join cells one step apart, 3^k - 1 per cell (Khuller,
    Raghavachari & Rosenfeld 1996); an anchor's neighbours have coordinate 1 in its
    slot and lie within one step in the others, 3^(k-1) cells."""
    if (k, side) not in ctx.counted_out:
        adj = ctx.g.adj
        every = len(adj) > min(side**k, (side - 1) ** k + k) or max(map(len, adj)) >= 3**k
        ctx.counted_out[k, side] = sum(1 << v for v, a in enumerate(adj)
                                       if every or len(a) > 3 ** (k - 1))
    return ctx.counted_out[k, side]


_COUNTED_OUT = SearchOutcome("no", None, 0)


def _run_search(ctx: _SearchContext, anchors: list[int] | tuple[int, ...],
                cfg: PlacementSearchConfig, strong: bool, dim2_prunes: bool) -> SearchOutcome:
    """Place the vertices one at a time, anchors first, each in a cell that can still work.

    The anchors are distinct vertex indices. The counting rules run first, for
    every k. The non-anchors follow in the context's order for anchor 0 (_Orders).
    A vertex's candidates are the free cells of its interval box (its graph
    distances to the placed vertices bound each coordinate) that pass the
    anchor-gap test, nearest first to its graph-distance vector. The box is
    cut only by the placed vertices that no placed neighbour of v shadows
    (_shadowed; _bounding_set past the anchors), whose bounds imply the
    others'; the order is fixed, so each depth computes its set once.
    Cells are bits of the side^k grid (_grid, shared per process),
    numbered so that reading a mask from its highest bit gives that order:
    the candidates are one mask, the shell AND the free cells AND the box,
    the box being the grid's table entry for its widths (_Grid.boxes)
    shifted up to its low corner. Past the anchors the shell AND the free
    cells is avail, set when anchor k - 1 is placed and changed by one bit
    per placement and undo.
    shells[p] is the test against anchors 0..p-1: placing anchor p ANDs in
    its ring (_ring), the cells whose Chebyshev gap to its cell equals their
    coordinate p. An anchor's coordinate for a placed anchor is pinned to
    that anchor's coordinate for it, as induced distances are symmetric. A
    non-anchor's box starts at (1, side - 1), not (1, d(v, w_i)), on each
    coordinate i, for the same box: either anchor w_i bounds v, its own
    coordinate i being 0, or a placed neighbour x shadows w_i and bounds v,
    with c_x,i + 1 <= d(x, w_i) + 1 = d(v, w_i).
    The shell keeps every placed cell at Chebyshev gap c[i] from anchor i's
    cell, so no vertex is nearer anchor i than c[i] in the induced graph. A
    complete placement is checked exactly on the occupied mask: each cell
    but anchor i's needs an occupied neighbour one lower in coordinate i
    (_Grid.supported; such steps reach the anchor in c[i], and a BFS parent
    is one). So placing depth n - 2 settles the last depth as one mask
    (settle), counting its cells as if tried one by one. If strong, the
    placed cells' induced adjacency comes off the occupied mask once per
    parent (_Grid.adjacency), numbered last placed first, and each passing
    last cell adds its own steps as vertex 0 for is_isometric. That decides
    large images by cones and small ones by BFS rows, where a placement
    that fails does so most often at a deep vertex's row; the verdict does
    not depend on the vertex order.
    dim2_prunes adds the two-anchor prunes when k == 2.
    """
    g, dm = ctx.g, ctx.dm
    k = len(anchors)
    n = g.n
    if k == 0:
        if n == 1:
            return SearchOutcome("yes", Embedding(0, 1, (), {g.labels[0]: ()}), 0)
        return SearchOutcome("no", None, 0)

    D = dm.diameter
    side = cfg.max_side if cfg.max_side is not None else D + 1

    amask = sum(1 << w for w in anchors)
    if _counted_out(ctx, k, side) & amask:
        return _COUNTED_OUT
    if side >= D + 1:
        fast = _try_fast_path(ctx, [g.labels[w] for w in anchors], strong)
        if fast is not None:
            return SearchOutcome("yes", fast, 0)

    dim2_prunes = dim2_prunes and k == 2  # the prunes hold for two anchors only
    dG = dm.dist
    in_anchor = {v: i for i, v in enumerate(anchors)}
    by_root = ctx.orders[anchors[0]][0]
    rest = [v for v in by_root if v not in in_anchor]
    order = [*anchors, *rest]

    grid = _grid(side, k)
    cell_of, boxes, units = grid.cell, grid.boxes, grid.units
    reach, lift = grid.reach, grid.lift
    coords: list[tuple[int, ...] | None] = [None] * n
    bits: list[int] = [0] * n  # each placed vertex's cell bit
    occupied = 0  # the placed cells
    avail = 0  # past the anchors, shells[k] & ~occupied
    shells = [grid.cells] + [0] * k  # shells[p]: the gap test to anchors 0..p-1
    statics: list = [None] * n  # per depth, built on its first visit
    last = order[-1]
    implied = [(1, side - 1)] * k  # a non-anchor's bounds before its bounding set's

    def static(p: int):
        """Depth p's fixed data: each coordinate's starting bounds (None when
        pinned), the bounding vertices with their G-distances to v, and deg(v)."""
        v = order[p]
        row_v = dG[v]
        slot = in_anchor.get(v)
        if slot is None:
            inits, m = implied, _bounding_set(ctx, anchors[0], amask, v)
        else:
            inits = [None if i < slot else (0, 0) if i == slot else (1, min(row_v[w], side - 1))
                     for i, w in enumerate(anchors)]  # None: pinned, that anchor is placed
            above = sum(1 << w for w in anchors[:slot])
            m = above & ~_shadowed(ctx, v, above)
        bounding = []
        while m:  # highest vertex first
            u = m.bit_length() - 1
            bounding.append((u, row_v[u]))
            m ^= 1 << u
        statics[p] = data = (slot, inits, bounding, g.degree(v))
        return data

    def candidates(p: int, dim2: _Dim2Prune | None) -> tuple[int, int]:
        """Depth p's candidates (mask, base): the bits of mask << base."""
        slot, inits, bounding, deg_v = statics[p] or static(p)
        key = base = 0  # the box's widths less one (boxes' key) and its low corner
        for i, lohi in enumerate(inits):
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
                return 0, 0
            key = key * side + hi - lo
            base += lo * units[i]
        # the free cells of the box that pass the gap test to every anchor placed
        # so far, in bit order, which is nearest first to v's graph distances
        # capped at side-1 (these bound every coordinate from above, so the L1
        # gap is their sum less sum(c)), ties by c
        free = avail if p >= k else shells[p] ^ shells[p] & occupied
        if dim2 is not None:
            free &= dim2.cap[deg_v if deg_v < 9 else 9]
        return free >> base & boxes[key], base

    def settle(dim2: _Dim2Prune | None, room: int) -> int:
        """The last depth at once, from its parent: how many of its candidates the
        DFS tries, highest bit first, up to the first that completes a placement
        (coords[last] then holds it) or all of them; more than room ends the
        search. A cell b passes anchor i when it lies in supported(occupied, i)
        and one step below each other occupied cell that is not (_Grid.below),
        as placing b adds only b's own steps; the last vertex's own cell needs no
        support when it is anchor i (n == k)."""
        m, base = candidates(n - 1, dim2)
        cand = ok = m << base
        if dim2 is not None:
            for b in _bits(cand):
                if not dim2.allows(n - 1, occupied | 1 << b, n):
                    ok ^= 1 << b
        for i, w in enumerate(anchors):
            held = grid.supported(occupied, i)
            loose = occupied & ~held
            if w != last:
                ok &= held
                loose &= ~(1 << bits[w])
            for u in _bits(loose):
                ok &= reach[i] << u >> lift  # grid.below(1 << u, i)
            if not ok:
                break
        if strong and ok:  # the placed cells' adjacency, vertex 0 left for b
            at = {bits[v]: n - 1 - p for p, v in enumerate(order[:-1])}
            adj = grid.adjacency(occupied, at)
            cells = [coords[v] for v in reversed(order)]
        for b in _bits(ok):
            tried = (cand >> b).bit_count()
            coords[last] = cell_of[b]
            if not strong:
                return tried
            if tried > room:
                break
            row = adj[0] = [at[x] for o in grid.up for x in (b - o, b + o) if x in at]
            for y in row:
                adj[y].append(0)
            cells[0] = coords[last]
            isometric = is_isometric(cells, adj)
            for y in row:
                adj[y].pop()
            if isometric:
                return tried
        coords[last] = None
        return cand.bit_count()

    # One pending candidate mask per depth below the last, highest bit next;
    # depth p holds a placement while coords[order[p]] is set. A depth with no
    # candidates gets no entry: the next turn unplaces its parent's vertex and
    # takes the parent's next candidate, as popping an empty mask would, and
    # nodes count placements only. shells[p + 1] belongs to the placement held
    # at anchor depth p, and the dim2 prunes to the one held at depth 1. The
    # parent of the last depth settles it whole. n >= 2 here: one vertex is
    # resolved on the fast path.
    stack = [candidates(0, None)]
    dim2: _Dim2Prune | None = None
    nodes = 0
    budget = cfg.node_budget
    while stack:
        p = len(stack) - 1
        v = order[p]
        if coords[v] is not None:
            bit = 1 << bits[v]
            occupied ^= bit
            avail |= bit  # at an anchor depth, stale until anchor k - 1 resets it
            coords[v] = None
            if p == 1:
                dim2 = None
        m, base = stack[-1]
        if not m:
            stack.pop()
            continue
        b = m.bit_length() - 1
        stack[-1] = m ^ 1 << b, base
        b += base
        nodes += 1
        if nodes > budget:
            return SearchOutcome("budget_exhausted", None, nodes)
        c = coords[v] = cell_of[b]
        bits[v] = b
        bit = 1 << b
        occupied |= bit
        avail ^= bit
        if dim2 is not None and not dim2.allows(p, occupied, n):
            continue
        if p < k:
            shells[p + 1] = s = shells[p] & _ring(grid, c, p)
            if p == k - 1:
                avail = s ^ s & occupied
        if p == k - 1 and dim2_prunes:
            dim2 = _Dim2Prune.open(ctx, anchors, rest, side, tuple(coords[w] for w in anchors))
            if dim2 is None:
                continue
        if p + 2 < n:
            child = candidates(p + 1, dim2)
            if child[0]:
                stack.append(child)
            continue
        nodes += settle(dim2, budget - nodes)
        if nodes > budget:
            return SearchOutcome("budget_exhausted", None, budget + 1)
        if coords[last] is not None:
            break
    if not stack:
        return SearchOutcome("no", None, nodes)

    emb = Embedding(k, side, tuple(g.labels[w] for w in anchors),
                    {g.labels[v]: coords[v] for v in range(n)})
    # certify shares is_isometric with the strong leaf, so only its W-resolved
    # clause checks the DFS independently
    check = certify(emb, g, strong)
    if not check:
        raise AssertionError(f"search produced an invalid embedding: {check.clause}: "
                             f"{check.detail}")
    return SearchOutcome("yes", emb, nodes)


def exists_supergraph_resolved_by(
    g: Graph, anchors: list[str] | tuple[str, ...], cfg: PlacementSearchConfig | None = None,
    *, strong: bool = True,
) -> SearchOutcome:
    """Search all placements for the anchor set, isometric if strong; exhaustive unless
    budgeted out."""
    cfg = cfg or PlacementSearchConfig()
    return _run_search(_SearchContext(g), _indices(g, anchors), cfg, strong, dim2_prunes=False)


def dim2_pruned_search(
    g: Graph, anchors: list[str] | tuple[str, ...], cfg: PlacementSearchConfig | None = None,
    *, strong: bool = True,
) -> SearchOutcome:
    """Two-anchor specialization: cell capacities, forced diagonal (the anchor degree
    cap is the counting rules' k = 2 case)."""
    if len(anchors) != 2:
        raise GraphError("dim2 pruned search needs exactly two anchors")
    cfg = cfg or PlacementSearchConfig()
    return _run_search(_SearchContext(g), _indices(g, anchors), cfg, strong, dim2_prunes=True)


def _indices(g: Graph, anchors: list[str] | tuple[str, ...]) -> list[int]:
    """The anchors' vertex indices; a repeated or unknown label raises GraphError."""
    if len(set(anchors)) != len(anchors):
        raise GraphError("anchor labels must be distinct")
    return [g.index(lb) for lb in anchors]


# ---------------------------------------------------------------------------
# threshold dimension


def _search_set(ctx: _SearchContext, cfg: PlacementSearchConfig, strong: bool,
                W: tuple[int, ...]) -> SearchOutcome:
    return _run_search(ctx, W, cfg, strong, dim2_prunes=True)


def _level(k: int, rank: list[int], ecc: list[int], gens: list[tuple[int, ...]]):
    """Level k's sets by (-sum(ecc), ranks in index order), one integer key each from
    per-slot tables, and its orbits: union-find joins each set to its sorted image
    under each generator in gens, the earlier set the root, so members keep that order."""
    n = len(rank)
    sets = list(combinations(range(n), k))
    keys = repeat(0)
    for i, slot in enumerate(zip(*sets)):
        table = [r * n ** (k - 1 - i) - e * n**k for r, e in zip(rank, ecc)]
        keys = map(add, keys, map(table.__getitem__, slot))
    sets = [W for _, W in sorted(zip(keys, sets))]
    root = list(range(len(sets)))  # union-find parents: an earlier set or itself
    # at[r]: the position of the set of colex rank r, sum(C(W[i], i + 1)), 4 bytes each
    colex = partial(map, list.__getitem__, [[comb(v, i + 1) for v in range(n)] for i in range(k)])
    at = array("i", [0]) * len(sets)
    for i, r in enumerate(map(sum, map(colex, sets)) if gens else ()):
        at[r] = i
    for p in gens:
        images = map(sorted, map(partial(map, p.__getitem__), sets))
        for i, j in enumerate(map(at.__getitem__, map(sum, map(colex, images)))):
            while root[i] != i:
                root[i] = i = root[root[i]]  # path halving
            while root[j] != j:
                root[j] = j = root[root[j]]
            root[max(i, j)] = min(i, j)
    orbits: dict[int, list[tuple[int, ...]]] = {}
    for i, W in enumerate(sets):  # root[i] <= i, so root[root[i]] is final by now
        root[i] = r = root[root[i]]
        orbits.setdefault(r, []).append(W)
    return sets, list(orbits.values())


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
    strong = mode == "strong"
    cfg = cfg or PlacementSearchConfig()
    ctx = _SearchContext(g)
    if cfg.max_side is not None and cfg.max_side <= ctx.dm.diameter:
        raise GraphError(f"max_side must exceed the diameter {ctx.dm.diameter}, "
                         f"got {cfg.max_side}")
    n = g.n
    if n == 1:
        return ThresholdResult("exact", 0, None, (), None, {"nodes": 0, "levels": []})

    ecc = ctx.dm.eccentricities
    gens = graph_automorphisms(g) if cfg.symmetry_pruning else []
    side = cfg.max_side if cfg.max_side is not None else ctx.dm.diameter + 1

    search = partial(_search_set, ctx, cfg, strong)
    rank = [0] * n  # labels are distinct, so their ranks order sets as the labels do
    for r, v in enumerate(sorted(range(n), key=g.labels.__getitem__)):
        rank[v] = r
    total_nodes = 0
    levels: list[dict] = []
    lo = 1
    hi = witness = emb = None
    top = max_k if max_k is not None else n - 1
    for k in range(1, top + 1):
        sets, orbits = _level(k, rank, ecc, gens)
        level = {
            "k": k,
            "sets_total": len(sets),
            "orbits": len(orbits),
            "sets_searched": 0,
            "refuted": 0,
            "budget_exhausted": 0,
        }
        level_all_refuted = True
        counted_out = _counted_out(ctx, k, side)
        # Fold each orbit: a budget-exhausted member falls through to the
        # next one; a single exhaustive "no" refutes every isomorphic copy.
        # Members share degrees, so counting refutes the first without a search.
        for members in orbits:
            for i, W in enumerate(members):
                res = _COUNTED_OUT if any(counted_out >> v & 1 for v in W) else search(W)
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

    if hi is None:  # max_k ended the sweep; a strong basis always works
        basis = strong_dimension(g)
        hi = basis.value
        if lo == hi:  # a strong basis resolves g in either mode
            witness, emb = basis.witness, _try_fast_path(ctx, list(basis.witness), strong)
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

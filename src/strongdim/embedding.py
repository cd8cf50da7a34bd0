"""Embeddings into strong products of paths, and their certification.

A placement maps each vertex to a k-tuple over {0..side-1}. The induced
supergraph joins two placed vertices exactly when their tuples are at
Chebyshev distance 1; a placement is anchor-resolved when, for every vertex,
its i-th coordinate equals its induced-graph distance to the i-th anchor.
Certification operations return the first violated clause for testability.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, repeat
from operator import add, sub
from typing import Callable, Sequence

from .graph import Graph, GraphError, bfs_from

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


def _by_value(values: Sequence[int]) -> dict[int, int]:
    """Each distinct value of values, mapped to the mask of the indices that hold it."""
    by_value: dict[int, int] = {}
    for v, x in enumerate(values):
        by_value[x] = by_value.get(x, 0) | 1 << v
    return by_value


def chebyshev_adjacency(cells: Sequence[Coord]) -> list[list[int]]:
    """For each cell, the sorted indices of the cells at Chebyshev distance 1.

    Duplicate cells are kept (not adjacent to each other); cells of
    different lengths raise GraphError, as chebyshev does. Per coordinate,
    one mask per value (_by_value): a cell's neighbours are the AND over
    coordinates of the masks of x - 1, x and x + 1, less the AND of the masks
    of x, its equal cells. O(n^2 k / 64) word operations, never 3^k.
    """
    n = len(cells)
    k = len(cells[0]) if cells else 0
    for c in cells:
        if len(c) != k:
            raise GraphError(f"tuple length mismatch: {k} vs {len(c)}")
    full = (1 << n) - 1
    near, same = [full] * n, [full] * n
    for col in zip(*cells):
        by_value = _by_value(col)
        get = by_value.get
        for i, x in enumerate(col):
            m = by_value[x]
            same[i] &= m
            near[i] &= m | get(x - 1, 0) | get(x + 1, 0)
    out = []
    for m, eq in zip(near, same):
        m ^= eq
        row = []
        while m:
            low = m & -m
            row.append(low.bit_length() - 1)
            m ^= low
        out.append(row)
    return out


def _chebyshev_row(cols: Sequence[Sequence[int]], c: Coord, start: int, n: int) -> list[int]:
    """Chebyshev distances from cell c to cells start..n-1, read off their coordinate columns."""
    gaps = [map(abs, map(sub, col[start:], repeat(x))) for col, x in zip(cols, c)]
    if len(gaps) > 1:
        return list(map(max, *gaps))
    if gaps:
        return list(gaps[0])
    return [0] * (n - start)  # k = 0: every cell is the empty tuple


def isometry_mismatch(
    cells: Sequence[Coord], adj: Sequence[Sequence[int]]
) -> tuple[int, int, int, int] | None:
    """First pair whose graph distance in adj differs from its cells' Chebyshev distance.

    Pairs are taken i < j, by i and then j. Returns (i, j, graph distance,
    Chebyshev distance), the graph distance UNREACHABLE for split pairs, or
    None when the graph is isometric in the product. The cells share one
    length, as chebyshev_adjacency requires. Each source costs one BFS and
    one Chebyshev row to the later cells; the first source to fail has every
    earlier row right, so its first mismatch lies at some j > i.

    is_isometric runs this to decide images too small for
    isometric_by_cones, and is_isometric_in_product to name the first pair
    of an image that fails.
    """
    n = len(cells)
    cols = [list(col) for col in zip(*cells)]
    for i in range(n - 1):
        dist = bfs_from(adj, i)[i + 1:]
        cheb = _chebyshev_row(cols, cells[i], i + 1, n)
        if dist != cheb:
            j = next(j for j, (d, x) in enumerate(zip(dist, cheb)) if d != x)
            return i, i + 1 + j, dist[j], cheb[j]
    return None


# Images with at least this many cells per coordinate are decided by cones.
# Timed on cycles, king-graph boxes and diagonal paths with k = 2-8, the cones
# overtook the BFS at 7-37 cells per coordinate (boxes, of high degree, last).
_CONE_CELLS_PER_COORDINATE = 16


def _form_masks(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """The distinct values ascending, and per rank r the mask of the indices valued >= the r-th.

    One more mask, 0, ends the list, so ge[bisect_left(keys, t)] is the mask of
    the values >= t for any t. Indexed by rank, never by the range of the
    values: n + 1 masks of n bits at most, however far apart the values lie.
    """
    by_value = _by_value(values)
    keys = sorted(by_value)
    ge = [0] * (len(keys) + 1)
    for r in range(len(keys) - 1, -1, -1):
        ge[r] = ge[r + 1] | by_value[keys[r]]
    return keys, ge


def isometric_by_cones(cells: Sequence[Coord], adj: Sequence[Sequence[int]]) -> bool:
    """Whether adj's graph is isometric in the product, decided on vertex bitmasks without BFS.

    Precondition: every edge of adj joins cells at Chebyshev distance at most
    1, as both builders of adj do: chebyshev_adjacency for certify, and the
    placement search's _Grid.adjacency off its occupied mask. Then the
    graph is isometric iff for every
    vertex v and every other vertex u some neighbour w of v has
    cheb(u, w) = cheb(u, v) - 1. (Only if: take w one step along a
    shortest v-u path. If: by induction on cheb(u, v), since the
    precondition gives graph distance >= Chebyshev distance.) Duplicate
    cells and adjacencies that are not induced come out right: a duplicate
    u of v is served by no w.

    Cone form: with v at cell x and w at x + s, the vertices u that w serves
    are the union, over the j with s_j = sigma != 0, of the intersection over
    i != j of {sigma(u_j - x_j) - (u_i - x_i) >= 1 - s_i} and
    {sigma(u_j - x_j) + (u_i - x_i) >= 1 + s_i}; for k = 1 it is
    {sigma(u - x) >= 1}. Each set is a half-space of one pair form u_i + u_j
    or u_j - u_i (i < j; for k = 1 the form u_0), read off that form's
    _form_masks table. The tables take O(#forms * n^2 / 8) bytes, #forms =
    k(k - 1) (1 for k = 1). The half-spaces of each step s are listed once,
    and a cone costs at most k ANDs of 2(k - 1) masks. A vertex passes when
    the OR of its neighbours' cones holds every other vertex.

    The work is O(k^2) mask operations per edge against isometry_mismatch's
    O(n + m) steps per source, so is_isometric runs this only on images of
    at least _CONE_CELLS_PER_COORDINATE * k cells.
    """
    n = len(cells)
    full = (1 << n) - 1
    cols = list(zip(*cells))
    k = len(cols)
    # form[p, q, tau]: each vertex's value of u_p + u_q (tau = 1) or u_q - u_p (tau = -1),
    # p < q, then that form's _form_masks; for k = 1 the one form u_0
    form: dict[tuple[int, int, int], tuple[Sequence[int], list[int], list[int]]] = {}
    for p, q in combinations(range(k), 2):
        for tau, op in ((1, add), (-1, sub)):
            vals = tuple(map(op, cols[q], cols[p]))
            form[p, q, tau] = (vals, *_form_masks(vals))
    if k == 1:
        form[0, 0, 1] = (cols[0], *_form_masks(cols[0]))

    def half_spaces(s: Coord) -> list[list[tuple]]:
        """Per j with s_j = sigma != 0, the half-spaces of the cone's part for j, each
        (values, keys, ge, sign, delta) for {u : sign * F(u) >= sign * (F(x) + delta)}."""
        if k == 1:
            return [[(*form[0, 0, 1], s[0], s[0])]] if s[0] else []
        parts = []
        for j, sigma in enumerate(s):
            if not sigma:
                continue
            part = []
            for i in range(k):
                if i == j:
                    continue
                for tau in (1, -1):  # sigma * u_j + tau * u_i: +-sigma times the sum or difference
                    sign = sigma if tau == sigma or j > i else -sigma
                    f = form[min(i, j), max(i, j), 1 if tau == sigma else -1]
                    part.append((*f, sign, sign * (1 + tau * s[i])))
            parts.append(part)
        return parts

    plans: dict[Coord, list[list[tuple]]] = {}
    for v, x in enumerate(cells):
        cover = 1 << v
        for w in adj[v]:
            s = tuple(map(sub, cells[w], x))
            plan = plans.get(s)
            if plan is None:
                plan = plans[s] = half_spaces(s)
            for part in plan:
                cone = full
                for vals, keys, ge, sign, delta in part:
                    t = vals[v] + delta
                    cone &= ge[bisect_left(keys, t)] if sign > 0 else full ^ ge[bisect_right(keys, t)]
                cover |= cone
            if cover == full:
                break
        if cover != full:
            return False
    return True


def _by_cones(cells: Sequence[Coord]) -> bool:
    """Whether isometric_by_cones, not isometry_mismatch, decides the image of cells."""
    return len(cells) >= _CONE_CELLS_PER_COORDINATE * (len(cells[0]) if cells else 0)


def is_isometric(cells: Sequence[Coord], adj: Sequence[Sequence[int]]) -> bool:
    """Whether adj's graph is isometric in the product: by cones on large images, by BFS on small.

    The placement search's strong leaf decides by this, and certify's
    is_isometric_in_product makes the same decision through the same cut
    (_by_cones). adj keeps isometric_by_cones' precondition.
    """
    if _by_cones(cells):
        return isometric_by_cones(cells, adj)
    return isometry_mismatch(cells, adj) is None


def distance_vector_embedding(h: Graph, anchors: Sequence[str]) -> Embedding:
    """Map each vertex to its vector of graph distances to the anchors.

    Raises UnresolvedPairError when two vertices get the same vector, i.e.
    the anchors do not resolve h.
    """
    dm = h.distances()
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

    Decided as is_isometric decides: by isometric_by_cones on large images,
    and otherwise by isometry_mismatch, which also names the failing pair.
    isometry_mismatch runs at most once: on a large image only when the
    cones fail it. induced is as for is_w_resolved.
    """
    labels, cells, adj = induced() if induced is not None else _induced_adjacency(e)
    if _by_cones(cells) and isometric_by_cones(cells, adj):
        return CheckResult(True)
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

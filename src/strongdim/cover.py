"""Exact minimum vertex cover as the complement of a maximum independent set.

Vertex sets are Python-int bitsets. One search, `_Search.independent_set`,
decides whether a vertex set holds an independent set of a given size: a
maximum clique search on the complement (Tomita & Seki's MCQ in the bitset
form of San Segundo et al.'s BBMC), bounded at each node by a greedy
colouring of the complement, that is a cover of the candidates by cliques of
the graph. Every node first folds its vertices of degree <= 1 into the set:
one scan of its vertices, then rescans of only those whose degree fell.
The size pass raises the target from a greedy set until the search fails;
the returned cover is the lexicographically smallest minimum cover under
string label order, found by a committed-greedy pass that asks the same
search whether the uncommitted vertices minus one still hold a maximum set.
When they do not, that vertex is in every maximum set of what is left: the
pass commits it, drops it and its neighbours from later searches and asks
them for one vertex fewer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class CoverResult:
    size: int
    cover: tuple[str, ...]
    nodes_explored: int  # search nodes opened by the size and lex-min passes


def _bits(mask: int):
    """The vertices of a bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fold(nb: list[int], P: int) -> tuple[int, int, int]:
    """Take each vertex of degree <= 1 in G[P], dropping it and its neighbour
    from P, until G[P] has none left.

    Some maximum independent set of G[P] contains such a vertex, so the taken
    vertices plus a maximum set of the rest are a maximum set of G[P].
    Dropping a taken vertex's neighbour w lowers only the degrees of nb[w] & P,
    so after a first pass over P in bit order a vertex is examined again only
    when its degree fell: in this pass if it lies ahead, else in the next. A
    vertex last seen at degree >= 2 cannot fold until its degree falls, so the
    folds are those of full rescans, in their order.
    Returns (rest of P, taken bitset, number taken).
    """
    taken = count = 0
    Q = P
    while Q:
        again = 0  # vertices behind the scan point whose degree fell
        while Q:
            bit = Q & -Q
            Q ^= bit
            nu = nb[bit.bit_length() - 1] & P
            if not nu & (nu - 1):
                P &= ~(bit | nu)
                taken |= bit
                count += 1
                if nu:
                    fell = nb[nu.bit_length() - 1] & P
                    Q = Q & ~nu | fell & -bit
                    again |= fell & (bit - 1)
        Q = again & P
    return P, taken, count


def _branch_vertices(nb: list[int], P: int, least: int) -> list[int]:
    """The vertices of P worth branching on when least more are needed.

    Greedy colouring of the complement, that is a cover of G[P] by cliques of
    G, taken in bit order. No independent set holds two vertices of one
    class, so the vertices up to one of class c hold at most c of them and
    only vertices of class >= least can start a large enough set. Returned
    in cover order; the search branches from the last.
    """
    for _ in range(least - 1):  # classes 1..least-1 only leave P
        Q = P
        while Q:
            low = Q & -Q
            Q &= nb[low.bit_length() - 1]
            P ^= low
    out: list[int] = []
    while P:
        Q = P
        while Q:
            low = Q & -Q
            v = low.bit_length() - 1
            Q &= nb[v]
            P ^= low
            out.append(v)
    return out


class _Search:
    """The independent-set search over one graph, counting the nodes it opens.

    Bit p stands for vertex self.vertex[p]: vertices in increasing degree, so
    the colouring, which takes the lowest bit first, meets the vertices in
    MCQ's initial order (decreasing degree in the complement).
    """

    def __init__(self, g: Graph):
        self.vertex = sorted(range(g.n), key=g.degree)
        bit = [0] * g.n
        for p, v in enumerate(self.vertex):
            bit[v] = 1 << p
        self.nb = [sum(map(bit.__getitem__, g.adj[v])) for v in self.vertex]
        self.nodes = 0

    def independent_set(self, P: int, target: int) -> int | None:
        """An independent set of at least target vertices inside P, or None.

        Depth-first over frames [P, branch vertices, chosen, size] on an
        explicit stack, so deep searches do not hit the recursion limit. A
        frame branches on its vertices from the last one down and drops each
        from P once tried, so its later siblings exclude it.
        """
        nb = self.nb
        stack: list[list] = []
        chosen = size = 0
        while True:
            self.nodes += 1
            P, taken, count = _fold(nb, P)
            chosen |= taken
            size += count
            if size >= target:
                return chosen
            if P:
                stack.append([P, _branch_vertices(nb, P, target - size), chosen, size])
            while stack:
                frame = stack[-1]
                P, branch, chosen, size = frame
                if not branch:
                    stack.pop()
                    continue
                v = branch.pop()
                bit = 1 << v
                frame[0] = P & ~bit
                P = P & ~bit & ~nb[v]
                chosen |= bit
                size += 1
                break
            else:
                return None

    def greedy(self, P: int) -> int:
        """A maximal independent set inside P: fold, then a minimum-degree vertex."""
        nb = self.nb
        chosen = 0
        while True:
            P, taken, _ = _fold(nb, P)
            chosen |= taken
            if not P:
                return chosen
            v = min(_bits(P), key=lambda u: (nb[u] & P).bit_count())
            chosen |= 1 << v
            P &= ~(1 << v) & ~nb[v]


def min_vertex_cover(g: Graph) -> CoverResult:
    """Exact minimum cover; ties broken to the lexicographically smallest set."""
    search = _Search(g)
    everything = (1 << g.n) - 1
    witness = search.greedy(everything)
    while (found := search.independent_set(everything, witness.bit_count() + 1)) is not None:
        witness = found
    alpha = witness.bit_count()

    # committed greedy for the lex-min minimum cover, in string label order:
    # a vertex goes in iff the uncommitted vertices other than it still hold a
    # maximum independent set. The last set found answers yes for every vertex
    # outside it, with no search. A no means every maximum set inside P holds
    # the vertex, so it is kept out of the cover for good and its neighbours
    # join the cover: later searches run without them for alpha - |kept|.
    label = [g.labels[v] for v in search.vertex]
    P, kept = everything, 0
    for p in sorted(range(g.n), key=label.__getitem__):
        if P.bit_count() + kept.bit_count() == alpha:
            break
        bit = 1 << p
        if not P & bit:
            continue
        if witness & bit:
            found = search.independent_set(P & ~bit, alpha - kept.bit_count())
            if found is None:
                kept |= bit
                P &= ~(bit | search.nb[p])
                continue
            witness = found | kept
        P &= ~bit
    P |= kept
    assert P == witness
    labels = tuple(sorted(label[p] for p in _bits(everything & ~P)))
    return CoverResult(g.n - alpha, labels, search.nodes)

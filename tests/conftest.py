"""Shared helpers: atlas-backed exhaustive graph corpora and brute oracles."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from strongdim import Graph


@lru_cache(maxsize=None)
def _atlas():
    return graph_atlas_g()


def atlas_connected(max_n: int, min_n: int = 1) -> list[Graph]:
    """Every connected graph on min_n..max_n vertices, one per isomorphism class."""
    out = []
    for G in _atlas():
        n = G.number_of_nodes()
        if not (min_n <= n <= max_n) or n == 0:
            continue
        if not nx.is_connected(G):
            continue
        out.append(to_graph(G))
    return out


def to_graph(G: nx.Graph) -> Graph:
    nodes = sorted(G.nodes())
    idx = {u: i for i, u in enumerate(nodes)}
    return Graph.from_edges(
        [str(i) for i in range(len(nodes))], [(idx[u], idx[v]) for u, v in G.edges()]
    )


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(g.labels)
    G.add_edges_from((g.labels[u], g.labels[v]) for u, v in g.edges())
    return G


def random_connected_graph(n: int, rng: random.Random, p: float = 0.35) -> Graph:
    """Random tree plus extra edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.add((u, v))
    return Graph.from_edges([str(i) for i in range(n)], sorted(edges))


@lru_cache(maxsize=1)  # the exhaustive tests ask about one graph at a time
def _supersets(g: Graph) -> list[Graph]:
    """Every edge-superset of g, fewest extra edges first; each keeps its own
    distance matrix once asked, so the exhaustive tests pay one APSP per graph."""
    non_edges = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)]
    return [
        g.with_edges(list(extra))
        for r in range(len(non_edges) + 1)
        for extra in itertools.combinations(non_edges, r)
    ]


def supergraph_oracle(g: Graph, witness, strong: bool) -> bool:
    """Enumerate every edge-superset of g and test the witness on each."""
    from strongdim import is_resolving_set, is_strong_resolving_set

    pred = is_strong_resolving_set if strong else is_resolving_set
    return any(pred(h, witness) for h in _supersets(g))


@pytest.fixture
def rng():
    return random.Random(0)

import pytest

from strongdim import (
    GraphError,
    all_pairs_distances,
    brute_force_dimension,
    is_isometric_in_product,
    is_strong_resolving_set,
    is_w_resolved,
    path_graph,
    random_tree,
    strong_dimension,
    threshold_dimension,
)
from strongdim.constructions import (
    FiveLeafTreeParams,
    FourLeafTreeParams,
    ProperColoring,
    StarPairSpec,
    chromatic_bound_supergraph,
    cycle_embedding,
    five_leaf_tree,
    four_leaf_tree,
    gn_family,
    greedy_coloring,
    l3n_family,
    tree_bound_supergraph,
    tree_dim3_embedding,
    tree_dim4_embedding,
    type_graph,
)
from strongdim.graph import Graph

from .lemmas import (
    anchor_distances_collapse,
    canonical_tree_params,
    induced_supergraph,
    verify_type_sr,
)


# --- two-star realizations -------------------------------------------------


def test_type1_same_parity_fixture_size():
    g = type_graph(StarPairSpec(6, 6, 1))
    # anti-diagonals of the region hold 7+6+7+6+5+4+3+2 cells
    assert g.n == 40


def test_verify_type_sr_negative():
    assert not verify_type_sr(path_graph(5), StarPairSpec(1, 1, 1))  # one MMD pair against two stars
    # both are two stars with 6 vertices and 4 edges in all: 1 + 3 leaves against 2 + 2
    assert not verify_type_sr(type_graph(StarPairSpec(1, 3, 1)), StarPairSpec(2, 2, 1))


def _all_specs(top: int) -> list[StarPairSpec]:
    return [
        StarPairSpec(m, n, tp) for tp in (1, 2, 3, 4) for m in range(1, top + 1)
        for n in range(m, top + 1)
    ]


def test_type_sr_matches_target_up_to_isomorphism():
    """Independent check: the non-isolated MMD graph is isomorphic to the
    literal target graph (networkx isomorphism as the oracle)."""
    for spec in _all_specs(5):
        assert verify_type_sr(type_graph(spec), spec), spec


def test_spec_validation():
    with pytest.raises(GraphError):
        StarPairSpec(3, 2, 1)
    with pytest.raises(GraphError):
        StarPairSpec(1, 1, 5)


# --- log-bound supergraphs ---------------------------------------------------


def test_chromatic_bound_c5_fixture():
    coloring = ProperColoring((("0",), ("1", "3"), ("2", "4")))
    h, bound = chromatic_bound_supergraph(
        Graph.from_edges([str(i) for i in range(5)], [(i, (i + 1) % 5) for i in range(5)]),
        coloring,
    )
    assert bound == 2
    assert strong_dimension(h).value == 2


def test_chromatic_bound_complete():
    from strongdim import complete_graph

    g = complete_graph(5)
    h, bound = chromatic_bound_supergraph(g, greedy_coloring(g))
    assert bound == 4 and h.label_edges() == g.label_edges()


def test_chromatic_bound_bipartite():
    from strongdim import complete_multipartite_graph

    g = complete_multipartite_graph([3, 3])
    h, bound = chromatic_bound_supergraph(g, greedy_coloring(g))
    assert bound == 4
    assert strong_dimension(h).value == 4


def test_chromatic_bound_rejects_improper():
    g = path_graph(3)
    with pytest.raises(GraphError):
        chromatic_bound_supergraph(g, ProperColoring((("0", "1"), ("2",))))


def test_tree_bound_examples():
    h, b = tree_bound_supergraph(path_graph(6))
    assert (b, h.m) == (1, 5)  # two leaves < ceil(log2 6): the tree itself
    from strongdim import star_graph

    h, b = tree_bound_supergraph(star_graph(7))  # n = 8
    assert b == 3 and strong_dimension(h).value == 3


def test_tree_bound_all_small_trees():
    # broad deduplicated sample of labeled trees on 2..9 vertices
    seen = set()
    for seed in range(400):
        for n in range(2, 10):
            t = random_tree(n, seed=seed)
            key = tuple(t.label_edges())
            if key in seen:
                continue
            seen.add(key)
            h, b = tree_bound_supergraph(t)
            assert strong_dimension(h).value == b, (n, seed)
            assert set(t.label_edges()) <= set(h.label_edges())


def test_tree_bound_rejects_non_tree():
    from strongdim import cycle_graph

    with pytest.raises(GraphError):
        tree_bound_supergraph(cycle_graph(4))


# --- 4/5-leaf trees -----------------------------------------------------------


def test_tree4_odd_center_fixture():
    emb = tree_dim3_embedding(FourLeafTreeParams(3, 4, 4, 4, 3))
    assert emb.placement["y4"] == (0, 9)
    assert emb.placement["u4"] == (9, 0)
    assert emb.placement["z1"] == (4, 6)
    assert emb.anchors == ("y4", "u4")


def test_tree4_even_center_fixture():
    emb = tree_dim3_embedding(FourLeafTreeParams(4, 2, 2, 3, 2))
    assert emb.placement["y3"] == (0, 7)
    assert emb.placement["x2"] == (6, 2)


def test_tree5_odd_center_fixture():
    emb = tree_dim4_embedding(FiveLeafTreeParams(3, 2, 2, 3, 2, 3, 2))
    assert emb.placement["t3"] == (7, 6)


def test_tree5_even_center_fixture():
    emb = tree_dim4_embedding(FiveLeafTreeParams(4, 2, 2, 3, 2, 2, 4))
    assert emb.placement["t2"] == (7, 4)


def _random_params4(rng, hi=5):
    k2, k3 = sorted((rng.randrange(1, hi + 1) for _ in range(2)), reverse=True)
    k4, k5 = sorted((rng.randrange(1, hi + 1) for _ in range(2)), reverse=True)
    return FourLeafTreeParams(rng.randrange(1, hi + 1), k2, k3, k4, k5)


def _random_params5(rng, hi=5):
    p = _random_params4(rng, hi)
    return FiveLeafTreeParams(
        p.k1, p.k2, p.k3, p.k4, p.k5, rng.randrange(1, hi + 1), rng.randrange(1, p.k1 + 1)
    )


def test_random_tree4_embeddings_certify(rng):
    for _ in range(60):
        p = _random_params4(rng)
        emb = tree_dim3_embedding(p)
        t = four_leaf_tree(p)
        assert is_w_resolved(emb, t) and is_isometric_in_product(emb)
        assert anchor_distances_collapse(emb)
        sup = induced_supergraph(emb, t)
        assert is_strong_resolving_set(sup, list(emb.anchors))


def test_random_tree5_embeddings_certify(rng):
    for _ in range(60):
        p = _random_params5(rng)
        emb = tree_dim4_embedding(p)
        assert is_w_resolved(emb, five_leaf_tree(p))
        assert is_isometric_in_product(emb)


def test_unnormalized_params_rejected():
    with pytest.raises(GraphError):
        tree_dim3_embedding(FourLeafTreeParams(2, 1, 3, 2, 1))


def test_canonical_params_roundtrip_fixture():
    t = four_leaf_tree(FourLeafTreeParams(3, 4, 4, 4, 3))
    assert canonical_tree_params(t) == FourLeafTreeParams(3, 4, 4, 4, 3)


def test_canonical_params_spider():
    # shared branch vertex: legs {2,1,3,2} split largest/3rd and 2nd/4th
    t = four_leaf_tree(FourLeafTreeParams(1, 2, 1, 3, 2))
    assert canonical_tree_params(t) == FourLeafTreeParams(1, 3, 2, 2, 1)


def test_canonical_params_path_not_applicable():
    assert canonical_tree_params(path_graph(10)) is None


_TIE_CASES = {
    # ends with equal pairs, 4 leaves: either end may be v_k1, the values agree
    "four_equal_ends": (
        four_leaf_tree(FourLeafTreeParams(3, 2, 1, 2, 1)),
        (FourLeafTreeParams(3, 2, 1, 2, 1),) * 2,
    ),
    # branch degrees {3,4}, equal pairs: the end carrying the extra path is v_k1
    "five_34_equal_pairs": (
        five_leaf_tree(FiveLeafTreeParams(3, 2, 1, 2, 1, 1, 1)),
        (FiveLeafTreeParams(3, 2, 1, 2, 1, 1, 3),) * 2,
    ),
    # branch degrees {3,3,3}, equal pairs: the end of smaller index is v_k1
    "five_333_equal_pairs": (
        five_leaf_tree(FiveLeafTreeParams(4, 2, 1, 2, 1, 1, 2)),
        (FiveLeafTreeParams(4, 2, 1, 2, 1, 1, 3), FiveLeafTreeParams(4, 2, 1, 2, 1, 1, 2)),
    ),
    # one branch vertex, five legs of length 2: the extra path is the smallest leaf label
    "spider_equal_legs": (
        five_leaf_tree(FiveLeafTreeParams(1, 2, 2, 2, 2, 2, 1)),
        (FiveLeafTreeParams(1, 2, 2, 2, 2, 2, 1),) * 2,
    ),
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_canonical_params_ties(case):
    """Tie cases under the label order and its reverse, which swaps the
    indices of the two ends (values recorded before the leg-walk rewrite)."""
    t, want = _TIE_CASES[case]
    for reverse, expected in zip((False, True), want):
        order = sorted(t.labels, reverse=reverse)
        g = Graph.from_edges(order, [(order.index(a), order.index(b)) for a, b in t.label_edges()])
        assert canonical_tree_params(g) == expected, reverse


def test_canonical_params_random_roundtrip(rng):
    for _ in range(40):
        p = _random_params4(rng, hi=4)
        t = four_leaf_tree(p)
        q = canonical_tree_params(t)
        assert isinstance(q, FourLeafTreeParams)
        # the embedding certifies on the recovered params too
        tree_dim3_embedding(q)
    for _ in range(25):
        p = _random_params5(rng, hi=3)
        t = five_leaf_tree(p)
        q = canonical_tree_params(t)
        assert isinstance(q, FiveLeafTreeParams)
        tree_dim4_embedding(q)


# --- cycles, corridors --------------------------------------------------------


def test_cycle_embedding_fixture_positions():
    e11 = cycle_embedding(11)
    assert e11.placement["0"] == (0, 5) and e11.side == 6
    e8 = cycle_embedding(8)
    assert e8.placement["0"] == (0, 3) and e8.side == 5


def test_cycle_embeddings_certify_range():
    from strongdim import cycle_graph

    for n in range(4, 17):
        emb = cycle_embedding(n)
        g = cycle_graph(n)
        assert is_w_resolved(emb, g) and is_isometric_in_product(emb)


def test_cycle_embedding_rejects_small():
    with pytest.raises(GraphError):
        cycle_embedding(3)


def test_l3n_fixture_and_dimension():
    g, emb = l3n_family(4)
    assert g.n == 12 and emb.side == 5
    assert emb.placement["v1"] == (1, 1)
    assert emb.placement["u1"] == (0, 1)
    assert emb.placement["w1"] == (1, 0)
    assert emb.placement["v4"] == (4, 4)
    for n in range(2, 9):
        gg, ee = l3n_family(n)
        assert strong_dimension(gg).value == 2 * n - 1
        assert is_w_resolved(ee, gg) and is_isometric_in_product(ee)


def test_gn_family_counts_and_basis():
    g1 = gn_family(1)
    assert g1.n == 23 and g1.m == 60
    g2 = gn_family(2)
    assert g2.n == 44
    g3 = gn_family(3)
    assert g3.n == 23 * 3 - 4
    from strongdim import is_resolving_set

    assert is_resolving_set(g1, ["w1_1", "w2_1"])
    assert is_resolving_set(g2, ["w1_1", "w2_2"])


def test_g1_unresolved_pair():
    from strongdim import strongly_resolves

    g1 = gn_family(1)
    dm = all_pairs_distances(g1)
    c5, f3 = g1.index("c5_1"), g1.index("f3_1")
    for w in ("w1_1", "w2_1"):
        assert not strongly_resolves(dm, g1.index(w), c5, f3)

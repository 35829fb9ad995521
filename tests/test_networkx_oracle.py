"""networkx as a third-party oracle for standard graphs (d = 2), at sizes the
subset-enumeration oracles cannot reach."""

import pytest

from stashpeel import (
    CapExceededError,
    gen_random,
    k_core,
    min_vertex_stash_exact,
    reduce_vc_to_vertex_stash,
    two_edge_stash_standard,
)

from helpers import without

nx = pytest.importorskip("networkx")

# (vertices, edges): mean degree 2 (a 2-core, no 3-core), 5 and 8
SHAPES = ((3000, 3000), (1000, 2500), (500, 2000))


def to_networkx(g, graph):
    """graph, an empty networkx graph, filled with g's vertices and edges."""
    graph.add_nodes_from(range(g.num_vertices))
    graph.add_edges_from(g.edge_vertices(e) for e in range(g.num_edges))
    return graph


def min_cover_size(g) -> int:
    """A minimum cover is the complement of a maximum independent set, a
    maximum clique of the complement graph."""
    clique, _ = nx.max_weight_clique(nx.complement(to_networkx(g, nx.Graph())), weight=None)
    return g.num_vertices - len(clique)


def simple(g):
    """g without parallel edges: the lowest id of each vertex pair stays."""
    seen, parallel = set(), []
    for e in range(g.num_edges):
        pair = frozenset(g.edge_vertices(e))
        if pair in seen:
            parallel.append(e)
        seen.add(pair)
    return without(g, edges=parallel)[0]


@pytest.mark.parametrize("n, m", SHAPES)
def test_k_core_and_cyclomatic_number_match_networkx(n, m):
    nonempty = 0
    for seed in range(2):
        g = gen_random(n, m, 2, seed)
        multi = to_networkx(g, nx.MultiGraph())
        h = multi.number_of_edges() - multi.number_of_nodes() + nx.number_connected_components(multi)
        assert two_edge_stash_standard(g).h == h

        g = simple(g)
        graph = to_networkx(g, nx.Graph())
        for k in (1, 2, 3, 4):
            ours = k_core(g, k)
            theirs = nx.k_core(graph, k)
            assert ours.core_vertices == set(theirs.nodes)
            assert {frozenset(g.edge_vertices(e)) for e in ours.core_edges} == {
                frozenset(e) for e in theirs.edges
            }
            nonempty += not ours.core_empty
    assert nonempty >= 4  # the shapes have cores to compare


@pytest.mark.parametrize("n", (20, 22, 24))
def test_cover_reduction_matches_networkx_cover(n):
    # acceptance criterion 5 (vertex cover to vertex stash) at covers of 9
    # to 13, beyond the package's own cover enumeration
    for seed in (0, 1, 2):
        g = gen_random(n, 2 * n - 4, 2, seed)
        cover = min_cover_size(g)
        reduced, _ = reduce_vc_to_vertex_stash(g, 3, 2)
        assert min_vertex_stash_exact(reduced, 3, size_cap=cover).size == cover, seed
        with pytest.raises(CapExceededError):
            min_vertex_stash_exact(reduced, 3, size_cap=cover - 1)


@pytest.mark.parametrize("n", (30, 32))
def test_one_vertex_stash_matches_networkx_cover(n):
    # G - S has an empty 1-core iff S meets every edge, so a minimum
    # 1-vertex-stash is a minimum cover; covers here run 14 to 18
    for seed in (0, 1, 2):
        g = gen_random(n, 2 * n - 4, 2, seed)
        cover = min_cover_size(g)
        assert min_vertex_stash_exact(g, 1, size_cap=n).size == cover, seed
        with pytest.raises(CapExceededError):
            min_vertex_stash_exact(g, 1, size_cap=cover - 1)

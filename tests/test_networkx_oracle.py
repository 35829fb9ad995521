"""networkx as a third-party oracle for standard graphs (d = 2), at sizes the
subset-enumeration oracles cannot reach."""

import pytest

from stashpeel import gen_random, k_core, two_edge_stash_standard

from helpers import without

nx = pytest.importorskip("networkx")

# (vertices, edges): mean degree 2 (a 2-core, no 3-core), 5 and 8
SHAPES = ((3000, 3000), (1000, 2500), (500, 2000))


def simple(g):
    """g without parallel edges: the lowest id of each vertex pair stays."""
    seen, parallel = set(), []
    for e in sorted(g.edges):
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
        multi = nx.MultiGraph()
        multi.add_nodes_from(g.vertices)
        multi.add_edges_from(g.edges.values())
        h = multi.number_of_edges() - multi.number_of_nodes() + nx.number_connected_components(multi)
        assert two_edge_stash_standard(g).h == h

        g = simple(g)
        graph = nx.Graph(list(g.edges.values()))
        graph.add_nodes_from(g.vertices)
        for k in (1, 2, 3, 4):
            ours = k_core(g, k)
            theirs = nx.k_core(graph, k)
            assert ours.core_vertices == set(theirs.nodes)
            assert {frozenset(g.edge_vertices(e)) for e in ours.core_edges} == {
                frozenset(e) for e in theirs.edges
            }
            nonempty += not ours.core_empty
    assert nonempty >= 4  # the shapes have cores to compare

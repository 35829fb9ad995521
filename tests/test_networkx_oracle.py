"""networkx as a third-party oracle for standard graphs (d = 2): at sizes the
subset-enumeration oracles cannot reach, and on every graph of its atlas."""

from collections import Counter

import pytest

from stashpeel import (
    CapExceededError,
    gen_random,
    is_k_peelable,
    k_core,
    lift_edge_stash,
    min_edge_stash_exact,
    min_vertex_stash_exact,
    normalize_stash,
    reduce_vc_to_vertex_stash,
    reduce_vertex_to_edge_stash,
    two_edge_stash_standard,
)

from helpers import mkgraph, without
from oracles import min_stash_size_by_enumeration, peel_by_repeated_removal

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


def atlas():
    """(atlas index, graph) for every graph of networkx's atlas: all 1,253
    graphs on 0 to 7 vertices, up to isomorphism."""
    return [(i, mkgraph(a.number_of_nodes(), a.edges)) for i, a in enumerate(nx.graph_atlas_g())]


@pytest.mark.parametrize("k, d", [(2, 2), (3, 2), (2, 3)])
def test_cover_reduction_matches_networkx_cover_on_the_atlas(k, d):
    # acceptance criterion 5 on every graph of up to 7 vertices: the cover
    # comes from networkx, the stash from the package, and the normalized
    # stash is a cover of that size
    covers = set()
    for i, g in atlas():
        cover = min_cover_size(g)
        covers.add(cover)
        reduced, rmap = reduce_vc_to_vertex_stash(g, k, d)
        stash = min_vertex_stash_exact(reduced, k, size_cap=g.num_vertices).stash
        assert len(stash) == cover, i
        normalized = normalize_stash(rmap, stash)
        assert is_k_peelable(reduced, k, stash_vertices=normalized), i
        assert len(normalized) == cover, i
        assert all(normalized.intersection(g.edge_vertices(e)) for e in range(g.num_edges)), i
    assert covers == set(range(7))


# how many atlas graphs need a minimum k-vertex-stash of each size
ATLAS_STASH_SIZES = {3: {0: 659, 1: 481, 2: 103, 3: 9, 4: 1}, 4: {0: 1150, 1: 93, 2: 9, 3: 1}}


@pytest.mark.parametrize("k", sorted(ATLAS_STASH_SIZES))
def test_stash_reduction_matches_enumeration_on_the_atlas(k):
    # acceptance criterion 6 at (k, 2) on every graph of up to 7 vertices:
    # the original's vertex stash comes from unpruned enumeration, the
    # reduced instance's edge stash from the package, and the lifted stash
    # is checked by naive repeated removal
    sizes = Counter()
    for i, g in atlas():
        want = min_stash_size_by_enumeration(g, k, "vertex")
        sizes[want] += 1
        reduced, rmap = reduce_vertex_to_edge_stash(g, k, 2)
        stash = min_edge_stash_exact(reduced, k).stash
        assert len(stash) == want, i
        lifted = lift_edge_stash(rmap, stash)
        assert len(lifted) <= want, i
        assert not peel_by_repeated_removal(g, k, stash_vertices=lifted)[1], i
    assert sizes == ATLAS_STASH_SIZES[k]


# how many atlas graphs have each cyclomatic number h
ATLAS_CYCLOMATIC_NUMBERS = {0: 80, 1: 106, 2: 136, 3: 175, 4: 181, 5: 170, 6: 148, 7: 105, 8: 68, 9: 42, 10: 23,
                            11: 10, 12: 5, 13: 2, 14: 1, 15: 1}


def test_cyclomatic_stash_matches_networkx_and_enumeration_on_the_atlas():
    # every graph of up to 7 vertices: h is the size of networkx's cycle
    # basis, the graph minus the set-aside edges is a forest, and up to
    # h = 3 no smaller 2-edge-stash exists by unpruned enumeration
    hs = Counter()
    for (i, g), a in zip(atlas(), nx.graph_atlas_g()):
        cert = two_edge_stash_standard(g)
        hs[cert.h] += 1
        assert cert.h == len(cert.removed_edges) == len(nx.cycle_basis(a)), i
        rest = to_networkx(without(g, edges=cert.removed_edges)[0], nx.Graph())
        assert not rest or nx.is_forest(rest), i
        if cert.h <= 3:
            assert min_stash_size_by_enumeration(g, 2, "edge") == cert.h, i
    assert hs == ATLAS_CYCLOMATIC_NUMBERS
    assert sum(hs[h] for h in range(4)) == 497


def stash_draws():
    """200 seeded 3-uniform draws on 5 to 8 vertices, with n, 3n/2, 2n and
    3n edges in turn."""
    for s in range(200):
        n = 5 + s % 4
        yield s, gen_random(n, (n, 3 * n // 2, 2 * n, 3 * n)[s // 4 % 4], 3, s)


def test_stash_reduction_at_k2_d3_matches_enumeration():
    # acceptance criterion 6 at (2, 3): the original's vertex stash comes
    # from unpruned enumeration, the reduced instance's edge stash from the
    # package, and the lifted stash is checked by naive repeated removal
    sizes = Counter()
    for s, g in stash_draws():
        want = min_stash_size_by_enumeration(g, 2, "vertex")
        sizes[want] += 1
        reduced, rmap = reduce_vertex_to_edge_stash(g, 2, 3)
        stash = min_edge_stash_exact(reduced, 2).stash
        assert len(stash) == want, s
        lifted = lift_edge_stash(rmap, stash)
        assert len(lifted) <= want, s
        assert not peel_by_repeated_removal(g, 2, stash_vertices=lifted)[1], s
    assert sizes == {1: 104, 2: 83, 3: 13}

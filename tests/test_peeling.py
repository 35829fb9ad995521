import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stashpeel import (
    Hypergraph,
    NotFoundError,
    ParameterError,
    PeelTrace,
    core_subgraph,
    is_k_peelable,
    k_core,
    k_core_after,
    verify_trace,
)
from stashpeel.peeling import PeelCore, peel_edges

from helpers import complete_graph, hypergraphs, mkgraph, path, triangle, two_triangles
from oracles import core_by_enumeration, peel_order_by_repeated_removal


def test_path_has_empty_2_core():
    trace = k_core(path(3), 2)
    assert trace.core_empty
    assert len(trace.peeled_vertices) == 3
    assert trace.peeled_edges == {0, 1}


def test_triangle_2_core_is_everything():
    trace = k_core(triangle(), 2)
    assert trace.core_vertices == {0, 1, 2}
    assert trace.core_edges == {0, 1, 2}
    assert trace.peeled_vertices == ()


def test_k4_cores_match_enumeration_oracle():
    g = complete_graph(4)
    for k in (3, 4):
        want_v, want_e = core_by_enumeration(g, k)
        trace = k_core(g, k)
        assert trace.core_vertices == want_v
        assert trace.core_edges == want_e
    assert not k_core(g, 3).core_empty
    assert k_core(g, 4).core_empty


def test_forest_is_2_peelable():
    assert is_k_peelable(path(5), 2)


def test_triangle_not_2_peelable():
    assert not is_k_peelable(triangle(), 2)


def test_single_3_uniform_edge_is_2_peelable():
    assert is_k_peelable(mkgraph(3, [(0, 1, 2)], d=3), 2)


def test_zero_vertex_hypergraph_is_peelable_for_every_k():
    g = Hypergraph(2)
    for k in (1, 2, 5):
        trace = k_core(g, k)
        assert trace.core_empty and not trace.peeled_vertices


def test_degree_zero_vertices_are_peeled():
    g = mkgraph(4, [(0, 1), (1, 2), (2, 0)])
    trace = k_core(g, 2)
    assert 3 in trace.peeled_vertices
    assert trace.core_vertices == {0, 1, 2}


def test_k_below_one_rejected():
    with pytest.raises(ParameterError):
        k_core(triangle(), 0)


def test_k_core_after_stash_edge_on_triangle():
    assert k_core_after(triangle(), 2, stash_edges=[0]).core_empty


def test_k_core_after_stash_vertex_on_triangle():
    assert k_core_after(triangle(), 2, stash_vertices=[1]).core_empty


def test_k_core_after_disjoint_triangles_matches_oracle():
    g = two_triangles()
    trace = k_core_after(g, 2, stash_edges=[0])
    pruned = g.copy()
    pruned.remove_edge(0)
    want_v, want_e = core_by_enumeration(pruned, 2)
    assert trace.core_vertices == want_v == {3, 4, 5}
    assert trace.core_edges == want_e


def test_k_core_after_does_not_mutate():
    g = triangle()
    k_core_after(g, 2, stash_vertices=[0], stash_edges=[1])
    assert g == triangle()
    g.validate()


def test_k_core_after_unknown_ids():
    with pytest.raises(NotFoundError):
        k_core_after(triangle(), 2, stash_vertices=[9])
    with pytest.raises(NotFoundError):
        k_core_after(triangle(), 2, stash_edges=[9])


def test_trace_replay_and_core_subgraph():
    g = mkgraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    trace = k_core(g, 2)
    assert verify_trace(g, trace)
    core = core_subgraph(g, trace)
    assert core.vertices == trace.core_vertices
    assert set(core.edges) == trace.core_edges


def test_verify_trace_rejects_a_vertex_peeled_twice():
    g = triangle()
    trace = k_core(g, 3)
    assert trace.peeled_vertices == (0, 1, 2) and verify_trace(g, trace)
    twice = PeelTrace(
        k=3,
        peeled_vertices=(0, 0, 1, 2),
        peeled_edges=trace.peeled_edges,
        core_vertices=trace.core_vertices,
        core_edges=trace.core_edges,
    )
    assert verify_trace(g, twice) is False


@settings(max_examples=80, deadline=None)
@given(hypergraphs(max_vertices=7, max_edges=9), st.sampled_from((1, 2, 3)))
def test_core_matches_enumeration_oracle(g, k):
    want_v, want_e = core_by_enumeration(g, k)
    trace = k_core(g, k)
    assert trace.core_vertices == want_v
    assert trace.core_edges == want_e
    assert verify_trace(g, trace)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.sampled_from((2, 3)), st.lists(st.integers(0, 2**16), max_size=6))
def test_order_independence_under_random_worklists(g, k, seeds):
    base = k_core(g, k)
    for seed in seeds:
        other = k_core(g, k, order_seed=seed)
        assert other.core_vertices == base.core_vertices
        assert other.core_edges == base.core_edges
        assert verify_trace(g, other)


@settings(max_examples=50, deadline=None)
@given(hypergraphs(), st.sampled_from((2, 3)))
def test_idempotence_and_threshold_monotonicity(g, k):
    trace = k_core(g, k)
    core = core_subgraph(g, trace)
    again = k_core(core, k)
    assert again.core_vertices == trace.core_vertices
    assert again.core_edges == trace.core_edges
    higher = k_core(g, k + 1)
    assert higher.core_vertices <= trace.core_vertices
    assert higher.core_edges <= trace.core_edges


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_edges=8), st.sampled_from((2, 3)))
def test_removal_monotonicity(g, k):
    base = k_core(g, k)
    for e in sorted(g.edges):
        smaller = k_core_after(g, k, stash_edges=[e])
        assert smaller.core_vertices <= base.core_vertices
        assert smaller.core_edges <= base.core_edges and e not in smaller.core_edges
    for v in sorted(g.vertices):
        smaller = k_core_after(g, k, stash_vertices=[v])
        assert smaller.core_vertices <= base.core_vertices and v not in smaller.core_vertices


@settings(max_examples=60, deadline=None)
@given(
    hypergraphs(max_edges=12),
    st.sampled_from((1, 2, 3)),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=5),
)
def test_peel_core_stash_and_undo_track_k_core_after(g, k, picks):
    core = PeelCore(g.edges, k)

    def state():
        live_v = frozenset(core.vertex_ids[v] for v, a in enumerate(core.vertex_alive) if a)
        live_e = frozenset(core.edge_ids[e] for e, a in enumerate(core.edge_alive) if a)
        assert core.live_edges == len(live_e)
        for v, c in enumerate(core.degree):
            assert c == sum(1 for e in core.vertex_edges[v] if core.edge_alive[e])
        return live_v, live_e, tuple(core.degree)

    base = k_core(g, k)
    assert state()[:2] == (base.core_vertices, base.core_edges)
    stash_v, stash_e, history = [], [], []
    for by_vertex, i in picks:
        alive = core.vertex_alive if by_vertex else core.edge_alive
        live = [x for x, a in enumerate(alive) if a]
        if not live:
            break
        history.append((len(core.trail), state()))
        x = live[i % len(live)]
        if by_vertex:
            core.stash_vertex(x)
            stash_v.append(core.vertex_ids[x])
        else:
            core.stash_edge(x)
            stash_e.append(core.edge_ids[x])
        want = k_core_after(g, k, stash_vertices=stash_v, stash_edges=stash_e)
        assert state()[:2] == (want.core_vertices, want.core_edges)
    for mark, before in reversed(history):
        core.undo(mark)
        assert state() == before


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.sampled_from((1, 2, 3)))
def test_peel_edges_matches_enumeration(g, k):
    assert set(peel_edges(g.edges, k)) == core_by_enumeration(g, k)[1]


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.sampled_from((1, 2, 3)), st.data())
def test_k_core_after_mixed_stash_matches_enumeration(g, k, data):
    stash_v = data.draw(st.sets(st.sampled_from(sorted(g.vertices)), max_size=3))
    stash_e = data.draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=3)) if g.num_edges else set()
    h = g.copy()
    for e in stash_e:
        h.remove_edge(e)
    for v in stash_v:
        h.remove_vertex(v)
    got = k_core_after(g, k, stash_vertices=stash_v, stash_edges=stash_e)
    assert (got.core_vertices, got.core_edges) == core_by_enumeration(h, k)
    assert verify_trace(h, got)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.sampled_from((1, 2, 3)))
def test_k_core_peels_lowest_id_first(g, k):
    assert k_core(g, k).peeled_vertices == peel_order_by_repeated_removal(g, k)

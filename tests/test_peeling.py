import dataclasses
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from stashpeel import (
    Hypergraph,
    NotFoundError,
    ParameterError,
    PeelTrace,
    build_ck_gadget,
    build_stable_block,
    check_gadget,
    core_subgraph,
    gen_random,
    greedy_stash,
    is_k_peelable,
    k_core,
    k_core_after,
    min_edge_stash_exact,
    min_vertex_stash_exact,
    verify_trace,
)
from stashpeel import gadgets
from stashpeel.peeling import PeelCore, certify_stash, peel_edges

from helpers import complete_graph, hypergraphs, layout, mkgraph, path, triangle, two_triangles, without
from oracles import core_by_enumeration, core_layout_by_renumbering, peel_by_repeated_removal


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
    want_v, want_e = core_by_enumeration(g, 2, stash_edges=[0])
    assert trace.core_vertices == want_v == {3, 4, 5}
    assert trace.core_edges == want_e


def test_k_core_after_does_not_mutate():
    g = triangle()
    k_core_after(g, 2, stash_vertices=[0], stash_edges=[1])
    assert g == triangle()
    g.validate()


def test_k_core_after_unknown_ids():
    for check in (k_core_after, is_k_peelable):
        with pytest.raises(NotFoundError):
            check(triangle(), 2, stash_vertices=[9])
        with pytest.raises(NotFoundError):
            check(triangle(), 2, stash_edges=[9])


def test_trace_replay_and_core_subgraph():
    g = mkgraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    trace = k_core(g, 2)
    assert verify_trace(g, trace)
    core = core_subgraph(g, trace)
    assert set(range(core.num_vertices)) == trace.core_vertices
    assert set(range(core.num_edges)) == trace.core_edges


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


@pytest.mark.parametrize("k", [0, -1])
def test_peel_trace_refuses_k_below_one(k):
    # a k=0 trace with everything in its core would otherwise replay as valid
    g = triangle()
    with pytest.raises(ParameterError, match=f"^k must be at least 1, got {k}$"):
        PeelTrace(k, (), frozenset(), frozenset(range(g.num_vertices)), frozenset(range(g.num_edges)))


def test_verify_trace_replays_stash_free_traces_only():
    # a trace does not record its stash, so the replay counts the stashed
    # vertex and its edges as neither peeled nor core and rejects the trace
    g = gen_random(8, 14, 2, 1)
    assert verify_trace(g, k_core_after(g, 2))
    assert verify_trace(g, k_core_after(g, 2, stash_vertices=[0])) is False


def test_core_subgraph_of_a_stashed_trace_holds_only_the_core():
    # a stashed vertex is in neither part of the trace, and a stashed edge
    # between two core vertices is not a core edge
    cases = (
        (two_triangles(), {"stash_vertices": [0]}, {3, 4, 5}, {3, 4, 5}),
        (complete_graph(4), {"stash_edges": [0]}, {0, 1, 2, 3}, {1, 2, 3, 4, 5}),
    )
    for g, stash, want_v, want_e in cases:
        trace = k_core_after(g, 2, **stash)
        assert (trace.core_vertices, trace.core_edges) == (want_v, want_e)
        core = core_subgraph(g, trace)
        core.validate()
        assert (core.num_vertices, core.num_edges) == (len(want_v), len(want_e))
        assert layout(core) == core_layout_by_renumbering(g, want_v, want_e)


def _tail_triangle() -> Hypergraph:
    # triangle 0-1-2 with the path 2-3-4: k=2 peels 4, then 3
    return mkgraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])


def _tail_parallel_d3() -> Hypergraph:
    # two parallel edges on 0,1,2 and the chain 2,3,4 / 3,4,5: k=2 peels 5,
    # then 3, then 4
    return mkgraph(6, [(0, 1, 2), (0, 1, 2), (2, 3, 4), (3, 4, 5)], d=3)


@pytest.mark.parametrize(
    "g, peeled, wrong_order",
    [(_tail_triangle(), (4, 3), (3, 4)), (_tail_parallel_d3(), (5, 3, 4), (3, 5, 4))],
    ids=["d2", "d3-parallel"],
)
def test_verify_trace_rejects_bad_traces(g, peeled, wrong_order):
    trace = k_core(g, 2)
    assert trace.peeled_vertices == peeled and verify_trace(g, trace)
    first, last = peeled[0], peeled[-1]
    first_edges = frozenset(e for e in range(g.num_edges) if first in g.edge_vertices(e))
    core_edge = min(trace.core_edges)
    bad = {
        # the second vertex still has degree >= k at the first removal
        "wrong order": dataclasses.replace(trace, peeled_vertices=wrong_order),
        # stop after the first removal: the next vertex has degree < k
        "low residue": dataclasses.replace(
            trace,
            peeled_vertices=(first,),
            peeled_edges=first_edges,
            core_vertices=trace.core_vertices | set(peeled[1:]),
            core_edges=trace.core_edges | (trace.peeled_edges - first_edges),
        ),
        "edge in both parts": dataclasses.replace(trace, peeled_edges=trace.peeled_edges | {core_edge}),
        "edge in neither part": dataclasses.replace(trace, core_edges=trace.core_edges - {core_edge}),
        "vertex in neither part": dataclasses.replace(trace, peeled_vertices=peeled[:-1]),
        "vertex in both parts": dataclasses.replace(trace, core_vertices=trace.core_vertices | {last}),
        # the partition holds, but an edge on a peeled vertex is called core
        "peeled edge kept": dataclasses.replace(
            trace,
            peeled_edges=trace.peeled_edges - first_edges,
            core_edges=trace.core_edges | first_edges,
        ),
        "core edge peeled": dataclasses.replace(
            trace,
            peeled_edges=trace.peeled_edges | {core_edge},
            core_edges=trace.core_edges - {core_edge},
        ),
    }
    assert {name: verify_trace(g, t) for name, t in bad.items()} == dict.fromkeys(bad, False)


def _trace_of_schedule(g: Hypergraph, k: int, order_seed: int | None) -> PeelTrace:
    """The trace of the oracle's peel schedule for this seed."""
    order, core_v, core_e = peel_by_repeated_removal(g, k, order_seed)
    return PeelTrace(k, order, frozenset(range(g.num_edges)) - core_e, core_v, core_e)


@settings(max_examples=80, deadline=None)
@given(hypergraphs(), st.sampled_from((1, 2, 3)), st.one_of(st.none(), st.integers(0, 2**32)))
def test_verify_trace_accepts_every_k_core_trace(g, k, order_seed):
    assert verify_trace(g, k_core(g, k))
    assert verify_trace(g, _trace_of_schedule(g, k, order_seed))


@settings(max_examples=80, deadline=None)
@given(hypergraphs(), st.sampled_from((1, 2, 3)), st.data())
def test_core_subgraph_matches_copy_and_remove(g, k, data):
    stash_v = data.draw(st.sets(st.sampled_from(range(g.num_vertices)), max_size=2)) if g.num_vertices else set()
    stash_e = data.draw(st.sets(st.sampled_from(range(g.num_edges)), max_size=2)) if g.num_edges else set()
    before = layout(g)
    for trace in (k_core(g, k), k_core_after(g, k, stash_v, stash_e)):
        core = core_subgraph(g, trace)
        assert layout(core) == core_layout_by_renumbering(g, trace.core_vertices, trace.core_edges)
        core.validate()
        # the result shares no mutable state with its input
        core.add_edge(core.add_vertices(core.d))
        for e in range(core.num_edges):
            core.add_edge(core.edge_vertices(e))
        assert layout(g) == before
        g.validate()


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
        other = _trace_of_schedule(g, k, seed)
        assert other.core_vertices == base.core_vertices
        assert other.core_edges == base.core_edges
        assert verify_trace(g, other)


@settings(max_examples=50, deadline=None)
@given(hypergraphs(), st.sampled_from((2, 3)))
def test_idempotence_and_threshold_monotonicity(g, k):
    trace = k_core(g, k)
    core = core_subgraph(g, trace)
    assert (core.num_vertices, core.num_edges) == (len(trace.core_vertices), len(trace.core_edges))
    again = k_core(core, k)
    assert again.core_vertices == set(range(core.num_vertices))
    assert again.core_edges == set(range(core.num_edges))
    higher = k_core(g, k + 1)
    assert higher.core_vertices <= trace.core_vertices
    assert higher.core_edges <= trace.core_edges


@settings(max_examples=50, deadline=None)
@given(hypergraphs(max_edges=8), st.sampled_from((2, 3)))
def test_removal_monotonicity(g, k):
    base = k_core(g, k)
    for e in range(g.num_edges):
        smaller = k_core_after(g, k, stash_edges=[e])
        assert smaller.core_vertices <= base.core_vertices
        assert smaller.core_edges <= base.core_edges and e not in smaller.core_edges
    for v in range(g.num_vertices):
        smaller = k_core_after(g, k, stash_vertices=[v])
        assert smaller.core_vertices <= base.core_vertices and v not in smaller.core_vertices


@settings(max_examples=60, deadline=None)
@given(
    hypergraphs(max_edges=12),
    st.sampled_from((1, 2, 3)),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=3),
    st.booleans(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=5),
)
def test_peel_core_stash_and_undo_track_k_core_after(g, k, start, ordered, picks):
    # A core is built untraced, from a stack with an empty trail, unless
    # k_core_after asks for the heap-ordered trace.  Both are the same
    # k-core under any starting stash, and stash and undo on either track
    # k_core_after.
    stash_v = sorted({i % g.num_vertices for by_vertex, i in start if by_vertex and g.num_vertices})
    stash_e = sorted({i % g.num_edges for by_vertex, i in start if not by_vertex and g.num_edges})
    traced = PeelCore(g, k, frozenset(stash_v), frozenset(stash_e), _ordered=True)
    untraced = PeelCore(g, k, frozenset(stash_v), frozenset(stash_e))
    assert untraced.trail == []
    assert (untraced.vertex_alive, untraced.edge_alive, untraced.degree, untraced.live_edges) == (
        traced.vertex_alive, traced.edge_alive, traced.degree, traced.live_edges)
    core = traced if ordered else untraced

    def state():
        live_v = frozenset(v for v, a in enumerate(core.vertex_alive) if a)
        live_e = frozenset(e for e, a in enumerate(core.edge_alive) if a)
        assert core.live_edges == len(live_e)
        for v, c in enumerate(core.degree):
            assert c == sum(1 for e in core.vertex_edges[v] if core.edge_alive[e])
        return live_v, live_e, tuple(core.degree)

    base = k_core_after(g, k, stash_vertices=stash_v, stash_edges=stash_e)
    assert state()[:2] == (base.core_vertices, base.core_edges)
    history = []
    for by_vertex, i in picks:
        alive = core.vertex_alive if by_vertex else core.edge_alive
        live = [x for x, a in enumerate(alive) if a]
        if not live:
            break
        history.append((len(core.trail), state()))
        x = live[i % len(live)]
        if by_vertex:
            core.stash_vertex(x)
            stash_v.append(x)
        else:
            core.stash_edge(x)
            stash_e.append(x)
        want = k_core_after(g, k, stash_vertices=stash_v, stash_edges=stash_e)
        assert state()[:2] == (want.core_vertices, want.core_edges)
    for mark, before in reversed(history):
        core.undo(mark)
        assert state() == before


def test_only_k_core_after_builds_a_heap_ordered_core(monkeypatch):
    # Only a trace reads the peel order, so every other entry point builds
    # its cores untraced.  Only the gadget checks' _survivors passes a
    # non-empty stop set to the untraced cascade, so no other entry point
    # sees a stopped core.
    init, cascade = PeelCore.__init__, PeelCore._peel_untraced
    built, stopped, stoppers = [], [], set()

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(kwargs.get("_ordered", False))

    def spy_cascade(self, dead, dying, stop=()):
        if stop:
            stoppers.add(sys._getframe(1).f_code)
        stopped.append(cascade(self, dead, dying, stop))
        return stopped[-1]

    monkeypatch.setattr(PeelCore, "__init__", spy)
    monkeypatch.setattr(PeelCore, "_peel_untraced", spy_cascade)
    g = two_triangles()
    assert not k_core(g, 2).core_empty

    def ordered(call):
        built.clear()
        stopped.clear()
        call()
        assert not any(stopped)
        return set(built)

    assert ordered(lambda: k_core(g, 2)) == {True}
    assert ordered(lambda: k_core_after(g, 2, [0], [3])) == {True}
    for call in (
        lambda: is_k_peelable(g, 2, [0]),
        lambda: certify_stash("test", g, 2, (), [0, 3]),
        lambda: peel_edges(g.edges, 2),
        lambda: min_vertex_stash_exact(g, 2),
        lambda: min_edge_stash_exact(g, 2),
        lambda: greedy_stash(g, 2, "edge"),
        lambda: check_gadget(build_ck_gadget(3, 2)),
    ):
        assert ordered(call) == {False}
    assert not stoppers
    built.clear()
    check_gadget(build_stable_block(5, 3, 2))
    assert set(built) == {False} and any(stopped)
    assert stoppers == {gadgets._survivors.__code__}


def test_stop_set_ends_the_cascade():
    # stashing edge 0 of the triangle kills vertices 0 and 1; the death of
    # 1 stops the cascade, and the live edges still count the flags
    core = PeelCore(triangle(), 2)
    cut = core.copy()
    assert cut._peel_untraced([], (0,), {1})
    assert cut.live_edges == cut.edge_alive.count(True) < 3
    assert not core.copy()._peel_untraced([], (0,), {5})
    assert not core.copy()._peel_untraced([], (0,))
    # the copies left the intact core as built
    assert core.vertex_alive == [True] * 3 and core.live_edges == 3


@settings(max_examples=200, deadline=None)
@given(hypergraphs(max_vertices=9, max_edges=16), st.sampled_from((1, 2, 3)), st.data())
def test_stop_set_stops_only_peels_whose_core_is_empty(g, k, data):
    # The vertices of each edge whose stash alone empties the core: once one
    # dies, that edge is dead, and the core lies inside the empty core
    # without it.  A cascade that never reaches one, on a copy of the core
    # with the stashed vertices, runs to the full construction's core.
    fatal = {v for e in range(g.num_edges) if not PeelCore(g, k, (), (e,)).live_edges for v in g.edge_vertices(e)}
    sv = data.draw(st.frozensets(st.integers(0, g.num_vertices - 1), max_size=2))
    se = data.draw(st.frozensets(st.sampled_from(range(g.num_edges)), max_size=3)) if g.num_edges else frozenset()
    full = PeelCore(g, k, sv, se)
    cut = PeelCore(g, k, sv).copy()
    stopped = cut._peel_untraced([], se, fatal)
    assert cut.live_edges == cut.edge_alive.count(True)
    event("stopped" if stopped else "ran to the core")
    if stopped:
        assert not full.live_edges
    else:
        assert (cut.vertex_alive, cut.edge_alive, cut.degree, cut.live_edges) == (
            full.vertex_alive, full.edge_alive, full.degree, full.live_edges)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.sampled_from((1, 2, 3)))
def test_peel_edges_matches_enumeration(g, k):
    assert set(peel_edges(g.edges, k)) == core_by_enumeration(g, k)[1]


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.sampled_from((1, 2, 3)), st.data())
def test_k_core_after_mixed_stash_matches_enumeration(g, k, data):
    stash_v = data.draw(st.sets(st.sampled_from(range(g.num_vertices)), max_size=3))
    stash_e = data.draw(st.sets(st.sampled_from(range(g.num_edges)), max_size=3)) if g.num_edges else set()
    got = k_core_after(g, k, stash_vertices=stash_v, stash_edges=stash_e)
    assert (got.core_vertices, got.core_edges) == core_by_enumeration(g, k, stash_v, stash_e)
    assert is_k_peelable(g, k, stash_v, stash_e) == got.core_empty
    # the trace, renumbered like the graph left after the stash, replays on it
    h, vmap, emap = without(g, stash_v, stash_e)
    renumbered = PeelTrace(
        k,
        tuple(vmap[v] for v in got.peeled_vertices),
        frozenset(map(emap.__getitem__, got.peeled_edges)),
        frozenset(map(vmap.__getitem__, got.core_vertices)),
        frozenset(map(emap.__getitem__, got.core_edges)),
    )
    assert verify_trace(h, renumbered)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.sampled_from((1, 2, 3)), st.data())
def test_k_core_peels_lowest_id_first(g, k, data):
    order, core_v, core_e = peel_by_repeated_removal(g, k)
    trace = k_core(g, k)
    assert (trace.peeled_vertices, trace.core_vertices, trace.core_edges) == (order, core_v, core_e)
    # with a stash, the whole stash goes first and the peel order is still
    # lowest id first among what is left
    stash_v = data.draw(st.sets(st.sampled_from(range(g.num_vertices)), max_size=3))
    stash_e = data.draw(st.sets(st.sampled_from(range(g.num_edges)), max_size=3)) if g.num_edges else set()
    got = k_core_after(g, k, stash_vertices=stash_v, stash_edges=stash_e)
    want = peel_by_repeated_removal(g, k, None, stash_v, stash_e)
    assert (got.peeled_vertices, got.core_vertices, got.core_edges) == want


def test_peel_edges_rejects_maps_that_are_not_canonical():
    for edges in ({1: (0, 1)}, {0: (0, 1), 2: (1, 2)}, {0: (-1, 0)}, {0: (0, 0)}, {0: (0, 1), 1: (0, 1, 2)},
                  {0: ("a", "b")}, {0: (0.0, 1.0)}, {0: ()}, {0: (0, 1), 1: ()}):
        with pytest.raises(ParameterError):
            peel_edges(edges, 2)
    assert peel_edges({}, 2) == {}
    assert peel_edges({1: (0, 2), 0: (2, 1), 2: (1, 0)}, 2) == {0: (2, 1), 1: (0, 2), 2: (1, 0)}


@pytest.mark.parametrize("k", (0, -1))
def test_every_entry_point_rejects_k_below_one_alike(k):
    g = mkgraph(2, [(0, 1)])
    calls = (
        lambda: peel_edges(g.edges, k),
        lambda: k_core(g, k),
        lambda: k_core_after(g, k),
        lambda: is_k_peelable(g, k),
        lambda: min_vertex_stash_exact(g, k),
        lambda: min_edge_stash_exact(g, k),
        lambda: greedy_stash(g, k, "vertex"),
        # k is checked before a second bad argument ...
        lambda: peel_edges({1: (0, 1)}, k),
        lambda: min_vertex_stash_exact(g, k, -1),
        lambda: min_edge_stash_exact(g, k, -1),
        lambda: greedy_stash(g, k, "bogus"),
    )
    for call in calls:
        with pytest.raises(ParameterError, match=f"^k must be at least 1, got {k}$"):
            call()
    # ... but after the ids of a stash
    for check in (k_core_after, is_k_peelable):
        with pytest.raises(NotFoundError, match="^unknown vertex id 99 in stash$"):
            check(g, k, [99])

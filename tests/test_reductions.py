import dataclasses
import itertools
import textwrap

import pytest

from stashpeel import (
    ContractViolationError,
    Hypergraph,
    InvalidArityError,
    ParameterError,
    ParseError,
    ReductionMap,
    UnsupportedCaseError,
    audit_p1,
    audit_pk_properties,
    build_ck_gadget,
    build_pk_gadget,
    gen_random,
    greedy_stash,
    is_k_peelable,
    k_core_after,
    lift_edge_stash,
    min_edge_stash_exact,
    min_vertex_cover_exact,
    min_vertex_stash_exact,
    normalize_stash,
    parse_map,
    push_vertex_stash,
    reduce_vc_to_vertex_stash,
    reduce_vertex_to_edge_stash,
    serialize_map,
)
from stashpeel.reductions import REDUCTIONS

from helpers import complete_graph, mkgraph, run_python, triangle

PAIRS = ((2, 2), (3, 2), (2, 3))


# -- vertex cover -> vertex stash ----------------------------------------------


def test_single_edge_reduction_k2_d2():
    g = mkgraph(2, [(0, 1)])
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    assert reduced.num_vertices == 4 and reduced.num_edges == 4
    assert min_vertex_stash_exact(reduced, 2).size == len(min_vertex_cover_exact(g)) == 1


def test_triangle_reduction_matches_cover():
    g = triangle()
    for k, d in PAIRS:
        reduced, _ = reduce_vc_to_vertex_stash(g, k, d)
        assert reduced.d == d
        assert min_vertex_stash_exact(reduced, k).size == 2


def test_empty_graph_reduction_is_identity_shaped():
    g = mkgraph(3, [])
    reduced, _ = reduce_vc_to_vertex_stash(g, 2, 2)
    assert reduced.num_vertices == 3 and reduced.num_edges == 0
    assert min_vertex_stash_exact(reduced, 2).size == 0


def test_original_vertices_keep_only_gadget_edges():
    g = mkgraph(3, [(0, 1), (1, 2)])
    for k, d in PAIRS:
        reduced, rmap = reduce_vc_to_vertex_stash(g, k, d)
        # the original vertices keep their ids in the reduced instance
        for v in range(g.num_vertices):
            assert reduced.degree(v) == k * g.degree(v)


def test_reduction_map_refuses_an_unknown_direction():
    # a direction that is not a REDUCTIONS key would serialize to a header
    # parse_map refuses, and every map function would misread it
    _, rmap = reduce_vc_to_vertex_stash(triangle(), 2, 2)
    for direction in ("VC", "Vstash", "", "vc ", None):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(rmap, direction=direction)
        assert str(exc.value) == f"direction must be one of vc, vstash, got {direction!r}"
    fields = dict(k=2, d=2, original=triangle(), reduced=triangle(), owner={})
    assert [ReductionMap(direction=name, **fields).direction for name in REDUCTIONS] == ["vc", "vstash"]


def test_vc_reduction_parameter_errors():
    with pytest.raises(InvalidArityError, match=r"^vertex cover instances are standard graphs \(d=2\)$"):
        reduce_vc_to_vertex_stash(mkgraph(3, [(0, 1, 2)], d=3), 2, 3)
    with pytest.raises(ParameterError):
        reduce_vc_to_vertex_stash(triangle(), 1, 2)
    # a map whose header asks for that reduction names the header's line
    text = serialize_map(reduce_vc_to_vertex_stash(triangle(), 2, 2)[1])
    with pytest.raises(ParseError) as exc:
        parse_map(text.replace("M vc 2 2\n", "M vc 1 2\n", 1))
    assert str(exc.value) == "line 1: reduction needs k >= 2 and d >= 2, got k=1, d=2"


def _cover_blocks(rmap):
    """(internal vertex range, edge range) of each original edge's cover
    gadget, found from the reduced instance alone: after the original
    vertices, the build copies one equal block of fresh vertices and edges
    per original edge, in edge order, and a block's edges are those on its
    vertices and reach no original vertex but its edge's endpoints."""
    g, reduced = rmap.original, rmap.reduced
    n, m = g.num_vertices, g.num_edges
    size, spare_vertices = divmod(reduced.num_vertices - n, m)
    count, spare_edges = divmod(reduced.num_edges, m)
    assert size and count and not spare_vertices and not spare_edges
    blocks = []
    for e, ends in enumerate(g._edges):
        inside, edges = range(n + e * size, n + (e + 1) * size), range(e * count, (e + 1) * count)
        assert {f for w in inside for f in reduced._incidence[w]} == set(edges)
        assert {w for f in edges for w in reduced.edge_vertices(f)} - set(inside) == set(ends)
        blocks.append((inside, edges))
    return blocks


def _gadget_vertices(rmap, e):
    """Internal vertices of the cover gadget that replaced original edge e."""
    return list(_cover_blocks(rmap)[e][0])


def test_normalize_replaces_gadget_vertex_with_endpoint():
    g = mkgraph(2, [(0, 1)])
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    internal = _gadget_vertices(rmap, 0)[0]
    normalized = normalize_stash(rmap, {internal})
    assert normalized == {g.edge_vertices(0)[0]}
    assert k_core_after(reduced, 2, stash_vertices=normalized).core_empty


@pytest.mark.parametrize("k, d", PAIRS)
def test_vc_owner_charges_gadget_vertices_to_first_endpoint(k, d):
    # the owners are derived from the reduced instance's edges: a gadget
    # block's lowest edge that reaches an original vertex is a port edge of
    # its edge's first endpoint, which the edge lists first
    for g in (mkgraph(3, [(1, 0), (0, 2), (1, 0)]), gen_random(6, 8, 2, 3)):
        reduced, rmap = reduce_vc_to_vertex_stash(g, k, d)
        want = {v: v for v in range(g.num_vertices)}
        for (inside, edges), ends in zip(_cover_blocks(rmap), g._edges):
            first = next(w for f in edges for w in reduced.edge_vertices(f) if w < g.num_vertices)
            assert first == ends[0]
            want.update(dict.fromkeys(inside, first))
        assert rmap.owner == want


def test_normalize_keeps_original_only_stashes():
    g = triangle()
    _, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    originals = {0, 1}
    assert normalize_stash(rmap, originals) == originals
    everyone = frozenset(range(g.num_vertices))
    assert normalize_stash(rmap, everyone) == everyone


def test_normalize_never_grows_mixed_stashes():
    g = triangle()
    _, rmap = reduce_vc_to_vertex_stash(g, 3, 2)
    mixed = {0, _gadget_vertices(rmap, 1)[0]}
    normalized = normalize_stash(rmap, mixed)
    assert len(normalized) <= len(mixed)
    assert normalized <= set(range(g.num_vertices))


def test_normalize_rejects_invalid_stash():
    g = triangle()
    _, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    with pytest.raises(ContractViolationError):
        normalize_stash(rmap, {0})  # one vertex is not enough
    with pytest.raises(ContractViolationError):
        normalize_stash(rmap, {10**6})


# -- vertex stash -> edge stash --------------------------------------------------


def test_triangle_k3_both_sides_zero():
    g = triangle()
    assert is_k_peelable(g, 3)
    fg, _ = reduce_vertex_to_edge_stash(g, 3, 2)
    assert is_k_peelable(fg, 3)
    assert min_edge_stash_exact(fg, 3).size == 0


def test_k4_stash_sizes_agree():
    g = complete_graph(4)
    vs = min_vertex_stash_exact(g, 3)
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    es = min_edge_stash_exact(fg, 3)
    assert vs.size == es.size == 1
    assert not audit_p1(rmap)


def test_tripled_3_uniform_edge_k2_d3():
    g = mkgraph(3, [(0, 1, 2)] * 3, d=3)
    vs = min_vertex_stash_exact(g, 2)
    fg, _ = reduce_vertex_to_edge_stash(g, 2, 3)
    es = min_edge_stash_exact(fg, 2)
    assert vs.size == es.size == 1


def test_stash_equality_on_stash_two_instances():
    from itertools import combinations

    two_k4s = mkgraph(
        8,
        list(combinations(range(4), 2)) + [(a + 4, b + 4) for a, b in combinations(range(4), 2)],
    )
    two_triples = mkgraph(6, [(0, 1, 2)] * 3 + [(3, 4, 5)] * 3, d=3)
    for g, k, d in ((two_k4s, 3, 2), (complete_graph(5), 3, 2), (two_triples, 2, 3)):
        vs = min_vertex_stash_exact(g, k, size_cap=3)
        fg, rmap = reduce_vertex_to_edge_stash(g, k, d)
        es = min_edge_stash_exact(fg, k, size_cap=3)
        assert vs.size == es.size == 2
        lifted = lift_edge_stash(rmap, push_vertex_stash(rmap, vs.stash))
        assert len(lifted) <= 2
        assert k_core_after(g, k, stash_vertices=lifted).core_empty


def test_stash_equality_k3_d3():
    for seed in range(12):
        g = gen_random(5, 3 + seed % 6, 3, seed)
        vs = min_vertex_stash_exact(g, 3, size_cap=4)
        fg, rmap = reduce_vertex_to_edge_stash(g, 3, 3)
        es = min_edge_stash_exact(fg, 3, size_cap=4)
        assert vs.size == es.size
        assert audit_p1(rmap) == []


def test_cover_reduction_k3_d3():
    g = complete_graph(4)
    reduced, _ = reduce_vc_to_vertex_stash(g, 3, 3)
    assert min_vertex_stash_exact(reduced, 3).size == len(min_vertex_cover_exact(g)) == 3


def test_reduction_rejects_polynomial_case_and_arity_mismatch():
    with pytest.raises(UnsupportedCaseError) as exc:
        reduce_vertex_to_edge_stash(triangle(), 2, 2)
    assert "two_edge_stash_standard" in str(exc.value)
    with pytest.raises(InvalidArityError, match="^instance arity 2 does not match requested d=3$"):
        reduce_vertex_to_edge_stash(triangle(), 3, 3)  # instance is 2-uniform
    with pytest.raises(ParameterError, match="^reduction needs k >= 3, or k = 2 with d >= 3; got k=1, d=2$"):
        reduce_vertex_to_edge_stash(triangle(), 1, 2)


def test_push_single_vertex_stash():
    g = complete_graph(4)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    stash = min_vertex_stash_exact(g, 3).stash
    pushed = push_vertex_stash(rmap, stash)
    assert pushed == {rmap.estar_pick[v] for v in stash}
    assert len(pushed) == len(stash)


def test_push_empty_and_full_stashes():
    g = triangle()
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert push_vertex_stash(rmap, frozenset()) == frozenset()
    full = push_vertex_stash(rmap, range(g.num_vertices))
    assert len(full) == 3
    assert k_core_after(fg, 3, stash_edges=full).core_empty


def test_lift_direct_estar_stash():
    g = complete_graph(4)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert lift_edge_stash(rmap, {rmap.estar_pick[2]}) == {2}


def test_lift_empty_stash_on_peelable_instance():
    g = triangle()  # 3-peelable, so its reduction is too
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert lift_edge_stash(rmap, frozenset()) == frozenset()


def test_lift_greedy_stash_of_reduced_k4():
    g = complete_graph(4)
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    greedy = greedy_stash(fg, 3, "edge")
    lifted = lift_edge_stash(rmap, greedy.stash)
    assert len(lifted) <= greedy.size
    assert k_core_after(g, 3, stash_vertices=lifted).core_empty


def test_push_lift_roundtrip_never_grows():
    for seed in range(6):
        g = gen_random(5, 8, 2, seed)
        try:
            stash = min_vertex_stash_exact(g, 3, 3).stash
        except Exception:
            continue
        _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
        back = lift_edge_stash(rmap, push_vertex_stash(rmap, stash))
        assert len(back) <= len(stash)
        assert k_core_after(g, 3, stash_vertices=back).core_empty


def test_lift_and_push_reject_invalid_certificates():
    g = complete_graph(4)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    with pytest.raises(ContractViolationError):
        push_vertex_stash(rmap, frozenset())  # K4 itself is not 3-peelable... needs a stash
    with pytest.raises(ContractViolationError):
        lift_edge_stash(rmap, {10**6})
    with pytest.raises(ContractViolationError, match="^stash does not make the reduced instance peelable$"):
        lift_edge_stash(rmap, ())


@pytest.mark.parametrize("bad", [True, False])
def test_push_and_lift_refuse_a_bool_stash_id(bad):
    # True is not vertex 1, even though {1} alone is a stash of K4 at k=3
    _, rmap = reduce_vertex_to_edge_stash(complete_graph(4), 3, 2)
    with pytest.raises(ContractViolationError, match=f"^stash vertex {bad} is not in the original instance$"):
        push_vertex_stash(rmap, [bad])
    with pytest.raises(ContractViolationError, match=f"^stash edge {bad} is not in the reduced instance$"):
        lift_edge_stash(rmap, [bad])


@pytest.mark.parametrize("func, direction", [
    (normalize_stash, "vstash"),
    (push_vertex_stash, "vc"),
    (lift_edge_stash, "vc"),
    (audit_p1, "vc"),
    (audit_pk_properties, "vc"),
])
def test_map_functions_reject_the_other_directions_map(func, direction):
    if direction == "vc":
        rmap, wants = reduce_vc_to_vertex_stash(triangle(), 2, 2)[1], "stash"
    else:
        rmap, wants = reduce_vertex_to_edge_stash(triangle(), 3, 2)[1], "cover"
    args = (rmap,) if func in (audit_p1, audit_pk_properties) else (rmap, ())
    with pytest.raises(ParameterError, match=f"^{func.__name__} applies to {wants}-reduction maps$"):
        func(*args)


def test_peelability_equivalence_random():
    for seed in range(10):
        g = gen_random(5, 6, 2, seed)
        fg, _ = reduce_vertex_to_edge_stash(g, 3, 2)
        assert is_k_peelable(g, 3) == is_k_peelable(fg, 3)
    for seed in range(10):
        g = gen_random(4, 4, 3, seed)
        fg, _ = reduce_vertex_to_edge_stash(g, 2, 3)
        assert is_k_peelable(g, 2) == is_k_peelable(fg, 2)


# -- one bulk build ---------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_reduced_edges_are_what_add_edge_would_build(k, d):
    # each build renumbers copies of checked template edges and builds the
    # reduced instance with _from_edges, without add_edge's per-edge
    # checks; re-adding every reduced edge through add_edge must accept
    # each one and reproduce the edge list and incidence index exactly
    reduced = [reduce_vc_to_vertex_stash(gen_random(9, 14, 2, seed), k, d)[0] for seed in range(3)]
    if (k, d) != (2, 2):
        reduced += [reduce_vertex_to_edge_stash(gen_random(9, 12, d, seed), k, d)[0] for seed in range(3)]
    for fg in reduced:
        again = Hypergraph(d)
        again.add_vertices(fg.num_vertices)
        for vs in fg._edges:
            again.add_edge(vs)
        assert (again._edges, again._incidence) == (fg._edges, fg._incidence)
        fg.validate()


@pytest.mark.parametrize("k, d", PAIRS)
def test_vc_build_adds_no_edge_per_original_edge(k, d, monkeypatch):
    # add_edge runs only on the one template a build copies, so its calls
    # do not grow with the original
    originals = (mkgraph(2, [(0, 1)]), gen_random(30, 50, 2, 1))
    calls = []
    add_edge = Hypergraph.add_edge

    def counted(self, vertices):
        calls.append(vertices)
        return add_edge(self, vertices)

    monkeypatch.setattr(Hypergraph, "add_edge", counted)
    counts = []
    for g in originals:
        calls.clear()
        reduce_vc_to_vertex_stash(g, k, d)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("k, d", PAIRS)
def test_vc_copies_are_the_one_edge_reduction_renumbered(k, d):
    # the reduction of a single edge (0, 1) is the template itself: the ck
    # gadget on vertices 2.., then each port's edges on its endpoint.  In
    # any original, edge i's copy is that template with 0 and 1 sent to the
    # edge's endpoints, in the order the edge lists them, and the rest to
    # the i-th run of fresh ids after the original vertices, all owned by
    # the first endpoint
    one, _ = reduce_vc_to_vertex_stash(mkgraph(2, [(0, 1)]), k, d)
    gadget = build_ck_gadget(k, d)
    assert one._edges == [tuple(2 + w for w in vs) for vs in gadget.graph._edges] + [
        (end, *(2 + a for a in attach)) for end, port in enumerate(gadget.ports) for attach in port.edges]
    fresh, size = one.num_vertices - 2, one.num_edges
    originals = (mkgraph(5, [(3, 1), (1, 3), (0, 4), (1, 3)]), gen_random(9, 14, 2, 4))
    for g in originals:
        n = g.num_vertices
        reduced, rmap = reduce_vc_to_vertex_stash(g, k, d)
        assert (reduced.num_vertices, reduced.num_edges) == (n + g.num_edges * fresh, g.num_edges * size)
        for i, (u, v) in enumerate(g._edges):
            ids = [u, v, *range(n + i * fresh, n + (i + 1) * fresh)]
            want = [tuple(ids[t] for t in vs) for vs in one._edges]
            assert reduced._edges[i * size:(i + 1) * size] == want
            assert all(rmap.owner[w] == u for w in ids[2:])


@pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (2, 3)])
def test_vstash_wrappers_are_their_gadgets_shifted(k, d):
    # each wrapper's edges are its gadget's, in the gadget's order, shifted
    # past the vertices of the wrappers before it, and each neighboring edge
    # joins the attach vertices its endpoints' ports name for it
    # parallel edges in two orders, and isolated vertices
    hand = {2: [(2, 0), (0, 2), (0, 1)], 3: [(4, 2, 0), (0, 2, 4)]}[d]
    originals = (mkgraph(5, hand, d), gen_random(9, 12, d, 2))
    for g in originals:
        reduced, rmap = reduce_vertex_to_edge_stash(g, k, d)
        blocks, first = _wrapper_blocks(rmap)
        for v, (inside, edges) in enumerate(blocks):
            gadget = build_pk_gadget(g.degree(v), k, d).graph
            assert reduced._edges[edges.start:edges.stop] == [
                tuple(inside.start + w for w in vs) for vs in gadget._edges]
        for e, members in enumerate(g._edges):
            assert reduced.edge_vertices(first + e) == tuple(dict(rmap.ports[w])[e] for w in members)


def _wrapper_blocks(rmap):
    """(vertex range, edge range) of each original vertex's wrapper gadget,
    and the id of the first neighboring edge, found from the reduced
    instance and the gadgets' sizes alone: the build copies one wrapper per
    original vertex, in vertex order, and then adds one neighboring edge per
    original edge, in edge order, joining its endpoints' wrappers."""
    g, reduced = rmap.original, rmap.reduced
    blocks, dv, de = [], 0, 0
    for v in range(g.num_vertices):
        gadget = build_pk_gadget(g.degree(v), rmap.k, rmap.d).graph
        blocks.append((range(dv, dv + gadget.num_vertices), range(de, de + gadget.num_edges)))
        dv, de = dv + gadget.num_vertices, de + gadget.num_edges
    assert dv == reduced.num_vertices and reduced.num_edges - de == g.num_edges
    wrapper_of = {w: v for v, (inside, _) in enumerate(blocks) for w in inside}
    for e, members in enumerate(g._edges):
        assert sorted(wrapper_of[w] for w in reduced.edge_vertices(de + e)) == sorted(members)
    return blocks, de


def _estar_edges(rmap, v):
    """E* edges of v's wrapper gadget, found without trusting ``estar_pick``:
    its embedded edges keep the gadget's own order."""
    first = _wrapper_blocks(rmap)[0][v][1].start
    gadget = build_pk_gadget(rmap.original.degree(v), rmap.k, rmap.d)
    return {first + e for e in gadget.estar}


def test_estar_pick_is_lowest_estar_edge():
    g = triangle()
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    for v in range(g.num_vertices):
        assert rmap.owner[rmap.estar_pick[v]] == v
        assert rmap.estar_pick[v] == min(_estar_edges(rmap, v))


def test_neighboring_edge_ownership_is_lowest_endpoint():
    g = triangle()
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    blocks, first = _wrapper_blocks(rmap)
    for e, members in enumerate(g._edges):
        assert rmap.owner[first + e] == min(members)
    # and a wrapper's own edges are owned by its vertex, with no id left out
    want = {f: v for v, (_, edges) in enumerate(blocks) for f in edges}
    want.update({first + e: min(members) for e, members in enumerate(g._edges)})
    assert rmap.owner == want


def test_audits_pass_for_both_cases():
    g = gen_random(5, 7, 2, 1)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert audit_p1(rmap) == []
    assert all(r.all_passed for r in audit_pk_properties(rmap))
    g = gen_random(4, 5, 3, 1)
    _, rmap = reduce_vertex_to_edge_stash(g, 2, 3)
    assert audit_p1(rmap) == []
    assert all(r.all_passed for r in audit_pk_properties(rmap))


def _rewired(g, e, old, new):
    """Copy of g with vertex old of edge e replaced by new."""
    edges = [g.edge_vertices(f) for f in range(g.num_edges)]
    edges[e] = tuple(new if w == old else w for w in edges[e])
    return mkgraph(g.num_vertices, edges, g.d)


def test_audit_p1_reports_miswired_graph_and_ports():
    # negative controls: the audit reads the reduced graph and the ports
    # table, so corrupting either one must be reported
    g = gen_random(5, 7, 2, 1)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    e = 0
    v = g.edge_vertices(e)[0]
    blocks, first = _wrapper_blocks(rmap)
    shared = first + e
    # v's gadget is embedded whole, so its first vertex, the primary node,
    # is the lowest one on the gadget's own edges
    inner = blocks[v][1]
    attach, primary = dict(rmap.ports[v])[e], min(w for f in inner for w in rmap.reduced.edge_vertices(f))
    assert primary not in rmap.reduced.edge_vertices(shared)
    rewired = dataclasses.replace(rmap, reduced=_rewired(rmap.reduced, shared, attach, primary))
    problems = audit_p1(rewired)
    assert len(problems) == 1 and problems[0].startswith(f"edge {e}: neighboring edge {shared} joins")

    v = max(range(g.num_vertices), key=g.degree)
    (e1, a1), (e2, a2), *rest = rmap.ports[v]
    swapped = dataclasses.replace(rmap, ports={**rmap.ports, v: ((e1, a2), (e2, a1), *rest)})
    assert [p.split(":")[0] for p in audit_p1(swapped)] == [f"edge {e}" for e in sorted((e1, e2))]
    dropped = dataclasses.replace(rmap, ports={**rmap.ports, v: ((e2, a2), *rest)})
    problems = audit_p1(dropped)
    assert [p.split(":")[0] for p in problems] == [f"vertex {v}", f"edge {e1}"]
    assert problems[0].endswith(f"!= incident edges {g._incidence[v]}")


def test_isolated_vertices_get_degenerate_gadgets():
    g = mkgraph(4, [(0, 1)])  # vertices 2 and 3 are isolated
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert is_k_peelable(fg, 3)
    for v in (2, 3):
        assert rmap.ports[v] == ()
        assert rmap.owner[rmap.estar_pick[v]] == v
        assert rmap.estar_pick[v] in _estar_edges(rmap, v)


# -- sidecar round trip -----------------------------------------------------------


def test_map_roundtrip_vstash():
    g = gen_random(4, 5, 2, 9)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    loaded = parse_map(serialize_map(rmap))
    assert loaded == rmap  # every field: both instances and all three lookup tables
    assert audit_p1(loaded) == []
    stash = min_vertex_stash_exact(g, 3).stash
    assert push_vertex_stash(loaded, stash) == push_vertex_stash(rmap, stash)


def test_map_roundtrip_vc():
    g = triangle()
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    loaded = parse_map(serialize_map(rmap))
    assert loaded == rmap  # every field: both instances and all three lookup tables
    stash = min_vertex_stash_exact(reduced, 2).stash
    assert normalize_stash(loaded, stash) == normalize_stash(rmap, stash)


@pytest.mark.parametrize("text, message", [
    ("M vc 2 2\nG orig\nh 2 3 3\ne 0 1\nG end\nG reduced\n", "declared 3 edges but found 1"),
    ("M vc 2 2\nG orig\nG end\n", "empty 'G orig' section: missing 'h' header"),
])
def test_parse_map_reports_a_bad_original_section_at_its_own_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert str(exc.value) == f"line 3: {message}"


# each case breaks one map; `edit` takes the map's lines and the index of
# the first 'e' line of its reduced instance, and returns the broken lines
@pytest.mark.parametrize("direction", ["vc", "vstash"])
@pytest.mark.parametrize("edit", [
    pytest.param(lambda lines, i: [*lines[:i], lines[i].rsplit(" ", 1)[0] + " 10000", *lines[i + 1:]],
                 id="vertex-id-out-of-range"),
    pytest.param(lambda lines, i: [*lines[:i], lines[i + 1], lines[i], *lines[i + 2:]], id="edges-swapped"),
    pytest.param(lambda lines, i: [*lines[:i + 2], *lines[i + 3:]], id="edge-dropped"),
    pytest.param(lambda lines, i: [*lines[:i - 1], lines[i - 1] + "0", *lines[i:]], id="edge-count-changed"),
    pytest.param(lambda lines, i: [*lines, "e 0 1"], id="trailing-line"),
    pytest.param(lambda lines, i: [*lines, "M v 0 0"], id="old-format-table-line"),
])
def test_parse_map_checks_references(direction, edit):
    if direction == "vc":
        rmap = reduce_vc_to_vertex_stash(triangle(), 2, 2)[1]
    else:
        rmap = reduce_vertex_to_edge_stash(gen_random(4, 5, 2, 9), 3, 2)[1]
    lines = serialize_map(rmap).splitlines()
    broken = edit(lines, lines.index("G reduced") + 2)
    # the edit leaves every line before it intact, so the first line that
    # differs from the intact map is the one to report; '' is the end
    pairs = enumerate(itertools.zip_longest(lines, broken, fillvalue=""), start=1)
    line, want, got = next((i, a, b) for i, (a, b) in pairs if a != b)
    assert line > lines.index("G reduced")
    with pytest.raises(ParseError) as exc:
        parse_map("\n".join(broken) + "\n")
    assert str(exc.value) == f"line {line}: expected {want!r}, got {got!r}"
    assert exc.value.line == line


@pytest.mark.parametrize("direction", ["vc", "vstash"])
def test_parse_map_accepts_every_map_in_the_size_guards_range(direction):
    # parse_map refuses a text shorter than a lower bound on its reduced
    # edges; that bound is claimed for k = 2..20 and d = 2..5, so no valid
    # map of a small original there may be refused (k is sampled)
    for k, d in itertools.product((2, 3, 4, 6, 9, 13, 20), range(2, 6)):
        if direction == "vc":
            originals = (mkgraph(1, []), mkgraph(2, [(0, 1)]), triangle())
        elif (k, d) == (2, 2):
            continue  # the one case the stash reduction does not cover
        else:
            originals = (mkgraph(1, [], d), mkgraph(d, [tuple(range(d))], d)) + ((triangle(),) if d == 2 else ())
        for g in originals:
            rmap = REDUCTIONS[direction](g, k, d)[1]
            assert parse_map(serialize_map(rmap)) == rmap, (k, d, g.num_vertices, g.num_edges)


def test_certificate_checks_survive_python_optimize():
    script = textwrap.dedent("""
        import dataclasses, itertools, sys
        from stashpeel import parse, peeling, reductions

        real = peeling.is_k_peelable
        calls = itertools.count()

        def certificate_core_nonempty(*args, **kwargs):
            # each function checks its input first and its certificate second
            peelable = real(*args, **kwargs)
            return False if next(calls) % 2 else peelable

        def every_stash_peelable(*args, **kwargs):
            return True

        tri = parse("h 2 3 3\\ne 0 1\\ne 1 2\\ne 2 0\\n")
        _, vc = reductions.reduce_vc_to_vertex_stash(tri, 2, 2)
        _, vs = reductions.reduce_vertex_to_edge_stash(tri, 3, 2)
        pushed = reductions.push_vertex_stash(vs, {0})
        collapsed = dataclasses.replace(vs, estar_pick=dict.fromkeys(vs.estar_pick, min(pushed)))
        cover = {0, 1}
        cases = (
            (certificate_core_nonempty, lambda: reductions.normalize_stash(vc, cover)),
            (certificate_core_nonempty, lambda: reductions.push_vertex_stash(vs, {0})),
            (certificate_core_nonempty, lambda: reductions.lift_edge_stash(vs, pushed)),
            (real, lambda: reductions.push_vertex_stash(collapsed, {0, 1})),
            # a certificate that passes a cover missing edge 1 = (1, 2)
            (every_stash_peelable, lambda: reductions.normalize_stash(vc, {0})),
        )
        print(sys.flags.optimize)
        for is_k_peelable, call in cases:
            peeling.is_k_peelable = is_k_peelable
            try:
                call()
                print("returned")
            except AssertionError:
                print("raised")
    """)
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["raised"] * 5


def test_broken_map_is_input_error_under_python_optimize(tmp_path):
    text = serialize_map(reduce_vc_to_vertex_stash(triangle(), 2, 2)[1])
    broken = text.replace("e 2 5\n", "e 0 5\n")
    assert broken != text
    mp = tmp_path / "tri.map"
    mp.write_text(broken)
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 5\n")
    proc = run_python("-O", "-m", "stashpeel", "lift", "--map", str(mp), "--stash", str(stash))
    line = broken.splitlines().index("e 0 5") + 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: line {line}: expected 'e 2 5', got 'e 0 5'\n"


def test_old_format_map_is_input_error_under_python_optimize(tmp_path):
    # maps once also listed every lookup table after the reduced instance
    rmap = reduce_vc_to_vertex_stash(triangle(), 2, 2)[1]
    text = serialize_map(rmap)
    tables = [f"M v {v} {v}" for v in range(rmap.original.num_vertices)]
    blocks = _cover_blocks(rmap)
    tables += [f"M g {w} {u} {x}" for (inside, _), (u, x) in zip(blocks, rmap.original._edges) for w in inside]
    tables += [f"M n {e} " + " ".join(map(str, ids)) for e, (_, ids) in enumerate(blocks)]
    mp = tmp_path / "tri.map"
    mp.write_text(text + "\n".join(tables) + "\n")
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 5\n")
    proc = run_python("-O", "-m", "stashpeel", "lift", "--map", str(mp), "--stash", str(stash))
    line = len(text.splitlines()) + 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: line {line}: expected '', got 'M v 0 0'\n"

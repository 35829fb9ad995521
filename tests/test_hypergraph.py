import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stashpeel import (
    Hypergraph,
    NotFoundError,
    ParameterError,
    ParseError,
    format_stash,
    parse,
    parse_stash,
    serialize,
)

from helpers import hypergraphs, layout, mkgraph, sparse_hypergraphs, triangle
from oracles import serialize_by_rendering

TRIANGLE_TEXT = "h 2 3 3\ne 0 1\ne 1 2\ne 2 0\n"


def test_degree_triangle_symmetry():
    g = triangle()
    assert [g.degree(v) for v in sorted(g.vertices)] == [2, 2, 2]


def test_degree_isolated_vertex():
    g = mkgraph(1, [])
    assert g.degree(0) == 0


def test_degree_counts_parallel_edges():
    g = mkgraph(2, [(0, 1), (0, 1)])
    # cross-check against a full incidence rescan
    rescan = sum(1 for vs in g.edges.values() if 0 in vs)
    assert g.degree(0) == rescan == 2


def test_degree_unknown_vertex():
    with pytest.raises(NotFoundError):
        triangle().degree(7)


def test_remove_vertex_from_triangle():
    g = triangle()
    g.remove_vertex(0)
    assert g.vertices == {1, 2}
    assert list(g.edges.values()) == [(1, 2)]
    g.validate()


def test_remove_edge_from_triangle():
    g = triangle()
    g.remove_edge(0)
    assert g.num_vertices == 3 and g.num_edges == 2
    g.validate()


def test_remove_vertex_from_single_3_edge():
    g = mkgraph(3, [(0, 1, 2)], d=3)
    g.remove_vertex(0)
    assert g.vertices == {1, 2} and g.num_edges == 0


def test_remove_unknown_ids():
    g = triangle()
    with pytest.raises(NotFoundError):
        g.remove_vertex(9)
    with pytest.raises(NotFoundError):
        g.remove_edge(9)


def test_ids_never_reused():
    g = triangle()
    g.remove_vertex(2)
    assert g.add_vertex() == 3
    g.remove_edge(0)
    g.add_vertex()
    assert g.add_edge((0, 1)) == 3


def test_add_edge_validation():
    g = mkgraph(3, [])
    with pytest.raises(ParameterError):
        g.add_edge((0, 0))
    with pytest.raises(ParameterError):
        g.add_edge((0, 1, 2))
    with pytest.raises(NotFoundError):
        g.add_edge((0, 5))


def test_arity_below_two_rejected():
    with pytest.raises(ParameterError):
        Hypergraph(1)


def test_equality_ignores_stored_vertex_order():
    a = mkgraph(2, [(0, 1)])
    b = mkgraph(2, [(1, 0)])
    assert a == b


def test_parse_triangle():
    g = parse(TRIANGLE_TEXT)
    assert g == triangle()


def test_parse_single_3_uniform_edge():
    g = parse("h 3 3 1\ne 0 1 2\n")
    assert g.d == 3 and g.num_vertices == 3 and g.num_edges == 1


def test_parse_duplicate_vertex_in_edge():
    with pytest.raises(ParseError) as exc:
        parse("h 2 2 1\ne 0 0\n")
    assert exc.value.line == 2


def test_parse_malformed_header():
    with pytest.raises(ParseError) as exc:
        parse("x 2 3 3\n")
    assert exc.value.line == 1


def test_parse_wrong_arity_line():
    with pytest.raises(ParseError) as exc:
        parse("h 2 3 1\ne 0 1 2\n")
    assert exc.value.line == 2


def test_parse_vertex_index_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse("h 2 2 1\ne 0 5\n")
    assert exc.value.line == 2


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError):
        parse("h 2 3 2\ne 0 1\n")
    with pytest.raises(ParseError):
        parse("h 2 3 0\ne 0 1\n")
    # a count mismatch is reported at the header that declared the count
    with pytest.raises(ParseError) as exc:
        parse("# c\n\nh 2 3 2\ne 0 1\n")
    assert str(exc.value) == "line 3: declared 2 edges but found 1"


def test_parse_skips_comments_and_blank_lines():
    g = parse("# triangle\n\nh 2 3 3\ne 0 1\n# middle\ne 1 2\ne 2 0\n")
    assert g == triangle()


def test_declared_vertices_stay_small():
    # Near-threshold instances are sparse, so most vertices have few or no
    # edges; an isolated vertex must not cost hundreds of bytes.
    n = 20000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = parse(f"h 2 {n} 0")
        per_vertex = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert g.num_vertices == n
    assert per_vertex < 200


def test_roundtrip_identity_on_canonical_input():
    g = triangle()
    assert parse(serialize(g)) == g
    assert serialize(parse(TRIANGLE_TEXT)) == TRIANGLE_TEXT


def test_serialize_renumbers_after_removals():
    g = triangle()
    g.remove_vertex(0)
    text = serialize(g)
    assert text.startswith("h 2 2 1")
    h = parse(text)
    assert sorted(h.degree(v) for v in h.vertices) == sorted(g.degree(v) for v in g.vertices)


def test_stash_file_roundtrip():
    assert parse_stash(format_stash("v", {3, 1})) == ("v", [1, 3])
    assert parse_stash("S e 0 2\n") == ("e", [0, 2])
    assert parse_stash("S v\n") == ("v", [])
    with pytest.raises(ParseError):
        parse_stash("T v 1\n")
    with pytest.raises(ParseError):
        parse_stash("")
    with pytest.raises(ParameterError):
        format_stash("x", [1])


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_incidence_consistent_under_random_removals(g, rng):
    g.validate()
    while g.num_vertices:
        if g.num_edges and rng.random() < 0.4:
            e = rng.choice(sorted(g.edges))
            before = g.num_vertices
            g.remove_edge(e)
            assert g.num_vertices == before
        else:
            v = rng.choice(sorted(g.vertices))
            before = g.num_edges
            deg = g.degree(v)
            g.remove_vertex(v)
            assert g.num_edges == before - deg
        g.validate()


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_serialize_parse_roundtrip_random(g):
    h = parse(serialize(g))
    assert h == g  # generated instances are canonical, so ids survive
    assert serialize(h) == serialize(g)


@settings(max_examples=80, deadline=None)
@given(sparse_hypergraphs())
def test_serialize_matches_reference_renderer(g):
    text = serialize(g)
    assert text == serialize_by_rendering(g)
    h = parse(text)
    h.validate()
    # parsing renumbers to contiguous ids in ascending order of the old ones
    rank = {v: i for i, v in enumerate(sorted(g.vertices))}
    renumbered = [tuple(rank[v] for v in g.edge_vertices(e)) for e in sorted(g.edges)]
    assert list(h.edges.values()) == renumbered
    assert (h.num_vertices, h._next_vertex, h._next_edge) == (g.num_vertices, g.num_vertices, g.num_edges)
    assert serialize(h) == text


def test_parse_fills_the_same_layout_as_add_edge():
    text = "h 3 6 3\n# c\ne 4 0 2\n\n  e 1 2 5  \ne 4 0 2\n"
    g = Hypergraph(3)
    g.add_vertices(6)
    for vs in ((4, 0, 2), (1, 2, 5), (4, 0, 2)):
        g.add_edge(vs)
    assert layout(parse(text)) == layout(g)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("h 2 3 1\ne 0 1 2\n", 2, "edge needs 2 vertices, got 3"),
        ("h 3 3 1\ne 0 2 0\n", 2, "edge has a repeated vertex: (0, 2, 0)"),
        ("h 2 3 2\ne 0 1\n\ne 1 7\n", 4, "unknown vertex id 7"),
        ("h 2 3 1\ne -1 1\n", 2, "unknown vertex id -1"),
        ("h 2 3 1\ne 0 x\n", 2, "non-integer vertex index in 'e 0 x'"),
        ("h 2 3 1\ne 0 1\ne 1 2\n", 3, "more than the declared 1 edges"),
        ("h 2 3 1\nf 0 1\n", 2, "expected edge line 'e v1 ... vd', got 'f 0 1'"),
    ],
)
def test_parse_edge_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")

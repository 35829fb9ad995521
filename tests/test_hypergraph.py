import re
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
    gen_random,
    is_k_peelable,
    k_core_after,
    parse,
    parse_stash,
    serialize,
)

from stashpeel.hypergraph import _from_edges, _parse_serialized, content_lines, parse_lines

from helpers import OVERSIZED, hypergraphs, layout, mkgraph, needs_int_digit_limit, triangle
from oracles import serialize_by_rendering

TRIANGLE_TEXT = "h 2 3 3\ne 0 1\ne 1 2\ne 2 0\n"


def test_degree_triangle_symmetry():
    g = triangle()
    assert [g.degree(v) for v in range(g.num_vertices)] == [2, 2, 2]


def test_degree_isolated_vertex():
    g = mkgraph(1, [])
    assert g.degree(0) == 0


def test_degree_counts_parallel_edges():
    g = mkgraph(2, [(0, 1), (0, 1)])
    # cross-check against a full incidence rescan
    rescan = sum(1 for e in range(g.num_edges) if 0 in g.edge_vertices(e))
    assert g.degree(0) == rescan == 2


def test_degree_unknown_vertex():
    with pytest.raises(NotFoundError):
        triangle().degree(7)


def test_ids_never_reused():
    # ids are positions: each add hands out the next one
    g = triangle()
    assert g.add_vertex() == 3
    assert g.add_vertices(2) == [4, 5]
    assert g.add_edge((0, 5)) == 3
    assert (g.num_vertices, g.num_edges) == (6, 4)


def test_edges_is_a_snapshot():
    g = triangle()
    snapshot = g.edges
    assert snapshot == {0: (0, 1), 1: (1, 2), 2: (2, 0)}
    del snapshot[0]
    assert g.num_edges == 3 and g.edge_vertices(0) == (0, 1)


def test_add_vertices_refuses_a_negative_count():
    g = triangle()
    with pytest.raises(ParameterError, match="^vertex count must be non-negative, got -2$"):
        g.add_vertices(-2)
    assert g.num_vertices == 3


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
def test_add_vertices_refuses_a_non_integer_count(bad):
    g = triangle()
    with pytest.raises(ParameterError, match="^count must be an integer"):
        g.add_vertices(bad)
    assert g.num_vertices == 3


@pytest.mark.parametrize("bad", [-1, 3, 10**9])
def test_bad_ids_are_rejected(bad):
    g = triangle()
    assert not g.has_vertex(bad) and not g.has_edge(bad)
    for query in (g.edge_vertices, g.degree):
        with pytest.raises(NotFoundError):
            query(bad)
    with pytest.raises(NotFoundError):
        k_core_after(g, 2, stash_vertices=[bad])
    with pytest.raises(NotFoundError):
        k_core_after(g, 2, stash_edges=[bad])
    with pytest.raises(NotFoundError):
        g.add_edge((0, bad))
    g.validate()


def test_add_edge_checks_ids_like_has_vertex():
    # only an int itself is an id: no bool, float, string or None
    g = triangle()
    for bad in (True, False, 1.0, "1", None):
        assert not g.has_vertex(bad)
        with pytest.raises(NotFoundError, match=f"^unknown vertex id {bad}$"):
            g.add_edge((2, bad))
    assert layout(g) == layout(triangle())


@pytest.mark.parametrize("bad", [True, False])
def test_bools_are_not_ids(bad):
    g = triangle()
    assert not g.has_vertex(bad) and not g.has_edge(bad)
    calls = [
        lambda: g.add_edge((2, bad)),
        lambda: is_k_peelable(g, 1, stash_vertices=[bad]),
        lambda: is_k_peelable(g, 1, stash_edges=[bad]),
    ]
    for call in calls:
        with pytest.raises(NotFoundError, match=f"^unknown (vertex|edge) id {bad}( in stash)?$"):
            call()
    assert layout(g) == layout(triangle())


@pytest.mark.parametrize("bad", [True, False, "1", None, 1.0], ids=repr)
def test_format_stash_refuses_non_int_ids(bad):
    # a stash file holds int ids only, as parse_stash reads them; every id is
    # checked before the ids are sorted, so no mix of types ends in TypeError
    with pytest.raises(ParameterError, match=f"^id must be an integer, got {re.escape(repr(bad))}$"):
        format_stash("v", [0, bad])


def test_parse_rejects_a_negative_vertex_id():
    with pytest.raises(ParseError) as exc:
        parse("h 2 2 1\ne -1 0")
    assert exc.value.line == 2 and str(exc.value) == "line 2: unknown vertex id -1"


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
    assert a != "h 2 2 1\ne 0 1\n"  # not a Hypergraph: NotImplemented, then identity


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
    for text, message in (
        ("h x 2 0\n", "non-integer field in header 'h x 2 0'"),
        ("h 1 3 0\n", "header out of range: d=1, n=3, m=0"),
    ):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line 1: {message}"


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
    assert per_vertex < 114


def test_bulk_parse_peaks_no_higher_than_the_line_reader():
    # the bulk reader checks its text in chunks, so no regex match holds a
    # backtracking stack over the whole text
    text = serialize(gen_random(40_000, 32_000, 3, 1))
    assert _parse_serialized(text) is not None
    peaks = []
    for read in (parse, lambda t: parse_lines(content_lines(t))):
        tracemalloc.start()
        try:
            read(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_roundtrip_identity_on_canonical_input():
    g = triangle()
    assert parse(serialize(g)) == g
    assert serialize(parse(TRIANGLE_TEXT)) == TRIANGLE_TEXT


def test_stash_file_roundtrip():
    assert parse_stash(format_stash("v", {3, 1})) == ("v", [1, 3])
    assert parse_stash("S e 0 2\n") == ("e", [0, 2])
    assert parse_stash("S v\n") == ("v", [])
    # the first content line is the stash, so a solver's stdout is a stash file
    assert parse_stash("# from stash-exact\nS e 3 7\nsize=2 optimal=true\n") == ("e", [3, 7])
    with pytest.raises(ParseError):
        parse_stash("T v 1\n")
    with pytest.raises(ParseError):
        parse_stash("")
    with pytest.raises(ParseError, match=r"^line 1: non-integer id in 'S v 1 x'$"):
        parse_stash("S v 1 x\n")
    for text in ("S v 1_0", "S v +1", "S e \u0661", "S v 1\xa02"):
        with pytest.raises(ParseError, match=r"^line 1: non-ASCII, '_' or '\+' character in "):
            parse_stash(text)
    # a comment may hold anything
    assert parse_stash("# caf\u00e9 _+\nS v -1\n") == ("v", [-1])
    with pytest.raises(ParameterError):
        format_stash("x", [1])


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_incidence_consistent_under_random_adds(g, rng):
    g.validate()
    for _ in range(12):
        n, m = g.num_vertices, g.num_edges
        if rng.random() < 0.3:
            assert g.add_vertex() == n
            assert g.degree(n) == 0
        else:
            vs = rng.sample(range(n), g.d)
            degrees = [g.degree(v) for v in vs]
            assert g.add_edge(vs) == m
            assert [g.degree(v) for v in vs] == [c + 1 for c in degrees]
            assert g.edge_vertices(m) == tuple(vs)
        assert (g.num_vertices, g.num_edges) in ((n + 1, m), (n, m + 1))
        g.validate()


def test_validate_reports_each_corruption():
    # tests that check a graph with validate() rely on it raising for each
    # way the edge list and the incidence index can disagree
    g = mkgraph(3, [(0, 1), (1, 2)])
    g.validate()
    corruptions = [
        ("_edges", 0, (0, 0), "edge 0 is not a set of 2 distinct vertices"),
        ("_edges", 1, (0, 1, 2), "edge 1 is not a set of 2 distinct vertices"),
        ("_edges", 1, (1, 3), "edge 1 references missing vertex 3"),
        ("_edges", 0, (-1, 1), "edge 0 references missing vertex -1"),
        ("_incidence", 0, [0, 1], "incidence index does not match edge list"),
        ("_incidence", 2, [], "incidence index does not match edge list"),
    ]
    for table, i, value, message in corruptions:
        h = g.copy()
        getattr(h, table)[i] = value
        with pytest.raises(AssertionError) as exc:
            h.validate()
        assert str(exc.value) == message, (table, i, value)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_serialize_parse_roundtrip_random(g):
    h = parse(serialize(g))
    assert h == g  # generated instances are canonical, so ids survive
    assert serialize(h) == serialize(g)


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_serialize_matches_reference_renderer(g):
    text = serialize(g)
    assert text == serialize_by_rendering(g)
    h = parse(text)
    h.validate()
    # parsing gives every vertex and edge back its id
    assert [h.edge_vertices(e) for e in range(h.num_edges)] == [g.edge_vertices(e) for e in range(g.num_edges)]
    assert (h.num_vertices, h.num_edges) == (g.num_vertices, g.num_edges)
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
        # split() and int() read ids out of each of these; the format spells none of them
        ("h 2 20 1\ne 1_0 2\n", 2, "non-ASCII, '_' or '+' character in 'e 1_0 2'"),
        ("h 2 3 1\ne \u0661 2\n", 2, "non-ASCII, '_' or '+' character in 'e \u0661 2'"),
        ("h 2 3 1\ne +1 2\n", 2, "non-ASCII, '_' or '+' character in 'e +1 2'"),
        ("h 2 3 1\n# ok\ne 1\xa02\n", 3, "non-ASCII, '_' or '+' character in 'e 1\\xa02'"),
        ("h 2 1_0 0\n", 1, "non-ASCII, '_' or '+' character in 'h 2 1_0 0'"),
        # serialize-form text whose arity no regex repeat count can hold
        ("h 10000000000 3 1\ne 0 1\n", 2, "edge needs 10000000000 vertices, got 2"),
        # serialize-form text whose number int() refuses to read
        pytest.param(f"h 2 {OVERSIZED} 1\ne 0 1\n", 1, f"non-integer field in header 'h 2 {OVERSIZED} 1'",
                     marks=needs_int_digit_limit, id="oversized-header-field"),
        pytest.param(f"h 2 3 1\ne 0 {OVERSIZED}\n", 2, f"non-integer vertex index in 'e 0 {OVERSIZED}'",
                     marks=needs_int_digit_limit, id="oversized-edge-id"),
    ],
)
def test_parse_edge_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_edges=12), st.lists(st.integers(0, 11), max_size=4))
def test_from_edges_builds_what_add_edge_builds(g, repeats):
    # the bulk constructor takes the edge list as the graph's own and must
    # build exactly the incidence lists add_edge builds, parallel edges
    # included
    edges = list(g._edges) + [g._edges[i % g.num_edges] for i in repeats if g.num_edges]
    want = mkgraph(g.num_vertices, edges, g.d)
    got = _from_edges(g.d, g.num_vertices, edges)
    assert got._edges is edges
    assert layout(got) == layout(want)
    got.validate()


@pytest.mark.parametrize("d, n, edges", [
    (2, 4, [(1, 0), (0, 1), (1, 0)]),  # one pair, written both ways
    (3, 5, [(4, 2, 0), (0, 2, 4), (2, 4, 0)]),  # one triple in three orders
    (2, 6, [(5, 4)]),  # vertices 0 to 3 on no edge
    (4, 4, [(3, 2, 1, 0), (0, 1, 2, 3)]),
])
def test_from_edges_keeps_each_edges_own_order(d, n, edges):
    # an edge is stored as given, not sorted, and each incidence list
    # ascends, as add_edge leaves them
    got = _from_edges(d, n, list(edges))
    assert layout(got) == layout(mkgraph(n, edges, d))
    assert got._edges == edges
    got.validate()


def test_from_edges_builds_the_empty_graph():
    g = _from_edges(3, 0, [])
    assert layout(g) == layout(Hypergraph(3)) == (3, [], [])
    g.validate()

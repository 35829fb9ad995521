import ast
import hashlib
import itertools
import random
import re
import textwrap
from dataclasses import replace

import pytest

from stashpeel import (
    Gadget,
    Hypergraph,
    ParameterError,
    StashpeelError,
    build_b_block,
    build_ck_gadget,
    build_pk_gadget,
    build_simple_stable_block,
    build_stable_block,
    build_tree_stable_block,
    check_gadget,
    k_core_after,
    run_gadget_grid,
    serialize,
)
from stashpeel import gadgets
from stashpeel.gadgets import (
    CheckResult,
    GadgetReport,
    Port,
    _pk_contract_holds,
    _report_params,
    _survivors,
    build_harness,
)
from stashpeel.hypergraph import gen_random
from stashpeel.peeling import PeelCore
from stashpeel.reductions import audit_pk_properties, reduce_vc_to_vertex_stash, reduce_vertex_to_edge_stash

from helpers import gadget_without, layout, mkgraph, run_python


def drop_edge(gadget: Gadget, eid: int) -> Gadget:
    """Negative-control mutation: the gadget without one internal edge."""
    return gadget_without(gadget, edges=[eid])


def drop_vertex(gadget: Gadget, v: int) -> Gadget:
    """Negative-control mutation: the gadget without one non-port vertex
    and its edges."""
    return gadget_without(gadget, vertices=[v])


def pin_vertex(gadget: Gadget, v: int) -> Gadget:
    """Negative-control mutation: vertex v held at degree k or more by k
    parallel edges over d-1 new vertices, so v never peels."""
    g = gadget.graph.copy()
    held = (v, *g.add_vertices(g.d - 1))
    for _ in range(gadget.params["k"]):
        g.add_edge(held)
    return Gadget(g, gadget.ports, gadget.estar, dict(gadget.params), dict(gadget.meta))


def double_edges(gadget: Gadget) -> Gadget:
    """Negative-control mutation: a parallel copy of every internal edge, so
    nothing peels that the contracts expect to (removal only peels more)."""
    g = gadget.graph.copy()
    for e in range(g.num_edges):
        g.add_edge(g.edge_vertices(e))
    return Gadget(g, gadget.ports, gadget.estar, dict(gadget.params), dict(gadget.meta))


# -- ck gadget ----------------------------------------------------------------


def test_ck_k2_d2_shape():
    g = build_ck_gadget(2, 2)
    assert g.graph.num_vertices == 2
    assert g.graph.num_edges == 0  # both internal vertices touch only u and v
    assert [p.name for p in g.ports] == ["u", "v"]
    assert all(len(p.edges) == 2 for p in g.ports)  # two edges per side
    assert check_gadget(g).all_passed


def test_ck_k3_d2_degrees_and_peel():
    g = build_ck_gadget(3, 2)
    harness = build_harness(g)
    first, middle, last = g.meta["internals"]
    pool = harness.block  # the first pool vertex fills the one free slot of every u and v edge
    edges = [harness.graph.edge_vertices(e) for e in range(harness.graph.num_edges)]
    neighbors = lambda x: {w for vs in edges if x in vs for w in vs} - {x}
    assert neighbors(first) == {pool, middle}
    assert neighbors(last) == {pool, middle}
    assert neighbors(middle) == {pool, first, last}
    assert [harness.graph.degree(x) for x in (first, middle, last)] == [3, 4, 3]
    report = check_gadget(g)
    assert report.all_passed  # includes: removing u empties the 3-core


@pytest.mark.parametrize("k", gadgets.GRID_K)
def test_ck_embedding_peels_when_an_endpoint_is_stashed(k):
    # the one-edge graph's cover reduction is a single ck gadget between
    # the images of its two endpoints
    for d in gadgets.GRID_D:
        reduced, rmap = reduce_vc_to_vertex_stash(mkgraph(2, [(0, 1)]), k, d)
        # the gadget's vertices follow the two original ones
        inside = set(range(2, reduced.num_vertices))
        assert inside and inside <= k_core_after(reduced, k).core_vertices, (k, d)
        for u in (0, 1):
            assert k_core_after(reduced, k, stash_vertices=[u]).core_empty, (k, d, u)


def test_ck_k2_d3_has_one_dummy_on_every_edge():
    g = build_ck_gadget(2, 3)
    (dummy,) = g.meta["dummies"]
    for port in g.ports:
        assert all(dummy in attach for attach in port.edges)
    assert check_gadget(g).all_passed


def test_ck_k3_d3_dummy_in_all_internal_edges():
    g = build_ck_gadget(3, 3)
    (dummy,) = g.meta["dummies"]
    assert all(dummy in g.graph.edge_vertices(e) for e in range(g.graph.num_edges))
    assert check_gadget(g).all_passed


def test_ck_port_sides_have_k_slots():
    for k in (2, 4, 5):
        g = build_ck_gadget(k, 2)
        assert all(len(p.edges) == k for p in g.ports)


def test_ck_parameter_errors():
    with pytest.raises(ParameterError):
        build_ck_gadget(1, 2)
    with pytest.raises(ParameterError):
        build_ck_gadget(2, 1)


def test_ck_negative_control_detects_missing_edge():
    g = build_ck_gadget(3, 2)
    mutated = drop_edge(g, 0)
    report = check_gadget(mutated)
    assert not report.all_passed
    assert all(c.witness for c in report.failures())


# -- b-blocks -----------------------------------------------------------------


def test_2block_k3_shape():
    g = build_b_block(2, 3, 2)
    assert g.graph.num_vertices == 4  # two hubs over a 2-clique
    harness = build_harness(g)
    assert all(harness.graph.degree(v) >= 3 for v in range(harness.block))
    assert check_gadget(g).all_passed


def test_3block_k3_is_single_vertex():
    g = build_b_block(3, 3, 2)
    assert g.graph.num_vertices == 1 and g.graph.num_edges == 0
    assert len(g.ports) == 3
    assert check_gadget(g).all_passed


def test_3block_k5_layer2_degree():
    g = build_b_block(3, 5, 2)
    harness = build_harness(g)
    degrees = sorted(harness.graph.degree(v) for v in range(harness.block))
    assert max(degrees) == 2 * 5 - 5  # deepest layer sits at degree 5
    assert check_gadget(g).all_passed


def test_b_block_parameter_errors():
    with pytest.raises(ParameterError):
        build_b_block(4, 5, 2)
    with pytest.raises(ParameterError):
        build_b_block(2, 2, 2)


def test_2block_negative_control():
    g = build_b_block(2, 4, 2)
    report = check_gadget(drop_edge(g, 0))
    bad = {c.name for c in report.failures()}
    assert "unpeelable_with_all_ports" in bad


# -- stable blocks ------------------------------------------------------------


def test_simple_stable_k3_m2_shape():
    g = build_simple_stable_block(2, 3, 2)
    assert g.graph.num_vertices == 9  # central + two 2-blocks of 4
    harness = build_harness(g)
    central = g.meta["central"]
    assert harness.graph.degree(central) == 3 - 1 + 2
    assert check_gadget(g).all_passed


def test_simple_stable_k4_m3_block_pattern():
    # ends are 2-blocks (5 vertices each), the middle a 3-block (6): 17 total
    g = build_simple_stable_block(3, 4, 2)
    assert g.graph.num_vertices == 17
    assert check_gadget(g).all_passed


def test_simple_stable_estar_edges_all_peel():
    g = build_simple_stable_block(2, 4, 2)
    assert g.estar  # every central-to-block and chain edge
    report = check_gadget(g)
    assert report.all_passed
    estar_checks = [c for c in report.checks if c.name.startswith("estar_")]
    assert len(estar_checks) == len(g.estar)


def test_simple_stable_parameter_errors():
    with pytest.raises(ParameterError):
        build_simple_stable_block(0, 3, 2)
    with pytest.raises(ParameterError):
        build_simple_stable_block(3, 3, 2)  # m must stay below k
    with pytest.raises(ParameterError, match="^simple stable blocks need k >= 3 and d >= 2, got k=2, d=2$"):
        build_simple_stable_block(1, 2, 2)
    with pytest.raises(ParameterError, match="^stable blocks need k >= 3 and d >= 2, got k=2, d=2$"):
        build_stable_block(1, 2, 2)
    with pytest.raises(ParameterError, match="^stable block degree must be positive, got m=0$"):
        build_stable_block(0, 3, 2)


def test_stable_delegates_to_simple_when_small():
    g = build_stable_block(3, 4, 2)
    assert g.params["depth"] == 0 and g.params["nodes"] == 1
    # below degree k the tree is its root alone: the simple block itself
    for k in range(3, 7):
        for d in (2, 3):
            for m in range(1, k):
                g, s = build_stable_block(m, k, d), build_simple_stable_block(m, k, d)
                assert (g.graph._edges, g.ports, g.estar) == (s.graph._edges, s.ports, s.estar)
                assert g.graph.num_vertices == s.graph.num_vertices


def test_simple_stable_blocks_are_pinned():
    # the graph, ports, E*, params and meta of every simple stable block in
    # the grid's range, hashed as they were when it had a builder of its own
    digest = hashlib.sha256()
    for k in range(3, 7):
        for d in range(2, 5):
            for m in range(1, k):
                g = build_simple_stable_block(m, k, d)
                digest.update(serialize(g.graph).encode())
                digest.update(repr((g.ports, sorted(g.estar), g.params, g.meta)).encode())
    assert digest.hexdigest() == "d5acfe25c3c1e068b8d100c13ac2b65c32b593cfdd61af4924ea8ce50835cfc1"


def every_builder_output():
    ds = range(2, 6)
    for k in range(2, 9):
        for d in ds:
            yield build_ck_gadget(k, d)
    for k in range(3, 9):
        for d in ds:
            yield build_b_block(2, k, d)
            yield build_b_block(3, k, d)
            for m in range(1, k):
                yield build_simple_stable_block(m, k, d)
            for m in range(1, 30):
                yield build_stable_block(m, k, d)
    for k in range(2, 9):
        for d in ds:
            if k >= 3 or d >= 3:
                for delta in range(12):
                    yield build_pk_gadget(delta, k, d)
    for d in range(3, 7):
        for p in range(1, 30):
            yield build_tree_stable_block(p, d)


def test_every_builder_is_pinned():
    # the graph, ports, E*, params and meta of 1,320 outputs across every
    # family, hashed before the builders lost their slot bookkeeping
    digest = hashlib.sha256()
    count = 0
    for g in every_builder_output():
        digest.update(serialize(g.graph).encode())
        digest.update(repr((g.ports, sorted(g.estar), g.params, g.meta)).encode())
        count += 1
    assert count == 1320
    assert digest.hexdigest() == "2127310954fd4802660133a03d5a34bdac6629daddcc06929cb61f245b11e292"


def test_stable_k4_m11_is_depth_two():
    g = build_stable_block(11, 4, 2)
    assert g.params["depth"] == 2
    assert len(g.ports) == 11
    assert check_gadget(g).all_passed


def test_stable_size_bound_recorded():
    for m, k, d in ((1, 6, 2), (7, 3, 2), (7, 6, 4)):
        g = build_stable_block(m, k, d)
        c = g.params["size_bound_c"]
        assert g.graph.num_vertices <= c * m * k * k + max(0, d - 2)


def test_size_bound_checks_survive_python_optimize():
    # With the size constants zeroed every block exceeds its bound; the
    # builders must still refuse it when asserts are compiled out.
    script = textwrap.dedent("""
        import sys
        from stashpeel import gadgets

        gadgets.STABLE_SIZE_CONSTANT = 0
        gadgets.TREE_STABLE_SIZE_CONSTANT = 0
        print(sys.flags.optimize)
        for call in (lambda: gadgets.build_stable_block(2, 3, 2), lambda: gadgets.build_tree_stable_block(2, 3)):
            try:
                call()
                print("returned")
            except AssertionError:
                print("raised")
    """)
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "raised", "raised"]


def test_stable_root_estar_peels_whole_tree():
    g = build_stable_block(5, 3, 2)
    harness = build_harness(g)
    core = k_core_after(harness.graph, 3, stash_edges=[min(g.estar)])
    assert not (core.core_vertices & set(range(harness.block)))


def test_stable_negative_control():
    g = build_stable_block(5, 4, 2)
    report = check_gadget(drop_edge(g, sorted(g.estar)[0]))
    assert not report.all_passed
    assert all(c.witness for c in report.failures())


def test_tree_stable_root_degree_is_ports_plus_one():
    g = build_tree_stable_block(2, 3)
    harness = build_harness(g)
    root = g.meta["root"]
    assert harness.graph.degree(root) == 2 + 1
    assert len(g.meta["ws"]) >= 2
    assert check_gadget(g).all_passed


def test_tree_stable_root_edge_is_estar():
    g = build_tree_stable_block(3, 3)
    assert g.estar == {g.meta["root_edge"]}
    report = check_gadget(g)
    assert report.all_passed  # includes stash-root-edge and all-ports-removed peels


def test_tree_stable_rejects_standard_graphs():
    with pytest.raises(ParameterError):
        build_tree_stable_block(2, 2)  # the k=d=2 case has a polynomial solver instead
    with pytest.raises(ParameterError):
        build_tree_stable_block(0, 3)


def test_tree_stable_negative_control():
    g = build_tree_stable_block(2, 3)
    non_root = [e for e in range(g.graph.num_edges) if e != g.meta["root_edge"]]
    report = check_gadget(drop_edge(g, non_root[-1]))
    assert not report.all_passed


# -- per-vertex wrapper gadgets -------------------------------------------------


def test_pk_gadget_families_pass_checks():
    for k, d in ((3, 2), (4, 2), (3, 3), (2, 3), (2, 4)):
        for delta in (0, 1, 3, 5):
            report = check_gadget(build_pk_gadget(delta, k, d))
            assert report.all_passed, (k, d, delta, report.failures())


def test_pk_gadget_rejects_polynomial_case():
    with pytest.raises(ParameterError):
        build_pk_gadget(3, 2, 2)
    with pytest.raises(ParameterError, match="^delta must be non-negative, got -1$"):
        build_pk_gadget(-1, 3, 2)


def test_pk_gadget_negative_control():
    g = build_pk_gadget(3, 3, 2)
    report = check_gadget(drop_edge(g, 0))
    assert not report.all_passed


# -- grid and dummy lifting -----------------------------------------------------


def test_dummy_lifting_preserves_checker_outcomes():
    cases = [
        (build_ck_gadget, [(3,), (4,)]),
        (lambda k, d=2: build_b_block(2, k, d), [(3,), (5,)]),
        (lambda m, d=2: build_stable_block(m, 4, d), [(2,), (5,)]),
    ]
    for build, arg_sets in cases:
        for args in arg_sets:
            for d in (2, 3):
                low = check_gadget(build(*args, d))
                high = check_gadget(build(*args, d + 1))
                assert [c.name for c in low.checks] == [c.name for c in high.checks]
                assert [c.passed for c in low.checks] == [c.passed for c in high.checks]
                assert low.all_passed


def lift_by_add_edge(g2: Hypergraph, d: int) -> tuple[Hypergraph, list[int]]:
    """The d-lift of a 2-uniform assembly, built edge by edge with add_edge."""
    g = Hypergraph(d)
    g.add_vertices(g2.num_vertices)
    dummies = g.add_vertices(d - 2) if g2.num_edges else []
    for e in range(g2.num_edges):
        g.add_edge((*g2.edge_vertices(e), *dummies))
    return g, dummies


def test_lift_to_d_builds_what_add_edge_builds(monkeypatch):
    # _lift_to_d builds the lifted graph in one _from_edges call: every
    # assembly the grid's b-blocks, stable blocks and pk wrappers lift must
    # come out as add_edge builds it, with the same ids and edge order
    lift, lifted = gadgets._lift_to_d, set()

    def checked_lift(g2, d):
        got, dummies = lift(g2, d)
        want, want_dummies = lift_by_add_edge(g2, d)
        assert (layout(got), dummies) == (layout(want), want_dummies)
        got.validate()
        lifted.add((d, g2.num_edges > 0))
        return got, dummies

    monkeypatch.setattr(gadgets, "_lift_to_d", checked_lift)
    ds = range(2, 6)
    for k in (k for k in gadgets.GRID_K if k >= 3):
        for d in ds:
            build_b_block(2, k, d)
            build_b_block(3, k, d)
            for m in range(1, k):
                build_simple_stable_block(m, k, d)
            for m in gadgets.GRID_M:
                build_stable_block(m, k, d)
            for delta in range(8):
                build_pk_gadget(delta, k, d)
    # an edgeless assembly gains no dummies
    for d in ds:
        checked_lift(mkgraph(3, [], 2), d)
    assert lifted == {(d, edges) for d in ds for edges in (False, True)}


@pytest.mark.parametrize("edges, parallel", [
    ([], 0),
    ([(0, 1), (1, 2)], 0),
    ([(0, 1), (1, 0), (0, 1)], 2),  # one pair three times, written both ways
    ([(0, 1), (2, 3), (1, 0), (3, 2)], 2),
])
def test_report_params_counts_parallel_edges(edges, parallel):
    gadget = Gadget(graph=mkgraph(4, edges), ports=(), estar=frozenset(), params={"k": 3}, meta={})
    assert _report_params(gadget) == {"k": 3, "parallel_edges": parallel}


def test_full_grid_passes():
    reports = run_gadget_grid()
    failed = [r for r in reports if not r.all_passed]
    assert not failed, failed
    assert len(reports) > 100


# -- pinned witness text ------------------------------------------------------


def survivors(n: int) -> str:
    return f"survivors={list(range(n))}"


def port_free_stable_block() -> Gadget:
    """A degree-1 stable block with its one port taken away."""
    return replace(build_stable_block(1, 3, 2), ports=())


PINNED_REPORTS = [
    pytest.param(
        lambda: drop_edge(build_ck_gadget(3, 2), 0),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0]"),
            ("peels_iff_at_least_1_of_2_ports_removed", True, ""),
        ],
        id="ck-drop-edge",
    ),
    pytest.param(
        lambda: double_edges(build_ck_gadget(3, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_iff_at_least_1_of_2_ports_removed", False, "removed=['u'] expected_peel=True survivors=[0, 1, 2]"),
        ],
        id="ck-double",
    ),
    pytest.param(
        lambda: drop_edge(build_b_block(2, 3, 2), 0),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3]"),
            ("peels_iff_at_least_1_of_2_ports_removed", False, "removed=[] expected_peel=False survivors=[]"),
        ],
        id="b2-drop-edge",
    ),
    pytest.param(
        lambda: double_edges(build_b_block(2, 3, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_iff_at_least_1_of_2_ports_removed", False, "removed=['p0'] expected_peel=True " + survivors(4)),
        ],
        id="b2-double",
    ),
    pytest.param(
        lambda: drop_vertex(build_b_block(3, 4, 2), 5),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3, 4]"),
            ("peels_iff_at_least_1_of_3_ports_removed", False, "removed=[] expected_peel=False survivors=[]"),
        ],
        id="b3-drop-vertex",
    ),
    pytest.param(
        lambda: double_edges(build_b_block(3, 4, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_iff_at_least_1_of_3_ports_removed", False, "removed=['p0'] expected_peel=True " + survivors(6)),
        ],
        id="b3-double",
    ),
    pytest.param(
        lambda: drop_edge(build_simple_stable_block(2, 3, 2), 0),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3, 4, 5, 6, 7, 8]"),
            ("peels_iff_at_least_2_of_2_ports_removed", False, "removed=['p0'] expected_peel=False survivors=[]"),
            # without edge 0, the E* edges 10-12 are renumbered 9-11
            ("estar_9_peels", True, ""),
            ("estar_10_peels", True, ""),
            ("estar_11_peels", True, ""),
        ],
        id="stable-drop-edge",
    ),
    pytest.param(
        lambda: double_edges(build_simple_stable_block(2, 3, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_iff_at_least_2_of_2_ports_removed", False, "removed=['p0', 'p1'] expected_peel=True " + survivors(9)),
            ("estar_10_peels", False, "stash_edge=10 " + survivors(9)),
            ("estar_11_peels", False, "stash_edge=11 " + survivors(9)),
            ("estar_12_peels", False, "stash_edge=12 " + survivors(9)),
        ],
        id="stable-double",
    ),
    pytest.param(
        port_free_stable_block,
        [
            # with no ports the block must peel with nothing removed
            ("peels_iff_at_least_0_of_0_ports_removed", True, ""),
            ("estar_10_peels", True, ""),
            ("estar_11_peels", True, ""),
            ("estar_12_peels", True, ""),
        ],
        id="stable-port-free",
    ),
    pytest.param(
        lambda: double_edges(port_free_stable_block()),
        [
            ("peels_iff_at_least_0_of_0_ports_removed", False, "removed=[] expected_peel=True " + survivors(9)),
            ("estar_10_peels", False, "stash_edge=10 " + survivors(9)),
            ("estar_11_peels", False, "stash_edge=11 " + survivors(9)),
            ("estar_12_peels", False, "stash_edge=12 " + survivors(9)),
        ],
        id="stable-port-free-double",
    ),
    pytest.param(
        lambda: drop_vertex(build_tree_stable_block(2, 3), 2),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3]"),
            ("peels_iff_at_least_2_of_2_ports_removed", False, "removed=['p0'] expected_peel=False survivors=[]"),
        ],
        id="tree-stable-drop-vertex",
    ),
    pytest.param(
        lambda: double_edges(build_tree_stable_block(2, 3)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_iff_at_least_2_of_2_ports_removed", False, "removed=['p0', 'p1'] expected_peel=True " + survivors(5)),
            ("estar_0_peels", False, "stash_edge=0 " + survivors(5)),
        ],
        id="tree-stable-double",
    ),
    pytest.param(
        lambda: drop_edge(build_pk_gadget(3, 3, 2), 0),
        [
            ("unpeelable_with_all_ports", False, "peeled=" + str(list(range(19)))),
            ("peels_iff_at_least_1_of_3_ports_removed", False, "removed=[] expected_peel=False survivors=[]"),
            ("estar_9_peels", True, ""),
            ("estar_10_peels", True, ""),
            ("estar_11_peels", True, ""),
        ],
        id="pk-drop-edge",
    ),
    pytest.param(
        lambda: double_edges(build_pk_gadget(3, 3, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_iff_at_least_1_of_3_ports_removed", False, "removed=['e0'] expected_peel=True " + survivors(19)),
            ("estar_10_peels", False, "stash_edge=10 " + survivors(19)),
            ("estar_11_peels", False, "stash_edge=11 " + survivors(19)),
            ("estar_12_peels", False, "stash_edge=12 " + survivors(19)),
        ],
        id="pk-double",
    ),
]


@pytest.mark.parametrize("broken, expected", PINNED_REPORTS)
def test_broken_gadget_reports_are_pinned(broken, expected):
    """Every check's name, verdict and witness text, in order, on gadgets
    broken one way (an edge or vertex gone: too much peels) or the other
    (every edge doubled: too little peels)."""
    report = check_gadget(broken())
    assert [(c.name, c.passed, c.witness) for c in report.checks] == expected


THRESHOLD_ROW = re.compile(r"peels_iff_at_least_(\d+)_of_(\d+)_ports_removed")


def family_threshold(gadget: str, params: dict[str, int]) -> tuple[int, int]:
    """(t, port count) of a report, from its family and params: any one of
    the ck gadget's 2 or a b-block's b ports, every port of a stable block,
    and all but k-1 of a pk gadget's delta ports (none when delta < k)."""
    if gadget in ("ck", "b2", "b3"):
        return 1, params.get("b", 2)
    if gadget == "pk":
        return max(0, params["delta"] - params["k"] + 1), params["delta"]
    degree = params["p"] if gadget == "tree-stable" else params["m"]
    return degree, degree


def test_grid_reports_state_one_threshold_contract():
    # every grid report, and pk at delta 0-8 for k = 2..5, names the t and
    # port count the oracle gives its family
    reports = run_gadget_grid()
    assert len(reports) == 175
    pk = [build_pk_gadget(delta, k, 3 if k == 2 else 2) for k in range(2, 6) for delta in range(9)]
    reports += [check_gadget(g) for g in pk]
    assert {r.gadget for r in reports} == {"ck", "b2", "b3", "simple-stable", "stable", "tree-stable", "pk"}
    for r in reports:
        names = [c.name for c in r.checks]
        has_unpeelable = names[:1] == ["unpeelable_with_all_ports"]
        assert names.count("unpeelable_with_all_ports") == has_unpeelable, r
        row = THRESHOLD_ROW.fullmatch(names[has_unpeelable])
        assert row, r
        t, n = map(int, row.groups())
        assert (t, n) == family_threshold(r.gadget, r.params), r
        assert has_unpeelable == (t >= 1), r
        estar = [re.fullmatch(r"estar_(\d+)_peels", name) for name in names[has_unpeelable + 1 :]]
        assert all(estar), r
        ids = [int(m.group(1)) for m in estar]
        assert ids == sorted(set(ids)), r


@pytest.mark.parametrize("meta, kind", [({}, "gadget"), ({"kind": "b4"}, "b4"), ({"kind": "PK"}, "PK")])
def test_check_gadget_refuses_a_kind_with_no_contract(meta, kind):
    g = Gadget(Hypergraph(2), (), frozenset(), {"k": 2}, meta)
    with pytest.raises(ParameterError, match=f"^no threshold contract for gadget kind '{kind}'$"):
        check_gadget(g)


@pytest.mark.parametrize(
    "ks, ds, name, bad",
    [([True], gadgets.GRID_D, "k", True), ([3, 2.0], [2], "k", 2.0), (gadgets.GRID_K, [True], "d", True),
     ([1], [False], "d", False), ([3], [3.0], "d", 3.0)],
)
def test_run_gadget_grid_refuses_non_integer_ks_and_ds(ks, ds, name, bad):
    with pytest.raises(ParameterError, match=f"^{name} must be an integer, got {bad}$"):
        run_gadget_grid(ks, ds)


def test_run_gadget_grid_reads_its_ks_and_ds_once():
    assert run_gadget_grid(iter([2, 3]), iter([3])) == run_gadget_grid([2, 3], [3])


# -- the frontier sweep against an exhaustive scan ------------------------------


def removal_edges(harness, removed) -> tuple[int, ...]:
    return tuple(e for name in removed for e in harness.port_edges[name])


def fresh_survivors(harness, removed_edges: tuple[int, ...] = ()) -> list[int]:
    """The oracles' peel: the block vertices alive in a ``PeelCore`` built
    from the harness graph with the removed edges as its stash, so it
    shares no intact core, copy or stop set with ``_survivors``."""
    core = PeelCore(harness.graph, harness.k, (), removed_edges)
    return list(itertools.compress(range(harness.block), core.vertex_alive))


def full_scan(gadget: Gadget) -> GadgetReport:
    """The threshold report by brute force, with no frontier and t from
    ``family_threshold``: every removal of neighboring edges, all 2^n of
    them, is peeled in mask order, and the first that breaks the contract
    is the witness."""
    t, _ = family_threshold(gadget.kind, gadget.params)
    harness = build_harness(gadget)
    names = [p.name for p in gadget.ports]
    n = len(names)
    checks = []
    if t:
        peeled = sorted(set(range(harness.block)) - set(fresh_survivors(harness)))
        checks.append(CheckResult("unpeelable_with_all_ports", not peeled, f"peeled={peeled}" if peeled else ""))
    witness = ""
    for mask in range(2**n):
        removed = [names[i] for i in range(n) if mask >> i & 1]
        surv = fresh_survivors(harness, removal_edges(harness, removed))
        expect_peel = len(removed) >= t
        if (not surv) != expect_peel:
            witness = f"removed={removed} expected_peel={expect_peel} survivors={surv}"
            break
    checks.append(CheckResult(f"peels_iff_at_least_{t}_of_{n}_ports_removed", not witness, witness))
    for e in sorted(gadget.estar):
        surv = fresh_survivors(harness, (e,))
        checks.append(CheckResult(f"estar_{e}_peels", not surv, f"stash_edge={e} survivors={surv}" if surv else ""))
    return GadgetReport(gadget.kind, _report_params(gadget), tuple(checks))


def assert_witness_violates(gadget: Gadget, report: GadgetReport) -> None:
    """Re-peel the removal a failing threshold row names: it must lie on
    the frontier, t-1 or t ports, and really break the contract."""
    harness = build_harness(gadget)
    names = [p.name for p in gadget.ports]
    for c in report.checks:
        row = THRESHOLD_ROW.fullmatch(c.name)
        if c.passed or not row:
            continue
        t, n = map(int, row.groups())
        assert n == len(names), c
        removed = ast.literal_eval(re.search(r"removed=(\[.*?\])", c.witness).group(1))
        assert len(set(removed)) == len(removed) and set(removed) <= set(names), c
        assert len(removed) in (t - 1, t), c
        surv = fresh_survivors(harness, removal_edges(harness, removed))
        expect_peel = len(removed) == t
        assert (not surv) != expect_peel, c
        assert c.witness == f"removed={removed} expected_peel={expect_peel} survivors={surv}"


def assert_matches_full_scan(gadget: Gadget, ours: GadgetReport, theirs: GadgetReport) -> None:
    """Same checks, in order, with the same verdicts; every failing
    threshold witness is re-peeled, since the scans may name different
    removals."""
    assert (ours.gadget, ours.params) == (theirs.gadget, theirs.params)
    assert [(c.name, c.passed) for c in ours.checks] == [(c.name, c.passed) for c in theirs.checks]
    assert_witness_violates(gadget, ours)


def broken_variants(gadget: Gadget):
    """The gadget without each one of its edges, without each one of its
    non-port vertices, with each one of its vertices pinned, and with
    every edge doubled."""
    ported = {v for p in gadget.ports for attach in p.edges for v in attach}
    yield from (drop_edge(gadget, e) for e in range(gadget.graph.num_edges))
    yield from (drop_vertex(gadget, v) for v in range(gadget.graph.num_vertices) if v not in ported)
    yield from (pin_vertex(gadget, v) for v in range(gadget.graph.num_vertices))
    yield double_edges(gadget)


def test_stable_frontier_matches_full_scan_on_the_grid(monkeypatch):
    pairs = []
    real = gadgets.check_gadget

    def both(gadget):
        report = real(gadget)
        if gadget.kind in ("simple-stable", "stable", "tree-stable"):
            pairs.append((gadget, report, full_scan(gadget)))
        return report

    monkeypatch.setattr(gadgets, "check_gadget", both)
    assert all(r.all_passed for r in run_gadget_grid())
    assert len(pairs) > 100
    for gadget, ours, theirs in pairs:
        assert_matches_full_scan(gadget, ours, theirs)


ONE_PER_FAMILY = pytest.mark.parametrize(
    "build",
    [
        lambda: build_ck_gadget(3, 2),
        lambda: build_ck_gadget(4, 3),
        lambda: build_b_block(2, 3, 2),
        lambda: build_b_block(3, 4, 3),
        lambda: build_simple_stable_block(2, 3, 2),
        lambda: build_stable_block(5, 3, 2),
        lambda: build_tree_stable_block(3, 3),
        lambda: build_pk_gadget(3, 3, 2),
        lambda: build_pk_gadget(2, 2, 3),
    ],
    ids=["ck-k3-d2", "ck-k4-d3", "b2", "b3", "simple-stable", "stable", "tree-stable", "pk-k3", "pk-k2"],
)


@ONE_PER_FAMILY
def test_frontier_matches_full_scan_on_broken_gadgets(build):
    reports = [(g, check_gadget(g), full_scan(g)) for g in broken_variants(build())]
    for g, ours, theirs in reports:
        assert_matches_full_scan(g, ours, theirs)
        # every row to the byte, witnesses included, against peels that
        # all run to the core
        assert ours == frontier_sweep(g)
    assert sum(not ours.all_passed for _, ours, _ in reports) > len(reports) // 2


def test_stable_frontier_matches_full_scan_of_2047_removals():
    # the 2,047 proper removals and the full one
    g = build_stable_block(11, 4, 2)
    ours = check_gadget(g)
    assert ours == full_scan(g) and ours.all_passed


def star_gadget(m: int, k: int, kind: str) -> Gadget:
    """One vertex holding all m ports and nothing else, checked as a
    ``stable`` block of degree m or a ``pk`` gadget of degree delta = m."""
    g = Hypergraph(2)
    g.add_vertex()
    ports = tuple(Port(f"p{i}", ((0,),)) for i in range(m))
    return Gadget(g, ports, frozenset(), {"k": k, "delta" if kind == "pk" else "m": m}, {"kind": kind})


def test_stable_sweep_decides_every_removal_past_degree_10():
    # at k=2 the star keeps its vertex while two ports remain, so only the
    # 11 removals of ten ports (and the full one) peel it
    g = star_gadget(11, 2, "stable")
    report = check_gadget(g)
    removed = [f"p{i}" for i in range(10)]
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        ("unpeelable_with_all_ports", True, ""),
        ("peels_iff_at_least_11_of_11_ports_removed", False, f"removed={removed} expected_peel=False survivors=[]"),
    ]
    assert_matches_full_scan(g, report, full_scan(g))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pk_frontier_matches_full_scan_at_every_small_degree(k):
    # delta runs below k - 1, where only the empty removal must peel, up to
    # 8, whose 256 removals the full scan peels; from delta = k on, nothing
    # may peel while every port is present
    d = 3 if k == 2 else 2
    for delta in range(9):
        g = build_pk_gadget(delta, k, d)
        ours = check_gadget(g)
        assert ours == full_scan(g) and ours.all_passed, (delta, ours.failures())
        unpeelable = [c for c in ours.checks if c.name == "unpeelable_with_all_ports"]
        assert unpeelable == ([CheckResult("unpeelable_with_all_ports", True)] if delta >= k else []), delta


def test_frontier_is_counted_before_it_is_built(monkeypatch):
    # delta = k = 200: the frontier keeps all 200 ports, or all but one.
    # Removals are drawn one at a time, so a sweep that fails stops drawing,
    # and the empty removal, drawn first, is the intact harness, not peeled
    # again.
    drawn = []
    real = gadgets.combinations

    def counting(items, r):
        for c in real(items, r):
            drawn.append(c)
            yield c

    star = star_gadget(200, 200, "pk")
    doubled = replace(star, ports=tuple(Port(p.name, p.edges * 2) for p in star.ports))
    monkeypatch.setattr(gadgets, "combinations", counting)
    assert check_gadget(star).all_passed
    assert drawn == [()] + [(f"p{i}",) for i in range(200)]
    drawn.clear()
    # with every port doubled the star keeps its vertex without p0
    report = check_gadget(doubled)
    assert report.checks[1].witness == "removed=['p0'] expected_peel=True survivors=[0]"
    assert drawn == [(), ("p0",)]


def test_grid_peels_the_frontier_not_the_pool(monkeypatch):
    calls = built = killed = 0
    real, init, cascade = gadgets._survivors, PeelCore.__init__, PeelCore._peel_untraced

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    def building(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    def killing(self, *args):
        # every untraced cascade: each construction's and each copy's
        nonlocal killed
        before = self.live_edges
        stopped = cascade(self, *args)
        killed += before - self.live_edges
        return stopped

    monkeypatch.setattr(gadgets, "_survivors", counting)
    monkeypatch.setattr(PeelCore, "__init__", building)
    monkeypatch.setattr(PeelCore, "_peel_untraced", killing)
    assert all(r.all_passed for r in run_gadget_grid())
    assert calls == 1639  # peeling every removal, as full_scan does, makes 4,683
    # one core per harness, built from its graph, and every peel runs on a
    # copy of it; a core per peel would be 1,639
    assert built == 175
    # a peel stops at the first vertex whose loss is known to empty the
    # block; run to the core, the same peels kill 118,678 edges
    assert killed <= 45_000


def test_grid_reports_are_the_frontier_sweeps_to_the_byte(monkeypatch):
    built = []
    real = gadgets.check_gadget

    def keeping(gadget):
        report = real(gadget)
        built.append((gadget, report))
        return report

    monkeypatch.setattr(gadgets, "check_gadget", keeping)
    run_gadget_grid()
    assert len(built) == 175
    for gadget, report in built:
        assert report == frontier_sweep(gadget), report.params


def stopped_peels(monkeypatch, call) -> list[bool]:
    """Whether each untraced cascade of ``call``, a construction's or a
    copy's, stopped short of its core."""
    stopped = []
    cascade = PeelCore._peel_untraced

    def recording(self, *args):
        stopped.append(cascade(self, *args))
        return stopped[-1]

    with monkeypatch.context() as m:
        m.setattr(PeelCore, "_peel_untraced", recording)
        call()
    return stopped


@pytest.mark.parametrize("build", [lambda: build_stable_block(5, 3, 2), lambda: build_b_block(3, 4, 3)],
                         ids=["stable", "b3"])
def test_only_check_gadget_stops_a_peel(monkeypatch, build):
    # the stable block's fatal vertices come from its E* rows, the
    # b-block's from its one-edge ports.  The oracles peel fresh cores
    # with no stop set, so they never take the shortcut
    g = build()
    assert any(stopped_peels(monkeypatch, lambda: check_gadget(g)))
    for oracle in (full_scan, frontier_sweep):
        peels = stopped_peels(monkeypatch, lambda: oracle(g))
        assert peels and not any(peels)


# -- peels on copies of the intact core against fresh peels --------------------


def single_edge_fatal(harness) -> set[int]:
    """The vertices of every harness edge whose removal alone leaves no
    block vertex, by fresh peels: every stop set ``check_gadget`` collects
    lies inside it."""
    g = harness.graph
    return {v for e in range(g.num_edges) if not fresh_survivors(harness, (e,)) for v in g.edge_vertices(e)}


def assert_copies_match_fresh_peels(harness, rng: random.Random, draws: int) -> None:
    # random removals of any harness edges, pool edges included, peeled on
    # a copy with no stop set and with the widest one
    m, fatal = harness.graph.num_edges, single_edge_fatal(harness)
    for _ in range(draws):
        removed = tuple(rng.sample(range(m), rng.randint(0, min(m, 4))))
        want = fresh_survivors(harness, removed)
        assert _survivors(harness, removed) == want, removed
        assert _survivors(harness, removed, fatal) == want, removed


def lost_block_vertices(harness) -> int:
    return harness.core.vertex_alive[: harness.block].count(False)


def test_copies_match_fresh_peels_on_the_grid(monkeypatch):
    seen = []
    real = gadgets.build_harness
    monkeypatch.setattr(gadgets, "build_harness", lambda g: seen.append(real(g)) or seen[-1])
    run_gadget_grid()
    assert len(seen) == 175
    rng = random.Random(40)
    for harness in seen:
        assert_copies_match_fresh_peels(harness, rng, 4)


@ONE_PER_FAMILY
def test_copies_match_fresh_peels_on_broken_gadgets(build):
    harnesses = [build_harness(g) for g in broken_variants(build())]
    rng = random.Random(len(harnesses))
    for harness in harnesses:
        assert_copies_match_fresh_peels(harness, rng, 3)
    # some copies start from an intact core that has already lost block
    # vertices
    assert any(map(lost_block_vertices, harnesses))


@pytest.mark.parametrize("delta, k, d", [(1, 3, 2), (2, 4, 2), (2, 5, 3), (1, 2, 3)])
def test_copies_of_a_peeled_intact_core_match_fresh_peels(delta, k, d):
    # fewer than k ports: t = 0, so the intact peel already kills the block
    g = build_pk_gadget(delta, k, d)
    harness = build_harness(g)
    assert not any(harness.core.vertex_alive[: harness.block])
    assert harness.core.live_edges < harness.graph.num_edges
    assert_copies_match_fresh_peels(harness, random.Random(delta * k * d), 20)


def core_state(core: PeelCore):
    return core.vertex_alive.copy(), core.edge_alive.copy(), core.degree.copy(), core.live_edges, core.trail.copy()


def test_check_gadget_leaves_every_harness_core_as_built(monkeypatch):
    # part harnesses of the pk proof included
    built = []
    post_init = gadgets.Harness.__post_init__

    def keeping(self):
        post_init(self)
        built.append((self, core_state(self.core)))

    monkeypatch.setattr(gadgets.Harness, "__post_init__", keeping)
    run_gadget_grid()
    for delta, k, d in [(1, 3, 2), (6, 3, 2), (8, 4, 3), (6, 2, 3)]:
        check_gadget(build_pk_gadget(delta, k, d))
    assert len(built) > 180
    for harness, before in built:
        assert core_state(harness.core) == before


@pytest.mark.parametrize("attach", [(99,), (0, 0), (0, 1, 2), (-1,), (True,)])
def test_harness_refuses_a_port_edge_that_is_no_edge(attach):
    # a gadget is caller input, and its harness takes each port edge
    # through a check: an unchecked bulk build would index past the
    # vertices, or file -1 under the last one
    g = build_b_block(2, 3, 2)
    bad = replace(g, ports=(*g.ports, Port("bad", (attach,))))
    with pytest.raises(StashpeelError):
        check_gadget(bad)


# -- the composed pk proof against the frontier sweep ---------------------------


def frontier_sweep(gadget: Gadget) -> GadgetReport:
    """The report as ``check_gadget`` made it before pk wrappers had a
    composed proof, kept as the oracle: the frontier sweep, with t from
    ``family_threshold``, decides every threshold row."""
    t, n = family_threshold(gadget.kind, gadget.params)
    harness = build_harness(gadget)
    names = [p.name for p in gadget.ports]
    intact = fresh_survivors(harness)
    checks = []
    if t:
        peeled = sorted(set(range(harness.block)).difference(intact))
        checks.append(CheckResult("unpeelable_with_all_ports", not peeled, f"peeled={peeled}" if peeled else ""))
    witness = ""
    sizes = range(max(0, t - 1), t + 1)
    for removed in itertools.chain.from_iterable(itertools.combinations(names, r) for r in sizes):
        surv = fresh_survivors(harness, removal_edges(harness, removed)) if removed else intact
        expect_peel = len(removed) == t
        if (not surv) != expect_peel:
            witness = f"removed={list(removed)} expected_peel={expect_peel} survivors={surv}"
            break
    checks.append(CheckResult(f"peels_iff_at_least_{t}_of_{n}_ports_removed", not witness, witness))
    for e in sorted(gadget.estar):
        surv = fresh_survivors(harness, (e,))
        checks.append(CheckResult(f"estar_{e}_peels", not surv, f"stash_edge={e} survivors={surv}" if surv else ""))
    return GadgetReport(gadget.kind, _report_params(gadget), tuple(checks))


def threshold_row(report: GadgetReport) -> CheckResult:
    return next(c for c in report.checks if THRESHOLD_ROW.fullmatch(c.name))


PK_KD = [(k, d) for k in range(2, 7) for d in range(2, 5) if k >= 3 or d >= 3]


@pytest.mark.parametrize("k, d", PK_KD)
def test_pk_proof_matches_the_sweep_at_every_degree_to_12(k, d):
    # the proof holds on every wrapper the builder makes, also where
    # check_gadget leaves the row to the sweep (a frontier of fewer than
    # 3 delta removals), and the reports are the sweep's to the byte
    for delta in range(13):
        g = build_pk_gadget(delta, k, d)
        assert _pk_contract_holds(g, build_harness(g)), delta
        assert check_gadget(g) == frontier_sweep(g), delta


@pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (3, 3), (2, 3)])
@pytest.mark.parametrize("delta", [3, 5, 7])
def test_pk_proof_matches_the_sweep_on_broken_wrappers(delta, k, d):
    for g in broken_variants(build_pk_gadget(delta, k, d)):
        oracle = frontier_sweep(g)
        assert check_gadget(g) == oracle
        if _pk_contract_holds(g, build_harness(g)):
            assert threshold_row(oracle).passed


def with_edges(gadget: Gadget, edges) -> Gadget:
    g = gadget.graph.copy()
    for vs in edges:
        g.add_edge(vs)
    return Gadget(g, gadget.ports, gadget.estar, dict(gadget.params), dict(gadget.meta))


@pytest.mark.parametrize("delta, k, d", [(5, 3, 2), (6, 3, 3), (5, 4, 2), (5, 2, 3)])
def test_pk_proof_is_sound_where_it_holds_on_extra_edges(delta, k, d):
    # one or two random extra edges; the proof holds on some of these
    # gadgets, and on each of them the sweep's threshold row passes
    rng = random.Random(delta * 100 + k * 10 + d)
    base = build_pk_gadget(delta, k, d)
    held = 0
    for _ in range(60):
        n = base.graph.num_vertices
        g = with_edges(base, [rng.sample(range(n), d) for _ in range(rng.randint(1, 2))])
        oracle = frontier_sweep(g)
        assert check_gadget(g) == oracle
        if _pk_contract_holds(g, build_harness(g)):
            held += 1
            assert threshold_row(oracle).passed
    assert held > 0


def edges_on(g: Hypergraph, v: int) -> list[tuple[int, ...]]:
    return [g.edge_vertices(e) for e in range(g.num_edges) if v in g.edge_vertices(e)]


def locality_violations():
    # pk(5, 3, 2): each relay is one vertex x_i on P, its attach vertex in
    # the stable block S, and its port
    g = build_pk_gadget(5, 3, 2)
    primary, relays = g.meta["primary"], g.meta["relays"]
    attach = [next(v for vs in edges_on(g.graph, x) for v in vs if v not in (x, primary)) for x in relays]
    yield "stable-to-primary", with_edges(g, [(attach[0], primary)])
    other = next(a for a in attach if a != attach[0])
    yield "relay-on-two-attach-vertices", with_edges(g, [(relays[0], other)])
    # a stable-block edge split in two at new vertices that meta calls
    # dummies: pinned, they would keep both ends' degrees, but they lie on
    # no edge of P and peel
    a, b = g.graph.edge_vertices(0)
    split = gadget_without(g, edges=[0])
    x, y = split.graph.add_vertices(2)
    split = with_edges(split, [(a, x), (b, y)])
    split.meta["dummies"] = [x, y]
    yield "stable-edge-split-at-fake-dummies", split
    # with no ports there is no edge of P to hold dummies, and two that
    # meta calls dummies hold each other at degree 3
    lone = build_pk_gadget(0, 3, 2)
    x, y = lone.graph.add_vertices(2)
    lone = with_edges(lone, [(x, y)] * 3)
    lone.meta["dummies"] = [x, y]
    yield "fake-dummies-on-their-own-edges", lone


@pytest.mark.parametrize("name, g", list(locality_violations()))
def test_pk_proof_refuses_a_locality_violation(name, g):
    assert not _pk_contract_holds(g, build_harness(g))
    report = check_gadget(g)
    assert report == frontier_sweep(g)
    assert not threshold_row(report).passed
    assert_witness_violates(g, report)


def count_peels(monkeypatch) -> list[int]:
    calls = [0]
    real = gadgets._survivors

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(gadgets, "_survivors", counting)
    return calls


def test_pk_20_10_checks_in_order_delta_peels(monkeypatch):
    # at most 1 intact peel, 4 for the relay harness all 20 relays share,
    # delta + 1 on the stable block and one per E* edge; the sweep would
    # make 352,716.  Ports on one attach vertex share a peel, so it is 26.
    calls = count_peels(monkeypatch)
    g = build_pk_gadget(20, 10, 2)
    assert check_gadget(g).all_passed
    assert calls[0] <= 1 + 4 + 21 + len(g.estar)
    assert calls[0] <= 26


def test_vstash_audit_peel_count(monkeypatch):
    # the k=3 wrappers of degrees 0-8 and 10; the sweep made 413 peels
    _, rmap = reduce_vertex_to_edge_stash(gen_random(100, 200, 2, 1), 3, 2)
    calls = count_peels(monkeypatch)
    assert all(r.all_passed for r in audit_pk_properties(rmap))
    assert calls[0] <= 97


# -- the pool harness against per-slot anchors ----------------------------------


def anchored_harness(gadget: Gadget):
    """Reference harness with an anchor vertex in every free port slot (one
    shared anchor per side for ports marked ``shared_external``), each held
    at degree k by k parallel edges over d-1 pump vertices.  Returns the
    graph, each port's edges and each shared port's anchor."""
    k, d = gadget.params["k"], gadget.graph.d
    h = gadget.graph.copy()
    anchors, port_edges, port_anchor = [], {}, {}
    for port in gadget.ports:
        shared = [h.add_vertex()] if port.shared_external else []
        if shared:
            port_anchor[port.name] = shared[0]
        anchors += shared
        realized = []
        for attach in port.edges:
            ext = h.add_vertices(d - len(attach) - len(shared))
            anchors += ext
            realized.append(h.add_edge((*attach, *shared, *ext)))
        port_edges[port.name] = tuple(realized)
    if anchors:
        pumps = h.add_vertices(d - 1)
        for a in anchors:
            for _ in range(k):
                h.add_edge((a, *pumps))
    return h, port_edges, port_anchor


def anchored_survivors(gadget: Gadget, reference, removed: tuple[str, ...], stash: tuple[int, ...] = ()):
    """Block survivors in the reference harness: a shared port is removed
    by removing its anchor vertex, any other port by removing its edges."""
    h, port_edges, port_anchor = reference
    vertices = [port_anchor[name] for name in removed if name in port_anchor]
    edges = [e for name in removed if name not in port_anchor for e in port_edges[name]]
    core = k_core_after(h, gadget.params["k"], stash_vertices=vertices, stash_edges=[*edges, *stash])
    return sorted(v for v in core.core_vertices if v < gadget.graph.num_vertices)


def assert_pool_matches_anchors(gadget: Gadget) -> None:
    harness, reference = build_harness(gadget), anchored_harness(gadget)
    names = [p.name for p in gadget.ports]
    assert len(names) <= 8
    for r in range(len(names) + 1):
        for removed in itertools.combinations(names, r):
            ours = fresh_survivors(harness, removal_edges(harness, removed))
            assert ours == anchored_survivors(gadget, reference, removed), (gadget.params, removed)
    for e in sorted(gadget.estar):
        assert fresh_survivors(harness, (e,)) == anchored_survivors(gadget, reference, (), (e,)), (gadget.params, e)


def test_pool_harness_matches_per_slot_anchors_on_the_grid(monkeypatch):
    seen = []
    real = gadgets.build_harness
    monkeypatch.setattr(gadgets, "build_harness", lambda g: seen.append(g) or real(g))
    run_gadget_grid()
    assert {g.kind for g in seen} == {"ck", "b2", "b3", "simple-stable", "stable", "tree-stable"}
    for g in seen:
        assert_pool_matches_anchors(g)


@ONE_PER_FAMILY
def test_pool_harness_matches_per_slot_anchors_on_broken_gadgets(build):
    for g in broken_variants(build()):
        assert_pool_matches_anchors(g)

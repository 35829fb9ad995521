import textwrap

import pytest

from stashpeel import (
    Gadget,
    ParameterError,
    build_b_block,
    build_ck_gadget,
    build_pk_gadget,
    build_simple_stable_block,
    build_stable_block,
    build_tree_stable_block,
    check_b_block,
    check_ck_properties,
    check_pk_gadget,
    check_stable_block,
    k_core,
    run_gadget_grid,
)
from stashpeel.gadgets import build_harness

from helpers import run_python


def drop_edge(gadget: Gadget, eid: int) -> Gadget:
    """Negative-control mutation: delete one internal edge."""
    g = gadget.graph.copy()
    g.remove_edge(eid)
    return Gadget(g, gadget.ports, gadget.estar - {eid}, dict(gadget.params), dict(gadget.meta))


def drop_vertex(gadget: Gadget, v: int) -> Gadget:
    """Negative-control mutation: delete one non-port vertex and its edges."""
    g = gadget.graph.copy()
    gone = g.incident_edges(v)
    g.remove_vertex(v)
    return Gadget(g, gadget.ports, gadget.estar - gone, dict(gadget.params), dict(gadget.meta))


def double_edges(gadget: Gadget) -> Gadget:
    """Negative-control mutation: a parallel copy of every internal edge, so
    nothing peels that the contracts expect to (removal only peels more)."""
    g = gadget.graph.copy()
    for e in sorted(g.edges):
        g.add_edge(g.edge_vertices(e))
    return Gadget(g, gadget.ports, gadget.estar, dict(gadget.params), dict(gadget.meta))


# -- ck gadget ----------------------------------------------------------------


def test_ck_k2_d2_shape():
    g = build_ck_gadget(2, 2)
    assert g.graph.num_vertices == 2
    assert g.graph.num_edges == 0  # both internal vertices touch only u and v
    assert [p.name for p in g.ports] == ["u", "v"]
    assert all(len(p.edges) == 2 for p in g.ports)  # two edges per side
    assert check_ck_properties(g).all_passed


def test_ck_k3_d2_degrees_and_peel():
    g = build_ck_gadget(3, 2)
    harness = build_harness(g)
    first, middle, last = (harness.vmap[v] for v in g.meta["internals"])
    u = harness.port_anchor["u"]
    v = harness.port_anchor["v"]
    neighbors = lambda x: {
        w for e in harness.graph.incident_edges(x) for w in harness.graph.edge_vertices(e)
    } - {x}
    assert neighbors(first) == {u, v, middle}
    assert neighbors(last) == {u, v, middle}
    assert neighbors(middle) == {u, v, first, last}
    report = check_ck_properties(g)
    assert report.all_passed  # includes: removing u empties the 3-core


def test_ck_k2_d3_has_one_dummy_on_every_edge():
    g = build_ck_gadget(2, 3)
    (dummy,) = g.meta["dummies"]
    for port in g.ports:
        assert all(dummy in attach for attach in port.edges)
    assert check_ck_properties(g).all_passed


def test_ck_k3_d3_dummy_in_all_internal_edges():
    g = build_ck_gadget(3, 3)
    (dummy,) = g.meta["dummies"]
    assert all(dummy in vs for vs in g.graph.edges.values())
    assert check_ck_properties(g).all_passed


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
    mutated = drop_edge(g, sorted(g.graph.edges)[0])
    report = check_ck_properties(mutated)
    assert not report.all_passed
    assert all(c.witness for c in report.failures())


# -- b-blocks -----------------------------------------------------------------


def test_2block_k3_shape():
    g = build_b_block(2, 3, 2)
    assert g.graph.num_vertices == 4  # two hubs over a 2-clique
    harness = build_harness(g)
    assert all(harness.graph.degree(v) >= 3 for v in harness.block_vertices)
    assert check_b_block(g).all_passed


def test_3block_k3_is_single_vertex():
    g = build_b_block(3, 3, 2)
    assert g.graph.num_vertices == 1 and g.graph.num_edges == 0
    assert len(g.ports) == 3
    assert check_b_block(g).all_passed


def test_3block_k5_layer2_degree():
    g = build_b_block(3, 5, 2)
    harness = build_harness(g)
    degrees = sorted(harness.graph.degree(v) for v in harness.block_vertices)
    assert max(degrees) == 2 * 5 - 5  # deepest layer sits at degree 5
    assert check_b_block(g).all_passed


def test_b_block_parameter_errors():
    with pytest.raises(ParameterError):
        build_b_block(4, 5, 2)
    with pytest.raises(ParameterError):
        build_b_block(2, 2, 2)


def test_2block_negative_control():
    g = build_b_block(2, 4, 2)
    report = check_b_block(drop_edge(g, sorted(g.graph.edges)[0]))
    bad = {c.name for c in report.failures()}
    assert "unpeelable_with_all_ports" in bad


# -- stable blocks ------------------------------------------------------------


def test_simple_stable_k3_m2_shape():
    g = build_simple_stable_block(2, 3, 2)
    assert g.graph.num_vertices == 9  # central + two 2-blocks of 4
    harness = build_harness(g)
    central = harness.vmap[g.meta["central"]]
    assert harness.graph.degree(central) == 3 - 1 + 2
    assert check_stable_block(g).all_passed


def test_simple_stable_k4_m3_block_pattern():
    # ends are 2-blocks (5 vertices each), the middle a 3-block (6): 17 total
    g = build_simple_stable_block(3, 4, 2)
    assert g.graph.num_vertices == 17
    assert check_stable_block(g).all_passed


def test_simple_stable_estar_edges_all_peel():
    g = build_simple_stable_block(2, 4, 2)
    assert g.estar  # every central-to-block and chain edge
    report = check_stable_block(g)
    assert report.all_passed
    estar_checks = [c for c in report.checks if c.name.startswith("estar_")]
    assert len(estar_checks) == len(g.estar)


def test_simple_stable_parameter_errors():
    with pytest.raises(ParameterError):
        build_simple_stable_block(0, 3, 2)
    with pytest.raises(ParameterError):
        build_simple_stable_block(3, 3, 2)  # m must stay below k


def test_stable_delegates_to_simple_when_small():
    g = build_stable_block(3, 4, 2)
    assert g.params["depth"] == 0 and g.params["nodes"] == 1


def test_stable_k4_m11_is_depth_two():
    g = build_stable_block(11, 4, 2)
    assert g.params["depth"] == 2
    assert len(g.ports) == 11
    assert check_stable_block(g).all_passed


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
    h = harness.graph.copy()
    h.remove_edge(harness.emap[min(g.estar)])
    assert not (k_core(h, 3).core_vertices & harness.block_vertices)


def test_stable_negative_control():
    g = build_stable_block(5, 4, 2)
    report = check_stable_block(drop_edge(g, sorted(g.estar)[0]))
    assert not report.all_passed
    assert all(c.witness for c in report.failures())


def test_tree_stable_root_degree_is_ports_plus_one():
    g = build_tree_stable_block(2, 3)
    harness = build_harness(g)
    root = harness.vmap[g.meta["root"]]
    assert harness.graph.degree(root) == 2 + 1
    assert len(g.meta["ws"]) >= 2
    assert check_stable_block(g).all_passed


def test_tree_stable_root_edge_is_estar():
    g = build_tree_stable_block(3, 3)
    assert g.estar == {g.meta["root_edge"]}
    report = check_stable_block(g)
    assert report.all_passed  # includes stash-root-edge and all-ports-removed peels


def test_tree_stable_rejects_standard_graphs():
    with pytest.raises(ParameterError):
        build_tree_stable_block(2, 2)  # the k=d=2 case has a polynomial solver instead
    with pytest.raises(ParameterError):
        build_tree_stable_block(0, 3)


def test_tree_stable_negative_control():
    g = build_tree_stable_block(2, 3)
    non_root = [e for e in sorted(g.graph.edges) if e != g.meta["root_edge"]]
    report = check_stable_block(drop_edge(g, non_root[-1]))
    assert not report.all_passed


# -- per-vertex wrapper gadgets -------------------------------------------------


def test_pk_gadget_families_pass_checks():
    for k, d in ((3, 2), (4, 2), (3, 3), (2, 3), (2, 4)):
        for delta in (0, 1, 3, 5):
            report = check_pk_gadget(build_pk_gadget(delta, k, d))
            assert report.all_passed, (k, d, delta, report.failures())


def test_pk_gadget_rejects_polynomial_case():
    with pytest.raises(ParameterError):
        build_pk_gadget(3, 2, 2)


def test_pk_gadget_negative_control():
    g = build_pk_gadget(3, 3, 2)
    report = check_pk_gadget(drop_edge(g, sorted(g.graph.edges)[0]))
    assert not report.all_passed


# -- grid and dummy lifting -----------------------------------------------------


def test_dummy_lifting_preserves_checker_outcomes():
    cases = [
        (build_ck_gadget, check_ck_properties, [(3,), (4,)]),
        (lambda k, d=2: build_b_block(2, k, d), check_b_block, [(3,), (5,)]),
        (lambda m, d=2: build_stable_block(m, 4, d), check_stable_block, [(2,), (5,)]),
    ]
    for build, check, arg_sets in cases:
        for args in arg_sets:
            for d in (2, 3):
                low = check(build(*args, d))
                high = check(build(*args, d + 1))
                assert [c.name for c in low.checks] == [c.name for c in high.checks]
                assert [c.passed for c in low.checks] == [c.passed for c in high.checks]
                assert low.all_passed


def test_full_grid_passes():
    reports = run_gadget_grid()
    failed = [r for r in reports if not r.all_passed]
    assert not failed, failed
    assert len(reports) > 100


# -- pinned witness text ------------------------------------------------------


def survivors(n: int) -> str:
    return f"survivors={list(range(n))}"


PINNED_REPORTS = [
    pytest.param(
        check_ck_properties,
        lambda: drop_edge(build_ck_gadget(3, 2), 0),
        [
            ("min_internal_degree", False, "low_degree=[(0, 2)]"),
            ("unpeelable_with_both_ports", False, "peeled=[0]"),
            ("peels_when_u_removed", True, ""),
            ("peels_when_v_removed", True, ""),
        ],
        id="ck-drop-edge",
    ),
    pytest.param(
        check_ck_properties,
        lambda: double_edges(build_ck_gadget(3, 2)),
        [
            ("min_internal_degree", True, ""),
            ("unpeelable_with_both_ports", True, ""),
            ("peels_when_u_removed", False, "survivors=[0, 1, 2]"),
            ("peels_when_v_removed", False, "survivors=[0, 1, 2]"),
        ],
        id="ck-double",
    ),
    pytest.param(
        check_b_block,
        lambda: drop_edge(build_b_block(2, 3, 2), 0),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3]"),
            ("peels_without_p0", True, ""),
            ("peels_without_p1", True, ""),
        ],
        id="b2-drop-edge",
    ),
    pytest.param(
        check_b_block,
        lambda: double_edges(build_b_block(2, 3, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_without_p0", False, "removed=p0 survivors=[0, 1, 2, 3]"),
            ("peels_without_p1", False, "removed=p1 survivors=[0, 1, 2, 3]"),
        ],
        id="b2-double",
    ),
    pytest.param(
        check_b_block,
        lambda: drop_vertex(build_b_block(3, 4, 2), 5),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3, 4]"),
            ("peels_without_p0", True, ""),
            ("peels_without_p1", True, ""),
            ("peels_without_p2", True, ""),
        ],
        id="b3-drop-vertex",
    ),
    pytest.param(
        check_b_block,
        lambda: double_edges(build_b_block(3, 4, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("peels_without_p0", False, "removed=p0 " + survivors(6)),
            ("peels_without_p1", False, "removed=p1 " + survivors(6)),
            ("peels_without_p2", False, "removed=p2 " + survivors(6)),
        ],
        id="b3-double",
    ),
    pytest.param(
        check_stable_block,
        lambda: drop_edge(build_simple_stable_block(2, 3, 2), 0),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3, 4, 5, 6, 7, 8]"),
            ("survives_partial_port_removal", False, "fully_peeled_with_ports_removed=[]"),
            ("peels_with_all_ports_removed", True, ""),
            ("estar_10_peels", True, ""),
            ("estar_11_peels", True, ""),
            ("estar_12_peels", True, ""),
        ],
        id="stable-drop-edge",
    ),
    pytest.param(
        check_stable_block,
        lambda: double_edges(build_simple_stable_block(2, 3, 2)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("survives_partial_port_removal", True, ""),
            ("peels_with_all_ports_removed", False, survivors(9)),
            ("estar_10_peels", False, "stash_edge=10 " + survivors(9)),
            ("estar_11_peels", False, "stash_edge=11 " + survivors(9)),
            ("estar_12_peels", False, "stash_edge=12 " + survivors(9)),
        ],
        id="stable-double",
    ),
    pytest.param(
        check_stable_block,
        lambda: drop_vertex(build_tree_stable_block(2, 3), 2),
        [
            ("unpeelable_with_all_ports", False, "peeled=[0, 1, 2, 3]"),
            ("survives_partial_port_removal", False, "fully_peeled_with_ports_removed=[]"),
            ("peels_with_all_ports_removed", True, ""),
        ],
        id="tree-stable-drop-vertex",
    ),
    pytest.param(
        check_stable_block,
        lambda: double_edges(build_tree_stable_block(2, 3)),
        [
            ("unpeelable_with_all_ports", True, ""),
            ("survives_partial_port_removal", True, ""),
            ("peels_with_all_ports_removed", False, "survivors=[0, 1, 2, 3, 4]"),
            ("estar_0_peels", False, "stash_edge=0 survivors=[0, 1, 2, 3, 4]"),
        ],
        id="tree-stable-double",
    ),
    pytest.param(
        check_pk_gadget,
        lambda: drop_edge(build_pk_gadget(3, 3, 2), 0),
        [
            ("peels_iff_under_k_ports", False, "removed=[] expected_peel=False survivors=[]"),
            ("estar_10_peels", True, ""),
            ("estar_11_peels", True, ""),
            ("estar_12_peels", True, ""),
        ],
        id="pk-drop-edge",
    ),
    pytest.param(
        check_pk_gadget,
        lambda: double_edges(build_pk_gadget(3, 3, 2)),
        [
            ("peels_iff_under_k_ports", False, "removed=['e0'] expected_peel=True " + survivors(19)),
            ("estar_10_peels", False, "stash_edge=10 " + survivors(19)),
            ("estar_11_peels", False, "stash_edge=11 " + survivors(19)),
            ("estar_12_peels", False, "stash_edge=12 " + survivors(19)),
        ],
        id="pk-double",
    ),
]


@pytest.mark.parametrize("check, broken, expected", PINNED_REPORTS)
def test_broken_gadget_reports_are_pinned(check, broken, expected):
    """Every check's name, verdict and witness text, in order, on gadgets
    broken one way (an edge or vertex gone: too much peels) or the other
    (every edge doubled: too little peels)."""
    report = check(broken())
    assert [(c.name, c.passed, c.witness) for c in report.checks] == expected

import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stashpeel import (
    CapExceededError,
    InvalidArityError,
    ParameterError,
    gen_random,
    greedy_stash,
    k_core_after,
    min_edge_stash_exact,
    min_vertex_cover_exact,
    min_vertex_stash_exact,
    reduce_vc_to_vertex_stash,
    reduce_vertex_to_edge_stash,
    stash_solvers,
    two_edge_stash_standard,
)
from stashpeel.stash_solvers import TIE_BREAKS

from helpers import complete_graph, hypergraphs, mkgraph, path, run_python, triangle, two_triangles, without
from oracles import (
    connected_components,
    greedy_stash_by_repeeling,
    min_cover_size_by_enumeration,
    min_stash_by_enumeration,
    min_stash_size_by_enumeration,
)


def assert_valid(g, k, result):
    if result.kind == "vertex":
        assert k_core_after(g, k, stash_vertices=result.stash).core_empty
    else:
        assert k_core_after(g, k, stash_edges=result.stash).core_empty


def test_forest_needs_no_stash():
    for k in (2, 3):
        assert min_vertex_stash_exact(path(5), k).size == 0
        assert min_edge_stash_exact(path(5), k).size == 0


def test_triangle_vertex_stash():
    g = triangle()
    result = min_vertex_stash_exact(g, 2)
    assert result.size == min_stash_size_by_enumeration(g, 2, "vertex") == 1
    assert result.optimal
    assert result.stash == {0}  # lexicographically first minimum stash
    assert_valid(g, 2, result)


def test_two_disjoint_triangles_vertex_stash():
    g = two_triangles()
    result = min_vertex_stash_exact(g, 2)
    assert result.size == min_stash_size_by_enumeration(g, 2, "vertex") == 2
    assert_valid(g, 2, result)


def test_triangle_edge_stash():
    g = triangle()
    result = min_edge_stash_exact(g, 2)
    assert result.size == min_stash_size_by_enumeration(g, 2, "edge") == 1
    assert_valid(g, 2, result)


def test_k4_edge_stash_equals_cyclomatic_number():
    g = complete_graph(4)
    result = min_edge_stash_exact(g, 2)
    assert result.size == min_stash_size_by_enumeration(g, 2, "edge") == 3
    assert result.size == 6 - 4 + 1 == two_edge_stash_standard(g).h


def test_cap_exceeded_is_a_budget_signal():
    with pytest.raises(CapExceededError):
        min_edge_stash_exact(triangle(), 2, size_cap=0)
    with pytest.raises(CapExceededError):
        min_vertex_stash_exact(two_triangles(), 2, size_cap=1)


def test_exact_solvers_are_deterministic():
    g = gen_random(7, 11, 2, 3)
    a = min_vertex_stash_exact(g, 2)
    b = min_vertex_stash_exact(g, 2)
    assert a.stash == b.stash
    c = min_edge_stash_exact(g, 2)
    d = min_edge_stash_exact(g, 2)
    assert c.stash == d.stash


def test_cyclomatic_triangle():
    cert = two_edge_stash_standard(triangle())
    # h(G) = |E| - |V| + components instantiated on the 3-cycle
    assert cert.h == 3 - 3 + 1 == 1
    assert cert.components == 1
    assert len(cert.removed_edges) == 1


def test_cyclomatic_tree_is_zero():
    cert = two_edge_stash_standard(path(6))
    assert cert.h == 0 and cert.removed_edges == frozenset()


def test_cyclomatic_degenerate_inputs():
    from stashpeel import Hypergraph

    empty = two_edge_stash_standard(Hypergraph(2))
    assert empty.h == 0 and empty.components == 0
    edgeless = two_edge_stash_standard(mkgraph(4, []))
    assert edgeless.h == 0 and edgeless.components == 4


def test_cyclomatic_two_triangles():
    g = two_triangles()
    cert = two_edge_stash_standard(g)
    assert cert.h == 6 - 6 + 2 == 2
    assert cert.h == min_edge_stash_exact(g, 2).size


def test_cyclomatic_certificate_leaves_acyclic_remainder():
    g = gen_random(8, 13, 2, 5)
    cert = two_edge_stash_standard(g)
    assert cert.components == connected_components(g)
    pruned = without(g, edges=cert.removed_edges)[0]
    # acyclic iff every component is a tree
    assert pruned.num_edges == pruned.num_vertices - connected_components(pruned)
    assert k_core_after(g, 2, stash_edges=cert.removed_edges).core_empty


def test_cyclomatic_invariant_under_insertion_order():
    base = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 4)]
    h_values = set()
    for rot in range(len(base)):
        rotated = base[rot:] + base[:rot]
        h_values.add(two_edge_stash_standard(mkgraph(5, rotated)).h)
    assert h_values == {7 - 5 + 1}


def test_cyclomatic_rejects_non_standard_graphs():
    with pytest.raises(InvalidArityError):
        two_edge_stash_standard(mkgraph(3, [(0, 1, 2)], d=3))


def test_cover_examples():
    assert len(min_vertex_cover_exact(mkgraph(2, [(0, 1)]))) == 1
    star = mkgraph(4, [(0, 1), (0, 2), (0, 3)])
    assert min_vertex_cover_exact(star) == {0}
    g = triangle()
    assert len(min_vertex_cover_exact(g)) == min_cover_size_by_enumeration(g) == 2


def test_cover_cap_and_arity_errors():
    with pytest.raises(CapExceededError):
        min_vertex_cover_exact(triangle(), size_cap=1)
    with pytest.raises(InvalidArityError):
        min_vertex_cover_exact(mkgraph(3, [(0, 1, 2)], d=3))


@settings(max_examples=40, deadline=None)
@given(hypergraphs(d=2, max_vertices=6, max_edges=8))
def test_cover_equals_one_stash(g):
    cover = min_vertex_cover_exact(g, size_cap=6)
    assert len(cover) == min_stash_size_by_enumeration(g, 1, "vertex")


def test_greedy_on_forest_is_empty():
    for mode in ("vertex", "edge"):
        result = greedy_stash(path(4), 2, mode)
        assert result.size == 0 and not result.optimal


def test_greedy_triangle_vertex_takes_one():
    result = greedy_stash(triangle(), 2, "vertex")
    assert result.size == 1
    assert_valid(triangle(), 2, result)


def test_greedy_dominates_exact_on_seeded_instance():
    g = gen_random(10, 15, 2, 7)
    for mode, exact in (("vertex", min_vertex_stash_exact), ("edge", min_edge_stash_exact)):
        best = exact(g, 2, size_cap=8)
        for tie_break in ("max_degree", "min_id", "seeded_random"):
            greedy = greedy_stash(g, 2, mode, tie_break=tie_break, seed=7)
            assert_valid(g, 2, greedy)
            assert greedy.size >= best.size


def test_greedy_is_deterministic_per_seed():
    g = gen_random(9, 14, 2, 2)
    a = greedy_stash(g, 2, "edge", tie_break="seeded_random", seed=5)
    b = greedy_stash(g, 2, "edge", tie_break="seeded_random", seed=5)
    assert a.stash == b.stash


def test_greedy_parameter_validation():
    with pytest.raises(ParameterError):
        greedy_stash(triangle(), 2, "both")
    with pytest.raises(ParameterError):
        greedy_stash(triangle(), 2, "vertex", tie_break="widest")
    for mode in ("vertex", "edge"):
        with pytest.raises(ParameterError):
            greedy_stash(gen_random(6, 9, 2, 1), 0, mode)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("k", (2, 3))
def test_greedy_matches_repeeling_reference(k, d):
    stashed = 0
    for seed in range(5):
        n = 8 + seed
        g = gen_random(n, (3 if d == 2 else 2) * n, d, seed)
        for mode in ("vertex", "edge"):
            for tie_break in TIE_BREAKS:
                got = greedy_stash(g, k, mode, tie_break, seed).stash
                assert got == greedy_stash_by_repeeling(g, k, mode, tie_break, seed)
                stashed += len(got)
    assert stashed  # the instances have cores to break


def test_certificate_checks_survive_python_optimize():
    script = textwrap.dedent("""
        import sys
        from stashpeel import stash_solvers
        from stashpeel import gen_random

        def nonempty_core(*args, **kwargs):
            return False

        stash_solvers.is_k_peelable = nonempty_core
        g = gen_random(6, 9, 2, 1)
        calls = (
            lambda: stash_solvers.min_vertex_stash_exact(g, 2),
            lambda: stash_solvers.min_edge_stash_exact(g, 2),
            lambda: stash_solvers.greedy_stash(g, 2, "vertex"),
            lambda: stash_solvers.greedy_stash(g, 2, "edge", "seeded_random", 3),
            lambda: stash_solvers.StashResult("both", frozenset({1}), True),
        )
        print(sys.flags.optimize)
        for call in calls:
            try:
                call()
                print("returned")
            except AssertionError:
                print("raised")
    """)
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["raised"] * 5


def test_exact_search_prunes_to_prefix_witnesses(monkeypatch):
    # Each search node scans only up to its prefix witness, and a budget-1
    # node only the elements every failed candidate left in the core.  A
    # child whose stashed element lies outside the witness inherits it, and
    # a node with budget >= 2 is cut when it packs more disjoint witnesses
    # than its budget.  Witnesses are found and packed on copies of the
    # core, whose stash calls are counted too: 97 on the edge instance and
    # 857 on the vertex one.  Without the packing bound the counts are 99
    # and 3,380; recomputing the witness at every node as well makes 183
    # and 5,147; scanning every live element makes about 10,000 and 53,000;
    # the cap without the budget-1 refinement makes about 7,500 on the edge
    # instance.
    calls = Counter()

    class CountingCore(stash_solvers.PeelCore):
        __slots__ = ()

        def stash_vertex(self, v):
            calls["vertex"] += 1
            super().stash_vertex(v)

        def stash_edge(self, e):
            calls["edge"] += 1
            super().stash_edge(e)

    monkeypatch.setattr(stash_solvers, "PeelCore", CountingCore)
    edge_case, _ = reduce_vertex_to_edge_stash(gen_random(10, 20, 2, 349375932), 3, 2)
    assert edge_case.num_edges == 428
    assert min_edge_stash_exact(edge_case, 3).stash == {28, 89}
    vertex_case, _ = reduce_vc_to_vertex_stash(gen_random(9, 14, 2, 60308648), 2, 2)
    assert min_vertex_stash_exact(vertex_case, 2).stash == {0, 1, 2, 5, 8}
    assert calls["edge"] < 150 and calls["vertex"] < 900


@settings(max_examples=25, deadline=None)
@given(hypergraphs(max_vertices=8, max_edges=12), st.sampled_from((1, 2, 3)))
def test_exact_matches_unpruned_enumeration(g, k):
    for kind, solver in (("vertex", min_vertex_stash_exact), ("edge", min_edge_stash_exact)):
        want = min_stash_size_by_enumeration(g, k, kind)
        result = solver(g, k, size_cap=max(g.num_vertices, g.num_edges))
        assert result.size == want
        assert_valid(g, k, result)


# (kind, n, m, d, k, seeds): random instances whose minimum stashes run to
# 3-7, where the search passes inherited witnesses down long chains; the
# hypothesis tests above rarely go past stash 2
DEEP_STASH_CASES = [
    ("vertex", 9, 16, 2, 2, 40),
    ("vertex", 11, 30, 2, 2, 20),
    ("vertex", 12, 36, 2, 2, 12),
    ("edge", 7, 13, 2, 3, 40),
    ("edge", 7, 15, 2, 3, 30),
    ("edge", 8, 11, 2, 2, 20),
    ("edge", 9, 13, 2, 2, 10),
]


@pytest.mark.parametrize("kind, n, m, d, k, seeds", DEEP_STASH_CASES)
def test_exact_matches_enumeration_on_deep_stashes(kind, n, m, d, k, seeds):
    solver = min_vertex_stash_exact if kind == "vertex" else min_edge_stash_exact
    deep = 0
    for seed in range(seeds):
        g = gen_random(n, m, d, seed)
        want = min_stash_by_enumeration(g, k, kind)
        if len(want) >= 3:
            deep += 1
            assert solver(g, k, size_cap=len(want)).stash == want, seed
            with pytest.raises(CapExceededError):
                solver(g, k, size_cap=len(want) - 1)
    assert deep >= seeds // 5


@settings(max_examples=40, deadline=None)
@given(
    hypergraphs(max_vertices=7, max_edges=9),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
    st.sampled_from((1, 2, 3)),
)
def test_exact_returns_lexicographically_first_minimum(g, repeats, k):
    g = g.copy()
    if g.num_edges:
        edges = sorted(g.edges)
        for i in repeats:  # parallel copies of existing edges
            g.add_edge(g.edge_vertices(edges[i % len(edges)]))
    cap = max(g.num_vertices, g.num_edges)
    assert min_vertex_stash_exact(g, k, size_cap=cap).stash == min_stash_by_enumeration(g, k, "vertex")
    assert min_edge_stash_exact(g, k, size_cap=cap).stash == min_stash_by_enumeration(g, k, "edge")


@settings(max_examples=30, deadline=None)
@given(hypergraphs(max_vertices=7, max_edges=9), st.sampled_from((2, 3)))
def test_greedy_valid_and_dominant(g, k):
    for mode, exact in (("vertex", min_vertex_stash_exact), ("edge", min_edge_stash_exact)):
        greedy = greedy_stash(g, k, mode)
        assert_valid(g, k, greedy)
        best = exact(g, k, size_cap=max(g.num_vertices, g.num_edges))
        assert greedy.size >= best.size
        assert (greedy.size == 0) == (best.size == 0)

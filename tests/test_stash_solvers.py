import hashlib
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
from stashpeel.peeling import PeelCore
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


@pytest.mark.parametrize("solver", (min_vertex_stash_exact, min_edge_stash_exact, min_vertex_cover_exact))
def test_negative_size_cap_is_a_parameter_error(solver):
    args = (triangle(),) if solver is min_vertex_cover_exact else (triangle(), 2)
    with pytest.raises(ParameterError, match="^size cap must be non-negative, got -1$"):
        solver(*args, size_cap=-1)


@pytest.mark.parametrize("solver", (min_vertex_stash_exact, min_edge_stash_exact))
def test_bad_size_cap_is_refused_before_any_peeling(solver, monkeypatch):
    built = []
    monkeypatch.setattr(stash_solvers, "PeelCore", lambda *args: built.append(args))
    for cap in (-1, 2.0):
        with pytest.raises(ParameterError):
            solver(triangle(), 2, size_cap=cap)
    # a bad k is still the error reported when the cap is bad too
    with pytest.raises(ParameterError, match="^k must be at least 1, got 0$"):
        solver(triangle(), 0, size_cap=-1)
    assert built == []


def assert_cover_is_one_stash(g, cap):
    # G - S has an empty 1-core iff S meets every edge, so the first minimum
    # cover is the first minimum 1-vertex-stash, and a cap below its size
    # fails alike in both
    cover = min_vertex_cover_exact(g, size_cap=cap)
    assert cover == min_vertex_stash_exact(g, 1, size_cap=cap).stash
    if cover:
        below = len(cover) - 1
        with pytest.raises(CapExceededError) as ours:
            min_vertex_cover_exact(g, size_cap=below)
        with pytest.raises(CapExceededError) as theirs:
            min_vertex_stash_exact(g, 1, size_cap=below)
        assert ours.value.cap == theirs.value.cap == below
    return cover


@settings(max_examples=40, deadline=None)
@given(hypergraphs(d=2, max_vertices=6, max_edges=8))
def test_cover_equals_one_stash(g):
    cover = assert_cover_is_one_stash(g, 6)
    assert len(cover) == min_stash_size_by_enumeration(g, 1, "vertex")


@pytest.mark.parametrize("n", (12, 14, 16, 18))
def test_cover_equals_one_stash_on_random_graphs(n):
    # covers of 5 to 10
    for seed in (0, 1, 2):
        assert_cover_is_one_stash(gen_random(n, 2 * n - 4, 2, seed), n)


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


# (reduction, k, d, vertices, edges) of the originals: reduced instances
# are built of identical gadgets, so most core degrees tie, and ties keep
# changing as the cascades of the picks reach them.
GREEDY_REDUCTIONS = (
    (reduce_vertex_to_edge_stash, 3, 2, 7, 16),
    (reduce_vertex_to_edge_stash, 2, 3, 6, 8),
    (reduce_vc_to_vertex_stash, 3, 2, 7, 12),
    (reduce_vc_to_vertex_stash, 2, 3, 7, 12),
)


@pytest.mark.parametrize("reduce, k, d, n, m", GREEDY_REDUCTIONS)
def test_greedy_max_degree_matches_repeeling_reference_on_reductions(reduce, k, d, n, m):
    stashed = 0
    for seed in range(3):
        original = gen_random(n, m, d if reduce is reduce_vertex_to_edge_stash else 2, seed)
        g = reduce(original, k, d)[0]
        for mode in ("vertex", "edge"):
            got = greedy_stash(g, k, mode).stash
            assert got == greedy_stash_by_repeeling(g, k, mode, "max_degree", 0)
            stashed += len(got)
    assert stashed


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 4)).flatmap(lambda d: hypergraphs(d=d, max_vertices=9, max_edges=14)),
    st.lists(st.integers(0, 2**16), max_size=6),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_greedy_matches_repeeling_reference_with_parallel_edges(g, repeats, k, seed):
    g = g.copy()
    if g.num_edges:
        for i in repeats:  # parallel copies tie with the edges they copy
            g.add_edge(g.edge_vertices(i % g.num_edges))
    for mode in ("vertex", "edge"):
        for tie_break in TIE_BREAKS:
            got = greedy_stash(g, k, mode, tie_break, seed).stash
            assert got == greedy_stash_by_repeeling(g, k, mode, tie_break, seed)


def test_certificate_checks_survive_python_optimize():
    script = textwrap.dedent("""
        import sys
        from stashpeel import peeling, stash_solvers
        from stashpeel import gen_random

        def nonempty_core(*args, **kwargs):
            return False

        peeling.is_k_peelable = nonempty_core
        g = gen_random(6, 9, 2, 1)
        calls = (
            lambda: stash_solvers.min_vertex_stash_exact(g, 2),
            lambda: stash_solvers.min_edge_stash_exact(g, 2),
            lambda: stash_solvers.greedy_stash(g, 2, "vertex"),
            lambda: stash_solvers.greedy_stash(g, 2, "edge", "seeded_random", 3),
            lambda: stash_solvers.StashResult("both", frozenset({1}), True),
            lambda: stash_solvers.two_edge_stash_standard(g),
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
    assert proc.stdout.split() == ["1"] + ["raised"] * 6


def test_exact_search_prunes_to_prefix_witnesses(monkeypatch):
    # The search branches only on candidates, the live elements no lower
    # one dominates (kills when stashed at the root): 4 of 392 live edges on
    # the edge instance and 9 of 37 live vertices on the vertex one.  The
    # walk that finds them stashes each candidate once, so it is also the
    # budget-1 search at the root.  Each node scans only up to its prefix
    # witness, and a budget-1 node only the elements every failed candidate
    # left in the core.  A child whose stashed element lies outside the
    # witness inherits it, a budget-1 child whose element lies inside scans
    # its whole core, and a node with budget >= 2 is cut when it packs
    # more disjoint witnesses than its budget.  The walk and the witnesses,
    # found and packed on copies of the core, make stash calls that are
    # counted too: 13 on the edge instance and 126 on the vertex one, and
    # 15 and 127 when such a budget-1 child gets a fresh prefix witness.
    # With fresh ones, without the packing bound the counts are 13 and 159;
    # recomputing the witness at every node as well makes 15 and 203;
    # scanning every live candidate makes 15 and 224; the same search over
    # every live element, without the walk, makes 97 and 857.
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
    assert calls["edge"] <= 13 and calls["vertex"] <= 126, calls


@settings(max_examples=40, deadline=None)
@given(
    hypergraphs(max_vertices=7, max_edges=9),
    st.lists(st.integers(0, 2**16), max_size=3),
    st.sampled_from(("vertex", "edge")),
    st.sampled_from((1, 2, 3)),
)
def test_candidates_hold_the_first_minimum_stash(g, repeats, kind, k):
    # Stashing x kills y > x at the root, so swapping y for x in a stash
    # gives one no larger and lexicographically smaller: the first minimum
    # stash holds no dominated element, and when one element alone is a
    # stash, the first is the last candidate.  The walk stashes and undoes
    # on the search's own core, which it must leave as it found it.
    g = g.copy()
    if g.num_edges:
        m = g.num_edges
        for i in repeats:  # parallel copies of existing edges
            g.add_edge(g.edge_vertices(i % m))
    core = PeelCore(g, k)
    before = (core.degree.copy(), core.vertex_alive.copy(), core.edge_alive.copy(),
              core.live_edges, core.trail.copy())
    cands, alone = stash_solvers._candidates(core, kind)
    assert (core.degree, core.vertex_alive, core.edge_alive, core.live_edges, core.trail) == before
    alive = core.vertex_alive if kind == "vertex" else core.edge_alive
    assert cands == sorted(cands) and all(alive[x] for x in cands)
    first = min_stash_by_enumeration(g, k, kind)
    assert first <= set(cands)
    assert alone == (len(first) == 1) and (not alone or first == {cands[-1]})
    if core.live_edges:  # the packing is a lower bound on the stash size
        witness = stash_solvers._prefix_witness(core, kind, cands)
        assert stash_solvers._packing(core, kind, cands, len(cands), 0, *witness) <= len(first)


def test_exact_solves_a_stash_4_edge_reduction():
    # 1,070 edges, 14 of its 1,047 live edges candidates: the search over
    # every live edge took about 12 minutes to find this stash of 4, the
    # search over the candidates takes a fraction of a second
    g = gen_random(16, 50, 2, 3)
    reduced, _ = reduce_vertex_to_edge_stash(g, 3, 2)
    assert reduced.num_edges == 1070
    stash = min_edge_stash_exact(reduced, 3)
    assert stash.size == 4 == min_vertex_stash_exact(g, 3).size
    assert_valid(reduced, 3, stash)
    with pytest.raises(CapExceededError):
        min_edge_stash_exact(reduced, 3, size_cap=3)


def _pinned_corpus_digest():
    """SHA-256 over both exact solvers' answers, and cap errors, at cap 5 on
    1,800 seeded solves, 300 of them cap errors."""
    digest = hashlib.sha256()
    for n, m, d in ((8, 14, 2), (10, 20, 2), (7, 9, 3)):
        for seed in range(150):
            g = gen_random(n, m, d, seed)
            for k in (2, 3):
                for solver in (min_vertex_stash_exact, min_edge_stash_exact):
                    try:
                        line = " ".join(map(str, sorted(solver(g, k, 5).stash)))
                    except CapExceededError as exc:
                        line = f"cap {exc}"
                    digest.update(f"{n} {m} {d} {seed} {k} {solver.__name__}: {line}\n".encode())
    return digest.hexdigest()


def test_exact_answers_match_the_pinned_corpus():
    # pinned from the search over every live element, before the dominance
    # pre-pass: any pruning must leave every answer and cap error as it was
    assert _pinned_corpus_digest() == "de01d9ac28ff9f757c1d1e6d73754ab03520832c1c7c3abd9058e79ff0fad876"


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


def test_search_invariants_hold_at_every_node(monkeypatch):
    # The search tests neither invariant, so they are checked here: every
    # node gets a nonempty core (no stash at budget >= 2 empties one, as
    # every smaller budget already failed), and every witness a node scans
    # or packs reaches the node's `first`.  Untested, a broken second
    # invariant would not raise: the node would scan nothing and the search
    # would miss stashes.  The root skips the packing cut, since its own
    # packing set the first budget; that cut could never fire there.
    firsts = []
    checked = Counter()
    search, pack, prefix_witness = (
        stash_solvers._search, stash_solvers._packing, stash_solvers._prefix_witness
    )

    def checked_search(core, kind, cands, budget, first, y, flags):
        assert core.live_edges, (budget, first)
        assert y >= first, (y, first)
        if first == 0:
            assert pack(core, kind, cands, budget, 0, y, flags) <= budget, budget
            checked["roots"] += 1
        checked["nodes"] += 1
        firsts.append(first)
        try:
            return search(core, kind, cands, budget, first, y, flags)
        finally:
            firsts.pop()

    def checked_packing(core, kind, cands, limit, first, y, flags):
        assert y >= first, (y, first)
        firsts.append(first)
        try:
            return pack(core, kind, cands, limit, first, y, flags)
        finally:
            firsts.pop()

    def checked_prefix_witness(core, kind, cands):
        y, flags = prefix_witness(core, kind, cands)
        if firsts:  # the root's witness is taken before any node, at first = 0
            assert y >= firsts[-1], (y, firsts[-1])
            checked["witnesses"] += 1
        return y, flags

    monkeypatch.setattr(stash_solvers, "_search", checked_search)
    monkeypatch.setattr(stash_solvers, "_packing", checked_packing)
    monkeypatch.setattr(stash_solvers, "_prefix_witness", checked_prefix_witness)
    for kind, n, m, d, k, seeds in DEEP_STASH_CASES:
        solver = min_vertex_stash_exact if kind == "vertex" else min_edge_stash_exact
        for seed in range(seeds):
            solver(gen_random(n, m, d, seed), k, size_cap=m)
    edge_case, _ = reduce_vertex_to_edge_stash(gen_random(10, 20, 2, 349375932), 3, 2)
    assert min_edge_stash_exact(edge_case, 3).stash == {28, 89}
    vertex_case, _ = reduce_vc_to_vertex_stash(gen_random(9, 14, 2, 60308648), 2, 2)
    assert min_vertex_stash_exact(vertex_case, 2).stash == {0, 1, 2, 5, 8}
    assert checked["nodes"] and checked["witnesses"] and checked["roots"], checked


def test_leaves_match_a_fresh_prefix_witness(monkeypatch):
    # A budget-1 child whose stashed element lies in its parent's witness
    # scans its whole core, y = cands[-1] with the core's own alive flags,
    # where it used to get a fresh prefix witness; one whose element lies
    # outside inherits the parent's.  Each leaf must return what it returns
    # when handed a fresh prefix witness, in both modes.
    search, prefix_witness = stash_solvers._search, stash_solvers._prefix_witness
    leaves = Counter()

    def checked_search(core, kind, cands, budget, first, y, flags):
        if budget == 1:
            mark = len(core.trail)
            fresh = search(core, kind, cands, 1, first, *prefix_witness(core, kind, cands))
            core.undo(mark)
            whole = flags is stash_solvers._kind_ops(core, kind)[0]
            leaves[kind, whole] += 1
            assert not whole or y == cands[-1]
            assert search(core, kind, cands, 1, first, y, flags) == fresh
            return fresh
        return search(core, kind, cands, budget, first, y, flags)

    monkeypatch.setattr(stash_solvers, "_search", checked_search)
    for kind, n, m, d, k, seeds in DEEP_STASH_CASES:
        solver = min_vertex_stash_exact if kind == "vertex" else min_edge_stash_exact
        for seed in range(seeds):
            solver(gen_random(n, m, d, seed), k, size_cap=m)
    edge_case, _ = reduce_vertex_to_edge_stash(gen_random(10, 20, 2, 349375932), 3, 2)
    assert min_edge_stash_exact(edge_case, 3).stash == {28, 89}
    # a 3-uniform draw just above the 2-core threshold, the paper's setting
    assert min_edge_stash_exact(gen_random(100, 86, 3, 3), 2).stash == {1, 11, 13, 47}
    assert all(leaves[kind, whole] for kind in ("vertex", "edge") for whole in (True, False)), leaves


@settings(max_examples=40, deadline=None)
@given(
    hypergraphs(max_vertices=7, max_edges=9),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
    st.sampled_from((1, 2, 3)),
)
def test_exact_returns_lexicographically_first_minimum(g, repeats, k):
    g = g.copy()
    if g.num_edges:
        m = g.num_edges
        for i in repeats:  # parallel copies of existing edges
            g.add_edge(g.edge_vertices(i % m))
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

"""Acceptance suite: every release criterion, one test each, oracle-backed.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import time

from stashpeel import (
    CapExceededError,
    PeelTrace,
    audit_p1,
    build_b_block,
    build_ck_gadget,
    build_pk_gadget,
    build_simple_stable_block,
    build_stable_block,
    build_tree_stable_block,
    check_gadget,
    gen_random,
    greedy_stash,
    k_core,
    k_core_after,
    lift_edge_stash,
    min_edge_stash_exact,
    min_vertex_cover_exact,
    min_vertex_stash_exact,
    push_vertex_stash,
    reduce_vc_to_vertex_stash,
    reduce_vertex_to_edge_stash,
    run_gadget_grid,
    two_edge_stash_standard,
    verify_trace,
)
from helpers import gadget_without, mkgraph
from oracles import connected_components, cores_by_enumeration, nonisomorphic_graphs, peel_by_repeated_removal

SIZE_BOUND_C = 6  # pinned constant for criterion 8


def _report(index: int, name: str, violations: list, elapsed: float, budget: float, detail: str):
    ok = not violations and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} ({name}): {status} [{elapsed:.1f}s/{budget:.0f}s] {detail}")
    assert not violations, violations[:5]
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget:.0f}s"


def _random_corpus(count, spec_list):
    """Deterministic instance stream cycling over (n, m, d) shapes."""
    corpus = []
    seed = 0
    while len(corpus) < count:
        n, m, d = spec_list[len(corpus) % len(spec_list)]
        corpus.append(gen_random(n, m, d, seed))
        seed += 1
    return corpus


def test_criterion_1_peeling_matches_subset_enumeration():
    t0 = time.time()
    shapes2 = [(n, m, 2) for n in range(2, 11) for m in (n - 1, n + 2, 2 * n - 2)]
    shapes3 = [(n, m, 3) for n in range(3, 9) for m in (n - 1, n + 1)]
    corpus = _random_corpus(120, shapes2) + _random_corpus(80, shapes3)
    violations = []
    for i, g in enumerate(corpus):
        oracle = cores_by_enumeration(g, (2, 3))
        for k in (2, 3):
            trace = k_core(g, k)
            want_v, want_e = oracle[k]
            if trace.core_vertices != want_v or trace.core_edges != want_e:
                violations.append((i, k, sorted(trace.core_vertices), sorted(want_v)))
    _report(1, "peeling correctness", violations, time.time() - t0, 10.0,
            f"{len(corpus)} instances x k in (2,3)")


def test_criterion_2_order_independence():
    t0 = time.time()
    corpus = _random_corpus(50, [(6, 8, 2), (8, 11, 2), (10, 14, 2), (6, 7, 3), (8, 9, 3)])
    violations = []
    for i, g in enumerate(corpus):
        k = 2 + i % 2
        base = k_core(g, k)
        for seed in range(20):
            order, core_v, core_e = peel_by_repeated_removal(g, k, seed)
            if (core_v, core_e) != (base.core_vertices, base.core_edges):
                violations.append((i, k, seed))
            other = PeelTrace(k, order, frozenset(range(g.num_edges)) - core_e, core_v, core_e)
            if not verify_trace(g, other):
                violations.append((i, k, seed, "replay"))
    _report(2, "order independence", violations, time.time() - t0, 30.0,
            "50 instances x 20 peel orders")


def test_criterion_3_cyclomatic_solver():
    t0 = time.time()
    shapes = [(n, m, 2) for n in range(2, 11) for m in (n, n + 3, min(14, 2 * n))]
    corpus = _random_corpus(200, shapes)
    violations = []
    for i, g in enumerate(corpus):
        cert = two_edge_stash_standard(g)
        formula = g.num_edges - g.num_vertices + connected_components(g)
        exact = min_edge_stash_exact(g, 2, size_cap=g.num_edges)
        if not (cert.h == formula == exact.size):
            violations.append((i, cert.h, formula, exact.size))
        if not k_core_after(g, 2, stash_edges=cert.removed_edges).core_empty:
            violations.append((i, "invalid stash"))
    _report(3, "cyclomatic 2-edge-stash", violations, time.time() - t0, 30.0,
            f"{len(corpus)} instances")


def test_criterion_4_gadget_grid_and_negative_controls():
    t0 = time.time()
    reports = run_gadget_grid()
    violations = [
        (r.gadget, r.params, [c.name for c in r.failures()])
        for r in reports
        if not r.all_passed
    ]
    controls = [
        build_ck_gadget(3, 2),
        build_ck_gadget(4, 3),
        build_b_block(2, 3, 2),
        build_b_block(3, 4, 2),
        build_b_block(3, 5, 3),
        build_simple_stable_block(2, 3, 2),
        build_stable_block(5, 4, 2),
        build_tree_stable_block(2, 3),
    ]
    detected = 0
    for gadget in controls:
        # the first edge, 0, always carries a degree-exactly-k vertex, so
        # its loss is observable (some later edges are harmlessly redundant)
        report = check_gadget(gadget_without(gadget, edges=[0]))
        if not report.all_passed and all(c.witness for c in report.failures()):
            detected += 1
        else:
            violations.append(("undetected mutation", report.gadget, report.params))
    _report(4, "gadget grid", violations, time.time() - t0, 120.0,
            f"{len(reports)} grid checks pass, {detected}/{len(controls)} mutations detected")


def test_criterion_5_vertex_cover_reduction():
    t0 = time.time()
    corpus = [mkgraph(n, edges) for n, edges in nonisomorphic_graphs(5)]
    exhaustive = len(corpus)
    assert exhaustive == 53  # 1+1+2+4+11+34 classes on 0..5 vertices
    for seed in range(100):
        corpus.append(gen_random(6, seed % 13, 2, seed))
    for seed in range(100):
        corpus.append(gen_random(8, 8 + seed % 9, 2, seed))
    violations = []
    for i, g in enumerate(corpus):
        cover = len(min_vertex_cover_exact(g, size_cap=6))
        for k, d in ((2, 2), (3, 2), (2, 3)):
            reduced, _ = reduce_vc_to_vertex_stash(g, k, d)
            stash = min_vertex_stash_exact(reduced, k, size_cap=6)
            if stash.size != cover:
                violations.append((i, k, d, cover, stash.size))
    _report(5, "cover reduction", violations, time.time() - t0, 300.0,
            f"{exhaustive} graphs on <=5 vertices (all iso classes) + 100 random on 6"
            " + 100 random on 8, x3 (k,d)")


def _criterion_6_corpus():
    """50 instances per case with every vertex used; stash sizes stay <= 2
    at these densities by construction of the shapes.  Then pinned draws of
    denser shapes whose minimum stash is 3, each found by scanning seeds."""
    cases = []
    for k, d, shapes in (
        (3, 2, [(3, 4), (4, 5), (5, 6), (4, 7), (5, 8), (5, 9)]),
        (2, 3, [(3, 2), (3, 3), (4, 3), (4, 4), (4, 5), (4, 6)]),
    ):
        picked = []
        seed = 0
        while len(picked) < 50:
            n, m = shapes[len(picked) % len(shapes)]
            g = gen_random(n, m, d, seed)
            seed += 1
            if any(g.degree(v) == 0 for v in range(g.num_vertices)):
                continue
            picked.append(g)
        cases.append((k, d, picked))
    for k, d, draws in (
        (3, 2, [(7, 14, 302), (8, 22, 6), (8, 22, 28)]),
        (2, 3, [(8, 18, 21), (8, 18, 38), (8, 18, 46)]),
    ):
        cases.append((k, d, [gen_random(n, m, d, seed) for n, m, seed in draws]))
    return cases


def test_criterion_6_edge_stash_reduction():
    t0 = time.time()
    violations = []
    nonzero = deep = 0
    maps = []
    for k, d, corpus in _criterion_6_corpus():
        for i, g in enumerate(corpus):
            try:
                vs = min_vertex_stash_exact(g, k, size_cap=4)
            except CapExceededError:
                violations.append((k, d, i, "vertex side exceeded cap 4"))
                continue
            fg, rmap = reduce_vertex_to_edge_stash(g, k, d)
            maps.append((g, fg, rmap))
            es = min_edge_stash_exact(fg, k, size_cap=4)
            if vs.size != es.size:
                violations.append((k, d, i, vs.size, es.size))
            nonzero += vs.size > 0
            deep += vs.size >= 3
            pushed = push_vertex_stash(rmap, vs.stash)
            lifted = lift_edge_stash(rmap, pushed)
            if len(pushed) != vs.size or len(lifted) > len(pushed):
                violations.append((k, d, i, "round trip grew"))
    if nonzero < 20:
        violations.append(("corpus too easy", nonzero))
    if deep < 6:
        violations.append(("too few stash-3 instances", deep))
    test_criterion_6_edge_stash_reduction.maps = maps
    _report(6, "edge-stash reduction", violations, time.time() - t0, 600.0,
            f"106 instances, {nonzero} with nonzero stash, {deep} with stash 3, round trips valid")


def _collected_maps():
    maps = getattr(test_criterion_6_edge_stash_reduction, "maps", None)
    if maps is None:
        test_criterion_6_edge_stash_reduction()
        maps = test_criterion_6_edge_stash_reduction.maps
    return maps


def test_criterion_7_wiring_audits():
    maps = _collected_maps()
    t0 = time.time()
    violations = []
    triples = set()
    for g, fg, rmap in maps:
        problems = audit_p1(rmap)
        if problems:
            violations.append((rmap.k, rmap.d, problems[:2]))
        triples.update((len(ports), rmap.k, rmap.d) for ports in rmap.ports.values())
    # each (delta, k, d) builds one deterministic gadget, so auditing the
    # distinct triples covers every gadget the corpus instantiated
    for delta, k, d in sorted(triples):
        report = check_gadget(build_pk_gadget(delta, k, d))
        if not report.all_passed:
            violations.append((delta, k, d, report.failures()))
    _report(7, "P1-P3 audits", violations, time.time() - t0, 300.0,
            f"{len(maps)} reductions audited, pk sweeps exhaustive on the removal frontier")


def test_criterion_8_size_bound():
    maps = _collected_maps()
    t0 = time.time()
    violations = []
    worst = 0.0
    for g, fg, rmap in maps:
        total_degree = sum(g.degree(v) for v in range(g.num_vertices))
        ratio = fg.num_vertices / (rmap.k * total_degree)
        worst = max(worst, ratio)
        if fg.num_vertices > SIZE_BOUND_C * rmap.k * total_degree:
            violations.append((rmap.k, rmap.d, fg.num_vertices, total_degree))
    _report(8, "reduction size bound", violations, time.time() - t0, 60.0,
            f"|f(G)| <= {SIZE_BOUND_C}*k*total_degree, worst ratio {worst:.2f}")


def test_criterion_9_greedy_validity_and_dominance():
    t0 = time.time()
    shapes = [(6, 9, 2), (8, 12, 2), (10, 14, 2), (5, 6, 3), (7, 9, 3)]
    corpus = _random_corpus(500, shapes)
    violations = []
    compared = 0
    for i, g in enumerate(corpus):
        k = 2 + i % 2
        mode = "vertex" if i % 4 < 2 else "edge"
        tie = ("max_degree", "min_id", "seeded_random")[i % 3]
        greedy = greedy_stash(g, k, mode, tie_break=tie, seed=i)
        check = (
            k_core_after(g, k, stash_vertices=greedy.stash)
            if mode == "vertex"
            else k_core_after(g, k, stash_edges=greedy.stash)
        )
        if not check.core_empty:
            violations.append((i, "invalid greedy stash"))
        solver = min_vertex_stash_exact if mode == "vertex" else min_edge_stash_exact
        try:
            exact = solver(g, k, size_cap=6)
        except CapExceededError:
            continue
        compared += 1
        if greedy.size < exact.size:
            violations.append((i, greedy.size, exact.size))
    _report(9, "greedy validity and dominance", violations, time.time() - t0, 120.0,
            f"500 instances, {compared} compared against exact under cap")

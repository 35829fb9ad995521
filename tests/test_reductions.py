import textwrap

import pytest

from stashpeel import (
    ContractViolationError,
    ParameterError,
    ParseError,
    UnsupportedCaseError,
    audit_p1,
    audit_pk_properties,
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
        for v in g.vertices:
            assert reduced.degree(rmap.vertex_map[v]) == k * g.degree(v)


def test_vc_reduction_parameter_errors():
    with pytest.raises(ParameterError):
        reduce_vc_to_vertex_stash(mkgraph(3, [(0, 1, 2)], d=3), 2, 3)
    with pytest.raises(ParameterError):
        reduce_vc_to_vertex_stash(triangle(), 1, 2)


def test_normalize_replaces_gadget_vertex_with_endpoint():
    g = mkgraph(2, [(0, 1)])
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    internal = sorted(rmap.ck[0].internal_vertices)[0]
    normalized = normalize_stash(reduced, rmap, {internal})
    assert normalized == {rmap.gadget_of[internal][0]}
    assert k_core_after(reduced, 2, stash_vertices=normalized).core_empty


def test_normalize_keeps_original_only_stashes():
    g = triangle()
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    originals = {rmap.vertex_map[0], rmap.vertex_map[1]}
    assert normalize_stash(reduced, rmap, originals) == originals
    everyone = frozenset(rmap.vertex_map.values())
    assert normalize_stash(reduced, rmap, everyone) == everyone


def test_normalize_never_grows_mixed_stashes():
    g = triangle()
    reduced, rmap = reduce_vc_to_vertex_stash(g, 3, 2)
    mixed = {rmap.vertex_map[0]} | {sorted(rmap.ck[1].internal_vertices)[0]}
    normalized = normalize_stash(reduced, rmap, mixed)
    assert len(normalized) <= len(mixed)
    assert normalized <= set(rmap.vertex_map.values())


def test_normalize_rejects_invalid_stash():
    g = triangle()
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    with pytest.raises(ContractViolationError):
        normalize_stash(reduced, rmap, {rmap.vertex_map[0]})  # one vertex is not enough
    with pytest.raises(ContractViolationError):
        normalize_stash(reduced, rmap, {10**6})


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
        lifted = lift_edge_stash(fg, rmap, push_vertex_stash(g, rmap, vs.stash))
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
    with pytest.raises(ParameterError):
        reduce_vertex_to_edge_stash(triangle(), 3, 3)  # instance is 2-uniform


def test_push_single_vertex_stash():
    g = complete_graph(4)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    stash = min_vertex_stash_exact(g, 3).stash
    pushed = push_vertex_stash(g, rmap, stash)
    assert pushed == {rmap.estar_pick[v] for v in stash}
    assert len(pushed) == len(stash)


def test_push_empty_and_full_stashes():
    g = triangle()
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert push_vertex_stash(g, rmap, frozenset()) == frozenset()
    full = push_vertex_stash(g, rmap, g.vertices)
    assert len(full) == 3
    assert k_core_after(fg, 3, stash_edges=full).core_empty


def test_lift_direct_estar_stash():
    g = complete_graph(4)
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert lift_edge_stash(fg, rmap, {rmap.estar_pick[2]}) == {2}


def test_lift_empty_stash_on_peelable_instance():
    g = triangle()  # 3-peelable, so its reduction is too
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert lift_edge_stash(fg, rmap, frozenset()) == frozenset()


def test_lift_greedy_stash_of_reduced_k4():
    g = complete_graph(4)
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    greedy = greedy_stash(fg, 3, "edge")
    lifted = lift_edge_stash(fg, rmap, greedy.stash)
    assert len(lifted) <= greedy.size
    assert k_core_after(g, 3, stash_vertices=lifted).core_empty


def test_push_lift_roundtrip_never_grows():
    for seed in range(6):
        g = gen_random(5, 8, 2, seed)
        try:
            stash = min_vertex_stash_exact(g, 3, 3).stash
        except Exception:
            continue
        fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
        back = lift_edge_stash(fg, rmap, push_vertex_stash(g, rmap, stash))
        assert len(back) <= len(stash)
        assert k_core_after(g, 3, stash_vertices=back).core_empty


def test_lift_and_push_reject_invalid_certificates():
    g = complete_graph(4)
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    with pytest.raises(ContractViolationError):
        push_vertex_stash(g, rmap, frozenset())  # K4 itself is not 3-peelable... needs a stash
    with pytest.raises(ContractViolationError):
        lift_edge_stash(fg, rmap, {10**6})


def test_peelability_equivalence_random():
    for seed in range(10):
        g = gen_random(5, 6, 2, seed)
        fg, _ = reduce_vertex_to_edge_stash(g, 3, 2)
        assert is_k_peelable(g, 3) == is_k_peelable(fg, 3)
    for seed in range(10):
        g = gen_random(4, 4, 3, seed)
        fg, _ = reduce_vertex_to_edge_stash(g, 2, 3)
        assert is_k_peelable(g, 2) == is_k_peelable(fg, 2)


def test_estar_pick_is_lowest_estar_edge():
    g = triangle()
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    for v, inst in rmap.pk.items():
        assert rmap.estar_pick[v] == min(inst.estar)
        assert rmap.estar_pick[v] in inst.estar


def test_neighboring_edge_ownership_is_lowest_endpoint():
    g = triangle()
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    for e, (shared,) in rmap.edge_map.items():
        assert rmap.owner[shared] == min(g.edge_vertices(e))


def test_audits_pass_for_both_cases():
    g = gen_random(5, 7, 2, 1)
    _, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert audit_p1(rmap) == []
    assert all(r.all_passed for r in audit_pk_properties(rmap))
    g = gen_random(4, 5, 3, 1)
    _, rmap = reduce_vertex_to_edge_stash(g, 2, 3)
    assert audit_p1(rmap) == []
    assert all(r.all_passed for r in audit_pk_properties(rmap))


def test_isolated_vertices_get_degenerate_gadgets():
    g = mkgraph(4, [(0, 1)])  # vertices 2 and 3 are isolated
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    assert is_k_peelable(fg, 3)
    for v in (2, 3):
        assert rmap.pk[v].ports == ()
        assert rmap.estar_pick[v] in rmap.pk[v].estar


# -- sidecar round trip -----------------------------------------------------------


def test_map_roundtrip_vstash():
    g = gen_random(4, 5, 2, 9)
    fg, rmap = reduce_vertex_to_edge_stash(g, 3, 2)
    loaded = parse_map(serialize_map(rmap))
    assert loaded == rmap  # every field, the pk audit records included
    assert audit_p1(loaded) == []
    stash = min_vertex_stash_exact(g, 3).stash
    assert push_vertex_stash(g, loaded, stash) == push_vertex_stash(g, rmap, stash)


def test_map_roundtrip_vc():
    g = triangle()
    reduced, rmap = reduce_vc_to_vertex_stash(g, 2, 2)
    loaded = parse_map(serialize_map(rmap))
    assert loaded == rmap  # every field, the ck audit records included
    stash = min_vertex_stash_exact(reduced, 2).stash
    assert normalize_stash(reduced, loaded, stash) == normalize_stash(reduced, rmap, stash)


@pytest.mark.parametrize("text, message", [
    ("M vc 2 2\nG orig\nh 2 3 3\ne 0 1\nG end\nG reduced\n", "declared 3 edges but found 1"),
    ("M vc 2 2\nG orig\nG end\n", "empty 'G orig' section: missing 'h' header"),
])
def test_parse_map_reports_a_bad_original_section_at_its_own_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert str(exc.value) == f"line 3: {message}"


def _edit_lines(text, kind, edit):
    """Apply `edit` to each 'M <kind>' line's ids; None drops the line."""
    out = []
    for line in text.splitlines():
        fields = line.split()
        if fields[:2] == ["M", kind]:
            ids = edit([int(x) for x in fields[2:]])
            if ids is None:
                continue
            line = " ".join(["M", kind, *map(str, ids)])
        out.append(line)
    return "\n".join(out) + "\n"


# each case breaks one map line; `defect` names what the edit breaks
@pytest.mark.parametrize("direction, kind, edit, defect", [
    ("vstash", "v", lambda ids: None if ids[0] == 1 else ids, "original vertex 1 has no 'M v' line"),
    ("vc", "v", lambda ids: [ids[0] + 50, ids[1]], "is not an original vertex"),
    ("vc", "g", lambda ids: None if ids[0] == 7 else ids, "reduced vertex 7 has no 'M g' line"),
    ("vc", "g", lambda ids: [ids[0], ids[1], ids[0]], "is not an image"),
    ("vc", "n", lambda ids: ids + [10_000], "10000 is not a reduced edge"),
    ("vstash", "e", lambda ids: None if ids[0] == 3 else ids, "reduced edge 3 has no 'M e' line"),
    ("vstash", "e", lambda ids: [ids[0], 4], "4 is not an original vertex"),
    ("vstash", "v", lambda ids: [ids[0], ids[1], -1], "-1 is not a reduced edge"),
    ("vstash", "n", lambda ids: [ids[0] + 50, *ids[1:]], "is not an original edge"),
])
def test_parse_map_checks_references(direction, kind, edit, defect):
    if direction == "vc":
        rmap = reduce_vc_to_vertex_stash(triangle(), 2, 2)[1]
    else:
        rmap = reduce_vertex_to_edge_stash(gen_random(4, 5, 2, 9), 3, 2)[1]
    text = serialize_map(rmap)
    broken = _edit_lines(text, kind, edit)
    assert broken != text
    # the edit leaves every line before it intact, so the first line that
    # differs from the intact map is the one to report
    pairs = enumerate(zip(text.splitlines(), broken.splitlines()), start=1)
    line, want, got = next((i, a, b) for i, (a, b) in pairs if a != b)
    assert got.startswith(f"M {kind} ")
    with pytest.raises(ParseError) as exc:
        parse_map(broken)
    assert str(exc.value) == f"line {line}: expected {want!r}, got {got!r}"
    assert exc.value.line == line


def test_certificate_checks_survive_python_optimize():
    script = textwrap.dedent("""
        import dataclasses, itertools, sys
        from stashpeel import parse, reductions

        real = reductions.is_k_peelable
        calls = itertools.count()

        def certificate_core_nonempty(*args, **kwargs):
            # each function checks its input first and its certificate second
            peelable = real(*args, **kwargs)
            return False if next(calls) % 2 else peelable

        tri = parse("h 2 3 3\\ne 0 1\\ne 1 2\\ne 2 0\\n")
        _, vc = reductions.reduce_vc_to_vertex_stash(tri, 2, 2)
        _, vs = reductions.reduce_vertex_to_edge_stash(tri, 3, 2)
        pushed = reductions.push_vertex_stash(tri, vs, {0})
        collapsed = dataclasses.replace(vs, estar_pick=dict.fromkeys(vs.estar_pick, min(pushed)))
        cover = {vc.vertex_map[0], vc.vertex_map[1]}
        cases = (
            (True, lambda: reductions.normalize_stash(vc.reduced, vc, cover)),
            (True, lambda: reductions.push_vertex_stash(tri, vs, {0})),
            (True, lambda: reductions.lift_edge_stash(vs.reduced, vs, pushed)),
            (False, lambda: reductions.push_vertex_stash(tri, collapsed, {0, 1})),
        )
        print(sys.flags.optimize)
        for patched, call in cases:
            reductions.is_k_peelable = certificate_core_nonempty if patched else real
            try:
                call()
                print("returned")
            except AssertionError:
                print("raised")
    """)
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["raised"] * 4


def test_broken_map_is_input_error_under_python_optimize(tmp_path):
    text = serialize_map(reduce_vc_to_vertex_stash(triangle(), 2, 2)[1])
    broken = text.replace("M g 5 1 2\n", "M g 5 0 1\n")
    assert broken != text
    mp = tmp_path / "tri.map"
    mp.write_text(broken)
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 5\n")
    proc = run_python("-O", "-m", "stashpeel", "lift", "--map", str(mp), "--stash", str(stash))
    line = broken.splitlines().index("M g 5 0 1") + 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: line {line}: expected 'M g 5 1 2', got 'M g 5 0 1'\n"

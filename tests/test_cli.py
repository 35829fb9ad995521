import time
from io import StringIO
from pathlib import Path

import pytest

from stashpeel import (ParameterError, ParseError, cli, gen_random, hypergraph, is_k_peelable, parse,
                       peeling, reductions, serialize, stash_solvers)
from stashpeel.cli import run
from stashpeel.hypergraph import _parse_serialized, content_lines, parse_lines

from helpers import OVERSIZED, layout, mkgraph, needs_int_digit_limit, run_python

TRIANGLE = "h 2 3 3\ne 0 1\ne 1 2\ne 2 0\n"
FOREST = "h 2 4 3\ne 0 1\ne 1 2\ne 2 3\n"
THREE_UNIFORM = "h 3 4 2\ne 0 1 2\ne 1 2 3\n"


def invoke(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("tri", TRIANGLE), ("forest", FOREST), ("d3", THREE_UNIFORM)):
        p = tmp_path / f"{name}.hg"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_gen_random_contract():
    g = gen_random(10, 5, 2, 1)
    assert g.d == 2 and g.num_vertices == 10 and g.num_edges == 5
    assert gen_random(10, 5, 2, 1) == g  # same seed, same instance
    assert gen_random(4, 3, 3, 0).num_edges == 3
    with pytest.raises(ParameterError):
        gen_random(2, 1, 3, 0)
    with pytest.raises(ParameterError, match="^edge count must be non-negative, got -1$"):
        gen_random(3, -1, 2, 0)
    with pytest.raises(ParameterError, match="^edge arity must be at least 2, got 1$"):
        gen_random(3, 1, 1, 0)


def test_peel_forest_prints_empty_core(files):
    code, out, err = invoke("peel", "--k", "2", files["forest"])
    assert code == 0 and not err
    assert out.startswith("h 2 0 0\n")
    assert "# peeled:" in out


def test_peel_output_reparses(files):
    code, out, _ = invoke("peel", "--k", "2", files["tri"])
    assert code == 0
    assert parse(out).num_vertices == 3


def test_stash_exact_triangle(files):
    code, out, _ = invoke("stash-exact", "--k", "2", "--mode", "edge", files["tri"])
    assert code == 0
    assert out.splitlines()[1] == "size=1 optimal=true"


def test_stash_exact_cap_zero_is_infeasible(files):
    code, out, err = invoke(
        "stash-exact", "--k", "2", "--mode", "edge", "--cap", "0", files["tri"]
    )
    assert code == 1 and not out and "infeasible" in err


def test_stash_2edge_on_d3_is_input_error(files):
    code, out, err = invoke("stash-2edge", files["d3"])
    assert code == 2 and "error" in err


def test_stash_greedy_summary(files):
    code, out, _ = invoke("stash-greedy", "--k", "2", "--mode", "vertex", files["tri"])
    assert code == 0
    assert out.splitlines()[1] == "size=1 optimal=false"


def test_stash_summary_reads_optimal_from_the_result(files, monkeypatch):
    flipped = stash_solvers.StashResult("vertex", frozenset({0}), False)
    monkeypatch.setattr(stash_solvers, "min_vertex_stash_exact", lambda *args: flipped)
    code, out, _ = invoke("stash-exact", "--k", "2", "--mode", "vertex", files["tri"])
    assert (code, out) == (0, "S v 0\nsize=1 optimal=false\n")
    flipped = stash_solvers.StashResult("edge", frozenset({0}), True)
    monkeypatch.setattr(stash_solvers, "greedy_stash", lambda *args: flipped)
    code, out, _ = invoke("stash-greedy", "--k", "2", "--mode", "edge", files["tri"])
    assert (code, out) == (0, "S e 0\nsize=1 optimal=true\n")


def test_stash_k_zero_is_parameter_error(files):
    for command in ("stash-greedy", "stash-exact"):
        code, out, err = invoke(command, "--k", "0", "--mode", "vertex", files["tri"])
        assert code == 2 and not out and "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("peel", "--k", "x", "f"), "argument --k: invalid int value: 'x'"),
        (("peel", "f"), "the following arguments are required: --k"),
        (("stash-exact", "--k", "2", "--mode", "both", "f"), "argument --mode: invalid choice: 'both'"),
        ((), "the following arguments are required: command"),
    ],
)
def test_bad_command_line_is_input_error(argv, message):
    # reported on err like any other input error, twice over the same
    # parser, and never as a SystemExit or usage text
    for _ in range(2):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_python_dash_m_runs_the_cli(files):
    argv = ("stash-exact", "--k", "2", "--mode", "edge", files["tri"])
    proc = run_python("-m", "stashpeel", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == invoke(*argv)[1]
    proc = run_python("-m", "stashpeel", "stash-greedy", "--k", "0", "--mode", "vertex", files["tri"])
    assert proc.returncode == 2 and not proc.stdout and "error" in proc.stderr


@pytest.mark.parametrize(
    "exc, last_line",
    [(AssertionError("boom"), "AssertionError: boom"), (MemoryError(), "MemoryError")],
    ids=["assert", "memory"],
)
def test_internal_error_is_exit_3_with_a_traceback(files, monkeypatch, exc, last_line):
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "k_core", broken)
    code, out, err = invoke("peel", "--k", "2", files["tri"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: Traceback (most recent call last):\n")
    assert err.endswith(f"\n{last_line}\n")


def test_python_dash_m_reports_an_internal_error_as_exit_3(files, tmp_path, monkeypatch):
    # sitecustomize runs at interpreter start, before the CLI parses anything
    (tmp_path / "sitecustomize.py").write_text(
        "from stashpeel import cli\n"
        "def broken(*args):\n"
        "    raise AssertionError('boom')\n"
        "cli.k_core = broken\n"
    )
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    proc = run_python("-m", "stashpeel", "peel", "--k", "2", files["tri"])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("internal error: Traceback (most recent call last):\n")
    assert proc.stderr.endswith("AssertionError: boom\n")


def test_cover_triangle(files):
    code, out, _ = invoke("cover", files["tri"])
    assert code == 0
    assert out.splitlines()[1] == "size=2 optimal=true"


def test_gen_random_cli_deterministic_and_reparseable():
    a = invoke("gen-random", "--vertices", "6", "--edges", "7", "--d", "2", "--seed", "3")
    b = invoke("gen-random", "--vertices", "6", "--edges", "7", "--d", "2", "--seed", "3")
    assert a == b and a[0] == 0
    assert parse(a[1]).num_edges == 7


def test_gen_random_cli_parameter_error():
    code, _, err = invoke("gen-random", "--vertices", "2", "--edges", "1", "--d", "3")
    assert code == 2 and "error" in err


def test_missing_file_is_input_error():
    code, _, err = invoke("peel", "--k", "2", "/nonexistent/input.hg")
    assert code == 2 and "error" in err


def test_malformed_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("h 2 2 1\ne 0 0\n")
    code, _, err = invoke("peel", "--k", "2", str(bad))
    assert code == 2 and "line 2" in err


@needs_int_digit_limit
@pytest.mark.parametrize("text, line", [(f"h 2 {OVERSIZED} 1\ne 0 1\n", 1), (f"h 2 3 1\ne 0 {OVERSIZED}\n", 2)])
def test_oversized_number_is_input_error(tmp_path, text, line):
    bad = tmp_path / "bad.hg"
    bad.write_text(text)
    code, out, err = invoke("peel", "--k", "2", str(bad))
    assert (code, out) == (2, "") and err.startswith(f"error: line {line}: non-integer ")


def test_edge_count_mismatch_names_the_header_line(tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("# c\n\nh 2 3 2\ne 0 1\n")
    code, out, err = invoke("peel", "--k", "2", str(bad))
    assert (code, out, err) == (2, "", "error: line 3: declared 2 edges but found 1\n")


@pytest.mark.parametrize("text, message", [
    ("M vc 2 2\nG orig\nh 2 3 3\ne 0 1\nG end\nG reduced\n", "declared 3 edges but found 1"),
    ("M vc 2 2\nG orig\nG end\n", "empty 'G orig' section: missing 'h' header"),
])
def test_map_with_bad_original_section_names_its_line(tmp_path, text, message):
    mp = tmp_path / "bad.map"
    mp.write_text(text)
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0\n")
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert (code, out, err) == (2, "", f"error: line 3: {message}\n")


def test_undecodable_bytes_are_input_error(tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_bytes(b"h 2 2 1\ne 0 \xff\n")
    code, _, err = invoke("peel", "--k", "2", str(bad))
    assert code == 2 and err.startswith("error: line 2:")
    # lines are numbered as parse numbers them, which breaks at a lone CR too
    with pytest.raises(ParseError, match="^line 2: "):
        parse("h 2 2 1\re 0 x\r")
    bad.write_bytes(b"h 2 2 1\re 0 1\r# \xff\r")
    code, _, err = invoke("peel", "--k", "2", str(bad))
    assert code == 2 and err.startswith("error: line 3:")


def test_non_integer_map_field_is_input_error(files, tmp_path):
    mp = tmp_path / "tri.map"
    assert invoke("reduce", "--from", "vc", "--k", "2", "--d", "2",
                  "--map-out", str(mp), files["tri"])[0] == 0
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 1\n")
    good = mp.read_text()
    for old, new, message in (
        ("M vc 2 2", "M vc 2 x", "line 1: non-integer field in 'M vc 2 x'"),
        ("e 0 1\n", "e 0 x\n", "line 4: non-integer vertex index in 'e 0 x'"),
        ("e 0 3\n", "e zero 3\n", "line 10: expected 'e 0 3', got 'e zero 3'"),
    ):
        broken = good.replace(old, new, 1)
        assert broken != good
        mp.write_text(broken)
        code, _, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
        assert code == 2 and err == f"error: {message}\n"


def _triangle_vc_map(files, tmp_path):
    mp = tmp_path / "tri.map"
    assert invoke("reduce", "--from", "vc", "--k", "2", "--d", "2",
                  "--map-out", str(mp), files["tri"])[0] == 0
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 5\n")  # 5 is inside the gadget of edge (1, 2)
    assert invoke("lift", "--map", str(mp), "--stash", str(stash))[1] == "S v 0 1\n"
    return mp, stash


def test_map_without_gadget_lines_is_input_error(files, tmp_path):
    mp, stash = _triangle_vc_map(files, tmp_path)
    good = mp.read_text()
    # vertices 5 and 6 are the gadget of edge (1, 2): drop its four edges
    broken = "".join(line for line in good.splitlines(True) if line not in ("e 1 5\n", "e 1 6\n",
                                                                              "e 2 5\n", "e 2 6\n"))
    assert len(broken.splitlines()) == len(good.splitlines()) - 4
    mp.write_text(broken)
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("e 2 7") + 1
    assert err == f"error: line {line}: expected 'e 1 5', got 'e 2 7'\n"


def test_map_with_unknown_vertex_is_input_error(files, tmp_path):
    mp, stash = _triangle_vc_map(files, tmp_path)
    good = mp.read_text()
    broken = good.replace("e 0 3\n", "e 0 999\n")
    assert broken != good
    mp.write_text(broken)
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("e 0 999") + 1
    assert err == f"error: line {line}: expected 'e 0 3', got 'e 0 999'\n"


def test_map_with_wrong_gadget_ends_is_input_error(files, tmp_path):
    mp, stash = _triangle_vc_map(files, tmp_path)
    good = mp.read_text()
    broken = good.replace("e 2 5\n", "e 0 5\n")  # 5 joins vertices 1 and 2
    assert broken != good
    mp.write_text(broken)
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("e 0 5") + 1
    assert err == f"error: line {line}: expected 'e 2 5', got 'e 0 5'\n"


def test_map_with_swapped_images_is_input_error(tmp_path):
    path = tmp_path / "path.hg"
    path.write_text("h 2 3 2\ne 0 1\ne 1 2\n")
    mp = tmp_path / "path.map"
    assert invoke("reduce", "--from", "vc", "--k", "2", "--d", "2",
                  "--map-out", str(mp), str(path))[0] == 0
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 1\n")
    assert invoke("lift", "--map", str(mp), "--stash", str(stash))[1] == "S v 1\n"
    good = mp.read_text()
    head, reduced = good.split("G reduced\n")
    swapped = {"0": "1", "1": "0"}
    broken = head + "G reduced\n" + "".join(
        " ".join(["e", *(swapped.get(x, x) for x in line.split()[1:])]) + "\n" if line.startswith("e ") else line
        for line in reduced.splitlines(True)
    )
    assert broken != good
    mp.write_text(broken)
    # the reduced instance swaps vertices 0 and 1, so every id still exists,
    # but the stash {1} would leave the gadget of edge 1-2 standing
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("e 1 3") + 1
    assert err == f"error: line {line}: expected 'e 0 3', got 'e 1 3'\n"


def test_map_with_wrong_edge_owner_is_input_error(tmp_path):
    src = tmp_path / "k4p.hg"
    src.write_text("h 2 5 7\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\ne 0 4\n")
    mp = tmp_path / "k4p.map"
    assert invoke("reduce", "--from", "vstash", "--k", "3", "--d", "2",
                  "--map-out", str(mp), str(src))[0] == 0
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0\n")
    assert invoke("lift", "--map", str(mp), "--stash", str(stash))[1] == "S e 10\n"
    good = mp.read_text()
    # edge 10 is vertex 0's E* edge; a trailing line claims it for vertex 4
    broken = good + "M e 10 4\n"
    mp.write_text(broken)
    stash.write_text("S e 10\n")
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = len(broken.splitlines())
    assert err == f"error: line {line}: expected '', got 'M e 10 4'\n"


def test_old_format_map_is_input_error(files, tmp_path):
    # maps once also listed every lookup table as 'M v', 'M g', 'M e' and
    # 'M n' lines after the reduced instance; the first of them is refused
    mp, stash = _triangle_vc_map(files, tmp_path)
    good = mp.read_text()
    mp.write_text(good + "M v 0 0\nM v 1 1\nM v 2 2\nM g 3 0 1\n")
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    line = len(good.splitlines()) + 1
    assert (code, out, err) == (2, "", f"error: line {line}: expected '', got 'M v 0 0'\n")


@pytest.mark.parametrize("text, message", [
    ("M vstash 300 2\nG orig\nh 2 1 0\nG end\n",
     "line 1: {} characters cannot hold a vstash map with k=300, d=2 of this original\n"),
    ("M vc 100000 2\nG orig\nh 2 3 0\nG end\n", "line 5: expected 'G reduced', got ''\n"),
    ("M vc 2 10000000\nG orig\nh 2 2 1\ne 0 1\nG end\n",
     "line 1: {} characters cannot hold a vc map with k=2, d=10000000 of this original\n"),
])
def test_map_header_asking_for_a_huge_reduction_is_input_error(tmp_path, text, message):
    # each header asks for gadgets far larger than the text, or for k=100000
    # gadgets over no edge at all, so the map is rejected before any is built
    mp = tmp_path / "hostile.map"
    mp.write_text(text)
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0\n")
    start = time.perf_counter()
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: " + message.format(len(text)))


def test_reduce_then_lift_vstash_roundtrip(files, tmp_path):
    mp = str(tmp_path / "k4.map")
    k4 = tmp_path / "k4.hg"
    k4.write_text("h 2 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out, _ = invoke("reduce", "--from", "vstash", "--k", "3", "--d", "2",
                          "--map-out", mp, str(k4))
    assert code == 0
    reduced = parse(out)
    assert reduced.d == 2

    vstash = tmp_path / "vstash.txt"
    vstash.write_text("S v 0\n")  # K4 minus a vertex is a triangle, which 3-peels
    code, pushed, _ = invoke("lift", "--map", mp, "--stash", str(vstash))
    assert code == 0 and pushed.startswith("S e ")

    estash = tmp_path / "estash.txt"
    estash.write_text(pushed)
    code, lifted, _ = invoke("lift", "--map", mp, "--stash", str(estash))
    assert code == 0 and lifted == "S v 0\n"


@pytest.mark.parametrize("source, stash", [("vstash", "S e -1"), ("vstash", "S v -1"), ("vc", "S v -1")])
def test_lift_with_a_negative_id_is_input_error(files, tmp_path, source, stash):
    mp = str(tmp_path / "tri.map")
    assert invoke("reduce", "--from", source, "--k", "3", "--d", "2", "--map-out", mp, files["tri"])[0] == 0
    path = tmp_path / "stash.txt"
    path.write_text(stash + "\n")
    code, out, err = invoke("lift", "--map", mp, "--stash", str(path))
    assert code == 2 and not out and err.startswith("error: ")


def test_reduce_vc_and_normalize_via_lift(files, tmp_path):
    mp = str(tmp_path / "tri.map")
    code, out, _ = invoke("reduce", "--from", "vc", "--k", "2", "--d", "2",
                          "--map-out", mp, files["tri"])
    assert code == 0
    reduced = parse(out)
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 1\n")
    code, lifted, _ = invoke("lift", "--map", mp, "--stash", str(stash))
    assert code == 0 and lifted == "S v 0 1\n"
    # an edge stash makes no sense through a cover map
    estash = tmp_path / "es.txt"
    estash.write_text("S e 0\n")
    code, _, err = invoke("lift", "--map", mp, "--stash", str(estash))
    assert code == 2 and "error" in err


def test_lift_with_a_cover_that_misses_an_edge_is_an_internal_error(files, tmp_path, monkeypatch):
    # normalize_stash certifies its cover before it checks that the cover
    # meets every original edge, so only a fault reaches that check; here
    # the certificate passes every stash
    mp = str(tmp_path / "tri.map")
    assert invoke("reduce", "--from", "vc", "--k", "2", "--d", "2", "--map-out", mp, files["tri"])[0] == 0
    monkeypatch.setattr(peeling, "is_k_peelable", lambda *args, **kwargs: True)
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0\n")
    code, out, err = invoke("lift", "--map", mp, "--stash", str(stash))
    assert (code, out) == (3, "")
    assert err.endswith("\nAssertionError: lifted cover [0] misses original edge 1\n")


def test_each_reduction_has_one_name():
    # --from's choices, the builder table, a map's direction and its
    # sidecar header all spell a reduction the same way
    reduce_cmd = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["reduce"]
    source = next(a for a in reduce_cmd._actions if a.dest == "source")
    assert source.choices == tuple(reductions.REDUCTIONS) == ("vc", "vstash")
    for name, build in reductions.REDUCTIONS.items():
        rmap = build(parse(TRIANGLE), 3, 2)[1]
        assert rmap.direction == name
        assert reductions.serialize_map(rmap).split("\n", 1)[0] == f"M {name} 3 2"


def test_reduce_with_an_unwritable_map_prints_nothing(files):
    mp = str(files["dir"] / "missing" / "x.map")
    code, out, err = invoke("reduce", "--from", "vc", "--k", "2", "--d", "2", "--map-out", mp, files["tri"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing" in err


def test_reduce_default_map_sidecar(files):
    code, _, _ = invoke("reduce", "--from", "vc", "--k", "2", "--d", "3", files["tri"])
    assert code == 0
    sidecar = files["dir"] / "tri.hg.map"
    assert sidecar.exists()
    assert sidecar.read_text().startswith("M vc 2 3\n")


def test_verify_gadgets_tsv():
    code, out, _ = invoke("verify-gadgets", "--k", "3", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gadget\tparams\tcheck\tpass\twitness"
    assert all(line.split("\t")[3] == "pass" for line in lines[1:])
    assert any(line.startswith("ck\t") for line in lines[1:])
    assert any(line.startswith("stable\t") for line in lines[1:])


def test_verify_gadgets_requires_scope():
    code, _, err = invoke("verify-gadgets")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("scope", [("--k", "3"), ("--d", "2"), ("--k", "3", "--d", "2")])
def test_verify_gadgets_grid_takes_no_k_or_d(scope):
    code, out, err = invoke("verify-gadgets", "--grid", *scope)
    assert (code, out) == (2, "")
    assert err == "error: verify-gadgets takes --grid or --k and --d, not both\n"


@pytest.mark.parametrize("k, d", [("1", "2"), ("-3", "2"), ("3", "1"), ("2", "0")])
def test_verify_gadgets_with_no_family_is_parameter_error(k, d):
    code, out, err = invoke("verify-gadgets", "--k", k, "--d", d)
    assert code == 2 and out == ""
    assert f"no gadget family exists at k={k}, d={d}" in err


def test_gadget_emission_reparses():
    for argv in (
        ("gadget", "--type", "ck", "--k", "3", "--d", "2"),
        ("gadget", "--type", "b3", "--k", "5", "--d", "3"),
        ("gadget", "--type", "stable", "--k", "4", "--d", "2", "--m", "5"),
        ("gadget", "--type", "tree-stable", "--d", "3", "--p", "2"),
    ):
        code, out, _ = invoke(*argv)
        assert code == 0
        parse(out)
        assert "# port" in out and "# estar" in out


@pytest.mark.parametrize("argv, extra", [
    (("--type", "tree-stable", "--k", "5", "--d", "3", "--p", "2"), "--k"),
    (("--type", "ck", "--k", "3", "--d", "2", "--m", "7", "--p", "9"), "--m --p"),
    (("--type", "b2", "--p", "1"), "--p"),
])
def test_gadget_rejects_flags_its_type_does_not_take(argv, extra):
    code, out, err = invoke("gadget", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: gadget --type {argv[1]} does not take {extra}\n"


@pytest.mark.parametrize("argv, defaults", [
    (("--type", "ck"), ("--k", "3", "--d", "2")),
    (("--type", "b3"), ("--k", "3", "--d", "2")),
    (("--type", "simple-stable"), ("--m", "1", "--k", "3", "--d", "2")),
    (("--type", "stable", "--k", "4"), ("--m", "1", "--d", "2")),
    (("--type", "tree-stable", "--d", "3"), ("--p", "1")),
])
def test_gadget_defaults_fill_the_flags_its_type_takes(argv, defaults):
    code, out, err = invoke("gadget", *argv)
    assert (code, err) == (0, "") and "# estar" in out
    assert invoke("gadget", *argv, *defaults) == (code, out, err)


def test_identical_invocations_are_byte_identical(files):
    a = invoke("stash-greedy", "--k", "2", "--mode", "edge", "--tie-break",
               "seeded_random", "--seed", "4", files["tri"])
    b = invoke("stash-greedy", "--k", "2", "--mode", "edge", "--tie-break",
               "seeded_random", "--seed", "4", files["tri"])
    assert a == b


# -- bulk reading of the CLI's own files -------------------------------------------


@pytest.mark.parametrize("argv", [
    ("reduce", "--from", "vc", "--k", "3", "--d", "2"),
    ("reduce", "--from", "vstash", "--k", "2", "--d", "3"),
    ("peel", "--k", "2"),
])
def test_reduce_and_peel_output_is_read_in_bulk(tmp_path, argv):
    # the output ends in '# map:' or '# peeled:'/'# core:' lines, which the
    # bulk reader takes as a tail of comment lines
    d = 3 if "vstash" in argv else 2
    source = tmp_path / "g.hg"
    source.write_text(serialize(gen_random(40, 60 if d == 3 else 50, d, 7)))
    map_out = ("--map-out", str(tmp_path / "g.map")) if "reduce" in argv else ()
    code, out, err = invoke(*argv, *map_out, str(source))
    assert (code, err) == (0, "") and out.splitlines()[-1].startswith("#")
    bulk = _parse_serialized(out)
    assert bulk is not None
    assert layout(bulk) == layout(parse_lines(content_lines(out)))


def _refuse(*_):
    raise AssertionError("the line reader read an instance")


@pytest.mark.parametrize("source, k, d, arity", [("vc", 3, 2, 2), ("vc", 2, 3, 2), ("vstash", 3, 2, 2),
                                                 ("vstash", 2, 3, 3)])
def test_round_trips_never_reach_the_line_reader(tmp_path, monkeypatch, source, k, d, arity):
    # every instance and map a round trip reads is one the CLI wrote, and
    # each is read in bulk: with the line reader refusing, every step exits 0
    original = tmp_path / "g.hg"
    original.write_text(serialize(gen_random(20, 24, arity, 3)))
    mp, reduced, stash = (str(tmp_path / name) for name in ("g.map", "g.reduced.hg", "stash.txt"))
    monkeypatch.setattr(hypergraph, "parse_lines", _refuse)
    monkeypatch.setattr(reductions, "parse_lines", _refuse)
    ks = str(k)
    steps = [("reduce", "--from", source, "--k", ks, "--d", str(d), "--map-out", mp, str(original))]
    if source == "vstash":
        steps.append(("stash-greedy", "--k", ks, "--mode", "vertex", str(original)))
        steps.append(("lift", "--map", mp, "--stash", stash))
    steps.append(("stash-greedy", "--k", ks, "--mode", "edge" if source == "vstash" else "vertex", reduced))
    steps.append(("lift", "--map", mp, "--stash", stash))
    for i, argv in enumerate(steps):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, ""), argv
        if i == 0:
            Path(reduced).write_text(out)
        elif argv[0] == "stash-greedy":
            Path(stash).write_text(out)

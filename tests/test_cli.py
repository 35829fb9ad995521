import time
from io import StringIO

import pytest

from stashpeel import ParameterError, cli, gen_random, is_k_peelable, parse
from stashpeel.cli import run

from helpers import mkgraph, run_python

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


def test_non_integer_map_field_is_input_error(files, tmp_path):
    mp = tmp_path / "tri.map"
    assert invoke("reduce", "--from", "vc", "--k", "2", "--d", "2",
                  "--map-out", str(mp), files["tri"])[0] == 0
    stash = tmp_path / "stash.txt"
    stash.write_text("S v 0 1\n")
    good = mp.read_text()
    for old, new, message in (
        ("M vc 2 2", "M vc 2 x", "line 1: non-integer field in 'M vc 2 x'"),
        ("M v 0 ", "M v zero ", "line 23: expected 'M v 0 0', got 'M v zero 0'"),
    ):
        broken = good.replace(old, new)
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
    broken = "".join(line for line in good.splitlines(True) if not line.startswith("M g "))
    mp.write_text(broken)
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("M n 0 0 1 2 3") + 1
    assert err == f"error: line {line}: expected 'M g 3 0 1', got 'M n 0 0 1 2 3'\n"


def test_map_with_unknown_vertex_is_input_error(files, tmp_path):
    mp, stash = _triangle_vc_map(files, tmp_path)
    good = mp.read_text()
    broken = good.replace("M v 0 0\n", "M v 0 999\n")
    assert broken != good
    mp.write_text(broken)
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("M v 0 999") + 1
    assert err == f"error: line {line}: expected 'M v 0 0', got 'M v 0 999'\n"


def test_map_with_wrong_gadget_ends_is_input_error(files, tmp_path):
    mp, stash = _triangle_vc_map(files, tmp_path)
    good = mp.read_text()
    broken = good.replace("M g 5 1 2\n", "M g 5 0 1\n")  # 5 joins images 1 and 2
    assert broken != good
    mp.write_text(broken)
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("M g 5 0 1") + 1
    assert err == f"error: line {line}: expected 'M g 5 1 2', got 'M g 5 0 1'\n"


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
    broken = good.replace("M v 0 0\nM v 1 1\n", "M v 0 1\nM v 1 0\n")
    assert broken != good
    mp.write_text(broken)
    # every id still exists and every 'M g' line still names its gadget's
    # images, but image 1 would lift to vertex 0, which misses edge 1-2
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("M v 0 1") + 1
    assert err == f"error: line {line}: expected 'M v 0 0', got 'M v 0 1'\n"


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
    broken = good.replace("M e 10 0\n", "M e 10 4\n")  # edge 10 is vertex 0's E* edge
    assert broken != good
    mp.write_text(broken)
    stash.write_text("S e 10\n")
    code, out, err = invoke("lift", "--map", str(mp), "--stash", str(stash))
    assert code == 2 and not out
    line = broken.splitlines().index("M e 10 4") + 1
    assert err == f"error: line {line}: expected 'M e 10 0', got 'M e 10 4'\n"


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


@pytest.mark.parametrize("k", ["1", "-3"])
def test_verify_gadgets_with_no_family_is_parameter_error(k):
    code, out, err = invoke("verify-gadgets", "--k", k, "--d", "2")
    assert code == 2 and out == ""
    assert f"no gadget family exists at k={k}, d=2" in err


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


def test_identical_invocations_are_byte_identical(files):
    a = invoke("stash-greedy", "--k", "2", "--mode", "edge", "--tie-break",
               "seeded_random", "--seed", "4", files["tri"])
    b = invoke("stash-greedy", "--k", "2", "--mode", "edge", "--tie-break",
               "seeded_random", "--seed", "4", files["tri"])
    assert a == b

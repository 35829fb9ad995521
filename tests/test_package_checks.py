"""Checks on the package as a whole: its source, and the rules that every
public entry point keeps."""

import ast
import inspect
from pathlib import Path

import pytest

import stashpeel
from stashpeel import ParameterError

from helpers import triangle

SRC = Path(__file__).resolve().parents[1] / "src" / "stashpeel"

# Parameters that only a value of type int itself may fill: no bool, float
# or string.
INTEGER_PARAMS = frozenset({"k", "d", "m", "p", "b", "delta", "size_cap", "n_vertices", "n_edges", "seed"})
NOT_INTEGERS = (2.5, 2.0, True, "2")
EMPTY = frozenset()
# Every public callable with a parameter in INTEGER_PARAMS, with arguments
# it accepts.
INTEGER_ENTRY_POINTS = {
    "Hypergraph": dict(d=2),
    "PeelTrace": dict(k=2, peeled_vertices=(), peeled_edges=EMPTY, core_vertices=EMPTY, core_edges=EMPTY),
    "ReductionMap": dict(
        direction="vc", k=2, d=2, original=triangle(), reduced=triangle(), owner={}
    ),
    "build_b_block": dict(b=2, k=3, d=2),
    "build_ck_gadget": dict(k=2, d=2),
    "build_pk_gadget": dict(delta=2, k=3, d=2),
    "build_simple_stable_block": dict(m=1, k=3, d=2),
    "build_stable_block": dict(m=1, k=3, d=2),
    "build_tree_stable_block": dict(p=1, d=3),
    "gen_random": dict(n_vertices=8, n_edges=14, d=2, seed=1),
    "greedy_stash": dict(g=triangle(), k=2, mode="edge", seed=0),
    "is_k_peelable": dict(g=triangle(), k=2),
    "k_core": dict(g=triangle(), k=2),
    "k_core_after": dict(g=triangle(), k=2),
    "min_edge_stash_exact": dict(g=triangle(), k=2, size_cap=2),
    "min_vertex_cover_exact": dict(g=triangle(), size_cap=2),
    "min_vertex_stash_exact": dict(g=triangle(), k=2, size_cap=2),
    "reduce_vc_to_vertex_stash": dict(g=triangle(), k=2, d=2),
    "reduce_vertex_to_edge_stash": dict(g=triangle(), k=3, d=2),
}


def test_package_has_no_bare_asserts():
    # `python -O` strips assert statements, so every check the package
    # relies on must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no modules found under {SRC}"
    assert found == []


def test_hypergraph_public_names_are_pinned():
    # one read API: counts, per-id queries and the builders.  `edges`, a
    # snapshot dict of every edge, is kept only for the benchmark's set-up;
    # no other accessor that copies the graph may come back unnoticed.
    public = {name for name in vars(stashpeel.Hypergraph) if not name.startswith("_")}
    assert public == {
        "add_vertex", "add_vertices", "add_edge", "d", "num_vertices", "num_edges", "edges",
        "has_vertex", "has_edge", "edge_vertices", "degree", "copy", "validate",
    }


def test_gadget_checkers_import_no_rng():
    # every gadget verdict is exhaustive on its removal frontier, so no
    # checker draws a sample
    modules = set()
    for node in ast.walk(ast.parse((SRC / "gadgets.py").read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert "random" not in {name.split(".")[0] for name in modules}


def test_cli_reads_no_reduction_map_table():
    # naming, building and lifting a reduction belong to `reductions`: the
    # CLI reads no table of a map, on any name it binds from that module
    tables = {"owner", "estar_pick", "ports"}
    tree = ast.parse((SRC / "cli.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(n, ast.Name) and n.id == "reductions" for n in ast.walk(node.value)
        ):
            bound.update(n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name))
    reads = [
        f"cli.py:{node.lineno} {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in tables
        and isinstance(node.value, ast.Name) and node.value.id in bound
    ]
    assert "rmap" in bound
    assert reads == []


def test_reductions_reads_lines_through_hypergraph():
    # how a line of instance, stash or map text is numbered and read belongs
    # to `hypergraph.content_lines`: `reductions` neither splits text into
    # lines nor imports a regex module to do so
    tree = ast.parse((SRC / "reductions.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    splits = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "splitlines"]
    assert "re" not in modules
    assert splits == []


def test_package_has_no_dead_imports():
    # a deletion can leave an import behind; every imported name must be
    # read somewhere in its module
    dead = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert dead == []


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize(
    "name, param",
    [(name, param) for name, args in INTEGER_ENTRY_POINTS.items() for param in args if param in INTEGER_PARAMS],
)
def test_integer_parameters_refuse_non_integers(name, param, bad):
    call = getattr(stashpeel, name)
    args = INTEGER_ENTRY_POINTS[name]
    call(**args)
    with pytest.raises(ParameterError, match=f"^{param} must be an integer"):
        call(**{**args, param: bad})


def test_every_integer_entry_point_is_in_the_table():
    # a new public callable with an integer parameter must join the table,
    # so that the test above holds it to the same check
    found = set()
    for name in stashpeel.__all__:
        obj = getattr(stashpeel, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue  # exceptions carry a message, not parameters
        if INTEGER_PARAMS.intersection(inspect.signature(obj).parameters):
            found.add(name)
    assert sorted(found) == sorted(INTEGER_ENTRY_POINTS)

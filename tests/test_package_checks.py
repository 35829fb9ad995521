"""Source-level checks on the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stashpeel"


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

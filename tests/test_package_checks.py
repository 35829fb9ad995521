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

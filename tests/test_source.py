"""Properties of the package source itself."""

import ast
from pathlib import Path

import ultrafraisse

PACKAGE = Path(ultrafraisse.__file__).parent


def test_no_assert_statements():
    """Self-checks raise explicitly, so `python -O` keeps them."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

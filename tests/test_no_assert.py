"""No invariant in the package may depend on ``assert``, which
``python -O`` strips: every check in ``src/gliopost`` raises explicitly."""

import ast
from pathlib import Path

import gliopost

PACKAGE = Path(gliopost.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found

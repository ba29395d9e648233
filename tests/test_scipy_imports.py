"""The package runs on numpy alone: no module in ``src/gliopost`` imports
a scipy subpackage (``import scipy.x``, ``from scipy import x``,
``from scipy.x import ...``), at module level or inside a function.  The
one scipy import is cli.py's bare ``import scipy``, for the version the
run record names."""

import ast
from pathlib import Path

import gliopost

PACKAGE = Path(gliopost.__file__).parent


def _scipy_imports():
    """``(place, statement)`` for every import in the package that names
    scipy, where ``place`` is ``module:line``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                yield f"{module}:{node.lineno}", ast.unparse(node)


def test_no_module_imports_a_scipy_subpackage():
    imports = list(_scipy_imports())
    assert [statement for _, statement in imports] == ["import scipy"], imports
    assert imports[0][0].startswith("cli.py:"), imports

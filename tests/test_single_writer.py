"""Artifacts are written atomically and JSON has one writer: in
``src/gliopost`` every ``open`` in a write mode is inside
``nifti.atomic_open``, and ``json.dump`` is called only inside
``nifti.write_json``."""

import ast
import re
from pathlib import Path

import gliopost

PACKAGE = Path(gliopost.__file__).parent
MODE = re.compile(r"[rwxabt+]+")


def _calls():
    """``(place, module, function, call)`` for every call in the package,
    where ``place`` is ``module:line`` and ``function`` the innermost
    enclosing function's name (None at module level)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, child.name)
                else:
                    if isinstance(child, ast.Call):
                        yield f"{module}:{child.lineno}", module, function, child
                    yield from visit(child, function)

        yield from visit(ast.parse(path.read_text(), filename=str(path)), None)


def _name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return f"{ast.unparse(func.value)}.{func.attr}"
    return ast.unparse(func)


def _writes(call: ast.Call) -> bool:
    """Whether a call named ``open`` or ``*.open`` may open for writing:
    a string in its arguments that reads as a file mode names a write,
    an exclusive create, an append or an update."""
    strings = [node.value for arg in [*call.args, *(k.value for k in call.keywords)]
               for node in ast.walk(arg)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return any(MODE.fullmatch(s) and set(s) & set("wxa+") for s in strings)


def test_files_are_opened_for_writing_only_by_atomic_open():
    opens = [(place, module, function) for place, module, function, call in _calls()
             if _name(call).split(".")[-1] == "open" and _writes(call)]
    assert ("nifti.py", "atomic_open") in {(m, f) for _, m, f in opens}
    stray = [place for place, module, function in opens
             if (module, function) != ("nifti.py", "atomic_open")]
    assert not stray, stray


def test_json_is_dumped_only_by_write_json():
    dumps = [(place, module, function) for place, module, function, call in _calls()
             if _name(call) in ("json.dump", "dump")]
    assert ("nifti.py", "write_json") in {(m, f) for _, m, f in dumps}
    stray = [place for place, module, function in dumps
             if (module, function) != ("nifti.py", "write_json")]
    assert not stray, stray

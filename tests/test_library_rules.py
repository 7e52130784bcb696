"""Library code fails with typed errors: no assert statement (it vanishes
under python -O), no bare except or except Exception/BaseException (they
swallow faults instead of naming them), and no error class that no module
raises or catches.  Only the CLI imports inside functions, so each verb loads
the layers it runs; library modules keep their import graph at module level."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twinroot"
BROAD = {"Exception", "BaseException"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _handled(handler):
    """The names an except clause catches."""
    t = handler.type
    return [] if t is None else [_name(x) for x in (t.elts if isinstance(t, ast.Tuple) else [t])]


def faults(tree):
    """(line, what) for each assert statement and each bare or broad except."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, "bare except"
            for name in _handled(node):
                if name in BROAD:
                    yield node.lineno, f"except {name}"


def test_library_has_no_assert_or_broad_except():
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in faults(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_fault_scan_sees_each_kind():
    text = (
        "assert x\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, builtins.Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException as exc:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert list(faults(ast.parse(text))) == [
        (1, "assert"), (4, "bare except"), (8, "except Exception"), (12, "except BaseException")
    ]


def test_every_error_class_is_raised_or_caught():
    """Each class of errors.py is raised or caught in another module of
    the package, so a dead error type cannot linger."""
    errors = SRC / "errors.py"
    defined = {node.name for node in ast.parse(errors.read_text()).body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in SRC.rglob("*.py"):
        if path == errors:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
            elif isinstance(node, ast.ExceptHandler):
                used.update(_handled(node))
    assert sorted(defined - used) == []


def local_imports(tree):
    """Lines of the import statements inside a function body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        node.lineno
        for fn in ast.walk(tree) if isinstance(fn, functions)
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_only_the_cli_imports_inside_functions():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "cli.py"
        for line in sorted(set(local_imports(ast.parse(path.read_text(), filename=str(path)))))
    ]
    assert found == []


def test_local_import_scan_sees_each_kind():
    text = (
        "import os\n"
        "from . import weyl\n"
        "def f():\n    import json\n"
        "class C:\n    def m(self):\n        from . import roots as r\n"
        "async def g():\n    def h():\n        from .trd import check_trd\n"
    )
    assert sorted(set(local_imports(ast.parse(text)))) == [4, 7, 10]

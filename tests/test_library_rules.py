"""Library code fails with typed errors: no assert statement (it vanishes
under python -O), no bare except or except Exception/BaseException (they
swallow faults instead of naming them), and no error class that no module
raises or catches.  Only the CLI imports inside functions, so each verb loads
the layers it runs; library modules keep their import graph at module level.
Every function, method and class has a caller in the package, the demos or
the benchmark, so no API lingers that only tests reach."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twinroot"
BROAD = {"Exception", "BaseException"}
# names the library keeps with no caller in src, demos or bench
KEPT_WITHOUT_CALLER = {
    "root_group_center": "criterion 11 compares F's root groups with SU3's root-group centers",
    "datum_from_json": "it reads the JSON that `twinroot gcm sc|adjoint|dual` print",
}


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


def definitions(tree):
    """(name, first line, last line, is a method) of each function, method
    and class; dunder methods are left out, as Python calls them."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno, id(node) in methods


def mentions(tree, strings: bool):
    """(name, line, bare) of each name read (bare) and attribute read, and
    with strings=True each word of each string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno, False


def unmentioned(texts, library, string_files=()):
    """The definitions in the library files that no file of texts (path ->
    source) names outside the definition itself.  A file in string_files
    names the words of its strings too.  A method is named only by an
    attribute read or a string, so a local variable of the same name does
    not count as a call."""
    trees = {path: ast.parse(text, filename=str(path)) for path, text in texts.items()}
    named = {}
    for path, tree in trees.items():
        for name, line, bare in mentions(tree, path in string_files):
            named.setdefault(name, []).append((path, line, bare))
    return [
        f"{path}:{first}: {name}"
        for path in library
        for name, first, last, method in sorted(definitions(trees[path]), key=lambda d: d[1])
        if all(p == path and first <= line <= last for p, line, bare in named.get(name, ()) if not (method and bare))
    ]


def test_every_definition_has_a_caller_outside_the_tests():
    library = sorted(SRC.rglob("*.py"))
    others = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in library + others}
    found = unmentioned(texts, library, string_files={ROOT / "bench" / "spans.py"})
    assert sorted(line.rsplit(": ", 1)[1] for line in found) == sorted(KEPT_WITHOUT_CALLER)


def test_caller_scan_on_a_small_text():
    lib = (
        "class Used:\n    def __init__(self):\n        pass\n    def method(self):\n        return self.method()\n"
        "def helper():\n    def inner():\n        return 1\n    return inner()\n"
        "def traced():\n    pass\n"
        "def lonely(n):\n    return lonely(n - 1)\n"
        "class Other:\n    def kept(self):\n        pass\n    def shadowed(self):\n        pass\n"
    )
    # a bare name calls a function but not a method: `shadowed` is only a local here
    user = "from lib import Used, Other, helper\nUsed()\nhelper()\nOther().kept()\nfor shadowed in []:\n    shadowed\n"
    spans = 'NAMES = ["lib.traced"]\n'
    texts = {"lib.py": lib, "user.py": user, "spans.py": spans}
    assert unmentioned(texts, ["lib.py"], string_files={"spans.py"}) == [
        "lib.py:4: method", "lib.py:12: lonely", "lib.py:17: shadowed"
    ]
    assert unmentioned(texts, ["lib.py"]) == [
        "lib.py:4: method", "lib.py:10: traced", "lib.py:12: lonely", "lib.py:17: shadowed"
    ]

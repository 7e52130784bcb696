"""Library code fails with typed errors: no assert statement (it vanishes
under python -O) and no bare except or except Exception/BaseException (they
swallow faults instead of naming them)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twinroot"
BROAD = {"Exception", "BaseException"}


def faults(tree):
    """(line, what) for each assert statement and each bare or broad except."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, "bare except"
                continue
            for t in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                name = t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)
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

"""The benchmark (bench/) imports twinroot names, and its traced run
(bench/spans.py) indexes twinroot functions by name and raises KeyError on
one that is gone; these tests keep a rename from surfacing only there."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_exist_in_twinroot():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for key in sorted({*spans.CALLS.values(), *spans.INCLUSIVE_MS.values(), "cli.dispatch"}):
        short, *path = key.split(".")
        mod = importlib.import_module(f"twinroot.{short}")
        obj = mod
        for part in path:
            obj = inspect.getattr_static(obj, part, None)
        if not spans._own_function(getattr(obj, "__func__", obj), mod):  # __func__: staticmethod
            missing.append(key)
    assert missing == []


def bench_api_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for every `from twinroot[.m] import name` in source, and
    every `m.attr` read through a name that an import binds to a twinroot
    module (`from twinroot import m`, `import twinroot[.m]`)."""
    tree = ast.parse(source)
    modules, pairs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "twinroot":
            for alias in node.names:
                pairs.add((node.module, alias.name))
                if node.module == "twinroot":
                    modules[alias.asname or alias.name] = f"twinroot.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "twinroot":
                    modules[alias.asname or "twinroot"] = alias.name if alias.asname else "twinroot"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            pairs.add((modules[node.value.id], node.attr))
    return pairs


def unresolved(pairs) -> list[tuple[str, str]]:
    """The pairs whose name is neither an attribute nor a submodule of its module."""
    missing = []
    for module, name in sorted(pairs):
        try:
            mod = importlib.import_module(module)
            if not hasattr(mod, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append((module, name))
    return missing


def test_bench_api_scan_on_a_small_text():
    source = """
import twinroot
from twinroot import trd
from twinroot.chevalley import loop_group, no_such_name


def run(orc):
    twinroot.cli
    trd.check_trd(orc)
    return trd.gone, orc.anything
"""
    pairs = bench_api_names(source)
    assert pairs == {
        ("twinroot", "trd"),
        ("twinroot.chevalley", "loop_group"),
        ("twinroot.chevalley", "no_such_name"),
        ("twinroot", "cli"),
        ("twinroot.trd", "check_trd"),
        ("twinroot.trd", "gone"),
    }
    assert unresolved(pairs) == [("twinroot.chevalley", "no_such_name"), ("twinroot.trd", "gone")]


def test_bench_imports_resolve_in_twinroot():
    pairs = set()
    for path in sorted(SPANS.parent.glob("*.py")):
        pairs |= bench_api_names(path.read_text(encoding="utf-8"))
    assert ("twinroot.trd", "check_trd") in pairs and ("twinroot.chevalley", "loop_group") in pairs
    assert unresolved(pairs) == []

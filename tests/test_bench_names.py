"""The traced benchmark run (bench/spans.py) indexes twinroot functions by
name and raises KeyError on one that is gone; this keeps a rename from
surfacing only there."""

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

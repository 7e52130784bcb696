"""Tests of the benchmark itself: its checks catch wrong answers.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from twinroot import gcm, roots, trd, weyl  # noqa: E402
from twinroot.chevalley import loop_group  # noqa: E402
from twinroot.roots import RootVector  # noqa: E402

import ref  # noqa: E402
import steady  # noqa: E402
import wl_loop  # noqa: E402
import wl_roots  # noqa: E402
import wl_twin  # noqa: E402
from harness import Op, check_ops, run_ops  # noqa: E402


def outcome_of(op):
    return check_ops([op], *run_ops([op]))


def corrupted(op, corrupt):
    """The same operation with its result passed through `corrupt`."""
    return Op(op.kind, lambda: corrupt(op.call()), op.check)


def test_corrupted_bruhat_word_is_a_failed_operation():
    G = loop_group(2, 2)
    f = ref.field(2)
    g = ref.random_group_element(f, 2, random.Random(3), 6, wl_loop.SPAN)
    op = Op("bruhat_cell", lambda: G.bruhat_cell(wl_loop.to_program(G, g)), wl_loop._check_bruhat(G, f, g, 7))
    assert outcome_of(op).failed == 0

    def flip_last_letter(result):
        w, b1, b2 = result
        word = w.word[:-1] + (1 - w.word[-1],) if w.word else (0,)
        return weyl.from_word(G.gcm, word), b1, b2

    bad = outcome_of(corrupted(op, flip_last_letter))
    assert bad.failed == 1 and bad.wrong


def test_dropped_interval_member_is_a_failed_operation():
    A, a = gcm.G2, gcm.G2.a
    pairs = wl_roots.root_pairs(a, wl_roots.ROOT_LEVEL["G2"])
    x, y = next(
        p for p in pairs if len(roots.closed_interval(A, RootVector(p[0]), RootVector(p[1])).members) >= 3
    )
    op = Op("interval", lambda: roots.closed_interval(A, RootVector(x), RootVector(y)),
            wl_roots._check_interval("G2", x, y))
    assert outcome_of(op).failed == 0

    def drop_inner_member(iv):
        inner = [r for r in iv.members if r.coords not in (x, y)]
        return replace(iv, members=tuple(r for r in iv.members if r != inner[0]))

    bad = outcome_of(corrupted(op, drop_inner_member))
    assert bad.failed == 1 and bad.wrong


def test_chamber_count_off_by_one_is_a_failed_operation():
    oracle = trd.split_oracle(loop_group(2, 2))
    op = Op("building_ball", lambda: trd.building_ball(oracle, 1, 2), wl_twin._check_ball(2, (2, 2)))
    assert outcome_of(op).failed == 0
    bad = outcome_of(corrupted(op, lambda ball: replace(ball, chambers=ball.chambers[:-1])))
    assert bad.failed == 1 and bad.wrong


def test_non_reduced_word_is_a_failed_operation():
    A = gcm.AFFINE_A2
    word = (0, 1, 2, 0, 2, 1, 0, 1)
    op = Op("from_word", lambda: weyl.from_word(A, word), wl_roots._check_word(A.a, word))
    assert outcome_of(op).failed == 0

    def pad(w):  # same element, two letters longer
        return replace(w, word=w.word + (0, 0))

    bad = outcome_of(corrupted(op, pad))
    assert bad.failed == 1 and bad.wrong


def test_crash_counts_as_failed_but_not_wrong():
    def boom():
        raise IndexError("list index out of range")

    out = outcome_of(Op("crash", boom, lambda r: None))
    assert out.failed == 1 and out.errors and not out.wrong


def test_reference_fields_match_the_encoding():
    # F_4 = F_2[x]/(x^2 + x + 1), F_9 = F_3[x]/(x^2 + 1): x * x = x + 1 and -1
    assert ref.field(4).mul[2][2] == 3
    assert ref.field(9).mul[3][3] == 2


def test_tree_chamber_counts():
    assert wl_twin.tree_chambers(2, (2, 8)) == 1 + 2 + 8 + 2 * 2**4  # SU3(F_2): 43
    assert wl_twin.tree_chambers(3, (3, 3)) == 79  # SL2(F_3)


def test_steadiness_summary():
    results = [
        {"correct": True, "attempted": 10, "failed": 0, "elapsed_s": 1.0,
         "metrics": {"ops_per_s": {"value": v, "unit": "ops/s"}}}
        for v in (90.0, 100.0, 110.0, 100.0, 100.0)
    ]
    lines = steady.summarize(results, {"ops_per_s": 0.2})
    assert lines[0].startswith("ops_per_s") and "median          100" in lines[0]
    assert "spread  0.100" in lines[0]  # quartiles 95 and 105


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "loop-cells", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "bench/run.py", "--workload", "twin-verify", "--seed", "3", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith(".self_ms"))
        assert abs(layers + m["trace.harness_ms"] - m["trace.phase_ms"]) < 1e-6 * m["trace.phase_ms"]
        assert 0 <= m["trace.harness_ms"] < 0.05 * m["trace.phase_ms"]

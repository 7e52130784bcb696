"""Fixed-work timing loop, result checks and the metrics computed from them."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable


class Wrong(Exception):
    """A check found a result that disagrees with the reference computation."""


@dataclass
class Op:
    """One call into twinroot and the check of its result.

    `call` takes no arguments and returns the result; `check` raises Wrong
    (or any exception) when the result is not correct.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    ops: list
    # the in-process phase the traced run spans (defaults to ops)
    traced_ops: list | None = None
    # peak RSS of the process doing the work, when that is not this process
    child_rss_mb: Callable[[], float] | None = None


@dataclass
class Outcome:
    latencies: list
    wall_s: float
    attempted: int
    errors: list  # (index, kind, message): the program raised or exited badly
    wrong: list  # (index, kind, message): a check rejected the result

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)


def run_ops(ops):
    """Run every op once, in order, timing each; results are kept for check_ops."""
    results = [None] * len(ops)
    raised = {}
    latencies = []
    clock = time.perf_counter
    start = clock()
    for k, op in enumerate(ops):
        t0 = clock()
        try:
            results[k] = op.call()
        except Exception as exc:  # a crash of the program is a failed operation
            raised[k] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
    wall = clock() - start
    return results, raised, latencies, wall


def check_ops(ops, results, raised, latencies, wall) -> Outcome:
    errors, wrong = [], []
    for k, op in enumerate(ops):
        if k in raised:
            errors.append((k, op.kind, raised[k]))
            continue
        try:
            op.check(results[k])
        except Wrong as exc:
            wrong.append((k, op.kind, str(exc)))
        except Exception as exc:  # a check that cannot even read the result
            wrong.append((k, op.kind, f"{type(exc).__name__}: {exc}"))
    return Outcome(latencies, wall, len(ops), errors, wrong)


def expect(cond, message):
    if not cond:
        raise Wrong(message)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome: Outcome, setup_s: float, rss_mb: float) -> dict:
    ms = [x * 1000.0 for x in outcome.latencies]
    ok = outcome.attempted - outcome.failed
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ok / outcome.wall_s, "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "latency_p90_ms": {"value": p90(ms), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def p90(values):
    if len(values) < 100:
        raise ValueError(f"a p90 needs at least 100 samples, got {len(values)}")
    return statistics.quantiles(values, n=10, method="inclusive")[8]

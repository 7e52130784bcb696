"""Steadiness of the benchmark: run one workload k times, each with another
seed, and print each metric's median, quartiles and spread.

    python3 bench/steady.py --workload loop-cells --runs 10 --first-seed 1

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  Each line also shows the metric's bound
from BENCHMARK.json, and the runs' raw results go to
.bench_out/steady-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(results, bounds):
    lines = []
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        tail = f"  bound {bound:.2f}  spread/bound {spread / bound:.2f}" if bound else ""
        lines.append(f"{name:32s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  spread {spread:6.3f}{tail}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    lines.append(f"failed/attempted: {sorted(shares)}; correct: {all(r['correct'] for r in results)}")
    lines.append(f"elapsed per run: median {statistics.median(r['elapsed_s'] for r in results):.1f} s, "
                 f"max {max(r['elapsed_s'] for r in results):.1f} s")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = []
    for seed in seeds:
        results.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: {results[-1]['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
    out = ROOT / ".bench_out" / f"steady-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": list(seeds), "seconds": seconds, "results": results}, indent=1))
    print(f"{args.workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, --seconds {seconds}")
    print("\n".join(summarize(results, bounds)))


if __name__ == "__main__":
    main()

"""Run one benchmark workload against the twinroot sources of this checkout.

    python3 bench/run.py --workload roots-session --seed 1 --seconds 10 --trace 0

Each run executes a fixed, seeded list of operations to completion: --seconds
sets how much work the list holds (about that many seconds on a 2-core
machine), never a timer.  Results are checked against the benchmark's own
reference computations after the timed phase.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics; --trace 1 runs the same phase with per-layer spans
and gives the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("roots-session", "loop-cells", "twin-verify", "cli-oneshot")
SETUP_SAMPLES = 5  # this run's own set-up plus four fresh set-up processes
IMPORT_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes, used by this script's own child processes
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--untraced-phase", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must lie in 1..60")
    return args


def import_twinroot():
    """Import twinroot from this checkout's src/, and nothing else."""
    if not (SRC / "twinroot" / "__init__.py").is_file():
        sys.exit(f"bench: no twinroot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twinroot

    if Path(twinroot.__file__).resolve().parent != SRC / "twinroot":
        sys.exit(f"bench: imported twinroot from {twinroot.__file__}, not from {SRC}")


def build(args):
    if args.workload == "roots-session":
        import wl_roots as mod
    elif args.workload == "loop-cells":
        import wl_loop as mod
    elif args.workload == "twin-verify":
        import wl_twin as mod
    else:
        import wl_cli as mod
    return mod.build(args.seed, args.seconds)


def child(args, *flags):
    """Run this script in a fresh process with the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: child {' '.join(flags)} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def report(outcome, metrics):
    for k, kind, msg in (outcome.errors + outcome.wrong)[:20]:
        print(f"bench: op {k} ({kind}) failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))


def timed_run(args):
    from harness import check_ops, end_to_end, own_peak_rss_mb, run_ops

    workload = build(args)
    setup_s = time.perf_counter() - T0
    results, raised, latencies, wall = run_ops(workload.ops)
    rss = workload.child_rss_mb() if workload.child_rss_mb else own_peak_rss_mb()
    outcome = check_ops(workload.ops, results, raised, latencies, wall)
    setups = [setup_s] + [child(args, "--setup-probe") for _ in range(SETUP_SAMPLES - 1)]
    report(outcome, end_to_end(outcome, statistics.median(setups), rss))


def traced_run(args):
    import spans
    from harness import check_ops, run_ops

    tracer = spans.Tracer()
    tracer.install()  # before set-up, so oracles built there hold the wrapped methods
    workload = build(args)
    ops = workload.traced_ops or workload.ops
    tracer.start()
    results, raised, latencies, wall = run_ops(ops)
    tracer.stop()
    outcome = check_ops(ops, results, raised, latencies, wall)
    untraced_s = child(args, "--untraced-phase")
    metrics = tracer.metrics(phase_s=wall, untraced_s=untraced_s)
    metrics.update(spans.cli_metrics(SRC, IMPORT_SAMPLES, tracer, workload, len(ops)))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", metrics)
    report(outcome, metrics)


def main(argv=None):
    args = parse_args(argv)
    import_twinroot()
    if args.setup_probe:
        build(args)
        print(time.perf_counter() - T0)
    elif args.untraced_phase:
        from harness import run_ops

        workload = build(args)
        print(run_ops(workload.traced_ops or workload.ops)[3])
    elif args.trace:
        traced_run(args)
    else:
        timed_run(args)


if __name__ == "__main__":
    main()

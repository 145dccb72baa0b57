"""One workload in one fresh process; prints one JSON object as its last line.

    python3 bench/worker.py --workload W --seed N --setup-only
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1

``--setup-only`` times the set-up alone: importing diskplex, building the
piece catalog and generating the seed's inputs.  Otherwise the worker
sets up, then runs passes until the next one would end past ``--seconds``
(at least two passes, and for cli-files at least 100 invocations), and
reports every operation's time and verdict.  With ``--trace 1`` each pass
runs twice, untraced and then traced, and the tracer's per-pass
aggregates are reported as well.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 2
MIN_CLI_INVOCATIONS = 100
PASS_SAMPLES = 3  # reference samples before and after every pass
SETUP_SAMPLES = 5


def import_program():
    """Import diskplex from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import diskplex.cli  # noqa: F401  (imports every module)

    where = os.path.dirname(os.path.abspath(sys.modules["diskplex"].__file__))
    if where != os.path.join(SRC, "diskplex"):
        raise SystemExit(f"diskplex imported from {where}, not from {SRC}")


def setup(name: str, seed: int, replay: bool = False):
    import workloads

    work_dir = os.path.join(HERE, "_work", f"{name}-{os.getpid()}")
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    from diskplex.pieces import catalog

    catalog()
    t2 = time.perf_counter()
    wl = workloads.make(name, seed, work_dir, replay=replay)
    wl.setup()
    t3 = time.perf_counter()
    timing = {"setup_s": t3 - t0, "import_s": t1 - t0, "catalog_s": t2 - t1, "inputs_s": t3 - t2}
    return wl, timing


def op_records(ops, speed) -> list:
    """[name, kind, work seconds, reference seconds, ok, detail] per operation."""
    return [[op.name, op.kind, *speed.normalise(op.start, op.seconds), op.ok, op.detail]
            for op in ops]


def done(passes: int, ops: int, pass_seconds: list, elapsed: float, seconds: float, cli: bool) -> bool:
    if passes < MIN_PASSES or (cli and ops < MIN_CLI_INVOCATIONS):
        return False
    return elapsed + statistics.median(pass_seconds) > seconds


def measure(wl, seconds: float, cli: bool, speed) -> dict:
    """Untraced passes.  In-process workloads are also sampled on a timer;
    CLI subprocesses are not, so the kernel never runs beside them."""
    passes, pass_seconds, n_ops = [], [], 0
    start = time.perf_counter()
    with contextlib.nullcontext() if cli else speed.periodic():
        while True:
            speed.sample(PASS_SAMPLES)
            t0 = time.perf_counter()
            ops = wl.run_pass(len(passes), speed.sample)
            pass_seconds.append(time.perf_counter() - t0)
            passes.append(ops)
            n_ops += len(ops)
            if done(len(passes), n_ops, pass_seconds, time.perf_counter() - start, seconds, cli):
                break
        speed.sample(PASS_SAMPLES)
    passes = [op_records(ops, speed) for ops in passes]
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {"passes": passes, "peak_rss_kb": resource.getrusage(who).ru_maxrss}


def delta(after, before) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v - before.get(k, 0)}


def measure_traced(wl, seconds: float, trace_path: str, speed) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    pair_seconds = []
    start = time.perf_counter()
    while True:
        speed.sample(PASS_SAMPLES)
        t0 = time.perf_counter()
        untraced.append(wl.run_pass(len(untraced), speed.sample))
        before = tracer.snapshot()
        tracer.install()
        try:
            traced.append(wl.run_pass(len(traced), speed.sample, tracer))
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        layers.append({
            "self_s": delta(after[0], before[0]),
            "total_s": delta(after[1], before[1]),
            "counts": delta(after[2], before[2]),
        })
        pair_seconds.append(time.perf_counter() - t0)
        if done(len(traced), 0, pair_seconds, time.perf_counter() - start, seconds, False):
            break
    speed.sample(PASS_SAMPLES)
    tracer.write(trace_path)
    untraced = [op_records(ops, speed) for ops in untraced]
    traced = [op_records(ops, speed) for ops in traced]
    return {"passes": untraced, "traced_passes": traced, "layers": layers,
            "spans": sum(1 for s in tracer.spans if s is not None), "trace_file": trace_path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from reference import Speedometer

    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its CLI children, so reference
        # samples see the same CPU as the work they calibrate.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl, timing = setup(args.workload, args.seed, replay=bool(args.trace))
    speed = Speedometer()
    try:
        if args.setup_only:
            speed.sample(SETUP_SAMPLES)
            result = {}
        elif args.trace:
            path = os.path.join(HERE, "_out", f"trace-{args.workload}-seed{args.seed}.jsonl")
            result = measure_traced(wl, args.seconds, path, speed)
        else:
            result = measure(wl, args.seconds, args.workload == "cli-files", speed)
    finally:
        cleanup = getattr(wl, "cleanup", None)
        if cleanup:
            cleanup()
    result["setup"] = timing
    result["speed_samples"] = speed.samples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""diskplex benchmark: one workload at one seed, end to end or traced.

    python3 bench/run.py --workload homology-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1036      # the three workloads in turn

Each workload runs in fresh processes: several set-up probes (for
``setup_s``) and then one worker that measures for ``--seconds``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are the same numbers for people, with the run record.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("homology-large", "suite-default", "cli-files")
SETUP_PROBES = 7
TIME_LIMIT = 170.0  # seconds for one workload, probes included
SPREAD_NOTE = ("single passes on this machine spread by about +-15-20% from run to run; "
               "CPU time equals wall time, so the cause is machine speed, not the scheduler")

HOMOLOGY_INPUTS = ("sd2-rp2-susp", "c4-c4-rp2", "simplex-11", "sphere-9")
SUITE_PROPERTIES = ("sphere_ladder", "milnor_formula", "index_additivity", "local_census",
                    "dichotomy", "width_descent", "constructions", "catalog_integrity",
                    "determinism")
CLI_COMMANDS = ("homology", "index", "join", "milnor", "additivity", "dichotomy", "width",
                "catalog")

# Per-layer time metrics taken from span self time: metric -> span names.
SELF_TIME = {
    "homology.smith_normal_form_s": ("homology.smith_normal_form",),
    "homology.boundary_matrices_s": ("homology.boundary_matrices",),
    "homology.assembly_s": ("homology.reduced_homology",),
    "simplicial.from_facets_s": ("simplicial.from_facets",),
    "simplicial.faces_by_dim_s": ("simplicial.faces_by_dim",),
    "simplicial.join_s": ("simplicial.join",),
    "simplicial.barycentric_subdivision_s": ("simplicial.barycentric_subdivision",),
    "simplicial.adjacency_subcomplex_s": ("simplicial.adjacency_subcomplex",),
    "width.available_moves_s": ("width.available_moves",),
    "width.apply_surgery_s": ("width.apply_surgery",),
    "width.verify_width_decrease_s": ("width.verify_width_decrease",),
    "dichotomy.check_dichotomy_s": ("dichotomy.check_dichotomy",),
    "join_formula.verify_milnor_s": ("join_formula.verify_milnor",),
    "additivity.verify_index_sum_s": ("additivity.verify_index_sum",),
    "additivity.global_complex_s": ("additivity.global_complex",),
    "cubes.subdivide_cube_s": ("cubes.subdivide_cube",),
    "cubes.dual_cells_s": ("cubes.dual_cells",),
    "corpus.generate_s": ("corpus.",),  # every corpus generator
    "io.parse_complex_s": ("io.parse_complex",),
    "io.write_complex_s": ("io.write_complex",),
}
# Columns of an operation record written by worker.py.
NAME, KIND, WORK, REF, OK, DETAIL = range(6)
COUNTS = ("homology.matrix_cells", "homology.boundary_nnz", "homology.snf_calls",
          "homology.rank_total", "homology.nonunit_factors", "simplicial.faces",
          "simplicial.complexes_built", "width.moves_built", "width.moves_sampled",
          "dichotomy.taus_tried", "dichotomy.vtau_index_calls", "io.bytes")


def median(values, default=0.0):
    return statistics.median(values) if values else default


def quantile(values, q: int) -> float:
    """The q-th percentile (exclusive method), or the median of too few values."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(num, den) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------- processes

def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    # A session of its own, so a timeout also ends the worker's CLI children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
        "note": SPREAD_NOTE,
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


# ------------------------------------------------------------- metrics

def verdicts(passes) -> tuple[int, int, list[str]]:
    ops = [op for p in passes for op in p]
    bad = [f"{op[NAME]}: {op[DETAIL]}" for op in ops if not op[OK]]
    return len(ops), len(bad), bad


def speed_factor(result: dict) -> float:
    """How much slower than nominal the process ran (see reference.py)."""
    return median([d for _, d in result["speed_samples"]]) / NOMINAL_S


def wall(passes, column: int = REF) -> float:
    """One pass: the sum over its operations of each one's median in the run."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for op in p:
            if op[OK]:
                times.setdefault(op[NAME], []).append(op[column])
    return sum(median(v) for v in times.values())


def end_to_end(name: str, probes: list[dict], result: dict) -> tuple[dict, list[str]]:
    passes = result["passes"]
    setup = [p["setup"]["setup_s"] / speed_factor(p) for p in probes]
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall(passes), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    label = {"homology-large": "homology_wall_s", "suite-default": "suite_wall_s",
             "cli-files": "cli_pass_s"}[name]
    lines = [
        f"speed factor {speed_factor(result):.3f} (median of {len(result['speed_samples'])} "
        f"reference samples over {NOMINAL_S} s); times are reference seconds, raw in brackets",
        f"setup_s          {metrics['setup_s'][0]:9.4f} s  median of {len(setup)} fresh-process "
        f"set-ups [{median([p['setup']['setup_s'] for p in probes]):.4f}]",
        f"{label:16s} {metrics['wall_s'][0]:9.4f} s  wall_s over {len(passes)} passes "
        f"[{wall(passes, WORK):.4f}]",
    ]
    if name == "cli-files":
        ref = [op[REF] for p in passes for op in p if op[OK]]
        raw = [op[WORK] for p in passes for op in p if op[OK]]
        p90 = quantile(ref, 90)
        lines += [
            f"cli_p50_s        {median(ref):9.4f} s  over {len(ref)} invocations [{median(raw):.4f}]",
            f"cli_p90_s        {p90:9.4f} s  {sum(1 for x in ref if x > p90)} samples beyond it "
            f"[{quantile(raw, 90):.4f}]",
        ]
    lines.append(f"peak_rss_mb      {metrics['peak_rss_mb'][0]:9.2f} MB "
                 + ("largest CLI subprocess" if name == "cli-files" else "the measuring process"))
    return metrics, lines


def per_layer(name: str, probes: list[dict], result: dict) -> tuple[dict, list[str], list[str]]:
    layers = result["layers"]
    drift = []
    counts = layers[0]["counts"]
    for i, layer in enumerate(layers[1:], 1):
        if layer["counts"] != counts:
            changed = sorted(k for k in set(counts) | set(layer["counts"])
                             if counts.get(k) != layer["counts"].get(k))
            drift.append(f"traced pass {i} counts differ from pass 0 in {changed}")

    def self_time(prefixes):
        per_pass = [sum(v for k, v in layer["self_s"].items()
                        if any(k == p or (p.endswith(".") and k.startswith(p)) for p in prefixes))
                    for layer in layers]
        return median(per_pass)

    metrics = {m: (self_time(spans), "s") for m, spans in SELF_TIME.items()}
    for c in COUNTS:
        metrics[c] = (counts.get(c, 0), "count")
    metrics["homology.nnz_density"] = (
        ratio(counts.get("homology.boundary_nnz", 0), counts.get("homology.matrix_cells", 0)), "ratio")
    metrics["width.move_use_ratio"] = (
        ratio(counts.get("width.moves_sampled", 0), counts.get("width.moves_built", 0)), "ratio")
    taus = counts.get("dichotomy.taus_tried", 0)
    metrics["dichotomy.vtau_cache_hit_ratio"] = (
        ratio(taus - counts.get("dichotomy.vtau_index_calls", 0), taus), "ratio")
    for prop in SUITE_PROPERTIES:
        metrics[f"suite.{prop}_s"] = (
            median([layer["total_s"].get(f"suite.{prop}", 0.0) for layer in layers]), "s")

    factor = speed_factor(result)
    metrics = {m: (v / factor if u == "s" else v, u) for m, (v, u) in metrics.items()}
    untraced = result["passes"]
    for inp in HOMOLOGY_INPUTS:
        metrics[f"homology-large.{inp}_s"] = (
            median([op[REF] for p in untraced for op in p if op[NAME] == inp and op[OK]]), "s")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_p50_s"] = (
            median([op[REF] for p in untraced for op in p if op[KIND] == cmd and op[OK]]), "s")
    for metric, key in (("pieces.catalog_s", "catalog_s"), ("cli.import_s", "import_s")):
        metrics[metric] = (median([p["setup"][key] / speed_factor(p) for p in probes]), "s")

    plain = [sum(op[REF] for op in p) for p in untraced]
    traced = [sum(op[REF] for op in p) for p in result["traced_passes"]]
    overhead = 100.0 * (ratio(median(traced), median(plain)) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")

    # Each module's share of the traced time, from self times.
    share: dict[str, float] = {}
    for layer in layers:
        for span, secs in layer["self_s"].items():
            share[span] = share.get(span, 0.0) + secs / len(layers)
    whole = sum(share.values())
    modules: dict[str, float] = {}
    for span, secs in share.items():
        module = span.split(".")[0]
        modules[module] = modules.get(module, 0.0) + secs
    lines = [f"traced passes {len(layers)}, spans {result['spans']}, "
             f"overhead {overhead:+.1f}% against the untraced passes, "
             f"spans in {os.path.relpath(result['trace_file'], ROOT)}",
             f"speed factor {factor:.3f}; times are reference seconds (see reference.py)",
             "self time by module (share of traced time):"]
    for module, secs in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:24s} {secs / factor:9.4f} s  {100 * ratio(secs, whole):5.1f}%")
    lines.append("largest self times:")
    for span, secs in sorted(share.items(), key=lambda kv: -kv[1])[:8]:
        lines.append(f"  {span:40s} {secs / factor:9.4f} s")
    lines.append("per-layer metrics:")
    for m, (value, unit) in metrics.items():
        lines.append(f"  {m:40s} {value:14.6g} {unit}")
    return metrics, lines, drift


# ---------------------------------------------------------------- main

def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(run_worker(["--workload", name, "--seed", str(seed), "--setup-only"], 30.0))
    remaining = TIME_LIMIT - (time.perf_counter() - start)
    result = run_worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(trace)], remaining)
    attempted, failed, bad = verdicts(result["passes"] + result.get("traced_passes", []))
    lines = [f"== workload {name} · seed {seed} · {seconds:g} s · trace {trace}"]
    lines += [f"FAILED {b}" for b in bad[:20]]
    drift = []
    if trace:
        metrics, more, drift = per_layer(name, probes, result)
        lines += more
        lines += [f"COUNT DRIFT {d}" for d in drift]
    else:
        metrics, more = end_to_end(name, probes, result)
        lines += more
    lines.append(f"error_rate       {ratio(failed, attempted):10.4f}     {failed} of {attempted} operations failed")
    out = {
        "correct": failed == 0 and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return out, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "diskplex", "__init__.py")):
        print(f"error: no diskplex sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    record = run_record(args.seed)
    print("run record: " + json.dumps(record))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

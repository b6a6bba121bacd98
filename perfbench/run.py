"""Benchmark for mewclique: one command, three workloads, every answer checked.

Usage:
    python3 perfbench/run.py --workload dimacs9 --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists): dimacs9,
random-small, sparse-large. The inputs are made from --seed and
checked against an oracle before any timing starts. Then whole passes
over the workload run back to back, each in a fresh process (a closed
loop: one process, one instance at a time), as many as fit in --seconds.
Every time is scaled to a reference machine's speed, measured all
through each pass (see refclock.py).
With --trace 0 every pass is untraced and the end-to-end metrics come
from all of them (see end_to_end). With --trace 1, untraced and traced passes
alternate; the per-layer metrics come from the traced pass with the
median total, and the untraced ones give the tracing overhead.

Each metric is printed on its own line with its unit; the last line of
stdout is one JSON object: correct, attempted, failed, metrics. A full
record (metadata, every pass, exact-count fingerprint) is written to
.bench_out/<workload>-seed<seed>-trace<t>/result.json. The exit code is
0 only if every instance of every pass was solved, proven and matched
its reference optimum.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # the whole run, passes included, ends within this


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import mewclique from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mewclique" / "__init__.py").is_file():
        fail(f"no mewclique sources under {src}")
    sys.path.insert(0, str(src))
    import mewclique
    if Path(mewclique.__file__).resolve().parent != src / "mewclique":
        fail(f"imported mewclique from {mewclique.__file__}, not {src}")
    return mewclique


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def lower_median_index(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]


def machine_info(mewclique, args, passes):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or "unknown",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mewclique_version": mewclique.__version__,
        "git_commit": commit,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "passes": passes,
        "shrunken": args.shrink,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_pass(run_dir, index, traced, inject, t_start):
    """Run one pass in a child process; returns its output dict, or a
    dict with only "crash" if it died, timed out or wrote nothing."""
    out = run_dir / f"pass{index:03d}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), str(run_dir / "inputs.json"),
           str(out)]
    if traced:
        cmd.append("--trace")
    if inject:
        cmd += ["--inject", inject]
    budget = RUN_LIMIT_S - (time.perf_counter() - t_start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        return {"crash": f"pass {index} exceeded the run's time limit"}
    if proc.returncode != 0 or not out.is_file():
        return {"crash": f"pass {index} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(out.read_text())
    result["traced"] = traced
    return result


def pass_summary(p):
    return {"total_s": sum(r["total_s"] for r in p["rows"]),
            "setup_s": sum(r["setup_s"] for r in p["rows"]),
            "wall_total_s": sum(r["wall_total_s"] for r in p["rows"]),
            "solves": len(p["rows"]),
            "peak_rss_mb": p["peak_rss_mb"],
            "reference": p["reference"]}


def end_to_end(passes):
    """End-to-end metrics of a run from its passes.

    Each instance's time is its median over every solve of it in the
    run's passes (scaled times, see refclock.py): total_s, setup_s and
    proof_s sum those medians, and the latency percentiles rank them.
    peak_rss_mb is the median over the passes.
    """
    by_name = {}
    for p in passes:
        for r in p["rows"]:
            by_name.setdefault(r["name"], []).append(r)
    lat, setup, proof = [], [], []
    for rows in by_name.values():
        lat.append(statistics.median(r["total_s"] for r in rows))
        setup.append(statistics.median(r["setup_s"] for r in rows))
        proof.append(statistics.median(r["total_s"] - r["setup_s"] for r in rows))
    return {"total_s": sum(lat),
            "setup_s": sum(setup),
            "proof_s": sum(proof),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "instance_p50_ms": 1000 * percentile(lat, 0.50),
            "instance_p95_ms": 1000 * percentile(lat, 0.95)}


def fingerprint(p):
    """Exact per-instance results of a pass; counts only when traced."""
    fp = {}
    for r in p["rows"]:
        entry = {"best_weight": r.get("best_weight")}
        c = p.get("counts", {}).get(r["name"])
        if c is not None:
            entry.update({"solver.nodes": r.get("nodes"),
                          "bounds.calls": c["calls"],
                          "bounds.colored": c["colored"],
                          "bounds.classes": c["classes"]})
        fp[r["name"]] = entry
    return fp


def layer_metrics(p, instances, untraced_total, traced_total, dimacs_names):
    """Per-layer metrics of the traced pass `p`."""
    m = dict(p["layers"])
    rows = {r["name"]: r for r in p["rows"]}
    counts = p["counts"]
    calls = sum(c["calls"] for c in counts.values())
    colored = sum(c["colored"] for c in counts.values())
    nodes = sum(r["nodes"] for r in rows.values())
    opt_sum = sum(i["optimum"] for i in instances)
    ub_logs = [math.log(counts[i["name"]]["root_ub"] / i["optimum"])
               for i in instances if i["optimum"] > 0]
    m.update({
        "io.input_bytes": sum(len(i["text"].encode()) for i in instances),
        "graph.weight_cells": sum(c["graph_builds"] * rows[n]["n"] ** 2
                                  for n, c in counts.items()),
        "pls.lb_ratio": sum(r["pls_weight"] for r in rows.values()) / opt_sum
        if opt_sum else 1.0,
        "pls.hit_frac": sum(rows[i["name"]]["pls_weight"] == i["optimum"]
                            for i in instances) / len(instances),
        "solver.nodes": nodes,
        "solver.leaves": nodes - calls,
        "bounds.calls": calls,
        "bounds.colored": colored,
        "bounds.classes": sum(c["classes"] for c in counts.values()),
        "bounds.us_per_colored": 1e6 * m["bounds.s"] / colored if colored else 0.0,
        "bounds.prune_frac": 1 - sum(r["nodes"] - 1 for r in rows.values()) / colored
        if colored else 0.0,
        "bounds.root_ub_ratio": math.exp(statistics.fmean(ub_logs)) if ub_logs else 1.0,
        "trace.overhead_frac": traced_total / untraced_total - 1,
    })
    for name in dimacs_names:
        # 0 on workloads that do not contain this DIMACS instance
        m[f"solver.nodes.{name}"] = rows[name]["nodes"] if name in rows else 0
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shrink", action="store_true",
                    help="seconds-long inputs, for the self-test")
    ap.add_argument("--inject", choices=("drop-vertex",),
                    help="return a wrong clique, for the self-test")
    args = ap.parse_args()
    t_start = time.perf_counter()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    mewclique = load_library()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.NAMES)}")
    if not (ROOT / "tests" / "data").is_dir() and args.workload == "dimacs9":
        fail("dimacs9 needs the bundled instances under tests/data")

    instances = workloads.build(args.workload, args.seed, ROOT, args.shrink)
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "inputs.json").write_text(json.dumps({"instances": instances}))

    # Untraced and traced passes alternate under --trace 1. A run stops
    # before a pass that would, at the length of the pass before it of
    # the same kind, end after --seconds.
    modes = (False, True) if args.trace else (False,)
    passes, crashes, lengths = [], [], {}
    started = time.perf_counter()
    while True:
        traced = modes[len(passes) % len(modes)]
        if (len(passes) >= len(modes) and time.perf_counter() - started
                + lengths[traced] > args.seconds):
            break
        t0 = time.perf_counter()
        p = run_pass(run_dir, len(passes), traced, args.inject, t_start)
        lengths[traced] = time.perf_counter() - t0
        if "crash" in p:
            crashes.append(p["crash"])
            break
        passes.append(p)

    attempted = (sum(len(p["rows"]) for p in passes)
                 + len(instances) * len(crashes))
    failures = [f"{r['name']}: {r['error']}" for p in passes for r in p["rows"]
                if not r["ok"]]
    failed = len(failures) + len(instances) * len(crashes)
    failures += crashes

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    fp = fingerprint(traced[0] if traced else passes[0]) if passes else {}
    if any(fingerprint(p) != fp for p in traced):
        failures.append("exact counts differ between traced passes")
        failed += 1

    metrics = {}
    if plain and not crashes:
        if args.trace and not failed:
            totals = [pass_summary(p)["total_s"] for p in traced]
            chosen = traced[lower_median_index(totals)]
            metrics = layer_metrics(
                chosen, instances, end_to_end(plain)["total_s"],
                end_to_end(traced)["total_s"], tuple(workloads.DIMACS_OPTIMA))
        elif not args.trace:
            metrics = end_to_end(plain)

    record = {
        "meta": machine_info(mewclique, args, len(passes)),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()},
        "passes": [dict(pass_summary(p), traced=p["traced"],
                        **({"layers": p["layers"]} if p["traced"] else {}))
                   for p in passes],
        "fingerprint": fp,
        "spans": [p["spans"] for p in traced],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))
    (run_dir / "inputs.json").unlink()

    kinds = f"{len(plain)} untraced" + (f", {len(traced)} traced" if traced else "")
    print(f"workload {args.workload}  seed {args.seed}  passes: {kinds}  "
          f"instances per pass: {len(instances)}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    basis = ("traced pass with the median total" if args.trace
             else f"medians over {len(plain)} passes")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units.get(k, '')}  ({basis})")
    if args.trace and metrics:
        layers = ("io.parse_s", "io.weight_s", "graph.build_s", "pls.s",
                  "solver.self_s", "bounds.s", "trace.glue_s")
        print(f"accounted: {' + '.join(layers)} = "
              f"{sum(metrics[k] for k in layers):.6f} s of trace.total_s "
              f"{metrics['trace.total_s']:.6f} s")
    print(f"record: {run_dir.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items() if k in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

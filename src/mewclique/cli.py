"""Command line front end.

Subcommands: ``solve`` one instance, ``gen`` a seeded random instance,
``bench`` a list of instances into a CSV table, ``oracle`` for
brute-force cross-checks on small instances.

Exit codes: 0 for a proven optimum, 2 when a time or node limit cut the
search short, 1 for any error. Report schema (JSON keys and CSV column
order) is fixed: instance, n, density, lb, pls_time, solve_time,
total_time, best_weight, clique, iterations, proven_optimal. Bench rows
append an ``error`` column and the table ends with a TOTAL summary row.
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from . import io as instance_io
from .oracle import brute_force_mewc
from .pls import PlsConfig, pls
from .solver import SolverConfig, solve

REPORT_FIELDS = ("instance", "n", "density", "lb", "pls_time", "solve_time",
                 "total_time", "best_weight", "clique", "iterations",
                 "proven_optimal")
BENCH_FIELDS = REPORT_FIELDS + ("error",)
TIME_FIELDS = ("pls_time", "solve_time", "total_time")


def _load_instance(path, auto_weight, unit_weights):
    path = Path(path)
    text = path.read_text(encoding="latin-1")  # as io.read_instance
    if instance_io.instance_format(text) == "wedge":
        if auto_weight or unit_weights:
            raise ValueError("weighting flags only apply to DIMACS instances")
        return instance_io.parse_weighted_edge_list(text)
    if auto_weight and unit_weights:
        raise ValueError("--dimacs-auto-weight and --unit-weights are mutually exclusive")
    if not auto_weight and not unit_weights:
        raise ValueError(
            f"{path.name} is a plain DIMACS instance; "
            "pick --dimacs-auto-weight or --unit-weights"
        )
    g = instance_io.parse_dimacs(text)
    return instance_io.apply_dimacs_weights(g) if auto_weight else g


def _run_solve(path, auto_weight, unit_weights, pls_iters, seed, time_limit,
               node_limit):
    """Parse, warm-start unless pls_iters is 0, solve; returns the report
    dict. Both configs are validated first, so a bad limit costs no parse
    or warm start."""
    solver_cfg = SolverConfig(time_limit=time_limit, node_limit=node_limit)
    solver_cfg.validate()
    pls_cfg = PlsConfig(iterations=pls_iters, seed=seed) if pls_iters else None
    if pls_cfg is not None:
        pls_cfg.validate()
    g = _load_instance(path, auto_weight, unit_weights)
    c_init, pls_time = None, 0.0
    if pls_cfg is not None:
        t0 = time.perf_counter()
        c_init = pls(g, pls_cfg)
        pls_time = time.perf_counter() - t0
    result = solve(g, c_init, solver_cfg)
    return {
        "instance": Path(path).stem,
        "n": g.n,
        "density": round(g.density(), 2),
        "lb": result.initial_weight,
        "pls_time": round(pls_time, 3),
        "solve_time": round(result.elapsed, 3),
        "total_time": round(pls_time + result.elapsed, 3),
        "best_weight": result.best_weight,
        "clique": [v + 1 for v in result.best_clique],
        "iterations": result.iterations,
        "proven_optimal": result.proven_optimal,
    }


def _cell(key, value):
    if value == "" or value is None:
        return ""
    if key == "clique":
        return " ".join(str(x) for x in value)
    if key == "proven_optimal":
        return "true" if value else "false"
    if key == "density":
        return f"{value:.2f}"
    if key in TIME_FIELDS:
        return f"{value:.3f}"
    return str(value)


def _emit_report(report, fmt, stream):
    if fmt == "json":
        print(json.dumps(report, indent=2), file=stream)
    elif fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        writer.writerow([_cell(k, report[k]) for k in REPORT_FIELDS])
    else:
        for k in REPORT_FIELDS:
            print(f"{k}: {_cell(k, report[k])}", file=stream)


def _solve_opts(args):
    return dict(auto_weight=args.dimacs_auto_weight,
                unit_weights=args.unit_weights, pls_iters=args.pls_iters,
                seed=args.seed, time_limit=args.time_limit,
                node_limit=args.node_limit)


def cmd_solve(args):
    report = _run_solve(args.instance, **_solve_opts(args))
    _emit_report(report, args.output, sys.stdout)
    return 0 if report["proven_optimal"] else 2


def cmd_gen(args):
    g = instance_io.gen_random(args.n, args.density, args.wmin, args.wmax,
                               args.seed)
    text = instance_io.write_weighted_edge_list(g)
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {args.out} (n={g.n}, m={g.m})")
    return 0


def _read_manifest(path):
    # entries are file names: kept as the bytes the file holds, split
    # only at b"\n" and cut only at ASCII blanks
    base = Path(path).parent
    out = []
    for raw in Path(path).read_bytes().split(b"\n"):
        entry = raw.strip()
        if not entry or entry.startswith(b"#"):
            continue
        p = Path(os.fsdecode(entry))
        out.append(str(p if p.is_absolute() else base / p))
    return out


def _error_row(path, message):
    row = {k: "" for k in BENCH_FIELDS}
    row["instance"] = Path(path).stem
    row["error"] = message
    return row


def _bench_worker(task):
    path, opts = task
    try:
        row = _run_solve(path, **opts)
        row["error"] = ""
    except Exception as exc:  # keep the harness going, record the failure
        row = _error_row(path, str(exc))
    return row


def _bench_pool(tasks, jobs):
    """Bench rows from `jobs` worker processes, in task order. A worker
    that dies (killed, out of memory) breaks the whole pool; every task
    left without a result gets an error row instead."""
    futures = []
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for task in tasks:
                futures.append(pool.submit(_bench_worker, task))
    except BrokenProcessPool:
        pass  # broke while tasks were still being submitted
    rows = [_error_row(path, "worker process died before returning a result")
            for path, _ in tasks]
    for i, fut in enumerate(futures):
        try:
            rows[i] = fut.result()
        except BrokenProcessPool:
            pass  # keeps the error row
    return rows


def cmd_bench(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    paths = list(args.instances)
    if args.manifest:
        paths.extend(_read_manifest(args.manifest))
    if not paths:
        raise ValueError("no instances given (positional paths or --manifest)")
    rows = _bench_pool([(p, _solve_opts(args)) for p in paths], args.jobs)

    total = {k: "" for k in BENCH_FIELDS}
    total["instance"] = "TOTAL"
    done = [r for r in rows if not r["error"]]
    for key in TIME_FIELDS + ("iterations",):
        total[key] = sum(r[key] for r in done) if done else 0

    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(BENCH_FIELDS)
        for row in rows + [total]:
            writer.writerow([_cell(k, row[k]) for k in BENCH_FIELDS])
    finally:
        if args.out:
            stream.close()

    if any(r["error"] for r in rows):
        return 1
    if any(not r["proven_optimal"] for r in rows):
        return 2
    return 0


def cmd_oracle(args):
    g = _load_instance(args.instance, args.dimacs_auto_weight,
                       args.unit_weights)
    clique, weight = brute_force_mewc(g, n_limit=args.n_limit)
    print(f"oracle_weight: {weight}")
    print(f"clique: {' '.join(str(v + 1) for v in clique)}")
    if args.check:
        result = solve(g)
        if result.best_weight != weight:
            print(f"mismatch: solver found {result.best_weight}, "
                  f"oracle found {weight}", file=sys.stderr)
            return 1
        print(f"solver agrees: {result.best_weight}")
    return 0


def _add_instance_flags(p):
    p.add_argument("--dimacs-auto-weight", action="store_true",
                   help="weight DIMACS edge (i, j) as ((i + j) mod 200) + 1")
    p.add_argument("--unit-weights", action="store_true",
                   help="keep unit weights on a plain DIMACS instance")


def _add_solver_flags(p):
    p.add_argument("--pls-iters", type=int, default=10,
                   help="warm-start iterations (default 10, 0 for none)")
    p.add_argument("--no-pls", action="store_const", const=0, dest="pls_iters",
                   help="same as --pls-iters 0; the later of the two wins")
    p.add_argument("--seed", type=int, default=0, help="warm-start seed")
    p.add_argument("--time-limit", type=float, default=None,
                   help="seconds before giving up on optimality")
    p.add_argument("--node-limit", type=int, default=None,
                   help="search nodes before giving up on optimality")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mewclique",
        description="Exact maximum edge-weight clique solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--output", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="solve many instances into a CSV table")
    p.add_argument("instances", nargs="*")
    p.add_argument("--manifest",
                   help="file with one instance path per line, # comments; "
                        "relative paths resolve against the manifest")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force a small instance")
    p.add_argument("instance")
    _add_instance_flags(p)
    p.add_argument("--n-limit", type=int, default=20)
    p.add_argument("--check", action="store_true",
                   help="also run the solver and fail on disagreement")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

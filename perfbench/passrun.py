"""One benchmark pass, in a fresh process so that its peak RSS is its own.

Usage: python3 perfbench/passrun.py INPUTS OUT [--trace] [--inject drop-vertex]

Reads the instances that run.py wrote to INPUTS, then solves them one
at a time along the path of ``mewclique solve``: parse (and
``apply_dimacs_weights`` for DIMACS text), ``pls`` warm start, ``solve``.
Each instance is timed from its text in hand to its proven optimum;
the answer gate (``is_clique``, ``set_weight``, the reference optimum)
runs after the clock stops. A ``ReferenceClock`` samples the machine's
speed all through the pass, and every time written out is scaled by it
to the reference machine's seconds (see refclock.py); the wall time is
kept beside it. Writes per-instance rows, the pass's peak RSS and, with
--trace, per-layer times and exact counts to OUT.
"""

import argparse
import gc
import importlib
import json
import resource
import sys
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refclock import ReferenceClock  # noqa: E402  (after the path set-up)
from tracer import Tracer  # noqa: E402

PLS_ITERATIONS = 10  # the CLI's default warm start
PLS_SEED = 0
# An untraced pass solves an instance again, up to REPEAT_MAX times in
# all, until it has taken REPEAT_S: a short instance then has several
# times in every pass, a long one (keller4, a sparse-large graph) one.
REPEAT_MAX = 3
REPEAT_S = 0.5


def drop_vertex(solve):
    """Wrap solve to return a clique missing one vertex (self-test only)."""
    def wrong(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.best_clique = type(res.best_clique)(list(res.best_clique)[1:])
        return res
    return wrong


def run_instance(inst, mods, tracer, now):
    mio, mpls, msolver, mgraph = mods
    row = {"name": inst["name"], "ok": False, "error": None}
    text = inst["text"]
    root = tracer.open_root(inst["name"]) if tracer else None
    t0 = t1 = now()
    try:
        if inst["format"] == "dimacs":
            g = mio.apply_dimacs_weights(mio.parse_dimacs(text))
        else:
            g = mio.parse_weighted_edge_list(text)
        t1 = now()
        res = msolver.solve(g, mpls.pls(g, mpls.PlsConfig(
            iterations=PLS_ITERATIONS, seed=PLS_SEED)))
        t2 = now()
    except Exception:
        t2 = now()
        row["error"] = traceback.format_exc(limit=3)
    if tracer:
        tracer.close_root(root, t0, t2)
    # scaled to the reference machine once the pass is over
    row["span"] = (t0, t2)
    row["setup_s"] = t1 - t0
    row["total_s"] = t2 - t0
    if row["error"]:
        return row
    c = res.best_clique
    row.update(n=g.n, best_weight=res.best_weight, pls_weight=res.initial_weight,
               nodes=res.iterations)
    if not res.proven_optimal:
        row["error"] = "unproven"
    elif not mgraph.is_clique(g, c):
        row["error"] = "returned set is not a clique"
    elif mgraph.set_weight(g, c) != res.best_weight:
        row["error"] = (f"reported weight {res.best_weight} but the clique "
                        f"weighs {mgraph.set_weight(g, c)}")
    elif res.best_weight != inst["optimum"]:
        row["error"] = f"weight {res.best_weight}, optimum {inst['optimum']}"
    else:
        row["ok"] = True
    return row


def layer_times(tracer, factors):
    """Per-layer seconds of this pass, each span scaled by its instance's
    reference factor, plus exact counts per instance."""
    own = tracer.self_times()
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    builds = defaultdict(int)
    counts = {}
    for sid, _, name, inst, start, end, extra in tracer.spans:
        f = factors[inst]
        self_s[name] += own[sid] * f
        dur_s[name] += (end - start) * f
        if name == "graph.build":
            builds[inst] += 1
        if extra:
            self_s["bounds.run"] += extra["s"] * f
            counts[inst] = {k: extra[k] for k in ("calls", "colored", "classes",
                                                   "root_ub")}
    for inst, c in counts.items():
        c["graph_builds"] = builds[inst]
    return {
        "io.parse_s": self_s["io.parse"],
        "io.weight_s": self_s["io.weight"],
        "graph.build_s": self_s["graph.build"],
        "pls.s": self_s["pls"],
        "solver.s": dur_s["solver.solve"],
        "solver.self_s": self_s["solver.solve"],
        "bounds.s": self_s["bounds.run"],
        "trace.glue_s": self_s["instance"],
        "trace.total_s": dur_s["instance"],
    }, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inject", choices=("drop-vertex",))
    args = ap.parse_args()

    instances = json.loads(Path(args.inputs).read_text())["instances"]
    mods = tuple(importlib.import_module(f"mewclique.{m}")
                 for m in ("io", "pls", "solver", "graph"))
    clock = ReferenceClock()
    tracer = Tracer(clock.now) if args.trace else None
    if tracer:
        tracer.install()
    if args.inject:
        mods[2].solve = drop_vertex(mods[2].solve)

    # what the pass holds from here on (inputs, modules) is never
    # garbage, so keep it out of every collection
    gc.freeze()
    clock.start()
    rows = []
    try:
        for inst in instances:
            spent = 0.0
            for _ in range(1 if tracer else REPEAT_MAX):
                # start every solve from an empty young generation, so that
                # the collections inside it fall at the same points each time
                gc.collect()
                rows.append(run_instance(inst, mods, tracer, clock.now))
                spent += rows[-1]["total_s"]
                if rows[-1]["error"] or spent >= REPEAT_S:
                    break
    finally:
        clock.stop()
    factors = {}  # traced passes solve each instance once
    for r in rows:
        f = factors[r["name"]] = clock.factor(*r.pop("span"))
        r["wall_total_s"] = r["total_s"]
        r["setup_s"] *= f
        r["total_s"] *= f
    out = {"rows": rows,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "reference": clock.summary()}
    if tracer:
        out["layers"], out["counts"] = layer_times(tracer, factors)
        spans = Path(args.out).with_suffix(".spans.jsonl")
        tracer.write(spans)
        out["spans"] = spans.name
    Path(args.out).write_text(json.dumps(out))


if __name__ == "__main__":
    main()

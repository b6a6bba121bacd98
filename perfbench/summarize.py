"""Median and quartile spread of end-to-end metrics over several runs.

Usage: python3 perfbench/summarize.py RECORD... [--json]

RECORDs are result.json files written by run.py, for example every
.bench_out/dimacs9-seed*-trace0/result.json after ten runs with
different seeds. Records are grouped by workload and traced flag. Per
metric this prints the run count, the median, the first and third
quartile (statistics.quantiles with n=4) and the spread, (q3 - q1) /
median, which BENCHMARK.json's bounds are meant to exceed. --json
prints the same as one JSON object instead.
"""

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths):
    groups = defaultdict(list)
    for path in paths:
        rec = json.load(open(path))
        key = f"{rec['meta']['workload']}{' traced' if rec['meta']['traced'] else ''}"
        groups[key].append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name, first in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            metrics[name] = {"unit": first["unit"], "runs": len(values),
                             "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        out[key] = {"seeds": sorted(r["meta"]["workload_seed"] for r in recs),
                    "failed": sum(r["failed"] for r in recs),
                    "attempted": sum(r["attempted"] for r in recs),
                    "metrics": metrics}
    return out


def main(argv):
    paths = [a for a in argv if a != "--json"]
    if not paths:
        sys.exit(__doc__)
    out = summarize(paths)
    if "--json" in argv:
        print(json.dumps(out, indent=1))
        return 0
    for key, group in out.items():
        print(f"{key}: {len(group['seeds'])} runs, seeds {group['seeds']}, "
              f"failed {group['failed']} of {group['attempted']}")
        for name, m in group["metrics"].items():
            print(f"  {name:24s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

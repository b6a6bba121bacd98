"""Self-test of the benchmark itself, in about half a minute.

Usage: python3 perfbench/selftest.py

Checks, on shrunken versions of every workload in BENCHMARK.json:
  * an untraced run emits exactly the end_to_end metrics and a traced
    run exactly the per_layer metrics, each with its declared unit,
    and both pass the answer gate;
  * two traced runs with one seed give bit-identical fingerprints;
  * a solve that drops one clique vertex is caught: every instance
    counts as failed and the exit code is nonzero;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark exit nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", str(SEED),
                           "--seconds", "1", "--shrink", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for w in (wl["name"] for wl in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run("--workload", w, "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in (out or {}).get("metrics", {}).items()}
            check(code == 0 and out is not None and out["correct"]
                  and out["failed"] == 0, f"{w} trace {trace}: correct, exit 0")
            check(got == want, f"{w} trace {trace}: every {key} metric with its unit"
                  + ("" if got == want else f" (missing {sorted(want.keys() - got.keys())},"
                     f" extra {sorted(got.keys() - want.keys())})"))
        record = ROOT / ".bench_out" / f"{w}-seed{SEED}-trace1" / "result.json"
        first = ROOT / ".bench_out" / f"selftest-{w}-first.json"
        shutil.copy(record, first)
        run("--workload", w, "--trace", "1")
        same = subprocess.run([sys.executable, "perfbench/compare.py", str(first),
                               str(record)], cwd=ROOT, capture_output=True).returncode
        first.unlink()
        check(same == 0, f"{w}: fingerprint identical across runs")
        code, out = run("--workload", w, "--trace", "0", "--inject", "drop-vertex")
        check(code != 0 and out is not None and not out["correct"]
              and out["failed"] == out["attempted"],
              f"{w}: a dropped clique vertex fails every instance, exit {code}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run("--workload", "dimacs9", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and out is None, "without the sources: nonzero exit, no result")

    print(f"{len(problems)} failed checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

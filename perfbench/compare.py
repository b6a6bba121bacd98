"""Compare the exact-count fingerprints of two benchmark records.

Usage: python3 perfbench/compare.py A.json B.json

A and B are result.json records of run.py (or the committed
perfbench/baseline-fingerprint-dimacs9.json). Per instance the
fingerprint holds best_weight and, from traced runs, solver.nodes,
bounds.calls, bounds.colored and bounds.classes. A change that does not
alter the algorithm must leave all of them identical. Exits 0 when the
instance sets match and every value both records hold is equal, 1 with
a list of the differences otherwise.
"""

import json
import sys


def diff(a, b):
    out = [f"only in first: {n}" for n in sorted(a.keys() - b.keys())]
    out += [f"only in second: {n}" for n in sorted(b.keys() - a.keys())]
    for name in sorted(a.keys() & b.keys()):
        for key in sorted(a[name].keys() & b[name].keys()):
            if a[name][key] != b[name][key]:
                out.append(f"{name} {key}: {a[name][key]} != {b[name][key]}")
    return out


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.load(open(path))["fingerprint"] for path in argv)
    problems = diff(a, b)
    for line in problems:
        print(line)
    print(f"{len(a.keys() & b.keys())} instances compared, "
          f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

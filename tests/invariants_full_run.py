"""Invariants mode over every bundled instance, cold.

Each of the benchmark's nine instances must be proven at its optimum,
and johnson16-2-4, whose full proof takes 140,558 nodes, must stop at
the node limit. On the way, invariants mode checks every node's scores,
bounds and look-ahead skips against the definitions in
mewclique.bounds. This is not a tier-1 test (it takes about half a
minute); CI runs it as a step of its own. From the root of a checkout:

    PYTHONPATH=src python tests/invariants_full_run.py
"""

import time

from conftest import BENCHMARK_OPTIMA, DATA_DIR, load_dimacs
from mewclique import SolverConfig, solve

NODE_LIMIT = 20000


def main():
    cfg = SolverConfig(assertion_level="invariants", node_limit=NODE_LIMIT)
    names = sorted(path.stem for path in DATA_DIR.glob("*.clq"))
    assert names == sorted([*BENCHMARK_OPTIMA, "johnson16-2-4"]), names
    for name in names:
        start = time.perf_counter()
        res = solve(load_dimacs(name), config=cfg)
        print(f"{name}: weight {res.best_weight}, {res.iterations} nodes, "
              f"proven {res.proven_optimal}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        if name in BENCHMARK_OPTIMA:
            assert res.proven_optimal, name
            assert res.best_weight == BENCHMARK_OPTIMA[name], name
        else:
            assert not res.proven_optimal and res.iterations == NODE_LIMIT, name


if __name__ == "__main__":
    main()

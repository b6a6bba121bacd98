"""Every bundled instance solved and certified, cold and warm.

Each of the benchmark's nine instances must be proven at its optimum,
once cold and once after the benchmark's warm start (PLS, 10
iterations, seed 0), where the root branches choose their coloring
order against a different incumbent. johnson16-2-4, whose full proof
takes 142,545 nodes cold, must stop at the node limit. A sparse-large
sized graph (n = 3000, density 0.005), whose root coloring makes
classes of hundreds of members, must be proven at its brute-force
optimum, cold and warm. Each run goes through conftest.checked_solve,
which records the run's colorings and replays its search, checking
every node's plan against the definitions in mewclique.bounds and
making every prune and skip itself. This is not a tier-1 test (it takes
34-49 s on a shared 2-CPU VM); CI runs it as a step of its own. From
the root of a checkout:

    PYTHONPATH=src python tests/checked_full_run.py
"""

import time

from conftest import BENCHMARK_OPTIMA, DATA_DIR, checked_solve, load_dimacs
from mewclique import (PlsConfig, SolverConfig, brute_force_mewc,
                       gen_random, pls)

NODE_LIMIT = 20000


def main():
    cfg = SolverConfig(node_limit=NODE_LIMIT)
    names = sorted(path.stem for path in DATA_DIR.glob("*.clq"))
    assert names == sorted([*BENCHMARK_OPTIMA, "johnson16-2-4"]), names
    sparse = gen_random(3000, 0.005, 1, 200, seed=1)
    optima = {**BENCHMARK_OPTIMA,
              "sparse3000": brute_force_mewc(sparse, n_limit=sparse.n)[1]}
    runs = [(name, False) for name in names]
    runs += [(name, True) for name in sorted(BENCHMARK_OPTIMA)]
    runs += [("sparse3000", False), ("sparse3000", True)]
    for name, warm in runs:
        start = time.perf_counter()
        g = sparse if name == "sparse3000" else load_dimacs(name)
        c_initial = pls(g, PlsConfig(iterations=10, seed=0)) if warm else None
        res = checked_solve(g, c_initial, cfg)
        print(f"{name} ({'warm' if warm else 'cold'}): weight "
              f"{res.best_weight}, {res.iterations} nodes, proven "
              f"{res.proven_optimal}, {time.perf_counter() - start:.1f} s",
              flush=True)
        if name in optima:
            assert res.proven_optimal, name
            assert res.best_weight == optima[name], name
        else:
            assert not res.proven_optimal and res.iterations == NODE_LIMIT, name


if __name__ == "__main__":
    main()

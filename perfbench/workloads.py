"""Benchmark workloads: instance texts and their reference optima.

Everything here runs before any timing starts. Each instance is a dict
with ``name``, ``format`` ("dimacs" or "wedge"), ``text`` and
``optimum``. Generated instances go through the same text route a user
of ``mewclique solve`` takes: serialized with ``write_weighted_edge_list``
here, parsed back with ``parse_weighted_edge_list`` inside the timed pass.
The oracle that supplies their optima also runs here, never in a pass.
"""

import random

from mewclique.io import gen_random, write_weighted_edge_list
from mewclique.oracle import brute_force_mewc

NAMES = ("dimacs9", "random-small", "sparse-large")

# Known optima under apply_dimacs_weights, as pinned by the acceptance
# suite (criterion 2).
DIMACS_OPTIMA = {
    "johnson8-2-4": 192,
    "hamming6-4": 396,
    "johnson8-4-4": 6552,
    "hamming6-2": 32736,
    "MANN_a9": 5460,
    "c-fat200-1": 7734,
    "keller4": 6745,
    "brock200_2": 6542,
    "p_hat300-1": 3321,
}
# The four instances that each solve in well under a second; the
# shrunken dimacs9 keeps only these.
DIMACS_SMALL = ("johnson8-2-4", "hamming6-4", "johnson8-4-4", "c-fat200-1")

RANDOM_COUNT = 300
RANDOM_DENSITIES = (0.2, 0.5, 0.8)
SPARSE_COUNT = 2
SPARSE_N = 3000  # keep >= 3000 so the n x n weight matrix dominates memory
SPARSE_DENSITY = 0.005


def build(name, seed, root, shrink=False):
    """Instances of workload `name` for workload seed `seed`.

    root is the repository checkout (the DIMACS files live under
    tests/data). shrink gives a seconds-long version for the self-test.
    """
    if name == "dimacs9":
        return _dimacs9(root, shrink)
    rng = random.Random(seed)
    if name == "random-small":
        return _random_small(rng, 12 if shrink else RANDOM_COUNT)
    if name == "sparse-large":
        return _sparse_large(rng, 1 if shrink else SPARSE_COUNT,
                             300 if shrink else SPARSE_N)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _dimacs9(root, shrink):
    # The files are fixed, so the seed changes nothing on this workload.
    names = DIMACS_SMALL if shrink else tuple(DIMACS_OPTIMA)
    data = root / "tests" / "data"
    return [{"name": n, "format": "dimacs",
             "text": (data / f"{n}.clq").read_text(),
             "optimum": DIMACS_OPTIMA[n]} for n in names]


def _random_small(rng, count):
    # The acceptance-suite protocol: n spread evenly over 8..18 within
    # each density, weights 1..10; the seed draws the graphs.
    out = []
    for i in range(count):
        di, k = i % 3, i // 3
        n = 8 + (k + di) % 11
        density = RANDOM_DENSITIES[di]
        g = gen_random(n, density, 1, 10, seed=rng.randrange(2**31))
        out.append({"name": f"r{i:03d}-n{n}-d{density}", "format": "wedge",
                    "text": write_weighted_edge_list(g),
                    "optimum": brute_force_mewc(g)[1]})
    return out


def _sparse_large(rng, count, n):
    out = []
    for i in range(count):
        g = gen_random(n, SPARSE_DENSITY, 1, 200, seed=rng.randrange(2**31))
        # a sparse graph has few cliques, so brute force stays cheap here
        out.append({"name": f"sparse{i}-n{n}", "format": "wedge",
                    "text": write_weighted_edge_list(g),
                    "optimum": brute_force_mewc(g, n_limit=g.n)[1]})
    return out

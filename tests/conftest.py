import os
import warnings
from contextlib import suppress
from pathlib import Path

import pytest

from mewclique import (ColoringWorkspace, PlsConfig, VertexSet,
                       WeightedGraph, apply_dimacs_weights, is_clique,
                       parse_dimacs, pls, set_weight, solve)

# Hypothesis reports a failing example through hypothesis.extra._patching,
# whose libcst import raises a DeprecationWarning; filterwarnings = error
# would turn that into an INTERNALERROR that ends the session. Imported
# once here with warnings off; without libcst (or hypothesis) a no-op.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"

# The benchmark's dimacs9 workload: the bundled instances it solves,
# each with its optimum after auto-weighting.
BENCHMARK_OPTIMA = {
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

# Hand-checked 6-vertex sample used across the suite. Edge-only optimum
# is {3, 4, 5} with weight 4 + 7 + 8 = 19; with the vertex (join)
# weights the same clique is optimal at 19 + 5 + 8 + 3 = 35.
SIX_EDGES = [(0, 1, 1), (0, 4, 5), (1, 2, 2), (1, 4, 5),
             (2, 3, 6), (3, 4, 4), (3, 5, 7), (4, 5, 8)]
SIX_VERTEX_WEIGHTS = [2, 6, 3, 5, 8, 3]


@pytest.fixture
def g6():
    return WeightedGraph(6, SIX_EDGES)


@pytest.fixture
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def dimacs_warm_solves():
    """The benchmark's dimacs9 pipeline, run once per session: each
    instance auto-weighted, warm-started by PLS (10 iterations, seed 0)
    and solved. Maps instance name to its SolveResult."""
    runs = {}
    for name in BENCHMARK_OPTIMA:
        g = load_dimacs(name)
        runs[name] = solve(g, pls(g, PlsConfig(iterations=10, seed=0)))
    return runs


@pytest.fixture(scope="session")
def johnson16_cold_solve():
    """tests/data/johnson16-2-4.clq, the bundled instance harder than
    the benchmark's nine, auto-weighted and solved cold once per session."""
    return solve(load_dimacs("johnson16-2-4"))


def load_dimacs(name):
    """The bundled DIMACS instance tests/data/<name>.clq, auto-weighted."""
    return apply_dimacs_weights(parse_dimacs((DATA_DIR / f"{name}.clq").read_text()))


def checkout_env(**overrides):
    """os.environ plus overrides, with this checkout's src first on
    PYTHONPATH: the environment of a subprocess that imports mewclique."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def interrupting_workspace(calls):
    """A ColoringWorkspace class whose run raises KeyboardInterrupt
    once it has run `calls` times, as Ctrl-C would mid-search; its
    copies share the count. Monkeypatch it into mewclique.solver."""
    left = [calls]

    class Interrupting(ColoringWorkspace):
        def run(self, s_mask, keys):
            if not left[0]:
                raise KeyboardInterrupt
            left[0] -= 1
            return super().run(s_mask, keys)

    return Interrupting


def with_zero_weights(g):
    """g with every edge weight taken mod 4, so about a fifth of the
    edges weigh 0: still edges, but adding to no score, like non-edges."""
    return WeightedGraph(g.n, [(u, v, w % 4) for u, v, w in g.edges()])


def dumb_best_weight(g, join=None):
    """Max clique weight, plus the members' join weights when given, by
    scanning all 2^n subsets; n <= ~14 only."""
    best = 0
    for mask in range(1 << g.n):
        vs = VertexSet.from_mask(mask)
        if is_clique(g, vs):
            w = set_weight(g, vs) + (sum(join[v] for v in vs) if join else 0)
            if w > best:
                best = w
    return best


def count_cliques(g):
    """Number of cliques of g, the empty one included. Independent of
    the solver: plain extension by higher-index common neighbors."""
    adj = g.adj_bits
    count = 0

    def rec(cand):
        nonlocal count
        count += 1
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            rec(cand & adj[v])

    rec((1 << g.n) - 1 if g.n else 0)
    return count


def induced_weighted(g, members_mask, join_weights):
    """(graph, join weights): the graph on the same index space keeping
    only edges inside the mask, and the given join weights on its
    members (zero elsewhere). Used to hand subproblems to the
    brute-force oracle."""
    edges = [(u, v, w) for u, v, w in g.edges()
             if (members_mask >> u) & 1 and (members_mask >> v) & 1]
    join = [join_weights[v] if (members_mask >> v) & 1 else 0
            for v in range(g.n)]
    return WeightedGraph(g.n, edges), join

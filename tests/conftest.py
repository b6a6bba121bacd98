from pathlib import Path

import pytest

from mewclique import VertexSet, WeightedGraph, is_clique, set_weight

DATA_DIR = Path(__file__).parent / "data"

# Hand-checked 6-vertex sample used across the suite. Edge-only optimum
# is {3, 4, 5} with weight 4 + 7 + 8 = 19; with the vertex weights the
# same clique is optimal at 19 + 5 + 8 + 3 = 35.
SIX_EDGES = [(0, 1, 1), (0, 4, 5), (1, 2, 2), (1, 4, 5),
             (2, 3, 6), (3, 4, 4), (3, 5, 7), (4, 5, 8)]
SIX_VERTEX_WEIGHTS = [2, 6, 3, 5, 8, 3]


@pytest.fixture
def g6():
    return WeightedGraph(6, SIX_EDGES)


@pytest.fixture
def g6_vw():
    return WeightedGraph(6, SIX_EDGES, vertex_weights=SIX_VERTEX_WEIGHTS)


@pytest.fixture
def data_dir():
    return DATA_DIR


def with_zero_weights(g):
    """g with every edge weight taken mod 4, so about a fifth of the
    edges weigh 0: still edges, but adding to no score, like non-edges."""
    return WeightedGraph(g.n, [(u, v, w % 4) for u, v, w in g.edges()])


def dumb_best_weight(g):
    """Max clique weight by scanning all 2^n subsets; n <= ~14 only."""
    best = 0
    for mask in range(1 << g.n):
        vs = VertexSet.from_mask(mask)
        if is_clique(g, vs):
            w = set_weight(g, vs)
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


def induced_weighted(g, members_mask, vertex_weights):
    """Graph on the same index space keeping only edges inside the mask,
    with the given per-vertex weights on its members (zero elsewhere).
    Used to hand subproblems to the brute-force oracle."""
    edges = [(u, v, w) for u, v, w in g.edges()
             if (members_mask >> u) & 1 and (members_mask >> v) & 1]
    vw = [vertex_weights[v] if (members_mask >> v) & 1 else 0
          for v in range(g.n)]
    return WeightedGraph(g.n, edges, vertex_weights=vw)

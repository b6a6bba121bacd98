"""Brute-force reference solvers for small instances.

Deliberately independent of the branch-and-bound: no bounds, no
coloring, no shared search state, just a DFS over all cliques that
extends the current one with higher-index common neighbors. Used as
ground truth in tests and behind the CLI ``oracle`` subcommand.
"""

from .graph import VertexSet, WeightedGraph, checked_join_weight

DEFAULT_SIZE_LIMIT = 20


def _best_clique(g: WeightedGraph, vwt):
    """Return (members, weight) of a clique maximizing its edge weight
    plus the vertex weights vwt[v] of its members.

    Enumerates every clique in lexicographic DFS order and keeps the
    first strictly better one, so ties resolve to the lexicographically
    smallest optimal set (the empty clique, weight 0, is the baseline).
    """
    n = g.n
    adj = g.adj_bits
    rows = g.weight_rows
    best_members = ()
    best_w = 0
    members = []

    def extend(cand, weight):
        nonlocal best_members, best_w
        if weight > best_w:
            best_w = weight
            best_members = tuple(members)
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            row = rows[v]
            gain = vwt[v] + sum(row[u] for u in members)
            members.append(v)
            extend(cand & adj[v], weight + gain)
            members.pop()

    extend((1 << n) - 1 if n else 0, 0)
    return best_members, best_w


def _check_size(g, n_limit):
    if g.n > n_limit:
        raise ValueError(
            f"instance too large for brute force ({g.n} vertices > limit {n_limit})"
        )


def brute_force_mewc(g: WeightedGraph, n_limit: int = DEFAULT_SIZE_LIMIT):
    """Exhaustive maximum edge-weight clique; returns (VertexSet, weight).

    Refuses instances above n_limit to keep runtimes bounded.
    """
    _check_size(g, n_limit)
    members, weight = _best_clique(g, [0] * g.n)
    return VertexSet(members), weight


def brute_force_vertex_edge_mewc(g: WeightedGraph, join_weights,
                                 n_limit: int = DEFAULT_SIZE_LIMIT) -> int:
    """Exact maximum over the cliques of g of edge weight plus members'
    join weights (join_weights maps or indexes every vertex of g)."""
    _check_size(g, n_limit)
    vwt = [checked_join_weight(join_weights, v) for v in range(g.n)]
    return _best_clique(g, vwt)[1]

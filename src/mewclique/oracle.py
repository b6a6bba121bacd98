"""Brute-force reference solver for small instances.

Deliberately independent of the branch-and-bound: no bounds, no
coloring, no shared search state, just a DFS over all cliques that
extends the current one with higher-index common neighbors. One entry
point serves plain MEWC and, with join weights, the vertex-and-edge-
weighted problem the bounds relax to: the tests' ground truth, and the
CLI ``oracle`` subcommand.
"""

from .graph import VertexSet, WeightedGraph, checked_join_weight

DEFAULT_SIZE_LIMIT = 20


def brute_force_mewc(g: WeightedGraph, join_weights=None,
                     n_limit: int = DEFAULT_SIZE_LIMIT):
    """Exhaustive maximum edge-weight clique; returns (VertexSet, weight).

    With join_weights (mapping or indexing every vertex of g), a clique's
    weight also counts its members' join weights. Refuses instances above
    n_limit to keep runtimes bounded. Enumerates every clique in
    lexicographic DFS order and keeps the first strictly better one, so
    ties resolve to the lexicographically smallest optimal set (the
    empty clique, weight 0, is the baseline).
    """
    n = g.n
    if n > n_limit:
        raise ValueError(f"instance too large for brute force "
                         f"({n} vertices > limit {n_limit})")
    vwt = [0 if join_weights is None else checked_join_weight(join_weights, v)
           for v in range(n)]
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
    return VertexSet(best_members), best_w

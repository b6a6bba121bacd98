"""Exact branch-and-bound search for the maximum edge-weight clique.

Each node carries the current clique C and the candidate set S of
vertices adjacent to all of C. ``expand`` has one branch loop: it asks
the coloring pass (see :mod:`mewclique.bounds`) for a branch order over
S and a per-branch upper bound, and explores a branch only if clique
weight plus bound strictly beats the incumbent. Candidates already
branched on at this node are excluded from child candidate sets, so
every clique is visited at most once. A node's whole state is in its
arguments: the clique C as a bitmask, its weight, and one packed key
per candidate v holding v's join weight jw(v), the edge weight between
v and C. Nothing is shared between nodes, so nothing is rolled back:
a child's keys are its parent's keys of the child's candidates, each
plus its edge to the branch vertex, built in one walk over the child.

That walk also looks ahead. Say branch vertex p sits in color class
C_i of this node's coloring, score(u) are the scores of this node's
pass and child = remaining ∩ N(p), which lies in C_0 ∪ ... ∪ C_{i-1}.
A clique K ⊆ child extending C + p has at most one member per class,
and each of its internal edges is charged, at the endpoint in the later
class, to a heaviest-edge term of that endpoint's score, so

    w(C + p + K) = w(C) + jw(p) + Σ_{u∈K} (jw(u) + w(p,u)) + w(K)
                 ≤ w(C) + jw(p) + Σ_{u∈K} (score(u) + w(p,u))
                 ≤ w(C) + jw(p) + Σ_{j<i} max_{u∈C_j∩child} (score(u) + w(p,u))
                 ≤ w(C) + score(p) + Σ_{j<i} max_{u∈C_j} score(u),

the last line being p's partition bound (score(p) is jw(p) plus p's
heaviest edge into each earlier class). The walk reads the third line
first. When that beats the incumbent it tries the second line through
a recoloring of the child: with vw(u) = score(u) + w(p,u), the walk
takes the child's members by decreasing vw (ties to the higher index)
and puts each into the first new class it has no neighbor in. K holds
at most one member per new class, and each class's founder is its
heaviest member, so

    w(C + p + K) ≤ w(C) + jw(p) + Σ_{u∈K} vw(u)
                 ≤ w(C) + jw(p) + Σ_{new classes} vw(founder).

The walk stops as soon as that sum beats the incumbent. When neither
bound does, the child is skipped without a node. Every skipped subtree
holds no clique heavier than the incumbent, so the look-ahead changes
node counts, never best weights or the incumbent sequence. The two
bounds are defined by :mod:`mewclique.bounds`' ``look_ahead_*``.

The root colors lightest-first. A root branch, a child of the root, does
too and, unless that makes it a dead end, also heaviest-first; it keeps
the coloring with fewer vertices whose bound beats its slack best_w −
weight_c (ties to lightest-first), and its subtree gets that order as an
argument. Ties are broken by vertex index and nothing is random, so an
instance and configuration always give one node count.
"""

import copy
import sys
import time

from .bounds import ColoringWorkspace
from .graph import VertexSet, WeightedGraph, is_clique, set_weight


class SolverConfig:
    """Knobs for one solve run.

    Limits are wall-clock seconds and node counts; None means
    unlimited.
    """

    def __init__(self, time_limit: float | None = None,
                 node_limit: int | None = None):
        self.time_limit = time_limit
        self.node_limit = node_limit

    def validate(self):
        limit = self.time_limit
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, (int, float)):
                raise ValueError(f"time_limit must be a number, got {limit!r}")
            if not limit > 0:  # also catches NaN
                raise ValueError("time_limit must be positive when set")
        limit = self.node_limit
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int):
                raise ValueError(f"node_limit must be an int, got {limit!r}")
            if limit <= 0:
                raise ValueError("node_limit must be positive when set")


class _Stopped(Exception):
    """A node or time limit ends the search, as Ctrl-C does."""


class SolveResult:
    """Outcome of one solve run.

    iterations counts invocations of the recursive expansion, root and
    base cases included. proven_optimal is False only when a limit or Ctrl-C
    stopped the search; the incumbent is still the best clique seen.
    """

    def __init__(self, best_clique: VertexSet, best_weight: int,
                 proven_optimal: bool, iterations: int, elapsed: float,
                 initial_weight: int):
        self.best_clique = best_clique
        self.best_weight = best_weight
        self.proven_optimal = proven_optimal
        self.iterations = iterations
        self.elapsed = elapsed
        self.initial_weight = initial_weight


def solve(g: WeightedGraph, c_initial: VertexSet | None = None,
          config: SolverConfig | None = None) -> SolveResult:
    """Find a maximum edge-weight clique of g.

    c_initial, when given, must be a clique; it seeds the incumbent so
    pruning bites from the first node. Incumbent updates use strict
    inequality, so with a warm start the returned clique may be the
    initial one even when other optima of equal weight exist.
    """
    cfg = config or SolverConfig()
    cfg.validate()
    if c_initial is None:
        c_initial = VertexSet()
    if not is_clique(g, c_initial):
        raise ValueError("initial solution is not a clique")

    n = g.n
    adj = g.adj_bits
    rows = g.weight_rows

    best_mask = c_initial.mask
    best_w = initial_w = set_weight(g, c_initial)

    light = ColoringWorkspace(g)
    heavy = copy.copy(light)  # the same masks, colored heaviest-first
    heavy.heaviest_first = True
    sh = n.bit_length()  # candidate keys are jw(v) << sh | v
    low = (1 << sh) - 1
    iterations = 0
    node_limit = cfg.node_limit
    start = time.perf_counter()
    deadline = start + cfg.time_limit if cfg.time_limit is not None else None

    def expand(s_mask, weight_c, keys, cmask, plan):
        nonlocal iterations, best_mask, best_w
        if iterations == node_limit or (
                deadline is not None and time.perf_counter() > deadline):
            raise _Stopped
        iterations += 1
        if not s_mask:
            if weight_c > best_w:
                best_w = weight_c
                best_mask = cmask
            return
        order, ubs, classes, score = (plan or light).run(s_mask, keys)
        if weight_c + ubs[0] <= best_w:
            return  # a dead end: bounds are non-increasing along the order
        if plan is None and cmask:  # a root branch keeps its better order
            plan, slack, alt = light, best_w - weight_c, heavy.run(s_mask, keys)
            if sum(ub > slack for ub in alt[1]) < sum(ub > slack for ub in ubs):
                (order, ubs, classes, score), plan = alt, heavy
        key = dict(zip(map(low.__and__, keys), keys))  # v -> its key
        remaining = s_mask
        for p, ub in zip(order, ubs):
            if weight_c + ub <= best_w:
                break
            child = remaining & adj[p]
            row = rows[p]
            weight_p = weight_c + (key[p] >> sh)
            # pack the child's keys; child lies in classes before p's,
            # and per class the best vw(v) = score(v) + w(p, v) adds to
            # the look-ahead bound; past the incumbent, the child is
            # recolored heaviest-first (see the module docstring)
            child_keys = []
            vws = []  # vw(v) << sh | v per child member
            ahead = weight_p
            rest = child
            for cls in classes:
                if not rest:
                    break
                m = rest & cls
                rest ^= m
                top = 0
                while m:
                    b = m & -m
                    v = b.bit_length() - 1
                    m ^= b
                    w = row[v]
                    child_keys.append(key[v] + (w << sh))
                    w += score[v]
                    vws.append(w << sh | v)
                    if w > top:
                        top = w
                ahead += top
            if ahead > best_w:
                ahead = weight_p
                vws.sort(reverse=True)
                recolored = []
                for e in vws:
                    v = e & low
                    for ci, cls in enumerate(recolored):
                        if not adj[v] & cls:
                            recolored[ci] = cls | 1 << v
                            break
                    else:  # v founds a class, and is its heaviest member
                        recolored.append(1 << v)
                        ahead += e >> sh
                        if ahead > best_w:
                            break
            if ahead > best_w:
                expand(child, weight_p, child_keys, cmask | 1 << p, plan)
            remaining ^= 1 << p

    # recursion depth is at most one level per clique vertex
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 512))
    proven = True
    try:
        expand((1 << n) - 1, 0, list(range(n)), 0, None)
    except (_Stopped, KeyboardInterrupt):  # return the incumbent, unproven
        proven = False
    finally:
        sys.setrecursionlimit(old_limit)
        expand = None  # the closure holds itself; free it and its workspaces
    elapsed = time.perf_counter() - start

    result = VertexSet.from_mask(best_mask)
    assert is_clique(g, result) and set_weight(g, result) == best_w
    return SolveResult(
        best_clique=result,
        best_weight=best_w,
        proven_optimal=proven,
        iterations=iterations,
        elapsed=elapsed,
        initial_weight=initial_w,
    )

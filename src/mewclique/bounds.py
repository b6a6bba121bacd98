"""Coloring-based upper bounds for the edge-weight clique search.

At every search node the edge weight between each candidate vertex and
the current clique is charged to the candidate itself (its "join
weight"). The remaining problem is then to find a heavy clique in a
vertex-and-edge-weighted candidate graph, and that is bounded by a
greedy coloring argument: a clique takes at most one vertex from each
independent color class, and a vertex can additionally bring, per
earlier class, at most the single heaviest edge linking it to that
class. Accumulating those heaviest edges into a per-vertex score and
summing per-class score maxima therefore dominates every clique weight.

Building the classes greedily, each taking its vertices by increasing
score (lightest-first) or by decreasing score (heaviest-first), yields
a per-vertex pruning bound and a branch order along which those bounds
are non-increasing, as the solver's pruning loop wants. The order
decides which vertices share a class; neither is tighter everywhere.

In symbols: with classes C_0, C_1, ... in construction order, join
weights jw and score(v) = jw(v) + Σ_{j<class(v)} max_{u∈C_j∩N(v)} w(u,v),
a clique K with at most one member per class satisfies

    jw(K) + w(K) = Σ_{v∈K} (jw(v) + Σ_{u∈K, class(u)<class(v)} w(u,v))
                 ≤ Σ_{v∈K} score(v)
                 ≤ Σ_j max_{u∈C_j} score(u),

and the bound of v in class i, score(v) + Σ_{j<i} max_{u∈C_j} score(u),
covers every clique through v whose other members are colored before
v. The scores are returned per call, so the solver can tighten that
bound for a branch vertex p: adding p's edge to each term and taking
the maxima only over p's neighbors colored before it gives its
look-ahead (see :mod:`mewclique.solver`). The plain-Python functions
here define each bound once; the tests check the fast path,
:class:`ColoringWorkspace`, against them by replaying whole runs
(``checked_solve`` in ``tests/conftest.py``). It finds a heaviest
edge into a class as the plain max of the row entries over its
members: a row reads 0 at a non-edge and every weight is >= 0.
Join weights belong to a search node, not to the graph: every function
here that reads them takes them as an argument and checks each one.
"""

from operator import itemgetter

from .graph import VertexSet, WeightedGraph, checked_join_weight


def _check_coloring(g: WeightedGraph, coloring):
    union = 0
    for idx, cls in enumerate(coloring):
        g._check_subset(cls)
        cmask = cls.mask
        if cmask == 0:
            raise ValueError(f"color class {idx} is empty")
        if cmask & union:
            raise ValueError(f"color class {idx} overlaps an earlier class")
        for v in cls:
            if g.adj_bits[v] & cmask:
                raise ValueError(f"color class {idx} is not an independent set")
        union |= cmask


def coloring_scores(g: WeightedGraph, coloring, join_weights) -> dict:
    """Per-vertex accumulated score for a given coloring.

    The score of each colored v is its join weight plus, per class
    before its own, the heaviest edge from v into it (0 if none). Raises
    ValueError unless the classes are nonempty, disjoint independent sets
    (of a candidate set, say) and every member has an int join weight >= 0.
    """
    _check_coloring(g, coloring)
    adj = g.adj_bits
    scores = {}
    earlier = []
    for cls in coloring:
        for v in cls:
            row, linked = g.weight_rows[v], adj[v]
            score = checked_join_weight(join_weights, v)
            for prev in earlier:
                score += _row_max(row, linked & prev)
            scores[v] = score
        earlier.append(cls.mask)
    return scores


def _row_max(row, members: int) -> int:
    """max(row[u]) over the vertices u in bitmask `members`, 0 if none."""
    top = 0
    while members:
        u = members.bit_length() - 1
        members ^= 1 << u
        if row[u] > top:
            top = row[u]
    return top


def vertex_weighted_upper_bound(g: WeightedGraph, coloring, join_weights) -> int:
    """Upper bound on the join-plus-edge weight of any clique of colored vertices.

    Sums the per-class maxima of :func:`coloring_scores`. Sound because
    a clique holds at most one vertex per independent set and each of
    its edges is charged, at the endpoint in the later class, with a
    value no smaller than its weight.
    """
    scores = coloring_scores(g, coloring, join_weights)
    return sum(max(scores[v] for v in cls) for cls in coloring)


def _child_vw(g: WeightedGraph, coloring, scores, p: int, child):
    """(i, vw): p's class index, and vw(u) = scores[u] + w(p, u) over the
    child, a VertexSet of p's neighbors colored before p."""
    g._check_subset(child)
    i = next((i for i, cls in enumerate(coloring) if cls.mask >> p & 1), -1)
    if i < 0 or child.mask & ~(g.adj_bits[p] & sum(c.mask for c in coloring[:i])):
        raise ValueError(f"child is not within p's neighbors colored before {p}")
    row, vw, members = g.weight_rows[p], {}, child.mask
    while members:  # a bit walk: the VertexSet's own iterator is slower
        u = members.bit_length() - 1
        members ^= 1 << u
        vw[u] = scores[u] + row[u]
    return i, vw


def look_ahead_plain(g: WeightedGraph, coloring, scores, p: int, child) -> int:
    """The plain look-ahead bound of branch vertex p's child (see
    :mod:`mewclique.solver`): the best child vw per class before p's."""
    i, vw = _child_vw(g, coloring, scores, p, child)
    return sum(_row_max(vw, c.mask & child.mask) for c in coloring[:i])


def look_ahead_recolored(g: WeightedGraph, coloring, scores, p: int, child) -> int:
    """The recolored look-ahead bound of branch vertex p's child: the
    founders' vw of the child's first-fit recoloring by decreasing (vw, u)."""
    _, vw = _child_vw(g, coloring, scores, p, child)
    recolored, founders = [], 0  # the new classes' masks, their founders' vw
    for w, u in sorted(zip(vw.values(), vw), reverse=True):
        for ci, cls in enumerate(recolored):
            if not g.adj_bits[u] & cls:
                recolored[ci] = cls | 1 << u
                break
        else:  # u founds a class, and is its heaviest member
            recolored.append(1 << u)
            founders += w
    return founders


class SeqAndBounds:
    """Branch plan for one candidate set.

    order: candidate vertices sorted by non-increasing `upper`; the
        search branches in this order.
    upper: per-vertex bound on the total join-plus-internal-edge weight
        of any clique containing that vertex whose other members appear
        later in `order`.
    classes: the independent sets of the greedy coloring, in
        construction order.
    score: final accumulated per-vertex scores.
    """

    def __init__(self, order: list, upper: dict, classes: list, score: dict):
        self.order = order
        self.upper = upper
        self.classes = classes
        self.score = score


class ColoringWorkspace:
    """Reusable scratch state for the per-node bound computation.

    The search calls :meth:`run` at every node, so the per-vertex masks
    are built once, not per call. One workspace serves one solver;
    distinct workspaces over the same graph may run concurrently.
    """

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self.heaviest_first = False  # a shallow copy shares the masks
        self._bit = [1 << v for v in range(graph.n)]
        # picking v shuts v and its neighbors out of the open class
        self._shut = [~(a | 1 << v) for v, a in enumerate(graph.adj_bits)]

    def run(self, s_mask: int, keys: list):
        """Greedy coloring pass over the candidate set `s_mask`.

        keys holds one packed key ``join_w[v] << sh | v`` per candidate
        v, in any order, with ``sh = n.bit_length()``, so keys order
        exactly like ``(join weight, v)``. run sorts the caller's list
        in place; pass a copy to keep its order. A list of a different
        length than the candidate set (say, one join weight per vertex
        of the graph) raises ValueError.
        Returns (order, bounds, class_masks, score): order/bounds are
        parallel fresh lists in branch order, class_masks are the
        independent sets as bitmasks in construction order, and score
        is a fresh dict of each candidate's final score, so it stays
        valid while later calls run.

        Classes are built maximal. Within one class vertices are taken
        by increasing (score, v), or with ``heaviest_first`` decreasing,
        each class's slice of order and bounds then reversed. Scores are
        frozen while a class is being built. A vertex's bound is fixed
        the moment it is colored: its score plus the running sum of
        closed-class maxima. After a class closes, each leftover (all
        adjacent to it, by maximality) absorbs its heaviest edge into
        that class and only the leftovers, nearly sorted, are re-sorted.

        Rows read 0 at a non-edge and weights are >= 0, so leftover v's
        heaviest edge into the class is the plain max of ``rows[v][u]``
        over the members u. A single member's row is read as a column.
        Members whose neighbor-keyed rows hold fewer entries than that
        max would read (leftovers x members) push their items once
        instead. Any other class takes the max. All three agree.
        """
        rows = self.graph.weight_rows
        bit = self._bit
        shut = self._shut
        sh = self.graph.n.bit_length()
        low = (1 << sh) - 1
        if len(keys) != s_mask.bit_count():
            raise ValueError(f"{len(keys)} keys for "
                             f"{s_mask.bit_count()} candidates")
        heavy = self.heaviest_first
        keys.sort(reverse=heavy)
        score = {}
        order = []  # colored order; reversed into branch order at the end
        bounds = []
        class_masks = []
        uncolored = s_mask
        closed_sum = 0  # sum over closed classes of their score maximum
        while keys:
            open_set = uncolored  # vertices still admissible to this class
            cls = 0
            first = len(order)
            left = []
            ranked = iter(keys)
            for k in ranked:
                v = k & low
                if open_set & bit[v]:
                    sv = k >> sh
                    score[v] = sv
                    order.append(v)
                    bounds.append(sv + closed_sum)
                    cls |= bit[v]
                    open_set &= shut[v]
                    if not open_set:
                        break
                else:
                    left.append(k)
            left.extend(ranked)  # the rest after the class filled up
            picked = order[first:]
            if heavy:  # the first pick is the class maximum
                sv = score[picked[0]]
                order[first:] = picked[::-1]
                bounds[first:] = bounds[first:][::-1]
            closed_sum += sv  # the last lightest-first pick is the maximum
            uncolored ^= cls
            class_masks.append(cls)
            if len(picked) == 1:
                col = rows[picked[0]]
                keys = [k + (col[k & low] << sh) for k in left]
            elif left and isinstance(rows[picked[0]], dict) and sum(
                    map(len, itemgetter(*picked)(rows))) < len(left) * len(picked):
                top = {}  # push: each member edge read once
                for u in picked:
                    for v, w in rows[u].items():
                        if w > top.get(v, 0):
                            top[v] = w
                keys = [k + (top.get(k & low, 0) << sh) for k in left]
            else:
                heaviest = itemgetter(*picked)
                keys = [k + (max(heaviest(rows[k & low])) << sh) for k in left]
            keys.sort(reverse=heavy)
        order.reverse()
        bounds.reverse()
        return order, bounds, class_masks, score


def seq_and_bounds(g: WeightedGraph, s: VertexSet, join_weights) -> SeqAndBounds:
    """Branch plan for candidate set `s` of graph `g`.

    join_weights maps (or indexes) every member of s to its nonnegative
    int join weight. The plan's upper[v] bounds the best achievable sum of
    join weights plus internal edge weights over cliques that contain v
    and otherwise only vertices later in the order, which is the value
    the solver's pruning test needs.
    """
    g._check_subset(s)
    sh = g.n.bit_length()
    keys = [checked_join_weight(join_weights, v) << sh | v for v in s]
    order, bounds, class_masks, score = ColoringWorkspace(g).run(s.mask, keys)
    return SeqAndBounds(
        order=order,
        upper=dict(zip(order, bounds)),
        classes=[VertexSet.from_mask(c) for c in class_masks],
        score=score,
    )

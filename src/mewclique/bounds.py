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

Building the classes greedily by lowest current score yields, as a side
effect, a per-vertex pruning bound (score at coloring time plus the
running sum of closed-class maxima) and a branch order along which
those bounds are non-increasing, which is exactly what the solver's
pruning loop wants.
"""

from dataclasses import dataclass
from operator import itemgetter

from .graph import VertexSet, WeightedGraph


def clique_join_weight(g: WeightedGraph, clique: VertexSet, v: int) -> int:
    """Total edge weight between v and the members of `clique`, i.e.
    the amount the clique weight grows when v joins it.

    v must not already be a member; non-edges contribute 0.
    """
    g._check_subset(clique)
    g._check_vertex(v)
    if v in clique:
        raise ValueError(f"vertex {v} is already in the clique")
    row = g.weight_rows[v]
    return sum(row[u] for u in clique)


def _check_coloring(g: WeightedGraph, coloring):
    union = 0
    for idx, cls in enumerate(coloring):
        cmask = cls.mask
        if cmask == 0:
            raise ValueError(f"color class {idx} is empty")
        g._check_subset(cls)
        if cmask & union:
            raise ValueError(f"color class {idx} overlaps an earlier class")
        for v in cls:
            if g.adj_bits[v] & cmask:
                raise ValueError(f"color class {idx} is not an independent set")
        union |= cmask
    if union != (1 << g.n) - 1:
        raise ValueError("coloring does not cover every vertex")


def coloring_scores(g: WeightedGraph, coloring) -> dict:
    """Per-vertex accumulated score for a given coloring.

    The score of v is its vertex weight plus, for every class earlier
    than its own, the heaviest edge from v into that class (nothing if
    there is none). Raises ValueError unless `coloring` is a partition
    of the vertices into independent sets.
    """
    _check_coloring(g, coloring)
    adj = g.adj_bits
    scores = {}
    earlier = []
    for cls in coloring:
        for v in cls:
            row = g.weight_rows[v]
            scores[v] = g.vertex_weights[v] + sum(
                _heaviest_edge(row, adj[v] & prev) for prev in earlier)
        earlier.append(cls.mask)
    return scores


def _heaviest_edge(row, linked: int) -> int:
    """max(row[u]) over the vertices u in bitmask `linked`, 0 if none."""
    top = 0
    while linked:
        b = linked & -linked
        w = row[b.bit_length() - 1]
        if w > top:
            top = w
        linked ^= b
    return top


def vertex_weighted_upper_bound(g: WeightedGraph, coloring) -> int:
    """Upper bound on the vertex-plus-edge weight of any clique in g.

    Sums the per-class maxima of :func:`coloring_scores`. Sound because
    a clique holds at most one vertex per independent set and each of
    its edges is charged, at the endpoint in the later class, with a
    value no smaller than its weight.
    """
    scores = coloring_scores(g, coloring)
    return sum(max(scores[v] for v in cls) for cls in coloring)


@dataclass
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

    order: list
    upper: dict
    classes: list
    score: dict


# Above this many members a class is scanned from each leftover's few
# edges into it instead of over all members: a class that large comes
# from a sparse graph, where a leftover links to one or two members.
_SCAN_MAX_CLASS = 32


class ColoringWorkspace:
    """Reusable scratch state for the per-node bound computation.

    The search calls :meth:`run` once per node, so the score array and
    the per-vertex masks are built once, not per call. One workspace serves
    one solver; distinct workspaces over the same graph may run
    concurrently.
    """

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self._score = [0] * graph.n
        self._bit = [1 << v for v in range(graph.n)]
        # picking v shuts v and its neighbors out of the open class
        self._shut = [~(a | 1 << v) for v, a in enumerate(graph.adj_bits)]

    def run(self, s_mask: int, join_w):
        """Greedy coloring pass over the candidate set `s_mask`.

        join_w holds each candidate's join weight, indexed by vertex.
        Returns (order, bounds, class_masks) where order/bounds are
        parallel fresh lists in branch order and class_masks are the
        independent sets as bitmasks in construction order.

        Classes are built maximal. Within one class vertices are taken
        in increasing score, ties to the lowest index; scores are
        frozen while a class is being built. A vertex's bound is fixed
        the moment it is colored: its score plus the running sum of
        closed-class maxima. After a class closes, each leftover (all
        adjacent to it, by maximality) absorbs its heaviest edge into
        that class and only the leftovers, nearly sorted, are re-sorted.

        Invariants this relies on: a candidate is the int key
        ``score << sh | v`` with ``sh = n.bit_length()``, so keys order
        exactly like ``(score, v)``; and ``weight_rows`` is dense with 0
        for non-edges and all weights >= 0, so the heaviest edge into a
        class of up to _SCAN_MAX_CLASS members is the plain max of
        ``rows[v][u]`` over them, with no adjacency test. Weight storage
        that scales with m (ROADMAP item 5) must keep an O(1)
        ``rows[v][u]`` lookup or change this scan.
        """
        adj = self.graph.adj_bits
        rows = self.graph.weight_rows
        score = self._score
        bit = self._bit
        shut = self._shut
        sh = self.graph.n.bit_length()
        low = (1 << sh) - 1
        keys = []
        m = s_mask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            keys.append(join_w[v] << sh | v)
            m ^= b
        keys.sort()
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
            closed_sum += sv  # picks arrive in nondecreasing score
            uncolored ^= cls
            class_masks.append(cls)
            picked = order[first:]
            if len(picked) == 1:
                col = rows[picked[0]]
                keys = [k + (col[k & low] << sh) for k in left]
            elif len(picked) <= _SCAN_MAX_CLASS:
                heaviest = itemgetter(*picked)
                keys = [k + (max(heaviest(rows[k & low])) << sh) for k in left]
            else:
                keys = [k + (_heaviest_edge(rows[k & low], adj[k & low] & cls) << sh)
                        for k in left]
            keys.sort()
        order.reverse()
        bounds.reverse()
        return order, bounds, class_masks


def seq_and_bounds(g: WeightedGraph, s: VertexSet, join_weights) -> SeqAndBounds:
    """Branch plan for candidate set `s` of graph `g`.

    join_weights maps (or indexes) every member of s to its nonnegative
    join weight. The plan's upper[v] bounds the best achievable sum of
    join weights plus internal edge weights over cliques that contain v
    and otherwise only vertices later in the order, which is the value
    the solver's pruning test needs.
    """
    g._check_subset(s)
    jw = [0] * g.n
    for v in s:
        try:
            w = join_weights[v]
        except (KeyError, IndexError):
            raise ValueError(f"no join weight given for vertex {v}") from None
        if w < 0:
            raise ValueError(f"negative join weight {w} for vertex {v}")
        jw[v] = w
    workspace = ColoringWorkspace(g)
    order, bounds, class_masks = workspace.run(s.mask, jw)
    return SeqAndBounds(
        order=order,
        upper=dict(zip(order, bounds)),
        classes=[VertexSet.from_mask(c) for c in class_masks],
        score={v: workspace._score[v] for v in order},
    )

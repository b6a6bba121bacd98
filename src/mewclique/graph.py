"""Simple undirected graphs with nonnegative integer edge weights.

Vertices are contiguous ints 0..n-1 (instance files are 1-based; the
parsers in :mod:`mewclique.io` shift indices at parse time). Adjacency
is stored as one int bitmask per vertex, so candidate-set operations in
the search are single big-int ANDs. Edge weights live in one row per
vertex, so the bound computation reads w(u, v) as ``rows[u][v]``: a
list of n weights on a dense graph, a dict keyed by neighbor on a
sparse one, so that memory grows with n + m there, not with n². A
dict-row graph builds its masks once, from its rows' keys.

A weight of 0 on an existing edge is legal; non-edges always weigh 0.
Vertex (join) weights are an argument of the functions that read them.
Graphs are immutable after construction and safe to share between
concurrent solver runs.
"""

from typing import Iterable, Iterator


class VertexSet:
    """Immutable set of vertex indices backed by an int bitmask.

    Supports membership, ascending iteration and the usual set algebra.
    Values are plain data: hashable and freely copyable.
    """

    __slots__ = ("mask",)

    def __init__(self, members: Iterable[int] = ()):
        mask = 0
        for v in members:
            if type(v) is not int:  # bools too
                raise ValueError(f"non-int vertex index {v!r}")
            if v < 0:
                raise ValueError(f"vertex index must be nonnegative, got {v}")
            mask |= 1 << v
        self.mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
        if mask < 0:
            raise ValueError("bitmask must be nonnegative")
        s = cls.__new__(cls)
        s.mask = mask
        return s

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & other.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask | other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"VertexSet({list(self)})"


# Weight rows are dicts once n² list cells outnumber the n + 2m row
# entries by this factor: a dict entry costs several list cells, and a
# dict read is slower than a list read.
_SPARSE_RATIO = 64


class _SparseRow(dict):
    """A weight row keyed by neighbor; a missing key reads as 0."""

    __slots__ = ()
    # a C-level callable, 0 * v == 0: a Python def made PLS ~9% slower
    # on n = 3000, density 0.005 graphs
    __missing__ = staticmethod((0).__mul__)


class WeightedGraph:
    """Undirected graph with integer edge weights, immutable after
    construction.

    Parameters:
        n: vertex count.
        edges: iterable of (u, v, weight) triples, 0-based, at most one
            per unordered pair. Self-loops, repeated pairs, non-int or
            out-of-range endpoints and negative or non-int weights are
            rejected.

    Attributes read directly by the solver hot path:
        adj_bits: adj_bits[v] is the neighbor bitmask of v.
        weight_rows: weight_rows[u][v] is w(u, v), 0 for non-edges and
            u == v. A row is a list of n ints, or a neighbor-keyed dict
            when n * n > _SPARSE_RATIO * (n + 2m); readers only index.
    """

    __slots__ = ("n", "m", "adj_bits", "weight_rows")

    def __init__(self, n: int, edges=()):
        if type(n) is not int:  # bools too
            raise ValueError(f"non-int vertex count {n!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        # rows are dicts while n * n > _SPARSE_RATIO * (n + 2m), that is
        # while m < dense_at, and lists from then on, so the edges are
        # read once, as they come; a dict row's keys are its neighbors
        dense_at = -(-(n * n - _SPARSE_RATIO * n) // (2 * _SPARSE_RATIO))
        rows = [_SparseRow() if dense_at > 0 else [0] * n for _ in range(n)]
        m = 0
        for u, v, w in edges:
            if type(u) is not int or type(v) is not int:  # bools too
                raise ValueError(f"non-int endpoint in edge ({u!r}, {v!r})")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if type(w) is not int or w < 0:
                raise ValueError(_weight_error(w, f"edge ({u}, {v})"))
            if (v in rows[u]) if m < dense_at else (adj[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if m >= dense_at:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            rows[u][v] = w
            rows[v][u] = w
            m += 1
            if m == dense_at:
                adj = [_mask(row, n) for row in rows]
                rows = [_list_row(row, n) for row in rows]
        self.n = n
        self.m = m
        self.adj_bits = adj if m >= dense_at else [_mask(r, n) for r in rows]
        self.weight_rows = rows

    def neighbors(self, v: int) -> VertexSet:
        """N(v) as a fresh VertexSet (no aliasing of internal state)."""
        self._check_vertex(v)
        return VertexSet.from_mask(self.adj_bits[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self.adj_bits[u] >> v) & 1 == 1

    def edge_weight(self, u: int, v: int) -> int:
        """w(u, v); 0 whenever (u, v) is not an edge."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self.weight_rows[u][v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj_bits[v].bit_count()

    def density(self) -> float:
        """2m / (n(n-1)); 0.0 for graphs with fewer than two vertices."""
        if self.n < 2:
            return 0.0
        return 2.0 * self.m / (self.n * (self.n - 1))

    def edges(self) -> Iterator[tuple]:
        """Yield (u, v, weight) with u < v, ascending."""
        for u in range(self.n):
            m = self.adj_bits[u] >> (u + 1) << (u + 1)
            row = self.weight_rows[u]
            while m:
                b = m & -m
                v = b.bit_length() - 1
                m ^= b
                yield u, v, row[v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.adj_bits == other.adj_bits
            and self.weight_rows == other.weight_rows
        )

    def __hash__(self):
        return hash((self.n, tuple(self.adj_bits)))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"

    def _check_vertex(self, v: int):
        if type(v) is not int:  # bools too
            raise ValueError(f"non-int vertex {v!r}")
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def _check_subset(self, s: VertexSet):
        if not isinstance(s, VertexSet):
            raise TypeError(f"expected a VertexSet, got {type(s).__name__}")
        if s.mask >> self.n:
            raise ValueError(f"vertex set {s!r} not within 0..{self.n - 1}")


def _mask(row: dict, n: int) -> int:
    """A dict row's neighbor bitmask, faster from a byte array than 1 << v."""
    bits = bytearray((n + 7) >> 3)
    for v in row:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def _list_row(row: dict, n: int) -> list:
    out = [0] * n
    for v, w in row.items():
        out[v] = w
    return out


def _weight_error(w, where: str) -> str:
    kind = "non-int" if type(w) is not int else "negative"  # bools too
    return f"{kind} weight {w!r} on {where}"


def checked_join_weight(join_weights, v: int) -> int:
    """join_weights[v] (a mapping or a sequence); a ValueError naming v
    unless it is present, an int (not a bool) and >= 0."""
    try:
        w = join_weights[v]
    except (KeyError, IndexError):
        raise ValueError(f"no join weight given for vertex {v}") from None
    if type(w) is not int or w < 0:
        raise ValueError(_weight_error(w, f"vertex {v}"))
    return w


def is_clique(g: WeightedGraph, c: VertexSet) -> bool:
    """True iff every pair of distinct members of c is adjacent in g.

    Empty and singleton sets count as cliques.
    """
    g._check_subset(c)
    mask = c.mask
    adj = g.adj_bits
    for v in c:
        if adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def set_weight(g: WeightedGraph, s: VertexSet) -> int:
    """Total weight of the edges inside s: for a clique, the clique
    weight the solver maximizes.
    """
    g._check_subset(s)
    adj = g.adj_bits
    rows = g.weight_rows
    total = 0
    seen = 0
    for v in s:
        row = rows[v]
        m = adj[v] & seen  # count each internal edge at its later endpoint
        while m:
            b = m & -m
            total += row[b.bit_length() - 1]
            m ^= b
        seen |= 1 << v
    return total

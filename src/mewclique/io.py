"""Instance file I/O and generation.

Two text formats are supported:

* DIMACS clique format (read only): ``c`` comment lines, one
  ``p edge <n> <m>`` header, ``e <i> <j>`` edge lines with 1-based
  endpoints. Parsed graphs carry unit edge weights.
* Weighted edge list (read/write): same shape with a ``p wedge <n> <m>``
  header and ``e <i> <j> <w>`` lines. This is this package's own
  extension; the distinct header tag keeps plain DIMACS files from
  being misread. Writer output is byte-deterministic for a given graph.

``apply_dimacs_weights`` attaches the conventional deterministic
benchmark weighting to a plain DIMACS graph, and ``gen_random`` draws
seeded G(n, p) instances with uniform integer edge weights.
"""

import random
from dataclasses import dataclass
from pathlib import Path

from .graph import WeightedGraph


class ParseError(ValueError):
    """Malformed instance text; ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class InstanceHeader:
    """Declared counts and format tag from a ``p`` line."""

    n: int
    m: int
    format: str  # "plain" for `p edge`, "weighted" for `p wedge`


def _content_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        # int() would read '1_0' as 10 and an Arabic-Indic two as 2; with
        # these refused, the int() calls below accept only ASCII digits
        # with an optional '-'
        if "_" in raw or "+" in raw or not raw.isascii():
            raise ParseError("'_', '+' or a non-ASCII character outside a comment",
                             line_no)
        yield line_no, tokens


def _parse_header(tokens, line_no) -> InstanceHeader:
    if len(tokens) != 4 or tokens[1] not in ("edge", "wedge"):
        raise ParseError("expected 'p edge <n> <m>' or 'p wedge <n> <m>'", line_no)
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError("non-integer counts in problem line", line_no) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in problem line", line_no)
    fmt = "plain" if tokens[1] == "edge" else "weighted"
    return InstanceHeader(n=n, m=m, format=fmt)


def read_header(text) -> InstanceHeader:
    """Return the first ``p`` line of an instance without parsing the body."""
    for line_no, tokens in _content_lines(text):
        if tokens[0] == "p":
            return _parse_header(tokens, line_no)
    raise ParseError("missing problem line")


def parse_dimacs(text) -> WeightedGraph:
    """Parse DIMACS clique text into a graph with unit edge weights.

    Duplicate edge lines collapse to a single edge. The declared edge
    count is not enforced against the body (files in the wild disagree
    with it); the declared vertex count is authoritative.
    """
    header = None
    edges = set()
    for line_no, tokens in _content_lines(text):
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate problem line", line_no)
            header = _parse_header(tokens, line_no)
            if header.format != "plain":
                raise ParseError("expected 'p edge' header", line_no)
        elif kind == "e":
            if header is None:
                raise ParseError("edge line before problem line", line_no)
            if len(tokens) != 3:
                raise ParseError("expected 'e <i> <j>'", line_no)
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("non-integer vertex index", line_no) from None
            if i == j:
                raise ParseError(f"self-loop on vertex {i}", line_no)
            if not (1 <= i <= header.n and 1 <= j <= header.n):
                raise ParseError(f"vertex index out of range in 'e {i} {j}'", line_no)
            edges.add((min(i, j) - 1, max(i, j) - 1))
        else:
            raise ParseError(f"unrecognized line type {kind!r}", line_no)
    if header is None:
        raise ParseError("missing problem line")
    return WeightedGraph(header.n, ((u, v, 1) for u, v in sorted(edges)))


def apply_dimacs_weights(g: WeightedGraph) -> WeightedGraph:
    """Reweight every edge by the deterministic benchmark rule.

    Edge (i, j) in 1-based labels gets weight ((i + j) mod 200) + 1, so
    all weights land in [1, 200]. Adjacency is unchanged; the result
    depends only on vertex indices, so reapplication is idempotent.
    """
    return WeightedGraph(
        g.n, ((u, v, (u + v + 2) % 200 + 1) for u, v, _ in g.edges())
    )


def parse_weighted_edge_list(text) -> WeightedGraph:
    """Parse ``p wedge`` text into a weighted graph."""
    header = None
    edges = {}
    for line_no, tokens in _content_lines(text):
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate problem line", line_no)
            header = _parse_header(tokens, line_no)
            if header.format != "weighted":
                raise ParseError("expected 'p wedge' header", line_no)
        elif kind == "e":
            if header is None:
                raise ParseError("edge line before problem line", line_no)
            if len(tokens) != 4:
                raise ParseError("expected 'e <i> <j> <w>'", line_no)
            try:
                i, j, w = int(tokens[1]), int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError("non-integer token in edge line", line_no) from None
            if i == j:
                raise ParseError(f"self-loop on vertex {i}", line_no)
            if not (1 <= i <= header.n and 1 <= j <= header.n):
                raise ParseError(f"vertex index out of range in 'e {i} {j}'", line_no)
            if w < 0:
                raise ParseError(f"negative edge weight {w}", line_no)
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in edges:
                raise ParseError(f"duplicate edge ({i}, {j})", line_no)
            edges[key] = w
        else:
            raise ParseError(f"unrecognized line type {kind!r}", line_no)
    if header is None:
        raise ParseError("missing problem line")
    return WeightedGraph(header.n, ((u, v, w) for (u, v), w in sorted(edges.items())))


def write_weighted_edge_list(g: WeightedGraph) -> str:
    """Serialize to ``p wedge`` text, edges ascending by (i, j), 1-based."""
    lines = [f"p wedge {g.n} {g.m}"]
    for u, v, w in g.edges():
        lines.append(f"e {u + 1} {v + 1} {w}")
    return "\n".join(lines) + "\n"


def gen_random(n, density, w_min=1, w_max=10, seed=0) -> WeightedGraph:
    """Seeded G(n, p) instance with uniform integer edge weights.

    Each unordered pair becomes an edge independently with probability
    ``density``; each edge weight is uniform in [w_min, w_max]. The
    generator is random.Random (Mersenne Twister), so a given seed
    reproduces the same graph within one build; persist instances with
    ``write_weighted_edge_list`` for durable reproducibility.
    """
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 1 <= w_min <= w_max:
        raise ValueError(f"need 1 <= w_min <= w_max, got [{w_min}, {w_max}]")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(w_min, w_max)))
    return WeightedGraph(n, edges)


def instance_format(path, text, fmt=None) -> str:
    """Resolve the format of an instance file: "dimacs" or "wedge".

    An explicit fmt wins; otherwise the extension decides (.clq is
    DIMACS, .wedge is the weighted edge list), and anything else goes by
    the header tag of ``text``.
    """
    if fmt is None:
        fmt = {".clq": "dimacs", ".wedge": "wedge"}.get(Path(path).suffix.lower())
    if fmt is None:
        fmt = "dimacs" if read_header(text).format == "plain" else "wedge"
    if fmt not in ("dimacs", "wedge"):
        raise ValueError(f"unknown instance format {fmt!r}")
    return fmt


def read_instance(path, fmt=None) -> WeightedGraph:
    """Load an instance file in the format ``instance_format`` resolves."""
    text = Path(path).read_text()
    if instance_format(path, text, fmt) == "dimacs":
        return parse_dimacs(text)
    return parse_weighted_edge_list(text)

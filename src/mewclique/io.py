"""Instance file I/O and generation.

Two text formats are supported, both read by one parser:

* DIMACS clique format (read only): ``c`` comment lines, one
  ``p edge <n> <m>`` header, ``e <i> <j>`` edge lines with 1-based
  endpoints. Parsed graphs carry unit edge weights; a repeated edge
  collapses into one.
* Weighted edge list (read/write): same shape with a ``p wedge <n> <m>``
  header and ``e <i> <j> <w>`` lines; a repeated edge is an error. This
  is this package's own extension; the distinct header tag keeps plain
  DIMACS files from being misread. Writer output is byte-deterministic.

A file's ``p`` line names its format, whatever the file is called:
``instance_format`` reads it, and ``read_instance`` parses by it.

Lines end only at ``"\n"``, and only ``c`` comment lines may hold
non-ASCII or control characters (a tab, or a ``"\r"`` that ends the
line, is a blank); ``read_instance`` decodes Latin-1, which maps every
byte, with universal newlines. The declared vertex count is
authoritative, the edge count unchecked (files in the wild disagree).

``apply_dimacs_weights`` attaches the conventional deterministic
benchmark weighting to a plain DIMACS graph, and ``gen_random`` draws
seeded G(n, p) instances with uniform integer edge weights.
"""

import random
from pathlib import Path

from .graph import WeightedGraph


class ParseError(ValueError):
    """Malformed instance text; ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_FORMAT_OF_TAG = {"edge": "dimacs", "wedge": "wedge"}


def _content_lines(text):
    # not splitlines(), which also breaks at "\x0c", "\x85" and "\u2028"
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        # int() would read '1_0' as 10 and an Arabic-Indic two as 2, and
        # split() and int() take "\x0b", "\x0c", "\x1c"-"\x1f" and "\r" for
        # blanks; so a content line holds printable ASCII bar '_' and '+',
        # tabs and a final "\r", and the int() calls below accept only
        # ASCII digits with an optional '-'
        if "_" in raw or "+" in raw or not raw.isascii() or not (
                raw.isprintable()
                or raw.rstrip("\r").replace("\t", " ").isprintable()):
            raise ParseError("'_', '+', a control or a non-ASCII character "
                             "outside a comment", line_no)
        yield line_no, tokens


def _parse_header(tokens, line_no):
    if len(tokens) != 4 or tokens[1] not in _FORMAT_OF_TAG:
        raise ParseError("expected 'p edge <n> <m>' or 'p wedge <n> <m>'", line_no)
    try:
        n, m = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError("non-integer counts in problem line", line_no) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in problem line", line_no)
    return tokens[1], n


def _parse(text, tag) -> WeightedGraph:
    """Parse instance text whose ``p`` line must carry ``tag``."""
    weighted = tag == "wedge"
    n = None
    edges = {}
    for line_no, tokens in _content_lines(text):
        kind = tokens[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            found, n = _parse_header(tokens, line_no)
            if found != tag:
                raise ParseError(f"expected 'p {tag}' header", line_no)
        elif kind == "e":
            if n is None:
                raise ParseError("edge line before problem line", line_no)
            if len(tokens) != 3 + weighted:
                raise ParseError("expected 'e <i> <j> <w>'" if weighted
                                 else "expected 'e <i> <j>'", line_no)
            try:
                i, j = int(tokens[1]), int(tokens[2])
                w = int(tokens[3]) if weighted else 1
            except ValueError:
                raise ParseError("non-integer token in edge line", line_no) from None
            if i == j:
                raise ParseError(f"self-loop on vertex {i}", line_no)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"vertex index out of range in 'e {i} {j}'", line_no)
            if w < 0:
                raise ParseError(f"negative edge weight {w}", line_no)
            key = (min(i, j) - 1) * n + max(i, j) - 1
            if weighted and key in edges:
                raise ParseError(f"duplicate edge ({i}, {j})", line_no)
            edges[key] = w
        else:
            raise ParseError(f"unrecognized line type {kind!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    # int keys u * n + v take less memory than (u, v) tuples
    return WeightedGraph(n, ((k // n, k % n, w) for k, w in edges.items()))


def parse_dimacs(text) -> WeightedGraph:
    """Parse DIMACS clique text into a graph with unit edge weights."""
    return _parse(text, "edge")


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
    return _parse(text, "wedge")


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


def instance_format(text) -> str:
    """The format an instance's ``p`` line names: "dimacs" or "wedge"."""
    for line_no, tokens in _content_lines(text):
        if tokens[0] == "p":
            return _FORMAT_OF_TAG[_parse_header(tokens, line_no)[0]]
    raise ParseError("missing problem line")


def read_instance(path) -> WeightedGraph:
    """Load an instance file in the format its ``p`` line names."""
    text = Path(path).read_text(encoding="latin-1")
    if instance_format(text) == "dimacs":
        return parse_dimacs(text)
    return parse_weighted_edge_list(text)

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

Lines end only at ``"\n"``, and only ``c`` comment lines may hold non-ASCII
or control characters (a tab, or a ``"\r"`` that ends the line, is a blank);
lines are tested one by one only when one test of the text from its first
content line on fails, so a comment header before the ``p`` line (a file
name with ``_`` in it, say) costs no per-line tests. Edges stream into
``WeightedGraph``, which makes every range, self-loop, weight and
duplicate check. ``read_instance`` decodes Latin-1, which maps every
byte, with universal newlines. The declared vertex count is authoritative,
the edge count unchecked (files in the wild disagree).

``apply_dimacs_weights`` pairs a parsed DIMACS graph's adjacency with new
rows of the benchmark weighting, so no edge is checked twice, and
``gen_random`` draws seeded G(n, p) instances with uniform integer weights.
"""

import copy
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


def _printable(s):
    # int() would read '1_0' as 10 and an Arabic-Indic two as 2, and
    # split() and int() take "\x0b", "\x0c", "\x1c"-"\x1f" and "\r" for
    # blanks; so a content line holds printable ASCII bar '_' and '+',
    # tabs and a final "\r". A whole text that passes has no line that fails.
    return s.isascii() and not ("_" in s or "+" in s) and (
        s.rstrip("\r").replace("\n", " ").replace("\t", " ").isprintable())


def _content_lines(text, clean):
    # clean None: test the text from the first content line on, False: each
    # line. Not splitlines(), which also breaks at "\x0c", "\x85", "\u2028"
    lines = text.split("\n")
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and tokens[0] != "c":
            if not clean:
                if clean is None:  # the first content line: test from here on
                    clean = _printable(
                        text[sum(map(len, lines[:line_no - 1])) + line_no - 1:])
                if not (clean or _printable(raw)):
                    raise ParseError("'_', '+', a control or a non-ASCII "
                                     "character outside a comment", line_no)
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


def _edges(lines, n, weighted):
    seen = set()  # DIMACS edges read so far, as int keys i * n + j, i < j
    for line_no, tokens in lines:
        if tokens[0] != "e":
            raise ParseError("duplicate problem line" if tokens[0] == "p" else
                             f"unrecognized line type {tokens[0]!r}", line_no)
        if len(tokens) != 3 + weighted:
            raise ParseError("expected 'e <i> <j> <w>'" if weighted
                             else "expected 'e <i> <j>'", line_no)
        try:
            i, j = int(tokens[1]), int(tokens[2])
            w = int(tokens[3]) if weighted else 1
        except ValueError:
            raise ParseError("non-integer token in edge line", line_no) from None
        if not weighted:
            a, b = (i, j) if i < j else (j, i)
            if a * n + b in seen and 0 < a and b <= n:
                continue  # a repeated DIMACS edge collapses into one
            seen.add(a * n + b)
        try:
            yield i - 1, j - 1, w
        except ValueError:  # refused by WeightedGraph: say why in the line's terms
            raise ParseError(f"self-loop on vertex {i}" if i == j else (
                f"vertex index out of range in 'e {i} {j}'"
                if not (0 < i <= n and 0 < j <= n) else
                f"negative edge weight {w}" if w < 0 else
                f"duplicate edge ({i}, {j})"), line_no) from None


def _parse(text, tag) -> WeightedGraph:
    """Parse instance text whose ``p`` line must carry ``tag``."""
    lines = _content_lines(text, None)
    line_no, tokens = next(lines, (None, None))
    if tokens is None or tokens[0] != "p":
        raise ParseError("missing problem line" if tokens is None else
                         "edge line before problem line" if tokens[0] == "e"
                         else f"unrecognized line type {tokens[0]!r}", line_no)
    found, n = _parse_header(tokens, line_no)
    if found != tag:
        raise ParseError(f"expected 'p {tag}' header", line_no)
    edges = _edges(lines, n, tag == "wedge")
    try:
        return WeightedGraph(n, edges)
    except ParseError:
        raise
    except ValueError as refused:
        edges.throw(refused)  # raised at the edge's line as a ParseError


def parse_dimacs(text) -> WeightedGraph:
    """Parse DIMACS clique text into a graph with unit edge weights."""
    return _parse(text, "edge")


def apply_dimacs_weights(g: WeightedGraph) -> WeightedGraph:
    """Reweight every edge by the deterministic benchmark rule.

    Edge (i, j) in 1-based labels gets weight ((i + j) mod 200) + 1, so
    all weights land in [1, 200]. The result shares ``g``'s adjacency and
    gets only new rows, of ``g``'s row form, so no edge is checked twice.
    """
    rule = [(s + 2) % 200 + 1 for s in range(2 * g.n)]  # rule[u + v], 0-based
    out = copy.copy(g)  # WeightedGraph's name here is replaced when traced
    out.weight_rows = rows = [type(r)() if isinstance(r, dict) else [0] * g.n
                              for r in g.weight_rows]
    for u, (a, row) in enumerate(zip(g.adj_bits, rows)):
        while a:  # ascending, so a dict row's keys are in neighbor order
            b = a & -a
            v = b.bit_length() - 1
            row[v] = rule[u + v]
            a ^= b
    return out


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
    for name, value in (("w_min", w_min), ("w_max", w_max)):
        if type(value) is not int:  # bools too, as WeightedGraph would
            raise ValueError(f"non-int {name} {value!r}")
    if not 1 <= w_min <= w_max:
        raise ValueError(f"need 1 <= w_min <= w_max, got [{w_min}, {w_max}]")
    if type(n) is not int:  # as WeightedGraph would, before range(n) does
        raise ValueError(f"non-int vertex count {n!r}")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(w_min, w_max)))
    return WeightedGraph(n, edges)


def instance_format(text) -> str:
    """The format an instance's ``p`` line names: "dimacs" or "wedge"."""
    for line_no, tokens in _content_lines(text, False):
        if tokens[0] == "p":
            return _FORMAT_OF_TAG[_parse_header(tokens, line_no)[0]]
    raise ParseError("missing problem line")


def read_instance(path) -> WeightedGraph:
    """Load an instance file in the format its ``p`` line names."""
    text = Path(path).read_text(encoding="latin-1")
    if instance_format(text) == "dimacs":
        return parse_dimacs(text)
    return parse_weighted_edge_list(text)

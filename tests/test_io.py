import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mewclique
from mewclique import (ParseError, VertexSet, WeightedGraph,
                       apply_dimacs_weights, gen_random, parse_dimacs,
                       parse_weighted_edge_list, read_instance,
                       write_weighted_edge_list)

from conftest import SIX_EDGES


class TestParseDimacs:
    def test_path_graph(self):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3 and g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
        assert g.edge_weight(0, 1) == 1

    def test_isolated_vertex(self):
        g = parse_dimacs("p edge 1 0")
        assert g.n == 1 and g.m == 0

    def test_comments_and_crlf(self):
        g = parse_dimacs("c hi\r\np edge 2 1\r\nc mid\r\ne 1 2\r\n")
        assert g.m == 1

    def test_tabs_are_blanks(self):
        g = parse_dimacs("p\tedge 3 1\ne\t1\t3\t\r\n")
        assert list(g.edges()) == [(0, 2, 1)]

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.m == 1

    def test_real_instance(self, data_dir):
        g = parse_dimacs((data_dir / "johnson8-2-4.clq").read_text())
        assert g.n == 28
        assert round(g.density(), 2) == 0.56

    @pytest.mark.parametrize("text,line", [
        ("e 1 2\np edge 2 1", 1),            # edge before header
        ("p edge 2 1\np edge 2 1\ne 1 2", 2),  # duplicate header
        ("p edge x 1\ne 1 2", 1),             # malformed counts
        ("p foo 2 1\ne 1 2", 1),              # wrong tag
        ("p edge 2 1\ne 1 1", 2),             # self-loop
        ("p edge 2 1\ne 1 3", 2),             # out of range
        ("p edge 2 1\ne 1", 2),               # short edge line
        ("p edge 2 1\nq 1 2", 2),             # unknown line type
        ("p edge 11 1\ne 1_0 2", 2),          # underscore digit grouping
        ("p edge 2 1\ne \u0662 1", 2),        # non-ASCII (Arabic-Indic) digit
        ("p edge \u0662 0", 1),                # non-ASCII digit in the header
        ("p edge 3 1\nc x\x0cc y\ne 1 9\n", 3),  # form feed does not end a line
        ("p edge 3 2\ne 1 2\u2028e 2 3\n", 2),    # nor does U+2028
        ("p edge 2 1\re 1 2\n", 1),              # nor a lone carriage return
        ("p edge 3 1\ne 1\x1f2\n", 2),           # a control is not a blank
        ("p edge 3 1\ne\x0b1 3\n", 2),           # nor a vertical tab
        ("p edge 3 1\ne 1\r2\n", 2),             # nor an inner carriage return
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_dimacs(text)
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing problem line"):
            parse_dimacs("c nothing here\n")

    def test_header_only_input_stays_small(self):
        # weight rows scale with n + m: 14 bytes of header must not buy
        # an n x n matrix (4000 x 4000 list cells are over 120 MiB)
        tracemalloc.start()
        try:
            g = parse_dimacs("p edge 4000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 4000 and g.m == 0
        assert peak < 4 * 2 ** 20


class TestDimacsWeighting:
    def test_rule(self):
        g = parse_dimacs("p edge 2 1\ne 1 2")
        assert apply_dimacs_weights(g).edge_weight(0, 1) == 4  # (1+2) % 200 + 1

    def test_boundary(self):
        g = WeightedGraph(100, [(98, 99, 1)])  # vertices 99 and 100, 1-based
        assert apply_dimacs_weights(g).edge_weight(98, 99) == 200

    def test_idempotent_and_adjacency_preserving(self):
        g = gen_random(30, 0.4, 1, 10, seed=5)
        once = apply_dimacs_weights(g)
        twice = apply_dimacs_weights(once)
        assert once == twice
        assert once.adj_bits == g.adj_bits
        assert all(1 <= w <= 200 for _, _, w in once.edges())


# (text, 1-based line of the error, None when no line is at fault)
WEDGE_ERRORS = [
    ("p wedge 2 1\ne 1 2 -3", 2),     # negative weight
    ("p wedge 2 1\ne 1 2 x", 2),      # malformed token
    ("p wedge 2 1\ne 1 3 1", 2),      # out of range
    ("p wedge 2 1\ne 1 1 1", 2),      # self-loop
    ("p wedge 2 2\ne 1 2 1\ne 2 1 5", 3),  # duplicate edge
    ("p edge 2 1\ne 1 2 1", 1),       # wrong header tag
    ("p wedge 11 1\ne 1_0 2 1", 2),   # underscore digit grouping
    ("p wedge 2 1\ne 1 2 \u0662", 2),  # non-ASCII (Arabic-Indic) digit
    ("e 1 2 1\np wedge 2 1", 1),      # edge before header
    ("p wedge 2 1\np wedge 2 1\ne 1 2 1", 2),  # duplicate header
    ("p wedge 2 1\ne 1 2", 2),        # short edge line
    ("p wedge 2 1\nq 1 2 1", 2),      # unknown line type
    ("p wedge 3 2\ne 1 2 5\x85e 2 3 7\n", 2),  # U+0085 does not end a line
    ("p wedge 2 1\ne 1 2 5\x0c\n", 2),    # form feed is not a blank
    ("c nothing here\n", None),       # missing header
]


class TestWeightedEdgeList:
    def test_write_sample(self, g6):
        text = write_weighted_edge_list(g6)
        assert text.startswith("p wedge 6 8\n")
        assert "e 5 6 8\n" in text

    def test_parse_isolated(self):
        g = parse_weighted_edge_list("p wedge 2 0")
        assert g.n == 2 and g.m == 0

    def test_round_trip_sample(self, g6):
        assert parse_weighted_edge_list(write_weighted_edge_list(g6)) == g6

    def test_round_trip_seeded(self):
        graphs = [gen_random(12, 0.4, 1, 10, seed=seed) for seed in range(100)]
        # n = 300 at density 0.01 is stored as neighbor-keyed weight rows
        for g in graphs + [gen_random(300, 0.01, 1, 10, seed=7)]:
            text = write_weighted_edge_list(g)
            h = parse_weighted_edge_list(text)
            assert h == g and write_weighted_edge_list(h) == text

    @pytest.mark.parametrize("text,line", WEDGE_ERRORS,
                             ids=[text for text, _ in WEDGE_ERRORS])
    def test_errors(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_weighted_edge_list(text)
        assert exc.value.line == line
        if line is not None:
            assert f"line {line}" in str(exc.value)


class TestGenRandom:
    def test_edgeless(self):
        assert gen_random(10, 0.0, 1, 10, seed=3).m == 0

    def test_complete_uniform(self):
        g = gen_random(10, 1.0, 5, 5, seed=3)
        assert g.m == 45
        assert all(w == 5 for _, _, w in g.edges())

    def test_statistics(self):
        g = gen_random(50, 0.5, 1, 10, seed=42)
        assert 0.35 <= g.density() <= 0.65
        assert all(1 <= w <= 10 for _, _, w in g.edges())

    def test_deterministic(self):
        a = gen_random(20, 0.5, 1, 10, seed=9)
        b = gen_random(20, 0.5, 1, 10, seed=9)
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        dict(n=5, density=1.5),
        dict(n=5, density=-0.1),
        dict(n=5, density=0.5, w_min=0),
        dict(n=5, density=0.5, w_min=4, w_max=2),
        dict(n=-2, density=0.5),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            gen_random(**kwargs)


@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 16),
       density=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_round_trip_is_identity(seed, n, density):
    g = gen_random(n, density, 1, 10, seed=seed)
    assert parse_weighted_edge_list(write_weighted_edge_list(g)) == g


class TestReadInstance:
    def test_by_extension(self, tmp_path, g6):
        clq = tmp_path / "tiny.clq"
        clq.write_text("p edge 2 1\ne 1 2\n")
        assert read_instance(clq).m == 1
        wedge = tmp_path / "tiny.wedge"
        wedge.write_text(write_weighted_edge_list(g6))
        assert read_instance(wedge) == g6

    def test_sniffs_header(self, tmp_path, g6):
        other = tmp_path / "tiny.txt"
        other.write_text(write_weighted_edge_list(g6))
        assert read_instance(other) == g6

    def test_explicit_format_wins(self, tmp_path):
        p = tmp_path / "odd.clq"
        p.write_text("p wedge 2 1\ne 1 2 7\n")
        assert read_instance(p, fmt="wedge").edge_weight(0, 1) == 7

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "x.wedge"
        p.write_text("p wedge 1 0\n")
        with pytest.raises(ValueError):
            read_instance(p, fmt="dimacs-binary")

    @pytest.mark.parametrize("text,line", [
        ("c no problem line\ne 1 2\n", None),
        ("p col 3 3\n", 1),
    ])
    def test_sniff_needs_a_known_problem_line(self, tmp_path, text, line):
        p = tmp_path / "odd.txt"
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_instance(p)
        assert exc.value.line == line

    def test_any_bytes_in_comments_and_any_line_ending(self, tmp_path):
        # Latin-1 and UTF-8 bytes in comments, with a 0x85 byte that
        # str.splitlines() would take for a line break
        p = tmp_path / "accents.clq"
        p.write_bytes(b"c auteur: Fran\xe7ois\x85q 1\rc Fran\xc3\xa7ois\n"
                      b"p edge 2 1\r\ne 1 2\r")
        assert read_instance(p) == WeightedGraph(2, [(0, 1, 1)])

    def test_non_ascii_byte_outside_a_comment(self, tmp_path):
        p = tmp_path / "accents.wedge"
        p.write_bytes(b"c Fran\xe7ois\np wedge 2 1\ne 1 2 \xe7\n")
        with pytest.raises(ParseError) as exc:
            read_instance(p)
        assert exc.value.line == 3


def test_every_export_resolves():
    assert [n for n in mewclique.__all__ if not hasattr(mewclique, n)] == []

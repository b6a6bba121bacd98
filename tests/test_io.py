import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mewclique
import mewclique.io as mio
from mewclique import (ParseError, VertexSet, WeightedGraph,
                       apply_dimacs_weights, gen_random, instance_format,
                       parse_dimacs, parse_weighted_edge_list, read_instance,
                       write_weighted_edge_list)

from conftest import SIX_EDGES, with_zero_weights


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
        ("p edge -1 0\n", 1),                  # negative counts
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

    def test_header_only_input_stays_small(self, data_dir):
        # weight rows scale with n + m: 14 bytes of header must not buy
        # an n x n matrix (4000 x 4000 list cells are over 120 MiB), nor
        # must weighting them; and weighting a parsed graph takes less
        # than parsing it did, since only the rows are new
        def peak_of(fn, arg):  # bytes fn(arg) takes at most over what it found
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            return fn(arg), tracemalloc.get_traced_memory()[1] - before

        text = (data_dir / "p_hat300-1.clq").read_text()
        tracemalloc.start()
        try:
            g, peak = peak_of(lambda t: apply_dimacs_weights(parse_dimacs(t)),
                              "p edge 4000 0\n")
            parsed, parse_peak = peak_of(parse_dimacs, text)
            _, weight_peak = peak_of(apply_dimacs_weights, parsed)
        finally:
            tracemalloc.stop()
        assert g.n == 4000 and g.m == 0
        assert peak < 4 * 2 ** 20
        assert weight_peak < parse_peak


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

    @staticmethod
    def rebuilt(g):
        """The weighting as a rebuild of the whole graph: its definition."""
        return WeightedGraph(
            g.n, ((u, v, (u + v + 2) % 200 + 1) for u, v, _ in g.edges()))

    def assert_weighted(self, g):
        rows_before = [(type(r), list(r), r.copy()) for r in g.weight_rows]
        out, ref = apply_dimacs_weights(g), self.rebuilt(g)
        assert (out.n, out.m) == (ref.n, ref.m) and out.adj_bits is g.adj_bits
        assert out.adj_bits == ref.adj_bits and out.weight_rows == ref.weight_rows
        for row, ref_row in zip(out.weight_rows, ref.weight_rows):
            assert type(row) is type(ref_row)
            assert list(row) == list(ref_row)  # a dict row's key order
        assert [(type(r), list(r), r) for r in g.weight_rows] == rows_before

    def test_same_as_a_rebuild_on_the_bundled_files(self, data_dir):
        paths = sorted(data_dir.glob("*.clq"))
        assert len(paths) == 10
        for path in paths:
            self.assert_weighted(parse_dimacs(path.read_text()))

    @pytest.mark.parametrize("text", ["p edge 4000 0\n", "p edge 0 0\n",
                                      "p edge 1 0\n", "p edge 3 1\ne 3 1\n"])
    def test_same_as_a_rebuild_on_edgeless_and_tiny_graphs(self, text):
        self.assert_weighted(parse_dimacs(text))

    def test_same_as_a_rebuild_on_dict_rows_and_zero_weights(self):
        sparse = [gen_random(3000, 0.005, 1, 200, seed=3),
                  gen_random(600, 0.01, 1, 10, seed=4)]
        assert all(isinstance(g.weight_rows[0], dict) for g in sparse)
        dense = gen_random(40, 0.5, 1, 10, seed=5)
        assert isinstance(dense.weight_rows[0], list)
        for g in sparse + [dense]:
            zero = with_zero_weights(g)
            assert any(w == 0 for _, _, w in zero.edges())
            self.assert_weighted(g)
            self.assert_weighted(zero)

    def test_weighting_under_the_tracer(self, data_dir, monkeypatch):
        # the benchmark's tracer replaces the module's WeightedGraph with
        # a plain function; the weighting must not rely on the class there
        text = (data_dir / "c-fat200-1.clq").read_text()
        ref = self.rebuilt(parse_dimacs(text))
        monkeypatch.setattr(mio, "WeightedGraph",
                            lambda *args, **kwargs: WeightedGraph(*args, **kwargs))
        assert apply_dimacs_weights(parse_dimacs(text)) == ref


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
    ("p wedge 2 -1\n", 1),              # negative counts
    ("c nothing here\n", None),       # missing header
]


# (parser tag, text, the full message): one case or more per kind of
# ParseError, so that where a check runs cannot change what it says
ERROR_MESSAGES = [
    ("edge", "p edge 11 1\ne 1_0 2",
     "line 2: '_', '+', a control or a non-ASCII character outside a comment"),
    ("wedge", "c café\np wedge 2 1\ne 1 2 +5\n",
     "line 3: '_', '+', a control or a non-ASCII character outside a comment"),
    ("edge", "p edge 2\ne 1 2",
     "line 1: expected 'p edge <n> <m>' or 'p wedge <n> <m>'"),
    ("edge", "p edge 2 x", "line 1: non-integer counts in problem line"),
    ("wedge", "p wedge -2 1", "line 1: negative counts in problem line"),
    ("wedge", "p edge 2 1\ne 1 2 1", "line 1: expected 'p wedge' header"),
    ("edge", "p wedge 2 1\ne 1 2", "line 1: expected 'p edge' header"),
    ("edge", "p edge 2 1\n\np edge 2 1", "line 3: duplicate problem line"),
    ("wedge", "c x\ne 1 2 1\np wedge 2 1", "line 2: edge line before problem line"),
    ("edge", "p edge 2 1\ne 1", "line 2: expected 'e <i> <j>'"),
    ("wedge", "p wedge 2 1\ne 1 2", "line 2: expected 'e <i> <j> <w>'"),
    ("edge", "p edge 2 1\ne 1 2 3", "line 2: expected 'e <i> <j>'"),
    ("edge", "p edge 2 1\ne 1 x", "line 2: non-integer token in edge line"),
    ("wedge", "p wedge 2 1\ne 1 2 1.5", "line 2: non-integer token in edge line"),
    ("edge", "p edge 2 1\ne 1 1", "line 2: self-loop on vertex 1"),
    # the self-loop check comes before the range check
    ("wedge", "p wedge 2 1\ne 05 5 -1", "line 2: self-loop on vertex 5"),
    ("edge", "p edge 2 1\ne 01 3", "line 2: vertex index out of range in 'e 1 3'"),
    ("wedge", "p wedge 2 1\ne -1 2 -4",
     "line 2: vertex index out of range in 'e -1 2'"),
    ("edge", "p edge 2 1\ne 0 1", "line 2: vertex index out of range in 'e 0 1'"),
    # a repeated edge collapses in DIMACS, but an out-of-range pair is
    # never taken for one, whatever it would index
    ("edge", "p edge 3 2\ne 2 3\ne 1 6",
     "line 3: vertex index out of range in 'e 1 6'"),
    ("edge", "p edge 3 2\ne 2 3\ne 3 2\ne 12 -1",
     "line 4: vertex index out of range in 'e 12 -1'"),
    ("edge", "p edge 3 2\ne 2 3\ne 0 9",
     "line 3: vertex index out of range in 'e 0 9'"),
    ("wedge", "p wedge 2 1\ne 1 2 -03", "line 2: negative edge weight -3"),
    ("wedge", "p wedge 3 2\ne 1 2 1\nc\ne 2 1 1",
     "line 4: duplicate edge (2, 1)"),
    ("wedge", "p wedge 3 2\ne 3 2 0\ne 2 3 0", "line 3: duplicate edge (2, 3)"),
    ("edge", "p edge 2 1\nq 1 2", "line 2: unrecognized line type 'q'"),
    ("wedge", "E 1 2 1\np wedge 2 1", "line 1: unrecognized line type 'E'"),
    ("edge", "c only a comment\n", "missing problem line"),
    ("wedge", "", "missing problem line"),
]


@pytest.mark.parametrize("tag,text,message", ERROR_MESSAGES,
                         ids=[text for _, text, _ in ERROR_MESSAGES])
def test_error_messages(tag, text, message):
    parse = parse_dimacs if tag == "edge" else parse_weighted_edge_list
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


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

    def test_rows_switch_form_mid_stream(self):
        # n = 100 starts with neighbor-keyed rows and switches to lists at
        # its 29th edge, while the parser is still streaming edges in
        g = gen_random(100, 0.5, 1, 200, seed=3)
        assert g.m > 1000 and all(type(row) is list for row in g.weight_rows)
        text = write_weighted_edge_list(g)
        h = parse_weighted_edge_list(text)
        assert h == g and write_weighted_edge_list(h) == text
        u, v, _ = next(g.edges())
        last = g.m + 2  # the line after the last edge line
        for extra, message in [
                (f"e {v + 1} {u + 1} 5", f"duplicate edge ({v + 1}, {u + 1})"),
                ("e 1 2 -5", "negative edge weight -5"),
                ("e 7 101 1", "vertex index out of range in 'e 7 101'")]:
            with pytest.raises(ParseError) as exc:
                parse_weighted_edge_list(text + extra)
            assert str(exc.value) == f"line {last}: {message}"

    @staticmethod
    def mutations(text):
        """(label, text): the text, then the text with one line changed,
        split, added or dropped"""
        lines = text.split("\n")  # the p line, the edge lines, then ""
        n = int(lines[0].split()[2])
        mid = len(lines) // 2  # an edge line
        _, i, j, w = lines[mid].split()
        _, a, b, _ = lines[1].split()

        def at(line):  # the text with its middle edge line replaced
            return "\n".join(lines[:mid] + [line] + lines[mid + 1:])

        return [("plain", text), ("bad token", at(f"e {i} {j} x")),
                ("missing token", at(f"e {i} {j}")),
                ("fifth token", at(f"e {i} {j} {w} 1")),
                ("weight on a line of its own", at(f"e {i} {j}\n{w}")),
                ("f for e", at(f"f {i} {j} {w}")),
                ("leading blank", at(f" e {i} {j} {w}")),
                ("tab after e", at(f"e\t{i} {j} {w}")),
                ("tab between ints", at(f"e {i}\t{j} {w}")),
                ("\\r line end", at(f"e {i} {j} {w}\r")),
                ("trailing blank line", text + "\n"),
                ("no final newline", text[:-1]),
                ("out of range", at(f"e {i} {n + 1} {w}")),
                ("self-loop", at(f"e {i} {i} {w}")),
                ("negative weight", at(f"e {i} {j} -{w}")),
                ("repeat", text + f"e {a} {b} 5\n"),
                ("repeat reversed", text + f"e {b} {a} 5\n")]

    @pytest.mark.parametrize("n,density,seed", [
        (8, 0.5, 1), (13, 0.3, 2), (18, 0.7, 3),
        (300, 0.01, 7)])  # neighbor-keyed weight rows
    def test_line_walk_is_the_column_reads_reference(self, monkeypatch, n,
                                                     density, seed):
        # a comment line after the p line sends a text down the line walk:
        # an equal graph, each row's keys in the same order, or the same
        # error one line lower
        walks = []
        content_lines = mio._content_lines
        monkeypatch.setattr(mio, "_content_lines", lambda *args: (
            walks.append(args) or content_lines(*args)))

        def outcome(text):
            try:
                g = parse_weighted_edge_list(text)
            except ParseError as exc:
                return exc.line, str(exc)
            return g, [list(row) for row in g.weight_rows]

        g = gen_random(n, density, 1, 10, seed=seed)
        assert g.m > 2 and isinstance(g.weight_rows[0], dict) == (n == 300)
        for label, text in self.mutations(write_weighted_edge_list(g)):
            walks.clear()
            got = outcome(text)
            if label in ("plain", "no final newline", "tab between ints"):
                assert got[0] == g and not walks, label  # the column read
            line, ref = outcome(text.replace("\n", "\nc walk\n", 1))
            if isinstance(line, int):
                message = ref.removeprefix(f"line {line}: ")
                ref = str(ParseError(message, line - 1))
                line -= 1
            assert got == (line, ref), label

    def test_column_read_builds_under_the_tracer(self, monkeypatch):
        # the benchmark's tracer times each build by replacing the
        # module's WeightedGraph name: the column read must go through it
        g = gen_random(300, 0.01, 1, 10, seed=7)
        built = []
        monkeypatch.setattr(mio, "WeightedGraph", lambda n, edges: (
            built.append(n) or WeightedGraph(n, edges)))
        assert parse_weighted_edge_list(write_weighted_edge_list(g)) == g
        assert built == [300]

    @pytest.mark.parametrize("text,line", WEDGE_ERRORS,
                             ids=[text for text, _ in WEDGE_ERRORS])
    def test_errors(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_weighted_edge_list(text)
        assert exc.value.line == line
        if line is not None:
            assert f"line {line}" in str(exc.value)


@pytest.fixture
def checked(monkeypatch):
    """Every text and line that io._printable tests, in order."""
    texts = []
    printable = mio._printable

    def recording(s):
        texts.append(s)
        return printable(s)

    monkeypatch.setattr(mio, "_printable", recording)
    return texts


def test_whole_text_test_spares_the_line_checks(checked):
    text = write_weighted_edge_list(gen_random(3000, 0.005, 1, 200, seed=1))
    g = parse_weighted_edge_list(text)
    assert checked == [text]  # the whole text once, and no line
    checked.clear()
    # a non-ASCII comment after the first content line fails the
    # whole-text test: then each content line is checked, once
    header, rest = text.split("\n", 1)
    assert parse_weighted_edge_list(f"{header}\nc caf\xe9\n{rest}") == g
    assert checked[1:] == text.split("\n")[:-1]


@pytest.mark.parametrize("comment", ["c file_name.wedge", "c caf\xe9 \x0b"])
def test_leading_comments_stay_out_of_the_whole_text_test(checked, comment):
    # the test starts at the first content line, so a text whose only
    # '_' or control character sits in the comments before it is tested
    # once, and none of its lines on their own
    text = write_weighted_edge_list(gen_random(40, 0.3, 1, 200, seed=2))
    g = parse_weighted_edge_list(f"{comment}\n\n c x\n{text}")
    assert checked == [text]
    assert g == parse_weighted_edge_list(text)


@pytest.mark.parametrize("name", ["MANN_a9", "brock200_2", "p_hat300-1"])
def test_bundled_file_names_stay_off_the_per_line_path(checked, data_dir,
                                                       name):
    # each holds '_' only in its comment header: its own file name
    text = (data_dir / f"{name}.clq").read_text()
    assert "_" in text and parse_dimacs(text).n > 0
    assert len(checked) == 1 and "_" not in checked[0]


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
        # a non-int weight bound fails here, not inside randint (or,
        # with no edge drawn, not at all)
        dict(n=5, density=0.5, w_min=1, w_max=2.5),
        dict(n=5, density=0.0, w_min=1.5, w_max=3),
        dict(n=5, density=0.5, w_min=True, w_max=3),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            gen_random(**kwargs)

    @pytest.mark.parametrize("name", ["w_min", "w_max"])
    def test_names_a_non_int_weight_bound(self, name):
        with pytest.raises(ValueError, match=name):
            gen_random(5, 0.5, **{"w_min": 1, "w_max": 3, name: 2.0})


@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 16),
       density=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_round_trip_is_identity(seed, n, density):
    g = gen_random(n, density, 1, 10, seed=seed)
    assert parse_weighted_edge_list(write_weighted_edge_list(g)) == g


# Every number is small, header n at most 64: storage still grows with
# the n a header declares (ROADMAP item 5, Step A)
_SMALL = st.integers(-1, 9).map(str)
_JUNK = st.lists(st.one_of(_SMALL, st.sampled_from(
    ["c", "p", "e", "edge", "wedge", "-", "_", "+", "\xe9", "\x0b", "\r",
     "1_0", "+1", "07", "x"])), max_size=5)


@st.composite
def _instance(draw):
    """(tag, lines): instance text lines, mostly well formed for tag."""
    tag = draw(st.sampled_from(["edge", "wedge"]))
    n = draw(st.integers(-1, 64))
    header = st.tuples(st.just("p"), st.sampled_from([tag] * 3 + ["edge", "wedge"]),
                       st.just(str(n)), _SMALL)
    vertex = st.integers(0, min(n, 9) + 1).map(str)  # 0 and n + 1 out of range
    edge = st.tuples(*[st.just("e"), vertex, vertex, _SMALL][:3 + (tag == "wedge")])

    def lines(*shapes, size):
        line = st.builds(lambda t, blank, end: blank.join(t) + end,
                         st.sampled_from(shapes).flatmap(lambda shape: shape),
                         st.sampled_from([" "] * 5 + ["\t", " \t ", "\r", "\x0b"]),
                         st.sampled_from(["", "", "\r"]))
        return draw(st.lists(line, min_size=size[0], max_size=size[1]))

    return tag, (lines(*[header] * 8, edge, _JUNK, size=(1, 1))
                 + lines(*[edge] * 20, header, _JUNK, size=(0, 12)))


def _outcome(lines, tag):
    try:
        return mio._parse("\n".join(lines), tag), None
    except ParseError as exc:
        return None, exc


@given(instance=_instance())
@settings(max_examples=250, deadline=None)
def test_parse_fuzz(instance):
    # a graph or a ParseError naming a line of the text, nothing else
    tag, lines = instance
    g, exc = _outcome(lines, tag)
    if exc is None:
        assert isinstance(g, WeightedGraph)
    else:
        assert exc.line is None or 1 <= exc.line <= max(len(lines), 1)


@given(instance=_instance(), data=st.data(),
       char=st.sampled_from(["_", "+", "\xe9", "\x0b"]))
@settings(max_examples=250, deadline=None)
def test_comment_fails_the_whole_text_test_only(instance, data, char):
    # such a comment sends every line through the per-line check, which
    # must then read the text exactly as the whole-text test did
    tag, lines = instance
    at = data.draw(st.integers(0, len(lines)))
    g, exc = _outcome(lines, tag)
    g2, exc2 = _outcome(lines[:at] + [f"c {char}"] + lines[at:], tag)
    assert g2 == g
    if exc is None:
        assert exc2 is None
    else:
        line = exc.line if exc.line is None or exc.line <= at else exc.line + 1
        message = str(exc).removeprefix(f"line {exc.line}: ")
        assert (exc2.line, str(exc2)) == (line, str(ParseError(message, line)))


class TestInstanceFormat:
    @pytest.mark.parametrize("text, fmt", [
        ("p edge 2 1\ne 1 2\n", "dimacs"),
        ("c a comment\np wedge 2 1\ne 1 2 7\n", "wedge"),
        # content lines before the p line are passed over
        ("e 1 2\ne 2 3 4\np edge 3 2\n", "dimacs"),
        ("x y\np wedge 0 0\n", "wedge"),
        # only the header is read: what follows it is not checked
        ("p edge 2 1\ne 1 2 \xe7\n", "dimacs"),
    ])
    def test_names_the_format_of_the_p_line(self, text, fmt):
        assert instance_format(text) == fmt

    @pytest.mark.parametrize("text, line", [
        pytest.param("c no problem line\ne 1 2\n", None, id="no-p-line"),
        pytest.param("", None, id="empty"),
        pytest.param("p col 3 3\n", 1, id="unknown-tag"),
        pytest.param("c ok\ne 1 \xe7\np edge 2 1\n", 2,
                     id="non-ascii-before-p"),
    ])
    def test_refusals(self, text, line):
        with pytest.raises(ParseError) as exc:
            instance_format(text)
        assert exc.value.line == line


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

    def test_problem_line_beats_the_suffix(self, tmp_path):
        p = tmp_path / "odd.clq"
        p.write_text("p wedge 2 1\ne 1 2 7\n")
        assert read_instance(p).edge_weight(0, 1) == 7
        p = tmp_path / "odd.wedge"
        p.write_text("p edge 2 1\ne 1 2\n")
        assert read_instance(p) == WeightedGraph(2, [(0, 1, 1)])

    def test_removed_parameter_fails_loudly(self, tmp_path):
        # the p line is the only source of the format
        p = tmp_path / "x.wedge"
        p.write_text("p wedge 1 0\n")
        with pytest.raises(TypeError, match="fmt"):
            read_instance(p, fmt="wedge")

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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mewclique import (VertexSet, WeightedGraph, coloring_scores, gen_random,
                       is_clique, parse_weighted_edge_list, set_weight, solve,
                       write_weighted_edge_list)

from conftest import SIX_EDGES


class TestVertexSet:
    def test_basics(self):
        s = VertexSet([5, 0, 2])
        assert list(s) == [0, 2, 5]
        assert len(s) == 3
        assert 2 in s and 1 not in s and -1 not in s
        assert bool(s)
        assert not VertexSet()

    def test_algebra(self):
        a = VertexSet([0, 1, 2])
        b = VertexSet([1, 2, 3])
        assert a & b == VertexSet([1, 2])
        assert a | b == VertexSet([0, 1, 2, 3])
        assert a - b == VertexSet([0])
        assert VertexSet([1, 2]).issubset(a)
        assert not a.issubset(b)

    def test_hashable(self):
        assert len({VertexSet([1, 2]), VertexSet([2, 1]), VertexSet([3])}) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VertexSet([0, -1])
        # ints only: a bool would pass as 0/1, a float fail on the shift
        for members in ([True, 2], [1.0], [0, 2.0]):
            with pytest.raises(ValueError, match=r"non-int vertex index"):
                VertexSet(members)
        with pytest.raises(ValueError):
            VertexSet.from_mask(-1)


# (n, edges to start from): list rows, then dict rows (n = 100 with a
# few edges), so each refusal is checked in both row forms
STARTS = [(3, []), (100, [(5, 9, 0), (40, 99, 7), (2, 64, 3)])]


class TestConstruction:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            WeightedGraph(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            gen_random(-1, 0.5)
        for n in (True, False, 2.0, "3"):
            with pytest.raises(ValueError, match="non-int vertex count"):
                WeightedGraph(n)
            with pytest.raises(ValueError, match="non-int vertex count"):
                gen_random(n, 0.5)  # checked before range(n) reads it
        with pytest.raises(ValueError, match="non-int vertex count True"):
            gen_random(True, 0.5)

    def test_rejects_self_loop(self):
        for n, before in STARTS:
            with pytest.raises(ValueError, match=r"^self-loop on vertex 1$"):
                WeightedGraph(n, before + [(1, 1, 5)])

    def test_rejects_out_of_range(self):
        for n, before in STARTS:
            with pytest.raises(ValueError,
                               match=rf"^edge \(0, {n}\) out of range for n={n}$"):
                WeightedGraph(n, before + [(0, n, 5)])

    def test_rejects_negative_edge_weight(self):
        for n, before in STARTS:
            with pytest.raises(ValueError,
                               match=r"^negative weight -4 on edge \(0, 2\)$"):
                WeightedGraph(n, before + [(0, 2, -4)])
            for w in (2.5, True):  # the search shifts weights; a float fails there
                with pytest.raises(ValueError,
                                   match=rf"^non-int weight {w} on edge \(0, 2\)$"):
                    WeightedGraph(n, before + [(0, 2, w)])

    def test_rejects_duplicate_edge(self):
        for n, before in STARTS:
            for u, v in ((0, 1), (1, 0)):  # the same orientation and the other
                with pytest.raises(ValueError,
                                   match=rf"^duplicate edge \({u}, {v}\)$"):
                    WeightedGraph(n, before + [(0, 1, 1), (u, v, 2)])

    def test_rejects_non_int_endpoint(self):
        # ints only: a bool would pass as 0/1, a float fail on indexing
        for n, before in STARTS:
            for edge in ((True, 2, 1), (0.0, 1, 2), (0, 1.0, 2)):
                with pytest.raises(ValueError,
                                   match=r"non-int endpoint in edge \("):
                    WeightedGraph(n, before + [(1, 2, 5), edge])

    def test_masks_of_dict_rows_are_their_edges(self):
        # a dict-row graph builds its masks once, from its rows' keys; so
        # does one whose rows turn into lists mid-stream, at the switch
        text = write_weighted_edge_list(gen_random(100, 0.5, 1, 200, seed=3))
        switched = [(int(i) - 1, int(j) - 1, int(w)) for _, i, j, w
                    in map(str.split, text.splitlines()[1:])]
        for edges, row_type in ((STARTS[1][1], dict), (switched, list)):
            masks = [0] * 100
            for u, v, _ in edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            for g in (WeightedGraph(100, edges), parse_weighted_edge_list(
                    write_weighted_edge_list(WeightedGraph(100, edges)))):
                assert isinstance(g.weight_rows[0], row_type)
                assert g.adj_bits == masks

    def test_removed_parameter_fails_loudly(self):
        # vertex weights are an argument of the functions that read them
        with pytest.raises(TypeError, match="vertex_weights"):
            WeightedGraph(2, [], vertex_weights=[1, 0])

    def test_zero_weight_edge_is_still_an_edge(self):
        g = WeightedGraph(2, [(0, 1, 0)])
        assert g.has_edge(0, 1)
        assert g.edge_weight(0, 1) == 0
        assert g.m == 1

    def test_symmetry(self):
        g = WeightedGraph(6, SIX_EDGES)
        for u in range(6):
            for v in range(6):
                assert g.has_edge(u, v) == g.has_edge(v, u)
                assert g.edge_weight(u, v) == g.edge_weight(v, u)
                if not g.has_edge(u, v):
                    assert g.edge_weight(u, v) == 0


class TestQueries:
    def test_neighbors(self, g6):
        assert g6.neighbors(4) == VertexSet([0, 1, 3, 5])
        assert g6.neighbors(4) is not g6.neighbors(4)  # fresh value each call

    def test_neighbors_trivial(self):
        assert WeightedGraph(1).neighbors(0) == VertexSet()
        k4 = WeightedGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
        assert k4.neighbors(0) == VertexSet([1, 2, 3])

    def test_is_clique(self, g6):
        assert is_clique(g6, VertexSet([3, 4, 5]))
        assert is_clique(g6, VertexSet())
        assert is_clique(g6, VertexSet([2]))
        assert not is_clique(g6, VertexSet([0, 2]))  # no edge (0, 2)

    def test_is_clique_rejects_out_of_range(self, g6):
        with pytest.raises(ValueError):
            is_clique(g6, VertexSet([6]))

    def test_vertex_set_arguments_must_be_vertex_sets(self, g6):
        # a list or tuple used to die with AttributeError on .mask
        for call in (lambda: solve(g6, [0, 1]), lambda: is_clique(g6, (0,)),
                     lambda: set_weight(g6, [0]),
                     lambda: coloring_scores(g6, [[0, 2, 5], [1, 3], [4]],
                                             [0] * 6)):
            with pytest.raises(TypeError, match="expected a VertexSet"):
                call()

    def test_set_weight(self, g6):
        assert set_weight(g6, VertexSet([3, 4, 5])) == 19
        assert set_weight(g6, VertexSet([4, 5])) == 8
        assert set_weight(g6, VertexSet()) == 0

    def test_density_and_degree(self, g6):
        assert g6.m == 8
        assert g6.density() == pytest.approx(16 / 30)
        assert g6.degree(4) == 4
        assert WeightedGraph(1).density() == 0.0
        for v in (1.0, True):  # a bool would read vertex 1
            with pytest.raises(ValueError, match=r"non-int vertex"):
                g6.degree(v)
        for call in (lambda: g6.degree(6), lambda: g6.edge_weight(0, 6)):
            with pytest.raises(ValueError, match="vertex 6 out of range"):
                call()

    def test_edges_ascending(self, g6):
        es = list(g6.edges())
        assert es == sorted(es)
        assert (4, 5, 8) in es


def test_set_weight_matches_pairwise_recomputation():
    # independent recomputation: loop over all pairs inside the subset
    rng = random.Random(7)
    checked = 0
    for gi in range(10):
        g = gen_random(14, rng.choice([0.2, 0.5, 0.8]), 1, 10, seed=100 + gi)
        for _ in range(100):
            members = [v for v in range(g.n) if rng.random() < 0.5]
            expected = 0
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    expected += g.edge_weight(u, v)
            assert set_weight(g, VertexSet(members)) == expected
            checked += 1
    assert checked == 1000


@given(seed=st.integers(0, 10 ** 6), density=st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_cliques_are_hereditary(seed, density):
    g = gen_random(10, density, 1, 10, seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    members = [v for v in range(g.n) if rng.random() < 0.6]
    c = VertexSet(members)
    if is_clique(g, c):
        for _ in range(10):
            sub = VertexSet([v for v in members if rng.random() < 0.5])
            assert is_clique(g, sub)

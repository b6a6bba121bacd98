import random

import pytest

from mewclique import VertexSet, WeightedGraph, brute_force_mewc, gen_random

from conftest import SIX_VERTEX_WEIGHTS, dumb_best_weight


def test_sample_graph(g6):
    clique, weight = brute_force_mewc(g6)
    assert weight == 19
    assert clique == VertexSet([3, 4, 5])


def test_sample_graph_with_vertex_weights(g6):
    assert brute_force_mewc(g6, SIX_VERTEX_WEIGHTS)[1] == 35
    assert brute_force_mewc(g6, SIX_VERTEX_WEIGHTS) == (VertexSet([3, 4, 5]), 35)


def test_triangle():
    g = WeightedGraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
    clique, weight = brute_force_mewc(g)
    assert weight == 6
    assert clique == VertexSet([0, 1, 2])


def test_edgeless():
    clique, weight = brute_force_mewc(WeightedGraph(4))
    assert weight == 0
    assert len(clique) <= 1


def test_single_weighted_vertex():
    assert brute_force_mewc(WeightedGraph(1), [9])[1] == 9


def test_tie_break_is_lexicographic():
    triangles = [(0, 1, 2), (0, 2, 2), (1, 2, 2), (3, 4, 2), (3, 5, 2), (4, 5, 2)]
    clique, weight = brute_force_mewc(WeightedGraph(6, triangles))
    assert weight == 6
    assert clique == VertexSet([0, 1, 2])


def test_rejects_large_instances():
    g = WeightedGraph(21)
    with pytest.raises(ValueError, match="too large"):
        brute_force_mewc(g)
    with pytest.raises(ValueError, match="too large"):
        brute_force_mewc(g, [0] * g.n)
    assert brute_force_mewc(g, n_limit=25)[1] == 0


def test_rejects_bad_join_weights():
    # short list, negative, float, bool: each names the vertex
    for join, match in (([1], "no join weight .* vertex 1"),
                        ([1, -1], "negative weight .* vertex 1"),
                        ([1, 2.5], "non-int weight .* vertex 1"),
                        ([1, True], "non-int weight .* vertex 1")):
        with pytest.raises(ValueError, match=match):
            brute_force_mewc(WeightedGraph(2), join)


def test_agrees_with_subset_scan():
    rng = random.Random(13)
    for i in range(40):
        n = 4 + i % 9
        g = gen_random(n, rng.choice([0.2, 0.5, 0.8]), 1, 10, seed=300 + i)
        assert brute_force_mewc(g)[1] == dumb_best_weight(g)


def test_vertex_weighted_agrees_with_subset_scan():
    rng = random.Random(14)
    for i in range(30):
        n = 4 + i % 9
        g = gen_random(n, rng.choice([0.2, 0.5, 0.8]), 1, 10, seed=400 + i)
        join = [rng.randint(0, 9) for _ in range(n)]
        assert brute_force_mewc(g, join)[1] == dumb_best_weight(g, join)

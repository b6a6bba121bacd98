import random

import pytest

from mewclique import (PlsConfig, SolverConfig, VertexSet, WeightedGraph,
                       brute_force_mewc, gen_random, is_clique, pls,
                       set_weight, solve)

from conftest import count_cliques, with_zero_weights

TWO_TRIANGLES = [(0, 1, 2), (0, 2, 2), (1, 2, 2),
                 (3, 4, 2), (3, 5, 2), (4, 5, 2)]


class TestValidation:
    def test_rejects_vertex_weights(self):
        g = WeightedGraph(2, [(0, 1, 3)], vertex_weights=[1, 0])
        with pytest.raises(ValueError, match="vertex weights"):
            solve(g)

    def test_rejects_non_clique_start(self, g6):
        with pytest.raises(ValueError, match="not a clique"):
            solve(g6, VertexSet([0, 2]))

    @pytest.mark.parametrize("cfg", [
        SolverConfig(time_limit=0),
        SolverConfig(node_limit=0),
        SolverConfig(assertion_level="debug"),
    ])
    def test_rejects_bad_config(self, g6, cfg):
        with pytest.raises(ValueError):
            solve(g6, config=cfg)


class TestBasics:
    def test_empty_graph(self):
        res = solve(WeightedGraph(0))
        assert res.best_weight == 0 and res.proven_optimal
        assert res.iterations >= 1

    def test_edgeless(self):
        res = solve(WeightedGraph(5))
        assert res.best_weight == 0 and res.proven_optimal

    def test_sample_graph(self, g6):
        res = solve(g6)
        assert res.best_weight == 19
        assert res.best_clique == VertexSet([3, 4, 5])
        assert res.proven_optimal
        assert res.initial_weight == 0
        assert res.elapsed >= 0

    def test_result_invariants(self, g6):
        res = solve(g6)
        assert is_clique(g6, res.best_clique)
        assert set_weight(g6, res.best_clique) == res.best_weight

    def test_warm_start_used(self, g6):
        start = VertexSet([3, 4, 5])
        res = solve(g6, start)
        assert res.initial_weight == 19
        assert res.best_weight == 19

    def test_warm_start_can_be_ignored(self, g6):
        res = solve(g6, VertexSet([3, 4, 5]),
                    SolverConfig(use_initial_solution=False))
        assert res.initial_weight == 0
        assert res.best_weight == 19

    def test_ties_keep_initial_incumbent(self):
        # two disjoint triangles of equal weight; strict comparison must
        # keep the seeded optimum rather than switch to the other one
        g = WeightedGraph(6, TWO_TRIANGLES)
        res = solve(g, VertexSet([3, 4, 5]))
        assert res.best_weight == 6
        assert res.best_clique == VertexSet([3, 4, 5])


class TestOracleEquivalence:
    def test_random_sweep(self):
        rng = random.Random(0)
        for i in range(60):
            n = 8 + i % 7
            g = gen_random(n, rng.choice([0.2, 0.5, 0.8]), 1, 10, seed=i)
            res = solve(g)
            clique, weight = brute_force_mewc(g)
            assert res.proven_optimal
            assert res.best_weight == weight
            assert is_clique(g, res.best_clique)
            assert set_weight(g, res.best_clique) == weight

    def test_with_invariant_checks(self):
        cfg = SolverConfig(assertion_level="invariants")
        for seed in range(10):
            g = gen_random(10, 0.5, 1, 10, seed=seed)
            res = solve(g, config=cfg)
            assert res.best_weight == brute_force_mewc(g)[1]

    def test_warm_start_neutrality(self):
        for seed in range(20):
            g = gen_random(12, 0.5, 1, 10, seed=seed)
            cold = solve(g)
            warm = solve(g, pls(g, PlsConfig(iterations=2, seed=seed)))
            assert cold.best_weight == warm.best_weight
            assert cold.proven_optimal and warm.proven_optimal


class TestEnumerationBaseline:
    def test_matches_and_counts_cliques(self):
        cfg = SolverConfig(use_coloring_bound=False)
        for seed in range(10):
            g = gen_random(14, 0.5, 1, 10, seed=seed)
            bounded = solve(g)
            unbounded = solve(g, config=cfg)
            assert bounded.best_weight == unbounded.best_weight
            # without a bound every clique becomes exactly one node
            assert unbounded.iterations == count_cliques(g)
            assert bounded.iterations <= unbounded.iterations


class TestLimits:
    def test_node_limit(self):
        g = gen_random(30, 0.6, 1, 10, seed=1)
        res = solve(g, config=SolverConfig(node_limit=1))
        assert not res.proven_optimal
        assert res.iterations == 1
        assert is_clique(g, res.best_clique)

    def test_node_limit_keeps_warm_start(self):
        g = gen_random(30, 0.6, 1, 10, seed=1)
        warm = pls(g, PlsConfig(iterations=1, seed=1))
        res = solve(g, warm, SolverConfig(node_limit=1))
        assert not res.proven_optimal
        assert res.best_weight >= set_weight(g, warm)

    def test_generous_node_limit_is_harmless(self):
        g = gen_random(15, 0.5, 1, 10, seed=2)
        free = solve(g)
        capped = solve(g, config=SolverConfig(node_limit=10 ** 9))
        assert capped.proven_optimal
        assert (capped.best_weight, capped.iterations) == \
            (free.best_weight, free.iterations)

    def test_time_limit(self):
        g = gen_random(60, 0.9, 1, 10, seed=3)
        res = solve(g, config=SolverConfig(time_limit=0.05))
        assert not res.proven_optimal
        assert is_clique(g, res.best_clique)
        assert set_weight(g, res.best_clique) == res.best_weight


def test_determinism():
    g = gen_random(16, 0.6, 1, 10, seed=4)
    runs = [solve(g) for _ in range(3)]
    assert len({r.best_weight for r in runs}) == 1
    assert len({r.best_clique for r in runs}) == 1
    assert len({r.iterations for r in runs}) == 1


def _reference_solve(g):
    """Literal, uncached transliteration of the search for trace
    comparison: join weights, clique weights and scores are recomputed
    from scratch at every node, the branch loop tests every candidate,
    and plain lists stand in for bitmasks. Slow on purpose."""
    adj = g.adj_bits
    w = g.weight_rows
    state = {"best": 0, "iterations": 0}

    def weight_of(members):
        return set_weight(g, VertexSet(members))

    def calc(c_members, s_members):
        score = {v: sum(w[u][v] for u in c_members) for v in s_members}
        uncolored = list(s_members)
        order, upper, classes = [], {}, []
        while uncolored:
            closed = sum(max(score[u] for u in cls) for cls in classes)
            cls = []
            for v in sorted(uncolored, key=lambda v: (score[v], v)):
                if all(not (adj[v] >> u) & 1 for u in cls):
                    upper[v] = score[v] + closed
                    order.append(v)
                    cls.append(v)
            classes.append(cls)
            uncolored = [v for v in uncolored if v not in cls]
            for v in uncolored:
                linked = [w[u][v] for u in cls if (adj[v] >> u) & 1]
                if linked:
                    score[v] += max(linked)
        order.reverse()
        return order, upper

    def expand(c_members, s_members):
        state["iterations"] += 1
        if not s_members:
            wc = weight_of(c_members)
            if wc > state["best"]:
                state["best"] = wc
            return
        wc = weight_of(c_members)
        order, upper = calc(c_members, s_members)
        branched = set()
        for p in order:
            if wc + upper[p] > state["best"]:
                child = [v for v in s_members
                         if v not in branched and (adj[p] >> v) & 1]
                expand(c_members + [p], child)
            branched.add(p)

    expand([], list(range(g.n)))
    return state["best"], state["iterations"]


def test_matches_reference_implementation_node_for_node(g6):
    # deterministic tie-breaks make the node count a trace fingerprint:
    # any divergence in order, pruning or state maintenance shows up
    graphs = [g6] + [gen_random(8 + s % 7, (s % 3 + 1) * 0.25, 1, 10, seed=s)
                     for s in range(40)]
    graphs += [with_zero_weights(g) for g in graphs[1:11]]
    graphs.append(gen_random(14, 0.95, 1, 10, seed=0))  # density 0.956
    graphs.append(gen_random(100, 0.03, 1, 10, seed=0))  # root classes up to 49
    for g in graphs:
        res = solve(g)
        ref_weight, ref_iterations = _reference_solve(g)
        assert res.best_weight == ref_weight
        assert res.iterations == ref_iterations

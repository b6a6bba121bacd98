import inspect
import json
import math
import random
import sys
from pathlib import Path

import pytest

from mewclique import (PlsConfig, SolverConfig, VertexSet, WeightedGraph,
                       brute_force_mewc, gen_random, graph, is_clique, pls,
                       set_weight, solve)

from conftest import with_zero_weights

FINGERPRINT = (Path(__file__).parent.parent / "perfbench"
               / "baseline-fingerprint-dimacs9.json")

TWO_TRIANGLES = [(0, 1, 2), (0, 2, 2), (1, 2, 2),
                 (3, 4, 2), (3, 5, 2), (4, 5, 2)]


class TestValidation:
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

    @pytest.mark.parametrize("field, value", [
        ("time_limit", math.nan),
        ("time_limit", True),
        ("time_limit", "5"),
        ("node_limit", 2.5),
        ("node_limit", True),
    ])
    def test_rejects_bad_field(self, g6, field, value):
        with pytest.raises(ValueError, match=field):
            solve(g6, config=SolverConfig(**{field: value}))

    @pytest.mark.parametrize("field", ["use_coloring_bound",
                                       "use_initial_solution"])
    def test_removed_field_fails_loudly(self, field):
        # the search always colors, and warm-starts exactly when given
        # c_initial; an old caller's switch must not be silently ignored
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: False})


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

    def test_ties_keep_initial_incumbent(self):
        # two disjoint triangles of equal weight; strict comparison must
        # keep the seeded optimum rather than switch to the other one
        g = WeightedGraph(6, TWO_TRIANGLES)
        res = solve(g, VertexSet([3, 4, 5]))
        assert res.best_weight == 6
        assert res.best_clique == VertexSet([3, 4, 5])

    def test_raises_a_low_recursion_limit(self):
        # one frame per clique vertex: K_80 needs 80 more than the caller
        k80 = WeightedGraph(80, [(u, v, 1) for u in range(80)
                                 for v in range(u + 1, 80)])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            res = solve(k80)
        finally:
            sys.setrecursionlimit(old)
        assert res.best_weight == 80 * 79 // 2 and res.proven_optimal
        assert res.iterations == 81


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
        graphs = [gen_random(10, 0.5, 1, 10, seed=seed) for seed in range(10)]
        graphs += [with_zero_weights(g) for g in graphs[:5]]
        sparse = gen_random(300, 0.01, 1, 10, seed=0)
        assert all(isinstance(row, dict) for row in sparse.weight_rows)
        graphs.append(sparse)
        for seed, g in enumerate(graphs):
            want = brute_force_mewc(g, n_limit=g.n)[1]
            for start in (None, pls(g, PlsConfig(iterations=2, seed=seed))):
                res = solve(g, start, cfg)
                assert res.proven_optimal and res.best_weight == want

    def test_warm_start_neutrality(self):
        for seed in range(20):
            g = gen_random(12, 0.5, 1, 10, seed=seed)
            cold = solve(g)
            warm = solve(g, pls(g, PlsConfig(iterations=2, seed=seed)))
            assert cold.best_weight == warm.best_weight
            assert cold.proven_optimal and warm.proven_optimal


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
    and plain lists stand in for bitmasks. A branch whose clique
    weight plus, per earlier class, the best score(u) + w(p, u) over
    its child, less d for each class whose unique top (d above the
    runner-up) joins a group of pairwise non-adjacent tops, cannot
    beat the incumbent is skipped without a node. Grouping is tried
    at every branch: the solver's test for when it can matter is a
    shortcut that must not change a decision. Slow on purpose. Join
    weights and scores read a dense matrix rebuilt from g.edges(), not
    the graph's weight rows."""
    adj = g.adj_bits
    w = [[0] * g.n for _ in range(g.n)]
    for u, v, wt in g.edges():
        w[u][v] = w[v][u] = wt
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
        return order, upper, classes, score

    def ahead(c_members, p, child, classes, score):
        i = next(j for j, cls in enumerate(classes) if p in cls)
        total = weight_of(c_members + [p])
        tops = []  # (d, t) per class whose top t beats the rest by d
        for cls in classes[:i]:
            values = sorted([score[u] + w[p][u] for u in cls if u in child],
                            reverse=True) + [0, 0]
            total += values[0]
            if values[0] > values[1]:
                t = next(u for u in cls
                         if u in child and score[u] + w[p][u] == values[0])
                tops.append((values[0] - values[1], t))
        groups = []  # lists of pairwise non-adjacent tops
        for d, t in sorted(tops, reverse=True):
            for group in groups:
                if all(not (adj[t] >> u) & 1 for u in group):
                    group.append(t)
                    total -= d
                    break
            else:
                groups.append([t])
        return total

    def expand(c_members, s_members):
        state["iterations"] += 1
        if not s_members:
            wc = weight_of(c_members)
            if wc > state["best"]:
                state["best"] = wc
            return
        wc = weight_of(c_members)
        order, upper, classes, score = calc(c_members, s_members)
        branched = set()
        for p in order:
            if wc + upper[p] > state["best"]:
                child = [v for v in s_members
                         if v not in branched and (adj[p] >> v) & 1]
                if ahead(c_members, p, child, classes, score) > state["best"]:
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
    graphs.append(gen_random(300, 0.01, 1, 10, seed=0))  # neighbor-keyed rows
    for g in graphs:
        res = solve(g)
        ref_weight, ref_iterations = _reference_solve(g)
        assert res.best_weight == ref_weight
        assert res.iterations == ref_iterations


@pytest.mark.parametrize("n,density,seed,default_form", [
    (16, 0.6, 1, list), (100, 0.03, 2, list), (300, 0.01, 0, dict)])
def test_row_form_does_not_change_the_search(monkeypatch, n, density, seed,
                                             default_form):
    # the constructor alone picks list or neighbor-keyed weight rows; the
    # same graph must read and search the same with dict rows (ratio 1,
    # as none is complete), with the default choice (at n = 100 the rows
    # turn from dicts into lists at the 29th edge) and with list rows
    runs = []
    for ratio, form in ((1, dict), (graph._SPARSE_RATIO, default_form),
                        (1 << 40, list)):
        monkeypatch.setattr(graph, "_SPARSE_RATIO", ratio)
        base = gen_random(n, density, 1, 10, seed=seed)
        seen = []
        for g in (base, with_zero_weights(base)):
            assert all(isinstance(row, form) for row in g.weight_rows)
            res = solve(g, pls(g, PlsConfig(iterations=2, seed=seed)))
            seen.append((list(g.edges()),
                         [g.edge_weight(u, v) for u in range(n) for v in range(n)],
                         res.best_clique, res.best_weight, res.iterations))
        runs.append(seen)
    assert runs[0] == runs[1] == runs[2]


# Nodes of the grouped look-ahead search after the benchmark's warm
# start (56,506 in all): a change that claims no algorithm change keeps
# them.
DIMACS_WARM_NODES = {
    "johnson8-2-4": 25, "hamming6-4": 105, "johnson8-4-4": 263,
    "hamming6-2": 32, "MANN_a9": 12279, "c-fat200-1": 5,
    "keller4": 32270, "brock200_2": 9250, "p_hat300-1": 2277,
}


def test_dimacs_best_weights_match_benchmark_fingerprint(dimacs_warm_solves):
    # the benchmark's pipeline: auto-weighting, then a PLS warm start;
    # the fingerprint's node counts are the partition-bound search's,
    # which the look-ahead may only lower
    pinned = json.loads(FINGERPRINT.read_text())["fingerprint"]
    assert len(pinned) == 9
    for name, want in pinned.items():
        res = dimacs_warm_solves[name]
        assert res.best_weight == want["best_weight"], name
        assert res.iterations <= want["solver.nodes"], name
        assert res.iterations == DIMACS_WARM_NODES[name], name

import inspect
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mewclique import (PlsConfig, SolverConfig, VertexSet, WeightedGraph,
                       brute_force_mewc, gen_random, graph, is_clique, pls,
                       set_weight, solve, solver)

from conftest import (BENCHMARK_OPTIMA, DATA_DIR, checkout_env,
                      interrupting_workspace, load_dimacs, with_zero_weights)

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

    def test_invariants_refused_without_assertions(self):
        # python -O strips the asserts that invariants mode checks with,
        # so it would check nothing and still report a proof
        code = ("from mewclique import SolverConfig\n"
                "SolverConfig().validate()\n"
                "SolverConfig(assertion_level='invariants').validate()\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=checkout_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr and "assertion_level" in proc.stderr


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
        low = len(inspect.stack(0)) + 40
        sys.setrecursionlimit(low)
        try:
            res = solve(k80)
            assert sys.getrecursionlimit() == low  # restored after the solve
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

    # ids name what each pin holds, so a re-pin keeps the test's name
    @pytest.mark.parametrize("name, limit, weight, proven", [
        pytest.param("keller4", 322, 6265, False, id="keller4-before-optimum"),
        pytest.param("keller4", 323, 6745, False, id="keller4-optimum-unproven"),
        pytest.param("johnson8-4-4", 220, 6552, False, id="johnson8-4-4-unproven"),
        pytest.param("johnson8-4-4", 221, 6552, True,  # its whole cold search
                     id="johnson8-4-4-proven"),
    ])
    def test_node_limit_pins(self, name, limit, weight, proven):
        res = solve(load_dimacs(name), config=SolverConfig(node_limit=limit))
        assert (res.iterations, res.best_weight, res.proven_optimal) == \
            (limit, weight, proven)

    def test_ctrl_c_returns_the_incumbent(self, monkeypatch):
        # a KeyboardInterrupt ends the search as a limit does: unproven,
        # with the best clique so far, at worst the warm start
        g = gen_random(30, 0.6, 1, 10, seed=1)
        warm = pls(g, PlsConfig(iterations=1, seed=1))
        full = solve(g)
        monkeypatch.setattr(solver, "ColoringWorkspace",
                            interrupting_workspace(0))
        res = solve(g, warm)
        assert (res.best_clique, res.proven_optimal, res.iterations) == \
            (warm, False, 1)
        monkeypatch.setattr(solver, "ColoringWorkspace",
                            interrupting_workspace(10))
        res = solve(g)
        assert not res.proven_optimal and res.iterations < full.iterations
        assert 0 < res.best_weight <= full.best_weight
        assert set_weight(g, res.best_clique) == res.best_weight
        assert is_clique(g, res.best_clique)

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
    and plain lists and sets stand in for bitmasks. Each color class
    takes, by increasing (score, v) or, heaviest-first, by decreasing
    (score, v), every uncolored vertex with no neighbor in it; the
    branch order runs from the last class to the first, each class by
    decreasing (score, v). The root colors lightest-first. A child of
    the root does too and, unless no bound beats its slack (incumbent
    less clique weight), also heaviest-first; its whole subtree keeps
    the coloring with fewer bounds beating that slack, ties to
    lightest-first. A branch is skipped without a node when its clique
    weight plus, per earlier class, the best vw(u) = score(u) + w(p, u)
    over its child cannot beat the incumbent, or, when it can, its
    clique weight plus the vw of each class founder of the child's
    heaviest-first recoloring cannot: by decreasing (vw, u), each child
    member joins the first class it has no neighbor in, or founds a new
    one. The recoloring is summed whole: the solver stops it once the
    sum beats the incumbent, a shortcut that must not change a decision.
    Slow on purpose. Join weights and scores read a dense matrix rebuilt
    from g.edges(), not the graph's weight rows. Returns (best weight,
    nodes, root branches that kept heaviest-first)."""
    adj = g.adj_bits
    w = [[0] * g.n for _ in range(g.n)]
    for u, v, wt in g.edges():
        w[u][v] = w[v][u] = wt
    state = {"best": 0, "iterations": 0, "heaviest": 0}

    def weight_of(members):
        return set_weight(g, VertexSet(members))

    def calc(c_members, s_members, heaviest):
        score = {v: sum(w[u][v] for u in c_members) for v in s_members}

        def rank(v):
            return score[v], v

        uncolored = list(s_members)
        upper, classes = {}, []
        while uncolored:
            closed = sum(max(score[u] for u in cls) for cls in classes)
            cls = []
            for v in sorted(uncolored, key=rank, reverse=heaviest):
                if all(not (adj[v] >> u) & 1 for u in cls):
                    upper[v] = score[v] + closed
                    cls.append(v)
            classes.append(cls)
            uncolored = [v for v in uncolored if v not in cls]
            for v in uncolored:
                linked = [w[u][v] for u in cls if (adj[v] >> u) & 1]
                if linked:
                    score[v] += max(linked)
        order = [v for cls in reversed(classes)
                 for v in sorted(cls, key=rank, reverse=True)]
        return order, upper, classes, score

    def ahead(c_members, p, child, classes, score):
        i = next(j for j, cls in enumerate(classes) if p in cls)
        total = weight_of(c_members + [p])
        vw = {u: score[u] + w[p][u] for u in child}
        plain = total + sum(max([vw[u] for u in cls if u in vw], default=0)
                            for cls in classes[:i])
        if plain <= state["best"]:
            return plain
        recolored = []  # sets of pairwise non-adjacent child members
        for u in sorted(vw, key=lambda u: (vw[u], u), reverse=True):
            for cls in recolored:
                if all(not (adj[u] >> x) & 1 for x in cls):
                    cls.add(u)
                    break
            else:
                recolored.append({u})
        return total + sum(max(vw[u] for u in cls) for cls in recolored)

    def expand(c_members, s_members, heaviest):
        state["iterations"] += 1
        if not s_members:
            wc = weight_of(c_members)
            if wc > state["best"]:
                state["best"] = wc
            return
        wc = weight_of(c_members)
        order, upper, classes, score = calc(c_members, s_members, heaviest)
        if len(c_members) == 1:
            slack = state["best"] - wc
            light = sum(ub > slack for ub in upper.values())
            if not light:
                return  # a dead end: no second coloring
            plan = calc(c_members, s_members, True)
            if sum(ub > slack for ub in plan[1].values()) < light:
                order, upper, classes, score = plan
                heaviest = True
                state["heaviest"] += 1
        branched = set()
        for p in order:
            if wc + upper[p] > state["best"]:
                child = [v for v in s_members
                         if v not in branched and (adj[p] >> v) & 1]
                if ahead(c_members, p, child, classes, score) > state["best"]:
                    expand(c_members + [p], child, heaviest)
            branched.add(p)

    expand([], list(range(g.n)), False)
    return state["best"], state["iterations"], state["heaviest"]


def test_matches_reference_implementation_node_for_node(g6):
    # deterministic tie-breaks make the node count a trace fingerprint:
    # any divergence in order, pruning or state maintenance shows up
    graphs = [g6] + [gen_random(8 + s % 7, (s % 3 + 1) * 0.25, 1, 10, seed=s)
                     for s in range(40)]
    graphs += [with_zero_weights(g) for g in graphs[1:11]]
    graphs.append(gen_random(14, 0.95, 1, 10, seed=0))  # density 0.956
    graphs.append(gen_random(100, 0.03, 1, 10, seed=0))  # root classes up to 49
    graphs.append(gen_random(300, 0.01, 1, 10, seed=0))  # neighbor-keyed rows
    # dense graphs, on four of which some root branch keeps heaviest-first
    graphs += [gen_random(10 + s % 9, (0.7, 0.8, 0.9)[s % 3], 1, 10,
                          seed=1000 + s) for s in range(48)]
    kept_heaviest = 0
    for g in graphs:
        res = solve(g)
        ref_weight, ref_iterations, heaviest = _reference_solve(g)
        assert res.best_weight == ref_weight
        assert res.iterations == ref_iterations
        kept_heaviest += heaviest > 0
    assert kept_heaviest > 0  # so the choice cannot lose its coverage


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


# Cold nodes of the bundled instances whose whole search takes fewer
# than 1000 nodes; the other five need more.
COLD_NODES_UNDER_1000 = {"johnson8-2-4": 32, "hamming6-4": 103,
                         "johnson8-4-4": 221, "hamming6-2": 48,
                         "c-fat200-1": 16}


def test_invariants_on_bundled_instances():
    cfg = SolverConfig(assertion_level="invariants", node_limit=1000)
    paths = sorted(DATA_DIR.glob("*.clq"))
    assert len(paths) == 10
    for path in paths:
        res = solve(load_dimacs(path.stem), config=cfg)
        nodes = COLD_NODES_UNDER_1000.get(path.stem)
        assert res.iterations == (nodes or 1000), path.stem
        assert res.proven_optimal == (nodes is not None), path.stem
        if nodes is not None:
            assert res.best_weight == BENCHMARK_OPTIMA[path.stem], path.stem


# Nodes of the recoloring look-ahead search, each root branch keeping
# the coloring order with fewer branches, after the benchmark's warm
# start (26,019 in all): a change that claims no algorithm change keeps
# them.
DIMACS_WARM_NODES = {
    "johnson8-2-4": 28, "hamming6-4": 101, "johnson8-4-4": 213,
    "hamming6-2": 32, "MANN_a9": 219, "c-fat200-1": 5,
    "keller4": 17975, "brock200_2": 6056, "p_hat300-1": 1390,
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


# Nodes of the search above on johnson16-2-4, cold; after a PLS warm
# start (10 iterations, seed 0: weight 3608) it takes 148,234, as the
# root branches choose their order against a different incumbent.
JOHNSON16_NODES = 142545


def test_johnson16_proven_at_pinned_nodes(johnson16_cold_solve):
    res = johnson16_cold_solve
    assert (res.best_weight, res.proven_optimal, res.iterations) == \
        (3808, True, JOHNSON16_NODES)

import gc
import inspect
import json
import math
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from mewclique import (PlsConfig, SolverConfig, VertexSet, WeightedGraph,
                       brute_force_mewc, gen_random, graph, is_clique, pls,
                       set_weight, solve, solver)

from conftest import (BENCHMARK_OPTIMA, DATA_DIR, _reference_solve,
                      checked_solve, checkout_env, interrupting_workspace,
                      load_dimacs, with_zero_weights)

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
                                       "use_initial_solution",
                                       "assertion_level"])
    def test_removed_field_fails_loudly(self, field):
        # the search always colors, warm-starts exactly when given
        # c_initial and is checked from outside (checked_solve); an old
        # caller's switch must not be silently ignored
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
        graphs = [gen_random(10, 0.5, 1, 10, seed=seed) for seed in range(10)]
        graphs += [with_zero_weights(g) for g in graphs[:5]]
        sparse = gen_random(300, 0.01, 1, 10, seed=0)
        assert all(isinstance(row, dict) for row in sparse.weight_rows)
        graphs.append(sparse)
        for seed, g in enumerate(graphs):
            want = brute_force_mewc(g, n_limit=g.n)[1]
            for start in (None, pls(g, PlsConfig(iterations=2, seed=seed))):
                res = checked_solve(g, start)
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

    @pytest.mark.parametrize("node_limit, interrupt_after, proven", [
        pytest.param(None, None, True, id="proven"),
        pytest.param(5, None, False, id="node-limit"),
        pytest.param(None, 10, False, id="ctrl-c"),
    ])
    def test_keeps_no_workspace_alive(self, monkeypatch, node_limit,
                                      interrupt_after, proven):
        # with the cyclic collector off, every workspace of the search
        # (both coloring orders, copies included) dies as solve returns
        base = (solver.ColoringWorkspace if interrupt_after is None
                else interrupting_workspace(interrupt_after))
        refs = []

        class Tracked(base):
            def __new__(cls, *args):
                ws = super().__new__(cls)
                refs.append(weakref.ref(ws))
                return ws

        monkeypatch.setattr(solver, "ColoringWorkspace", Tracked)
        g = gen_random(30, 0.6, 1, 10, seed=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            res = solve(g, config=SolverConfig(node_limit=node_limit))
            assert res.proven_optimal == proven
            assert len(refs) == 2 and [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


def _score_raised(order, ubs, classes, score):
    return order, ubs, classes, {**score, order[0]: score[order[0]] + 1}


def _last_bound_lowered(order, ubs, classes, score):
    return order, ubs[:-1] + [ubs[-1] - 1], classes, score


def _last_vertex_left_out(order, ubs, classes, score):
    if len(order) > 1:  # an empty order would stop the search itself
        order, ubs = order[:-1], ubs[:-1]
    return order, ubs, classes, score


class TestChecker:
    """checked_solve, the replay that certifies a run. Faults are
    ColoringWorkspace subclasses patched into mewclique.solver, as
    interrupting_workspace is."""

    @pytest.mark.parametrize("fault, message", [
        pytest.param(_score_raised, "scores drifted", id="score-raised"),
        pytest.param(_last_bound_lowered, "bounds drifted",
                     id="last-bound-lowered"),
        pytest.param(_last_vertex_left_out, "order and coloring disagree",
                     id="last-vertex-left-out"),
    ])
    def test_catches_a_faulty_plan(self, monkeypatch, g6, fault, message):
        class Faulty(solver.ColoringWorkspace):
            def run(self, s_mask, keys):
                return fault(*super().run(s_mask, keys))

        instances = [g6, gen_random(12, 0.5, 1, 10, seed=1)]
        for g in instances:
            checked_solve(g)  # the unmodified run passes
        monkeypatch.setattr(solver, "ColoringWorkspace", Faulty)
        for g in instances:
            with pytest.raises(AssertionError, match=message):
                checked_solve(g)

    def test_replays_a_stopped_run(self):
        # replayed up to the node the limit stopped it at
        g = gen_random(60, 0.9, 1, 10, seed=3)  # its proof takes 6,441 nodes
        warm = pls(g, PlsConfig(iterations=1, seed=1))
        for start in (None, warm):
            res = checked_solve(g, start, SolverConfig(node_limit=200))
            assert not res.proven_optimal and res.iterations == 200
        res = checked_solve(g, config=SolverConfig(time_limit=0.05))
        assert not res.proven_optimal

    def test_refused_under_python_O(self):
        # python -O strips the asserts the replay checks with, so it
        # would check nothing and still pass a run
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from conftest import checked_solve\n"
                "from mewclique import WeightedGraph\n"
                "checked_solve(WeightedGraph(2, [(0, 1, 1)]))\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
            env=checkout_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "-O" in proc.stderr.strip().splitlines()[-1]


def test_determinism():
    g = gen_random(16, 0.6, 1, 10, seed=4)
    runs = [solve(g) for _ in range(3)]
    assert len({r.best_weight for r in runs}) == 1
    assert len({r.best_clique for r in runs}) == 1
    assert len({r.iterations for r in runs}) == 1


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
    cfg = SolverConfig(node_limit=1000)
    paths = sorted(DATA_DIR.glob("*.clq"))
    assert len(paths) == 10
    for path in paths:
        res = checked_solve(load_dimacs(path.stem), config=cfg)
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

"""Acceptance suite.

One test per criterion; each prints a single
``criterion N (<label>): PASS|FAIL`` line (run with ``-s`` to see them
live). The DIMACS fixtures under tests/data are the standard clique
benchmark files; their declared sizes and densities are checked in
test_io, and the optima asserted here pin the 1-based auto-weighting
convention end to end.
"""

import functools
import random
import time

import pytest

from mewclique import (VertexSet, WeightedGraph, brute_force_mewc,
                       coloring_scores, gen_random, is_clique, pls,
                       seq_and_bounds, set_weight, solve,
                       vertex_weighted_upper_bound)

from conftest import (BENCHMARK_OPTIMA, SIX_EDGES, SIX_VERTEX_WEIGHTS,
                      count_cliques, induced_weighted, load_dimacs)

PER_INSTANCE_BUDGET = 120.0


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")
        return wrapper
    return deco


def _random_instances():
    """The desk-scale random protocol: n in [8, 18], three densities,
    weights uniform in [1, 10], 300 seeded instances."""
    for seed in range(100):
        for di, density in enumerate((0.2, 0.5, 0.8)):
            n = 8 + (seed + di) % 11
            yield gen_random(n, density, 1, 10, seed=1000 * di + seed)


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = {}
    for name in BENCHMARK_OPTIMA:
        g = load_dimacs(name)
        runs[name] = (g, solve(g))
    return runs


@criterion(1, "worked-example fidelity")
def test_criterion_1():
    g = WeightedGraph(6, SIX_EDGES)
    join = SIX_VERTEX_WEIGHTS
    coloring = [VertexSet([0, 2, 5]), VertexSet([1, 3]), VertexSet([4])]

    def compute():
        return (coloring_scores(g, coloring, join),
                vertex_weighted_upper_bound(g, coloring, join),
                brute_force_mewc(g, join)[1])

    scores, bound, optimum = compute()
    assert scores == {0: 2, 1: 8, 2: 3, 3: 12, 4: 21, 5: 3}
    assert bound == 36
    assert optimum == 35
    best = min(_timed(compute) for _ in range(3))
    assert best < 1e-3, f"worked example took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@criterion(2, "benchmark optima")
def test_criterion_2(benchmark_runs):
    for name, expected in BENCHMARK_OPTIMA.items():
        g, res = benchmark_runs[name]
        assert res.best_weight == expected, \
            f"{name}: got {res.best_weight}, expected {expected}"
        assert res.proven_optimal, f"{name}: not proven optimal"
        assert is_clique(g, res.best_clique)
        assert set_weight(g, res.best_clique) == expected
        assert res.elapsed < PER_INSTANCE_BUDGET, \
            f"{name}: {res.elapsed:.1f}s over budget"


@criterion(3, "oracle equivalence")
def test_criterion_3():
    t0 = time.perf_counter()
    checked = 0
    for g in _random_instances():
        res = solve(g)
        clique, weight = brute_force_mewc(g)
        assert res.proven_optimal
        assert res.best_weight == weight
        assert is_clique(g, res.best_clique)
        assert set_weight(g, res.best_clique) == weight
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 300
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


@criterion(4, "bound soundness")
def test_criterion_4():
    rng = random.Random(77)
    violations = 0
    checked = 0
    for gi in range(100):
        n = 6 + gi % 11
        g = gen_random(n, rng.choice([0.2, 0.4, 0.6, 0.8]), 1, 10,
                       seed=5000 + gi)
        for _ in range(5):
            s_mask = rng.randrange(1, 1 << n)
            join = [rng.randint(0, 12) for _ in range(n)]
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            exact = brute_force_mewc(*induced_weighted(g, s_mask, join))[1]
            if exact > plan.upper[plan.order[0]]:
                violations += 1
            checked += 1
    assert checked >= 500
    assert violations == 0


@criterion(5, "plan structure fuzz")
def test_criterion_5():
    rng = random.Random(99)
    calls = 0
    for gi in range(250):
        n = 1 + gi % 24
        g = gen_random(n, (gi % 10) / 10, 1, 10, seed=7000 + gi)
        for _ in range(40):
            s_mask = rng.randrange(1 << n)
            join = [rng.randint(0, 15) for _ in range(n)]
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            members = list(VertexSet.from_mask(s_mask))
            assert sorted(plan.order) == members
            union = 0
            for cls in plan.classes:
                assert cls.mask and cls.mask & union == 0
                union |= cls.mask
                for v in cls:
                    assert g.adj_bits[v] & cls.mask == 0
            assert union == s_mask
            ubs = [plan.upper[v] for v in plan.order]
            assert all(a >= b for a, b in zip(ubs, ubs[1:]))
            for v in members:
                assert plan.upper[v] >= plan.score[v] >= join[v] >= 0
            calls += 1
    assert calls >= 10_000


@criterion(6, "pruning effectiveness")
def test_criterion_6():
    for seed in range(20):
        g = gen_random(40, 0.5, 1, 10, seed=9000 + seed)
        bounded = solve(g)
        # an unbounded search visits every clique once: that is the baseline
        baseline = count_cliques(g)
        assert bounded.best_weight == brute_force_mewc(g, n_limit=40)[1]
        assert bounded.iterations <= 0.5 * baseline, \
            f"seed {seed}: {bounded.iterations} vs {baseline}"


@criterion(7, "warm-start invariance")
def test_criterion_7(benchmark_runs, dimacs_warm_solves):
    for name, (g, cold) in benchmark_runs.items():
        warm = dimacs_warm_solves[name]
        assert warm.best_weight == cold.best_weight, name
        assert warm.proven_optimal and cold.proven_optimal
    for g in _random_instances():
        cold = solve(g)
        warm = solve(g, pls(g))
        assert warm.best_weight == cold.best_weight
        assert warm.proven_optimal and cold.proven_optimal


@criterion(8, "determinism")
def test_criterion_8(benchmark_runs):
    for name, (g, first) in benchmark_runs.items():
        again = solve(load_dimacs(name))
        assert again.best_weight == first.best_weight, name
        assert again.best_clique == first.best_clique, name
        assert again.iterations == first.iterations, name

import os
import warnings
from contextlib import suppress
from pathlib import Path

import pytest

from mewclique import (ColoringWorkspace, PlsConfig, VertexSet,
                       WeightedGraph, apply_dimacs_weights, coloring_scores,
                       is_clique, parse_dimacs, pls, set_weight, solve, solver)
from mewclique.bounds import look_ahead_plain, look_ahead_recolored

# Hypothesis reports a failing example through hypothesis.extra._patching,
# whose libcst import raises a DeprecationWarning; filterwarnings = error
# would turn that into an INTERNALERROR that ends the session. Imported
# once here with warnings off; without libcst (or hypothesis) a no-op.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"

# The benchmark's dimacs9 workload: the bundled instances it solves,
# each with its optimum after auto-weighting.
BENCHMARK_OPTIMA = {
    "johnson8-2-4": 192,
    "hamming6-4": 396,
    "johnson8-4-4": 6552,
    "hamming6-2": 32736,
    "MANN_a9": 5460,
    "c-fat200-1": 7734,
    "keller4": 6745,
    "brock200_2": 6542,
    "p_hat300-1": 3321,
}

# Hand-checked 6-vertex sample used across the suite. Edge-only optimum
# is {3, 4, 5} with weight 4 + 7 + 8 = 19; with the vertex (join)
# weights the same clique is optimal at 19 + 5 + 8 + 3 = 35.
SIX_EDGES = [(0, 1, 1), (0, 4, 5), (1, 2, 2), (1, 4, 5),
             (2, 3, 6), (3, 4, 4), (3, 5, 7), (4, 5, 8)]
SIX_VERTEX_WEIGHTS = [2, 6, 3, 5, 8, 3]


@pytest.fixture
def g6():
    return WeightedGraph(6, SIX_EDGES)


@pytest.fixture
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def dimacs_warm_solves():
    """The benchmark's dimacs9 pipeline, run once per session: each
    instance auto-weighted, warm-started by PLS (10 iterations, seed 0)
    and solved. Maps instance name to its SolveResult."""
    runs = {}
    for name in BENCHMARK_OPTIMA:
        g = load_dimacs(name)
        runs[name] = solve(g, pls(g, PlsConfig(iterations=10, seed=0)))
    return runs


@pytest.fixture(scope="session")
def johnson16_cold_solve():
    """tests/data/johnson16-2-4.clq, the bundled instance harder than
    the benchmark's nine, auto-weighted and solved cold once per session."""
    return solve(load_dimacs("johnson16-2-4"))


def load_dimacs(name):
    """The bundled DIMACS instance tests/data/<name>.clq, auto-weighted."""
    return apply_dimacs_weights(parse_dimacs((DATA_DIR / f"{name}.clq").read_text()))


def checkout_env(**overrides):
    """os.environ plus overrides, with this checkout's src first on
    PYTHONPATH: the environment of a subprocess that imports mewclique."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def interrupting_workspace(calls):
    """A ColoringWorkspace class whose run raises KeyboardInterrupt
    once it has run `calls` times, as Ctrl-C would mid-search; its
    copies share the count. Monkeypatch it into mewclique.solver."""
    left = [calls]

    class Interrupting(ColoringWorkspace):
        def run(self, s_mask, keys):
            if not left[0]:
                raise KeyboardInterrupt
            left[0] -= 1
            return super().run(s_mask, keys)

    return Interrupting


def checked_solve(g, c_initial=None, config=None):
    """solve(g, c_initial, config), certified by replaying its search.

    Records each ColoringWorkspace.run call of the run, through a
    subclass of whatever mewclique.solver.ColoringWorkspace is, and
    replays the search with _reference_solve, which checks every
    recorded plan and makes every decision itself (see there). Raises
    AssertionError where the run and the replay disagree, or ValueError
    for classes that are not disjoint independent sets. The checks are
    assert statements, so python -O is refused."""
    if not __debug__:
        raise RuntimeError("checked_solve checks with assert statements, "
                           "which python -O strips")
    records = []
    base = solver.ColoringWorkspace

    class Recording(base):
        def run(self, s_mask, keys):
            sorted_keys = sorted(keys)
            plan = super().run(s_mask, keys)
            records.append((self.heaviest_first, s_mask, sorted_keys, plan))
            return plan

    solver.ColoringWorkspace = Recording
    try:
        res = solve(g, c_initial, config)
    finally:
        solver.ColoringWorkspace = base
    best, nodes, _ = _reference_solve(
        g, set_weight(g, c_initial) if c_initial else 0, records,
        None if res.proven_optimal else res.iterations)
    assert nodes == res.iterations, "the run's node count differs"
    assert best == res.best_weight, "the run's best weight differs"
    # Recording, like every class, is freed only by the cyclic
    # collector, and its run keeps the records
    records.clear()
    return res


class _NodeLimit(Exception):
    """The replay reached the node count it was given."""


def _reference_solve(g, best=0, records=None, nodes=None):
    """Literal, uncached transliteration of the search for trace
    comparison and replay: join weights and scores are recomputed from
    scratch at every node, a clique's weight is its parent's plus its
    last member's join weight, and the branch loop tests every
    candidate. Each color class takes, by increasing (score, v) or,
    heaviest-first, by decreasing (score, v), every uncolored vertex
    with no neighbor in it; the branch order runs from the last class to
    the first, each class by decreasing (score, v). The root colors
    lightest-first. A child of the root does too and, unless no bound
    beats its slack (incumbent less clique weight), also heaviest-first;
    its whole subtree keeps the coloring with fewer bounds beating that
    slack, ties to lightest-first. A branch is skipped without a node
    when its clique weight plus mewclique.bounds.look_ahead_plain or,
    where that beats the incumbent, plus look_ahead_recolored cannot
    beat it. Slow on purpose. Join weights and scores read edge weights
    from one dict per vertex, rebuilt from g.edges(), not the graph's
    weight rows.

    best is the initial incumbent weight (a warm start's). records,
    when given, replaces the coloring here with a run's plans: one
    (heaviest_first, s_mask, sorted keys, plan) per ColoringWorkspace.run
    call, in call order. Each is checked against the node that DFS order
    expects: its mode, its candidates and its keys, the join weights of
    this search's own clique; its classes, disjoint independent sets
    covering the candidates; its scores, mewclique.coloring_scores; its
    order, through the classes from last to first; and its bounds, each
    vertex's score plus the score maxima of the earlier classes, never
    increasing along the order. Every record must be used. nodes, when
    given, stops the search at that many nodes, as a node or time limit
    does. Returns (best weight, nodes, root branches that kept
    heaviest-first)."""
    adj = g.adj_bits
    sh = g.n.bit_length()
    w = [{} for _ in range(g.n)]  # w[u][v]: the weight of edge uv
    for u, v, wt in g.edges():
        w[u][v] = w[v][u] = wt
    state = {"best": best, "iterations": 0, "heaviest": 0}
    recorded = None if records is None else iter(records)

    def calc(s, jw, heaviest):
        score = dict(jw)

        def rank(v):
            return score[v], v

        uncolored = list(s)
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
        return order, upper, [VertexSet(cls) for cls in classes], score

    def replay(s, jw, heaviest):
        record = next(recorded, None)
        assert record is not None, "the run colored fewer nodes"
        mode, s_mask, keys, (order, ubs, classes, score) = record
        assert (mode, s_mask) == (heaviest, s.mask), \
            "the run colored another node"
        assert keys == sorted(k << sh | v for v, k in jw.items()), \
            "stale plan keys"
        coloring = [VertexSet.from_mask(cls) for cls in classes]
        assert score == coloring_scores(g, coloring, jw), "scores drifted"
        assert sum(classes) == s_mask, "the classes miss a candidate"
        at = {}  # v -> the index of its class
        closed = [0]  # closed[i]: the score maxima of the classes before i
        for i, cls in enumerate(coloring):
            members = list(cls)
            at.update(dict.fromkeys(members, i))
            closed.append(closed[-1] + max(map(score.__getitem__, members)))
        ranks = [at[v] for v in order]
        assert sorted(order) == sorted(at) and \
            ranks == sorted(ranks, reverse=True), "order and coloring disagree"
        assert ubs == sorted(ubs, reverse=True) == [
            score[v] + closed[at[v]] for v in order], "bounds drifted"
        return order, dict(zip(order, ubs)), coloring, score

    plan = calc if records is None else replay

    def expand(c_members, wc, s, heaviest):
        if state["iterations"] == nodes:
            raise _NodeLimit
        state["iterations"] += 1
        if not s:
            if wc > state["best"]:
                state["best"] = wc
            return
        jw = {v: sum(map(w[v].__getitem__, c_members)) for v in s}
        order, upper, classes, score = plan(s, jw, heaviest)
        if len(c_members) == 1:
            slack = state["best"] - wc
            light = sum(ub > slack for ub in upper.values())
            if not light:
                return  # a dead end: no second coloring
            alt = plan(s, jw, True)
            if sum(ub > slack for ub in alt[1].values()) < light:
                order, upper, classes, score = alt
                heaviest = True
                state["heaviest"] += 1
        remaining = s.mask
        for p in order:
            remaining ^= 1 << p
            if wc + upper[p] > state["best"]:
                child = VertexSet.from_mask(remaining & adj[p])
                weight_p = wc + jw[p]
                ahead = g, classes, score, p, child
                slack = state["best"] - weight_p
                if (look_ahead_plain(*ahead) > slack
                        and look_ahead_recolored(*ahead) > slack):
                    expand(c_members + [p], weight_p, child, heaviest)

    try:
        expand([], 0, VertexSet(range(g.n)), False)
    except _NodeLimit:
        pass
    if records is not None:
        assert next(recorded, None) is None, "the run colored more nodes"
    return state["best"], state["iterations"], state["heaviest"]


def with_zero_weights(g):
    """g with every edge weight taken mod 4, so about a fifth of the
    edges weigh 0: still edges, but adding to no score, like non-edges."""
    return WeightedGraph(g.n, [(u, v, w % 4) for u, v, w in g.edges()])


def dumb_best_weight(g, join=None):
    """Max clique weight, plus the members' join weights when given, by
    scanning all 2^n subsets; n <= ~14 only."""
    best = 0
    for mask in range(1 << g.n):
        vs = VertexSet.from_mask(mask)
        if is_clique(g, vs):
            w = set_weight(g, vs) + (sum(join[v] for v in vs) if join else 0)
            if w > best:
                best = w
    return best


def count_cliques(g):
    """Number of cliques of g, the empty one included. Independent of
    the solver: plain extension by higher-index common neighbors."""
    adj = g.adj_bits
    count = 0

    def rec(cand):
        nonlocal count
        count += 1
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            rec(cand & adj[v])

    rec((1 << g.n) - 1)
    return count


def induced_weighted(g, members_mask, join_weights):
    """(graph, join weights): the graph on the same index space keeping
    only edges inside the mask, and the given join weights on its
    members (zero elsewhere). Used to hand subproblems to the
    brute-force oracle."""
    edges = [(u, v, w) for u, v, w in g.edges()
             if (members_mask >> u) & 1 and (members_mask >> v) & 1]
    join = [join_weights[v] if (members_mask >> v) & 1 else 0
            for v in range(g.n)]
    return WeightedGraph(g.n, edges), join

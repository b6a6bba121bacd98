import random

import pytest

from mewclique import (ColoringWorkspace, VertexSet, WeightedGraph,
                       brute_force_mewc, coloring_scores, gen_random,
                       seq_and_bounds, vertex_weighted_upper_bound)
from mewclique.bounds import look_ahead_bounds

from conftest import SIX_VERTEX_WEIGHTS, induced_weighted, with_zero_weights

SIX_COLORING = [VertexSet([0, 2, 5]), VertexSet([1, 3]), VertexSet([4])]
SIX_SCORES = {0: 2, 1: 8, 2: 3, 3: 12, 4: 21, 5: 3}


class TestColoringBound:
    def test_sample_scores(self, g6):
        assert coloring_scores(g6, SIX_COLORING, SIX_VERTEX_WEIGHTS) == SIX_SCORES

    def test_sample_bound(self, g6):
        assert vertex_weighted_upper_bound(g6, SIX_COLORING,
                                           SIX_VERTEX_WEIGHTS) == 36

    def test_edgeless_singletons(self):
        coloring = [VertexSet([v]) for v in range(4)]
        assert vertex_weighted_upper_bound(WeightedGraph(4), coloring,
                                           [3, 1, 4, 1]) == 9

    def test_edgeless_one_class(self):
        assert vertex_weighted_upper_bound(WeightedGraph(4), [VertexSet(range(4))],
                                           [3, 1, 4, 1]) == 4

    def test_rejects_bad_join_weights(self):
        # short list, negative, float, bool: each names the vertex
        for join, match in (([1], "no join weight .* vertex 1"),
                            ([1, -1], "negative weight .* vertex 1"),
                            ([1, 2.5], "non-int weight .* vertex 1"),
                            ([1, True], "non-int weight .* vertex 1")):
            with pytest.raises(ValueError, match=match):
                coloring_scores(WeightedGraph(2), [VertexSet([0, 1])], join)

    @pytest.mark.parametrize("coloring", [
        [VertexSet([0, 1]), VertexSet([2, 3, 4, 5])],          # 0-1 adjacent
        [VertexSet([0, 2, 5]), VertexSet([1, 3, 6])],          # 6 is not in g
        [VertexSet([0, 2, 5]), VertexSet([1, 3, 5]), VertexSet([4])],  # overlap
        [VertexSet([0, 2, 5]), VertexSet(), VertexSet([1, 3, 4])],     # empty class
    ])
    def test_rejects_bad_colorings(self, g6, coloring):
        with pytest.raises(ValueError):
            vertex_weighted_upper_bound(g6, coloring, SIX_VERTEX_WEIGHTS)

    def test_partial_coloring(self, g6):
        # a coloring of the candidates {0, 1, 2, 3, 5}: vertex 4 is uncolored
        coloring = SIX_COLORING[:2]
        scores = {v: s for v, s in SIX_SCORES.items() if v != 4}
        assert coloring_scores(g6, coloring, SIX_VERTEX_WEIGHTS) == scores
        assert vertex_weighted_upper_bound(g6, coloring, SIX_VERTEX_WEIGHTS) == 15

    def test_dominates_exact_optimum(self):
        # soundness on random vertex-and-edge-weighted graphs, using the
        # greedy coloring produced by the branch-plan machinery, of the
        # whole graph and of a random candidate subset
        rng = random.Random(11)
        subsets = random.Random(12)
        for i in range(100):
            n = 6 + i % 9
            g = gen_random(n, rng.choice([0.3, 0.5, 0.8]), 1, 10, seed=200 + i)
            vw = [rng.randint(0, 9) for _ in range(n)]
            plan = seq_and_bounds(g, VertexSet(range(n)), vw)
            bound = vertex_weighted_upper_bound(g, plan.classes, vw)
            assert bound >= brute_force_mewc(g, vw)[1]
            s_mask = subsets.randrange(1, 1 << n)
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), vw)
            bound = vertex_weighted_upper_bound(g, plan.classes, vw)
            assert bound >= brute_force_mewc(*induced_weighted(g, s_mask, vw))[1]


class TestSeqAndBounds:
    def test_empty(self, g6):
        plan = seq_and_bounds(g6, VertexSet(), {})
        assert plan.order == [] and plan.upper == {} and plan.classes == []

    def test_singleton(self, g6):
        plan = seq_and_bounds(g6, VertexSet([2]), {2: 7})
        assert plan.order == [2]
        assert plan.upper == {2: 7}
        assert plan.classes == [VertexSet([2])]

    def test_sample_trace(self, g6):
        plan = seq_and_bounds(g6, VertexSet(range(6)),
                              dict(enumerate([2, 6, 3, 5, 8, 3])))
        assert plan.classes == SIX_COLORING
        assert plan.score == SIX_SCORES
        assert plan.order == [4, 3, 1, 5, 2, 0]
        assert plan.upper == {4: 36, 3: 15, 1: 11, 5: 3, 2: 3, 0: 2}

    def test_accepts_list_weights(self, g6):
        plan = seq_and_bounds(g6, VertexSet(range(6)), [2, 6, 3, 5, 8, 3])
        assert plan.upper[4] == 36

    def test_rejects_missing_or_negative_weights(self, g6):
        with pytest.raises(ValueError, match="no join weight"):
            seq_and_bounds(g6, VertexSet(range(6)), {0: 1})
        with pytest.raises(ValueError, match="negative"):
            seq_and_bounds(g6, VertexSet([0]), {0: -1})
        for w in (2.5, True):  # a float fails the key shift; a bool reads as 1
            with pytest.raises(ValueError, match="non-int weight .* vertex 0"):
                seq_and_bounds(g6, VertexSet([0]), {0: w})

    def test_rejects_out_of_range_set(self, g6):
        with pytest.raises(ValueError):
            seq_and_bounds(g6, VertexSet([7]), {7: 1})

    def test_workspace_reuse_matches_fresh(self):
        g = gen_random(15, 0.5, 1, 10, seed=31)
        ws = ColoringWorkspace(g)
        rng = random.Random(31)
        for _ in range(20):
            s_mask = rng.randrange(1 << g.n)
            jw = [rng.randint(0, 9) for _ in range(g.n)]
            keys = [jw[v] << g.n.bit_length() | v
                    for v in range(g.n) if s_mask >> v & 1]
            reused = ws.run(s_mask, list(keys))
            fresh = ColoringWorkspace(g).run(s_mask, list(keys))
            assert reused == fresh

    def test_workspace_rejects_per_vertex_join_weights(self, g6):
        # one join weight per graph vertex is not one key per candidate
        with pytest.raises(ValueError, match="keys"):
            ColoringWorkspace(g6).run(0b111, [0] * g6.n)


def _best_weight_containing(g, v, allowed_mask, join):
    """Exact best join-plus-edge weight over cliques that contain v and
    otherwise only vertices from allowed_mask. Plain enumeration."""
    adj = g.adj_bits
    rows = g.weight_rows
    best = 0
    members = [v]

    def rec(cand, weight):
        nonlocal best
        if weight > best:
            best = weight
        while cand:
            b = cand & -cand
            u = b.bit_length() - 1
            cand ^= b
            gain = join[u] + sum(rows[u][x] for x in members)
            members.append(u)
            rec(cand & adj[u], weight + gain)
            members.pop()

    rec(allowed_mask & adj[v], join[v])
    return best


class TestPlanProperties:
    def _random_subproblems(self, count, max_n, seed):
        rng = random.Random(seed)
        for i in range(count):
            n = 3 + i % (max_n - 2)
            g = gen_random(n, rng.choice([0.2, 0.5, 0.8]), 1, 10, seed=i)
            s_mask = rng.randrange(1, 1 << n)
            join = [rng.randint(0, 12) for _ in range(n)]
            yield g, s_mask, join
        # then weight-0 edges, one dense graph (density 0.956) whole, and
        # five sparse ones whose biggest classes (up to ~50 members, ~550
        # at n = 3000) are read edge by edge instead of member by member;
        # the last two (n = 300, 3000) are stored as neighbor-keyed weight
        # rows, whose big classes push their edges, and the n = 100 ones
        # as lists, whose big classes pull
        for i in range(count // 5):
            n = 3 + i % (max_n - 2)
            g = with_zero_weights(gen_random(n, rng.choice([0.5, 0.8]), 1, 10, seed=i))
            yield g, rng.randrange(1, 1 << n), [rng.randint(0, 12) for _ in range(n)]
        for n, density, g_seed in [(14, 0.95, 0), (100, 0.03, 0), (100, 0.03, 1),
                                   (100, 0.03, 2), (300, 0.01, 0)]:
            yield (gen_random(n, density, 1, 10, seed=g_seed), (1 << n) - 1,
                   [rng.randint(0, 12) for _ in range(n)])
        yield (gen_random(3000, 0.005, 1, 200, seed=1), (1 << 3000) - 1,
               [rng.randint(0, 12) for _ in range(3000)])

    def test_structural_invariants(self):
        for g, s_mask, join in self._random_subproblems(300, 16, seed=3):
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            s_members = list(VertexSet.from_mask(s_mask))
            assert sorted(plan.order) == s_members
            union = 0
            for cls in plan.classes:
                assert cls.mask, "empty color class"
                assert cls.mask & union == 0, "classes overlap"
                union |= cls.mask
                for v in cls:
                    assert g.adj_bits[v] & cls.mask == 0, "class not independent"
            assert union == s_mask
            ubs = [plan.upper[v] for v in plan.order]
            assert all(a >= b for a, b in zip(ubs, ubs[1:]))
            for v in s_members:
                assert plan.upper[v] >= plan.score[v] >= join[v] >= 0

    def test_score_accounting(self):
        # final scores must equal the definition's, for the plan's coloring,
        # lightest-first and heaviest-first
        for g, s_mask, join in self._random_subproblems(150, 14, seed=4):
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            assert plan.score == coloring_scores(g, plan.classes, join)
            ws = ColoringWorkspace(g)
            ws.heaviest_first = True
            sh = g.n.bit_length()
            keys = [join[v] << sh | v for v in VertexSet.from_mask(s_mask)]
            _, _, class_masks, score = ws.run(s_mask, keys)
            classes = [VertexSet.from_mask(c) for c in class_masks]
            assert score == coloring_scores(g, classes, join)

    def test_big_classes_in_both_row_forms(self):
        # after a class with leftovers closes, neighbor-keyed rows push
        # its edges when its members hold fewer entries than the plain
        # max would read (leftovers x members), and any other class
        # takes the max: dict rows must take both rules here, and list
        # rows must take the max over a class of over 32 members
        rules = set()
        for g, s_mask, join in self._random_subproblems(10, 14, seed=4):
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            assert plan.score == coloring_scores(g, plan.classes, join)
            rows = g.weight_rows
            left = s_mask
            for cls in plan.classes:
                left ^= cls.mask
                if len(cls) == 1 or not left:
                    continue
                if isinstance(rows[0], dict):
                    stored = sum(len(rows[u]) for u in cls)
                    pushed = stored < left.bit_count() * len(cls)
                    rules.add("dict push" if pushed else "dict max")
                elif len(cls) > 32:
                    rules.add("big list max")
        assert rules == {"dict push", "dict max", "big list max"}

    def test_prefix_soundness(self):
        # upper[p_i] must dominate the best clique through p_i that only
        # uses vertices later in the order
        for g, s_mask, join in self._random_subproblems(120, 12, seed=5):
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            suffix = 0
            for i in reversed(range(len(plan.order))):
                p = plan.order[i]
                best = _best_weight_containing(g, p, suffix, join)
                assert best <= plan.upper[p]
                suffix |= 1 << p

    def test_root_bound_soundness(self):
        for g, s_mask, join in self._random_subproblems(100, 14, seed=6):
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            sub, sub_join = induced_weighted(g, s_mask, join)
            best = brute_force_mewc(sub, sub_join, n_limit=sub.n)[1]  # sparse
            assert best <= plan.upper[plan.order[0]]


def test_look_ahead_sample(g6):
    # p = 4 sits in the last class; vw over its child {0, 1, 3, 5} is
    # 7, 13, 16, 11, and join(4) = 8 plus either bound is the optimum 35
    child = VertexSet([0, 1, 3, 5])
    assert look_ahead_bounds(g6, SIX_COLORING, SIX_SCORES, 4, child) == (27, 27)
    for p, bad in ((4, VertexSet([0, 2])),   # 2 is not a neighbor of 4
                   (0, VertexSet([1]))):     # 1 is colored after 0
        with pytest.raises(ValueError, match="child"):
            look_ahead_bounds(g6, SIX_COLORING, SIX_SCORES, p, bad)


def test_look_ahead_soundness():
    # the solver's look-ahead for branch vertex p, from the plan of its
    # node: join(p) plus either bound of look_ahead_bounds must dominate
    # every clique through p and the vertices colored before p, in the
    # style of criterion 4, and the recoloring must undercut the plain
    # class maxima on some
    rng = random.Random(79)
    violations = 0
    tightened = 0
    checked = 0
    for gi in range(600):
        n = 6 + gi % 11
        g = gen_random(n, rng.choice([0.2, 0.4, 0.6, 0.8]), 1, 10,
                       seed=7000 + gi)
        if gi % 2:
            g = with_zero_weights(g)
        s_mask = rng.randrange(1, 1 << n)
        join = [rng.randint(0, 12) for _ in range(n)]
        plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
        before = 0  # vertices colored before p, i.e. later in the order
        for p in reversed(plan.order):
            child = VertexSet.from_mask(before & g.adj_bits[p])
            plain, recolored = look_ahead_bounds(g, plan.classes, plan.score,
                                                 p, child)
            if join[p] + min(plain, recolored) < \
                    _best_weight_containing(g, p, before, join):
                violations += 1
            tightened += recolored < plain
            before |= 1 << p
        checked += 1
    assert checked >= 500
    assert violations == 0
    assert tightened > 0


def test_heaviest_first_soundness():
    # criterion 4 for plans colored heaviest-first, built through the
    # workspace: each bound dominates the best clique through its vertex
    # and the vertices after it in the order, the scores are the
    # definition's for the plan's classes, and on some candidate sets
    # the classes differ from the lightest-first plan's
    rng = random.Random(83)
    checked = 0
    differs = 0
    for gi in range(500):
        n = 6 + gi % 11
        g = gen_random(n, rng.choice([0.2, 0.4, 0.6, 0.8]), 1, 10,
                       seed=8000 + gi)
        if gi % 2:
            g = with_zero_weights(g)
        s = VertexSet.from_mask(rng.randrange(1, 1 << n))
        join = [rng.randint(0, 12) for _ in range(n)]
        ws = ColoringWorkspace(g)
        ws.heaviest_first = True
        keys = [join[v] << n.bit_length() | v for v in s]
        order, upper, class_masks, score = ws.run(s.mask, keys)
        classes = [VertexSet.from_mask(c) for c in class_masks]
        assert score == coloring_scores(g, classes, join)
        assert sorted(order) == list(s) and upper == sorted(upper, reverse=True)
        later = 0
        for p, ub in zip(reversed(order), reversed(upper)):
            assert ub >= _best_weight_containing(g, p, later, join)
            later |= 1 << p
        differs += classes != seq_and_bounds(g, s, join).classes
        checked += 1
    assert checked >= 500
    assert differs > 0

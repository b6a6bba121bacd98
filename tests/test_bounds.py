import random

import pytest

from mewclique import (ColoringWorkspace, VertexSet, WeightedGraph,
                       brute_force_vertex_edge_mewc, clique_join_weight,
                       coloring_scores, gen_random, seq_and_bounds,
                       vertex_weighted_upper_bound)

from conftest import induced_weighted, with_zero_weights

SIX_COLORING = [VertexSet([0, 2, 5]), VertexSet([1, 3]), VertexSet([4])]
SIX_SCORES = {0: 2, 1: 8, 2: 3, 3: 12, 4: 21, 5: 3}


class TestCliqueJoinWeight:
    def test_two_member_clique(self, g6):
        assert clique_join_weight(g6, VertexSet([4, 5]), 3) == 4 + 7

    def test_empty_clique(self, g6):
        assert clique_join_weight(g6, VertexSet(), 2) == 0

    def test_single_member(self, g6):
        assert clique_join_weight(g6, VertexSet([4]), 5) == 8

    def test_rejects_member(self, g6):
        with pytest.raises(ValueError):
            clique_join_weight(g6, VertexSet([4, 5]), 4)


class TestColoringBound:
    def test_sample_scores(self, g6_vw):
        assert coloring_scores(g6_vw, SIX_COLORING) == SIX_SCORES

    def test_sample_bound(self, g6_vw):
        assert vertex_weighted_upper_bound(g6_vw, SIX_COLORING) == 36

    def test_edgeless_singletons(self):
        g = WeightedGraph(4, [], vertex_weights=[3, 1, 4, 1])
        coloring = [VertexSet([v]) for v in range(4)]
        assert vertex_weighted_upper_bound(g, coloring) == 9

    def test_edgeless_one_class(self):
        g = WeightedGraph(4, [], vertex_weights=[3, 1, 4, 1])
        assert vertex_weighted_upper_bound(g, [VertexSet(range(4))]) == 4

    @pytest.mark.parametrize("coloring", [
        [VertexSet([0, 1]), VertexSet([2, 3, 4, 5])],          # 0-1 adjacent
        [VertexSet([0, 2, 5]), VertexSet([1, 3])],             # misses vertex 4
        [VertexSet([0, 2, 5]), VertexSet([1, 3, 5]), VertexSet([4])],  # overlap
        [VertexSet([0, 2, 5]), VertexSet(), VertexSet([1, 3, 4])],     # empty class
    ])
    def test_rejects_bad_colorings(self, g6_vw, coloring):
        with pytest.raises(ValueError):
            vertex_weighted_upper_bound(g6_vw, coloring)

    def test_dominates_exact_optimum(self):
        # soundness on random vertex-and-edge-weighted graphs, using the
        # greedy coloring produced by the branch-plan machinery
        rng = random.Random(11)
        for i in range(100):
            n = 6 + i % 9
            g = gen_random(n, rng.choice([0.3, 0.5, 0.8]), 1, 10, seed=200 + i)
            vw = [rng.randint(0, 9) for _ in range(n)]
            gw = WeightedGraph(n, g.edges(), vertex_weights=vw)
            plan = seq_and_bounds(g, VertexSet(range(n)), vw)
            bound = vertex_weighted_upper_bound(gw, plan.classes)
            assert bound >= brute_force_vertex_edge_mewc(gw)


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
            reused = ws.run(s_mask, jw)
            fresh = ColoringWorkspace(g).run(s_mask, jw)
            assert reused == fresh


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
        # three sparse ones whose biggest classes (up to ~50 members) are
        # scanned edge by edge instead of member by member
        for i in range(count // 5):
            n = 3 + i % (max_n - 2)
            g = with_zero_weights(gen_random(n, rng.choice([0.5, 0.8]), 1, 10, seed=i))
            yield g, rng.randrange(1, 1 << n), [rng.randint(0, 12) for _ in range(n)]
        for n, density, g_seed in [(14, 0.95, 0), (100, 0.03, 0), (100, 0.03, 1),
                                   (100, 0.03, 2)]:
            yield (gen_random(n, density, 1, 10, seed=g_seed), (1 << n) - 1,
                   [rng.randint(0, 12) for _ in range(n)])

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
        # final score must equal the direct per-class-maximum formula
        for g, s_mask, join in self._random_subproblems(150, 14, seed=4):
            plan = seq_and_bounds(g, VertexSet.from_mask(s_mask), join)
            position = {}
            for idx, cls in enumerate(plan.classes):
                for v in cls:
                    position[v] = idx
            for v in plan.order:
                expected = join[v]
                for idx in range(position[v]):
                    inside = g.adj_bits[v] & plan.classes[idx].mask
                    best = 0
                    while inside:
                        b = inside & -inside
                        best = max(best, g.weight_rows[v][b.bit_length() - 1])
                        inside ^= b
                    expected += best
                assert plan.score[v] == expected

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
            sub = induced_weighted(g, s_mask, join)
            best = brute_force_vertex_edge_mewc(sub, n_limit=100)  # sparse at 100
            assert best <= plan.upper[plan.order[0]]

import random

import pytest

from mewclique import (PlsConfig, VertexSet, WeightedGraph,
                       apply_dimacs_weights, gen_random, is_clique,
                       parse_dimacs, pls, set_weight, solve)
from mewclique.pls import PHASES, _swap_scan

from conftest import with_zero_weights


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _reference_pls(g, config=None, counts=None):
    """The phased local search as first written: an O(n) swap scan over
    every vertex, generator sums and bit walks of the clique mask. Slow
    on purpose; pls must follow the same trajectory step for step.
    A `counts` dict, if given, gets the run's "restarts", its
    "lone_picks": degree picks among whose candidates one has no
    neighbor among the others, its "all_penalized": penalty picks whose
    candidates all have a positive penalty, and its "rescanned_stuck" and
    "rescanned_swaps": swap scans of a maximal clique already scanned in
    the same run, which find no swap or some."""
    cfg = config or PlsConfig()
    cfg.validate()
    n = g.n
    if n == 0:
        return VertexSet()
    rng = random.Random(cfg.seed)
    adj = g.adj_bits
    rows = g.weight_rows
    full = (1 << n) - 1
    penalties = [0] * n
    restarts = 0
    lone_picks = [0]
    all_penalized = [0]
    scanned = set()
    rescanned = [0, 0]  # stuck, swapping

    cmask = 1 << rng.randrange(n)
    cweight = 0
    cand = adj[cmask.bit_length() - 1]
    best_mask, best_w = cmask, 0

    def pick(cands, mode):
        if mode == "random":
            return cands[rng.randrange(len(cands))]
        if mode == "penalty":
            all_penalized[0] += all(penalties[v] > 0 for v in cands)
            return min(cands, key=lambda v: (penalties[v], v))
        best_v, best_s = cands[0], -1
        pool = sum(1 << u for u in cands)
        lone_picks[0] += any(not adj[v] & pool for v in cands)
        for v in cands:
            row = rows[v]
            s = sum(row[u] for u in cands if u != v)
            if s > best_s:
                best_v, best_s = v, s
        return best_v

    for _ in range(cfg.iterations):
        for mode, steps in PHASES:
            for _ in range(steps):
                if cand:
                    v = pick(_bits(cand), mode)
                    row = rows[v]
                    cweight += sum(row[u] for u in _bits(cmask))
                    cmask |= 1 << v
                    cand &= adj[v]
                    if cweight > best_w:
                        best_w, best_mask = cweight, cmask
                    continue
                cm = _bits(cmask)
                swaps = {}
                for v in range(n):
                    if (cmask >> v) & 1:
                        continue
                    missing = cmask & ~adj[v]
                    if missing.bit_count() != 1:
                        continue
                    u = missing.bit_length() - 1
                    row_v = rows[v]
                    row_u = rows[u]
                    gain = sum(row_v[x] - row_u[x] for x in cm if x != u)
                    if gain > 0:
                        swaps[v] = (gain, u)
                rescanned[bool(swaps)] += cmask in scanned
                scanned.add(cmask)
                if swaps:
                    v = pick(sorted(swaps), mode)
                    gain, u = swaps[v]
                    cweight += gain
                    cmask = (cmask & ~(1 << u)) | (1 << v)
                    cand = full
                    for x in _bits(cmask):
                        cand &= adj[x]
                    if cweight > best_w:
                        best_w, best_mask = cweight, cmask
                else:
                    for x in cm:
                        penalties[x] += 1
                    restarts += 1
                    if restarts % 10 == 0:
                        penalties = [p - 1 if p > 0 else 0 for p in penalties]
                    v0 = rng.randrange(n)
                    cmask = 1 << v0
                    cweight = 0
                    cand = adj[v0]

    if counts is not None:
        counts.update(restarts=restarts, lone_picks=lone_picks[0],
                      all_penalized=all_penalized[0],
                      rescanned_stuck=rescanned[0],
                      rescanned_swaps=rescanned[1])
    out = VertexSet.from_mask(best_mask)
    assert is_clique(g, out) and set_weight(g, out) == best_w
    return out


def test_config_validation():
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="iterations"):
            pls(WeightedGraph(2, [(0, 1, 1)]), PlsConfig(iterations=bad))


@pytest.mark.parametrize("field", ["random_phase_len", "penalty_phase_len",
                                   "degree_phase_len"])
def test_removed_field_fails_loudly(field):
    # the phase lengths are the constant PHASES; an old caller's value
    # must not be silently ignored, nor read as the seed by position
    with pytest.raises(TypeError, match=field):
        PlsConfig(**{field: 7})
    with pytest.raises(TypeError, match="positional"):
        PlsConfig(10, 7)


def _random_graphs():
    # n 2..60, densities 0.1..0.95
    for seed in range(40):
        yield gen_random(2 + seed * 58 // 39, 0.1 + (seed % 18) * 0.05,
                         1, 10, seed=seed)


def _logged_run(monkeypatch, run, *args):
    """run(*args)'s clique mask and the log of its randrange calls, each
    (arguments, result). pls and _reference_pls look random.Random up
    at call time, so a logging subclass patched in there sees them all."""
    log = []

    class Logged(random.Random):
        def randrange(self, *a):
            r = super().randrange(*a)
            log.append((a, r))
            return r

    with monkeypatch.context() as m:
        m.setattr(random, "Random", Logged)
        return run(*args).mask, log


def _assert_same_trajectory(monkeypatch, g, cfg, counts=None):
    # the same clique from the same draws, argument for argument; an
    # empty log would mean the patch never reached pls's generator
    mask, log = _logged_run(monkeypatch, pls, g, cfg)
    assert log and (mask, log) == _logged_run(monkeypatch, _reference_pls,
                                              g, cfg, counts)


def test_matches_reference_on_random_graphs(monkeypatch):
    counts, totals = {}, dict.fromkeys(
        ("all_penalized", "rescanned_stuck", "rescanned_swaps"), 0)
    for i, g in enumerate(_random_graphs()):
        for h in (g, with_zero_weights(g)):
            _assert_same_trajectory(monkeypatch, h,
                                    PlsConfig(iterations=3, seed=i), counts)
            for key in totals:
                totals[key] += counts[key]
            for seed in range(3):
                _assert_same_trajectory(monkeypatch, h,
                                        PlsConfig(iterations=1, seed=seed))
    # the penalty pick's fallback, every candidate penalized, is
    # exercised, and pls's table of scanned cliques is read both when it
    # sends the clique to a restart and when it hands the pick its swaps
    assert all(totals.values()), totals


def test_matches_reference_on_sparse_graphs(monkeypatch):
    # n = 400 at density 0.01 is stored as neighbor-keyed weight rows, so
    # every swap gain here reads non-edges as missing keys; enough
    # restarts that penalties decay while some are positive, degree
    # picks that skip the sum of a candidate with no neighbor among them,
    # penalty picks whose candidates are all penalized, and cliques met
    # again, stuck and swapping, whose scan pls reads from its table
    for seed in range(3):
        g = gen_random(400, 0.01, 1, 10, seed=seed)
        assert isinstance(g.weight_rows[0], dict)  # the member-edge scan
        counts = {}
        _assert_same_trajectory(monkeypatch, g, PlsConfig(seed=seed), counts)
        assert counts["restarts"] >= 20 and counts["lone_picks"] >= 1, counts
        assert counts["all_penalized"] >= 1, counts
        assert counts["rescanned_stuck"] and counts["rescanned_swaps"], counts


def _maximal_cliques(g, rng):
    # one per vertex: grown from it by random picks among the common
    # neighbours until maximal, then shuffled out of pick order
    adj = g.adj_bits
    for v in range(g.n):
        members, cand = [v], adj[v]
        while cand:
            x = rng.choice(_bits(cand))
            members.append(x)
            cand &= adj[x]
        rng.shuffle(members)
        yield members


def test_swap_scan_same_from_dict_and_list_rows():
    # the member-edge scan of neighbour-keyed rows finds the same swaps,
    # gains and dropped members as the mask scan of the same rows as
    # lists, zero-weight edges (keys, so still adjacent) included
    rng = random.Random(0)
    sizes, swapping = set(), 0
    for seed, (n, density) in enumerate([(400, 0.01), (600, 0.012),
                                         (1000, 0.012)], 1):
        g = gen_random(n, density, 1, 10, seed=seed)
        for h in (g, with_zero_weights(g)):
            rows = h.weight_rows
            assert isinstance(rows[0], dict)
            lists = [[row[v] for v in range(n)] for row in rows]
            for members in _maximal_cliques(h, rng):
                scan = _swap_scan(members, h.adj_bits, rows)
                assert scan == _swap_scan(members, h.adj_bits, lists), members
                sizes.add(min(len(members), 3))
                swapping += bool(scan[0])
    assert sizes == {1, 2, 3} and swapping, (sizes, swapping)


@pytest.mark.parametrize("name", ["MANN_a9", "johnson8-4-4"])
def test_matches_reference_on_dimacs(monkeypatch, data_dir, name):
    g = apply_dimacs_weights(
        parse_dimacs((data_dir / f"{name}.clq").read_text()))
    for seed in range(3):
        _assert_same_trajectory(monkeypatch, g, PlsConfig(seed=seed))


def test_empty_graph():
    assert set(pls(WeightedGraph(0))) == set()


def test_edgeless_graph():
    g = WeightedGraph(6)
    c = pls(g, PlsConfig(iterations=1))
    assert is_clique(g, c)
    assert set_weight(g, c) == 0
    assert len(c) <= 1


def test_complete_graph_uniform():
    g = WeightedGraph(5, [(u, v, 3) for u in range(5) for v in range(u + 1, 5)])
    c = pls(g, PlsConfig(iterations=1))
    assert len(c) == 5
    assert set_weight(g, c) == 30


def test_output_is_always_a_clique():
    for seed in range(40):
        g = gen_random(4 + seed % 20, (seed % 9 + 1) / 10, 1, 10, seed=seed)
        c = pls(g, PlsConfig(iterations=1, seed=seed))
        assert is_clique(g, c)


def test_deterministic_for_fixed_seed():
    g = gen_random(25, 0.5, 1, 10, seed=8)
    assert pls(g, PlsConfig(seed=5)) == pls(g, PlsConfig(seed=5))


def test_best_weight_never_decreases_with_more_iterations():
    # same seed means iteration k is a prefix of iteration k+1's run
    g = gen_random(25, 0.5, 1, 10, seed=9)
    weights = [set_weight(g, pls(g, PlsConfig(iterations=k, seed=3)))
               for k in range(1, 6)]
    assert weights == sorted(weights)


def test_warm_start_never_changes_the_optimum():
    for seed in range(15):
        g = gen_random(14, 0.5, 1, 10, seed=seed)
        warm = pls(g, PlsConfig(iterations=2, seed=seed))
        assert solve(g, warm).best_weight == solve(g).best_weight


def test_benchmark_instance_stays_feasible(data_dir):
    # optimum of this instance under the benchmark weighting is 3808;
    # the heuristic may fall short but must stay feasible and below it
    g = apply_dimacs_weights(
        parse_dimacs((data_dir / "johnson16-2-4.clq").read_text()))
    for seed in range(3):
        c = pls(g, PlsConfig(seed=seed))
        assert is_clique(g, c)
        assert set_weight(g, c) <= 3808

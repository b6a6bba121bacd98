"""Phased local search used to warm-start the exact solver.

One clique is kept current at all times. Each search step either adds a
vertex adjacent to the whole clique, performs a strictly improving
one-for-one swap (bring in a vertex that misses exactly one member,
drop that member), or, when stuck, restarts from a random vertex. The
three phases differ only in how the entering vertex is picked among the
candidates, each read straight from their mask: uniformly at random
(the r-th lowest set bit for r = randrange(popcount)), by lowest
penalty counter, lowest index on ties, or by heaviest total edge weight
into the other candidates (one `itemgetter` per pick; 0, unsummed, for
one with no neighbor among them). Penalty counters record how often a
vertex sat in a stuck clique and decay every ten restarts. The mask
`penalized` is exactly the vertices with a positive penalty, so a
penalty pick is the lowest candidate outside it, and only when every
candidate is penalized does it compare counters.

The swap scan works from the clique's own members, not from all n
vertices. Once the clique C is maximal, the vertices that miss exactly
member u are the common neighbours of C minus u (u itself aside), and a
swap's gain is sum_C w(v, .) - sum_C w(u, .), exact because non-edges
and the diagonal weigh 0. On list rows, prefix and suffix ANDs of the
members' neighbour masks give those sets for every u at once (O(|C|)
big-int ANDs), and each gain is two sums over one `itemgetter`. A sparse
graph's dict rows hold exactly its edges (zero-weight ones too), so
there each member's row is read once instead: a vertex meeting |C| - 1
members misses u = sum(C) - their index sum, and its weight to them is
the gain's first term. Both routes give the same scan. A scan's result
depends on the clique alone, so one call of `pls` keeps a dict from each
maximal clique's mask to its scan, (swap mask, {v: (gain, u)}), reads a
clique met again from it (most are: 98% of the scans on 300 small
random graphs), and drops it on return. It holds at most one entry per
step, each about two n-bit masks plus the swaps. After a swap the
candidates are the AND of the new members' neighbour masks, so no entry
depends on member order.

The best clique seen anywhere is returned; it is always feasible, and
for a fixed seed the run is deterministic. Solution quality is
heuristic, which is fine for a warm start: the exact search only uses
its weight as the initial pruning threshold.
"""

import random
from functools import reduce
from operator import and_, itemgetter

from .graph import VertexSet, WeightedGraph, is_clique, set_weight


# One iteration: the three phases in order, with this many search steps
# each. Fixed: the CLI and the benchmark set only iterations and seed.
PHASES = (("random", 50), ("penalty", 50), ("degree", 100))


class PlsConfig:
    """Run length and seed: `iterations` passes through :data:`PHASES`,
    so 200 search steps per iteration, from a `random.Random(seed)`."""

    def __init__(self, iterations=10, *, seed=0):  # PlsConfig(10, 50) fails
        self.iterations = iterations
        self.seed = seed

    def validate(self):
        value = self.iterations
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"iterations must be an int, got {value!r}")
        if value <= 0:
            raise ValueError("iterations must be positive")


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _swap_scan(members, adj, rows):
    """The strictly improving swaps of a maximal clique: (smask, swaps),
    swaps[v] = (gain, u) for each v whose bit is in smask."""
    swaps, smask = {}, 0
    k = len(members)
    if k < 2:
        return smask, swaps
    if isinstance(rows[members[0]], dict):
        # per vertex v: [members it meets, their index sum, their weight
        # to v]. A v meeting k - 1 misses u = sum(members) - that sum; a
        # member meets the other k - 1 and comes out as u == v, gain 0
        meets = {}
        get = meets.get
        for x in members:
            for v, w in rows[x].items():
                m = get(v)
                if m is None:
                    meets[v] = [1, x, w]
                else:
                    m[0] += 1
                    m[1] += x
                    m[2] += w
        total = sum(members)
        for v, (c, s, w) in meets.items():
            u = total - s
            if c == k - 1 and w > meets[u][2]:
                swaps[v] = (w - meets[u][2], u)
                smask |= 1 << v
        return smask, swaps
    # pre[i] & suf[i + 1] is the common neighbourhood of every member but
    # u = members[i]; the clique being maximal, its vertices other than u
    # miss exactly u. -1 has every bit set.
    get = itemgetter(*members)
    pre = [-1] * (k + 1)
    suf = [-1] * (k + 1)
    for i in range(k):
        pre[i + 1] = pre[i] & adj[members[i]]
        suf[k - 1 - i] = suf[k - i] & adj[members[k - 1 - i]]
    for i, u in enumerate(members):
        m = pre[i] & suf[i + 1] & ~(1 << u)
        if not m:
            continue
        w_u = sum(get(rows[u]))
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            gain = sum(get(rows[v])) - w_u
            if gain > 0:
                swaps[v] = (gain, u)
                smask |= b
    return smask, swaps


def pls(g: WeightedGraph, config: PlsConfig | None = None) -> VertexSet:
    """Run the phased local search and return the best clique found."""
    cfg = config or PlsConfig()
    cfg.validate()
    n = g.n
    if n == 0:
        return VertexSet()
    randrange = random.Random(cfg.seed).randrange
    adj = g.adj_bits
    rows = g.weight_rows
    penalties, penalized = [0] * n, 0  # penalized: mask of those > 0
    restarts = 0

    v0 = randrange(n)
    members = [v0]
    cmask = 1 << v0
    cweight = 0
    cand = adj[v0]
    best_mask, best_w = cmask, 0
    scanned = {}  # clique mask -> (smask, {v: (gain, u)}), for this run only

    def pick(mask, mode):
        # the vertex the phase takes from a nonempty mask; rng-deterministic
        if mode == "random":  # the r-th lowest candidate
            for _ in range(randrange(mask.bit_count())):
                mask &= mask - 1
            return (mask & -mask).bit_length() - 1
        if mode == "penalty":  # lowest index among the least penalized
            free = mask & ~penalized
            if free:
                return (free & -free).bit_length() - 1
            return min(_bits(mask), key=penalties.__getitem__)
        cands = _bits(mask)
        if len(cands) == 1:
            return cands[0]
        get = itemgetter(*cands)
        best_v, best_s = cands[0], -1
        for v in cands:  # rows[v][v] == 0, and 0 with no neighbor in mask
            s = sum(get(rows[v])) if adj[v] & mask else 0
            if s > best_s:
                best_v, best_s = v, s
        return best_v

    for _ in range(cfg.iterations):
        for mode, steps in PHASES:
            for _ in range(steps):
                if cand:
                    v = pick(cand, mode)
                    cweight += sum(map(rows[v].__getitem__, members))
                    members.append(v)
                    cmask |= 1 << v
                    cand &= adj[v]
                    if cweight > best_w:
                        best_w, best_mask = cweight, cmask
                    continue
                # clique is maximal: look for a strictly improving swap,
                # scanning each clique once per run
                scan = scanned.get(cmask)
                if scan is None:
                    scan = scanned[cmask] = _swap_scan(members, adj, rows)
                smask, swaps = scan
                if smask:
                    v = pick(smask, mode)
                    gain, u = swaps[v]
                    members[members.index(u)] = v
                    cweight += gain
                    cmask ^= 1 << u | 1 << v
                    cand = reduce(and_, map(adj.__getitem__, members))
                    if cweight > best_w:
                        best_w, best_mask = cweight, cmask
                else:
                    # stuck: penalize the members and restart elsewhere
                    for x in members:
                        penalties[x] += 1
                    penalized |= cmask
                    restarts += 1
                    if restarts % 10 == 0:
                        for x in _bits(penalized):
                            penalties[x] -= 1
                            if not penalties[x]:
                                penalized ^= 1 << x
                    v0 = randrange(n)
                    members = [v0]
                    cmask = 1 << v0
                    cweight = 0
                    cand = adj[v0]

    out = VertexSet.from_mask(best_mask)
    assert is_clique(g, out) and set_weight(g, out) == best_w
    return out

"""Phased local search used to warm-start the exact solver.

One clique is kept current at all times. Each search step either adds a
vertex adjacent to the whole clique, performs a strictly improving
one-for-one swap (bring in a vertex that misses exactly one member,
drop that member), or, when stuck, restarts from a random vertex. The
three phases differ only in how the entering vertex is picked among the
candidates: uniformly at random, by lowest penalty counter, or by
heaviest total edge weight into the other candidates (0, unsummed, for
one with no neighbor among them). Penalty counters record how often a
vertex sat in a stuck clique and decay every ten restarts (only the
positive ones, kept as a mask), steering later restarts away from
over-visited regions.

The swap scan works from the clique's own members, not from all n
vertices. Once the clique C is maximal, the vertices that miss exactly
member u are the common neighbours of C minus u (u itself aside), and
prefix and suffix ANDs of the members' neighbour masks give those sets
for every u at once. A step therefore costs O(|C|) big-int ANDs plus
the swap candidates, rather than O(n). A swap's gain is then
sum_C w(v, .) - sum_C w(u, .), two C-level sums over the member list;
this is exact because non-edges weigh 0 (w(v, u) = 0) and the diagonal
is 0 (w(u, u) = 0).

The best clique seen anywhere is returned; it is always feasible, and
for a fixed seed the run is deterministic. Solution quality is
heuristic, which is fine for a warm start: the exact search only uses
its weight as the initial pruning threshold.
"""

import random
from dataclasses import dataclass, field

from .graph import VertexSet, WeightedGraph, is_clique, set_weight


# One iteration: the three phases in order, with this many search steps
# each. Fixed: the CLI and the benchmark set only iterations and seed.
PHASES = (("random", 50), ("penalty", 50), ("degree", 100))


@dataclass
class PlsConfig:
    """Run length and seed: `iterations` passes through :data:`PHASES`,
    so 200 search steps per iteration, from a `random.Random(seed)`."""

    iterations: int = 10
    seed: int = field(default=0, kw_only=True)  # an old PlsConfig(10, 50) fails

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


def pls(g: WeightedGraph, config: PlsConfig | None = None) -> VertexSet:
    """Run the phased local search and return the best clique found."""
    cfg = config or PlsConfig()
    cfg.validate()
    n = g.n
    if n == 0:
        return VertexSet()
    rng = random.Random(cfg.seed)
    adj = g.adj_bits
    rows = g.weight_rows
    full = (1 << n) - 1
    penalties, penalized = [0] * n, 0  # penalized: mask of those > 0
    restarts = 0

    v0 = rng.randrange(n)
    members = [v0]
    cmask = 1 << v0
    cweight = 0
    cand = adj[v0]
    best_mask, best_w = cmask, 0

    def pick(cands, mode, pool=None):
        # cands is ascending, pool None or their mask; rng-deterministic
        if mode == "random":
            return cands[rng.randrange(len(cands))]
        if mode == "penalty":
            return min(cands, key=lambda v: (penalties[v], v))
        best_v, best_s = cands[0], -1
        pool = sum(1 << v for v in cands) if pool is None else pool
        for v in cands:  # rows[v][v] == 0, and 0 with no neighbor in pool
            s = sum(map(rows[v].__getitem__, cands)) if adj[v] & pool else 0
            if s > best_s:
                best_v, best_s = v, s
        return best_v

    for _ in range(cfg.iterations):
        for mode, steps in PHASES:
            for _ in range(steps):
                if cand:
                    v = pick(_bits(cand), mode, cand)
                    cweight += sum(map(rows[v].__getitem__, members))
                    members.append(v)
                    cmask |= 1 << v
                    cand &= adj[v]
                    if cweight > best_w:
                        best_w, best_mask = cweight, cmask
                    continue
                # clique is maximal: look for a strictly improving swap.
                # pre[i] & suf[i + 1] is the common neighbourhood of every
                # member but u = members[i]; with cand empty, its vertices
                # other than u miss exactly u.
                swaps = {}
                k = len(members)
                if k > 1:
                    pre = [full] * (k + 1)
                    suf = [full] * (k + 1)
                    for i in range(k):
                        pre[i + 1] = pre[i] & adj[members[i]]
                        suf[k - 1 - i] = suf[k - i] & adj[members[k - 1 - i]]
                    for i, u in enumerate(members):
                        m = pre[i] & suf[i + 1] & ~(1 << u)
                        if not m:
                            continue
                        w_u = sum(map(rows[u].__getitem__, members))
                        for v in _bits(m):
                            gain = sum(map(rows[v].__getitem__, members)) - w_u
                            if gain > 0:
                                swaps[v] = (gain, u)
                if swaps:
                    v = pick(sorted(swaps), mode)
                    gain, u = swaps[v]
                    i = members.index(u)
                    members[i] = v
                    cweight += gain
                    cmask = (cmask & ~(1 << u)) | (1 << v)
                    cand = pre[i] & suf[i + 1] & adj[v]
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
                    v0 = rng.randrange(n)
                    members = [v0]
                    cmask = 1 << v0
                    cweight = 0
                    cand = adj[v0]

    out = VertexSet.from_mask(best_mask)
    assert is_clique(g, out) and set_weight(g, out) == best_w
    return out

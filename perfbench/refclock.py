"""A reference clock that scales measured times to a fixed machine speed.

On a shared virtual machine other tenants slow every instruction the
benchmark runs, by up to 2x, in spells from a fraction of a second to
minutes. A spell that outlasts a run moves every time the run reports,
and no statistic over the run's own passes can tell it from a slower
program. So each pass also measures the machine's speed, all through
its timed region, with a fixed piece of work that does not depend on
mewclique: a few steps of a local search on one fixed 60-vertex graph,
the kind of pure-Python big-integer, list and generator work the
library does. Of three kernels tried (this one, a greedy bitset
coloring and a plain arithmetic loop) it tracked the slowdown of
dimacs9 and random-small passes best: scaled pass times spread a
quarter to a fifth as much as wall times, against a half to a third
for the other two. On sparse-large, whose dense weight matrix makes it
memory-bound, all three about halve the spread.

``ReferenceClock.start`` arms an interval timer; every ``PERIOD_S`` of
wall time its SIGALRM handler runs that coloring once and records when
and how long it took. ``now()`` is ``perf_counter`` minus the time spent
in the handler so far, so an interval read from it leaves the samples
out. ``factor(start, end)`` returns ``NOMINAL_S / mean``, where
``mean`` is the mean reference time over [start - WINDOW_S, end +
WINDOW_S] (times from ``now``); a time measured over that interval,
multiplied by it, is the time the work would have taken on a machine
that runs the reference in ``NOMINAL_S``. Because the samples fall evenly in wall time, their mean
follows the same slowdown, integrated over the same interval, that the
measured work suffered.
"""

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.025
WINDOW_S = 0.05
# The reference's time on an unloaded core of the 2-vCPU Xeon VM the
# committed baseline was measured on; scaled times are in that machine's
# seconds.
NOMINAL_S = 0.0005

_N = 60


def _reference_graph():
    rng = random.Random(3)
    adj = [0] * _N
    rows = [[0] * _N for _ in range(_N)]
    for i in range(_N):
        for j in range(i + 1, _N):
            if rng.random() < 0.3:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                rows[i][j] = rows[j][i] = rng.randint(1, 9)
    return adj, rows


_ADJ, _ROWS = _reference_graph()


def _members(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def reference_work():
    """Six steps of a local search on the fixed graph: pick a candidate
    by penalty, score candidates by edge-weight sums, and scan every
    vertex for a one-for-one swap into a fixed two-vertex set."""
    adj, rows = _ADJ, _ROWS
    penalties = [0] * _N
    cmask = 0b100001
    members = _members(cmask)
    total = 0
    for _ in range(6):
        cands = _members(~cmask & ((1 << _N) - 1))
        v = min(cands, key=lambda x: (penalties[x], x))
        penalties[v] += 1
        best = -1
        for u in cands[:20]:
            row = rows[u]
            s = sum(row[w] for w in cands if w != u)
            if s > best:
                best = s
        for u in range(_N):
            missing = cmask & ~adj[u]
            if missing.bit_count() != 1:
                continue
            x = missing.bit_length() - 1
            row_u, row_x = rows[u], rows[x]
            total += sum(row_u[y] - row_x[y] for y in members if y != x)
        total += best
    return total


class ReferenceClock:
    def __init__(self):
        self.starts = []
        self.times = []
        self.busy = 0.0  # total seconds spent in the handler

    def now(self):
        return perf_counter() - self.busy

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_work()
        dt = perf_counter() - t0
        self.starts.append(t0 - self.busy)
        self.times.append(dt)
        self.busy += dt

    def start(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Disarm the timer and take a last sample, so that every
        interval measured in between has samples on both sides."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def factor(self, start, end):
        """NOMINAL_S / mean reference time around [start, end]."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        window = self.times[lo:hi] or self.times
        return NOMINAL_S / statistics.fmean(window)

    def summary(self):
        """Samples, and the reference time's min, median and mean, in s."""
        t = self.times
        return {"samples": len(t), "min_s": min(t), "median_s": statistics.median(t),
                "mean_s": statistics.fmean(t)} if t else {"samples": 0}

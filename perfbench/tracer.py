"""Spans around the library's module boundaries, recorded from outside.

``Tracer.install`` replaces, for the life of the process, the module
attributes a benchmark pass looks up:

* ``mewclique.io``: ``parse_dimacs``, ``parse_weighted_edge_list``
  (span ``io.parse``), ``apply_dimacs_weights`` (``io.weight``) and
  ``WeightedGraph`` (``graph.build``, as the parsers construct graphs);
* ``mewclique.pls.pls`` (``pls``) and ``mewclique.solver.solve``
  (``solver.solve``);
* ``mewclique.solver.ColoringWorkspace``, whose ``run`` is the per-node
  bound. keller4 alone makes ~64k calls, so these are aggregated per
  ``solver.solve`` span into one ``bounds.run`` record: calls, summed
  duration, colored vertices, color classes and the root bound.

Spans stay in memory as lists ``[id, parent, name, instance, start,
end, extra]`` and are written out when the pass ends. Times come from
``now``, by default ``perf_counter``; a pass passes its reference
clock's ``now`` so that the clock's samples are left out of every span.
"""

import importlib
import json
from time import perf_counter


class Tracer:
    def __init__(self, now=perf_counter):
        self.now = now
        self.spans = []
        self.stack = []
        self.instance = None
        self.bounds = None  # aggregate of the solve span in progress

    def open_root(self, instance):
        """Start an instance's root span; the caller stamps its times."""
        self.instance = instance
        rec = [len(self.spans), None, "instance", instance, 0.0, 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close_root(self, rec, start, end):
        rec[4], rec[5] = start, end
        self.stack.pop()

    def _wrap(self, name, fn, bounds=False):
        spans, stack, now = self.spans, self.stack, self.now

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1], name, self.instance, 0.0, 0.0, None]
            if bounds:
                rec[6] = self.bounds = {"calls": 0, "s": 0.0, "colored": 0,
                                        "classes": 0, "root_ub": None}
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = now()
                stack.pop()
        return traced

    def install(self):
        mio = importlib.import_module("mewclique.io")
        mpls = importlib.import_module("mewclique.pls")
        msolver = importlib.import_module("mewclique.solver")
        mio.parse_dimacs = self._wrap("io.parse", mio.parse_dimacs)
        mio.parse_weighted_edge_list = self._wrap(
            "io.parse", mio.parse_weighted_edge_list)
        mio.apply_dimacs_weights = self._wrap("io.weight",
                                              mio.apply_dimacs_weights)
        mio.WeightedGraph = self._wrap("graph.build", mio.WeightedGraph)
        mpls.pls = self._wrap("pls", mpls.pls)
        msolver.solve = self._wrap("solver.solve", msolver.solve, bounds=True)
        tracer, now = self, self.now
        base_run = msolver.ColoringWorkspace.run

        class TracedWorkspace(msolver.ColoringWorkspace):
            def run(self, s_mask, join_w):
                t0 = now()
                out = base_run(self, s_mask, join_w)
                dt = now() - t0
                agg = tracer.bounds
                agg["calls"] += 1
                agg["s"] += dt
                agg["colored"] += s_mask.bit_count()
                agg["classes"] += len(out[2])
                if agg["root_ub"] is None:
                    # bounds fall along the branch order, so the first
                    # is the partition bound of the root candidate set
                    agg["root_ub"] = out[1][0] if out[1] else 0
                return out

        msolver.ColoringWorkspace = TracedWorkspace

    def self_times(self):
        """Per span id: duration minus what its direct children cover."""
        own = {}
        for sid, _, _, _, start, end, extra in self.spans:
            own[sid] = end - start - (extra["s"] if extra else 0.0)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, inst, start, end, extra in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "instance": inst, "start": start,
                                     "end": end}) + "\n")
                if extra:
                    fh.write(json.dumps({"id": f"{sid}.b", "parent": sid,
                                         "name": "bounds.run",
                                         "instance": inst, **extra}) + "\n")

"""Exact maximum edge-weight clique solver.

Given a simple undirected graph with nonnegative integer edge weights,
find the clique whose total internal edge weight is maximum. The search
is branch-and-bound with a greedy-coloring upper bound, optionally
warm-started by a phased local search; instance I/O, a brute-force
oracle and a benchmark CLI round out the package.
"""

from .bounds import (ColoringWorkspace, SeqAndBounds, coloring_scores,
                     seq_and_bounds, vertex_weighted_upper_bound)
from .graph import VertexSet, WeightedGraph, is_clique, set_weight
from .io import (ParseError, apply_dimacs_weights, gen_random, instance_format,
                 parse_dimacs, parse_weighted_edge_list, read_instance,
                 write_weighted_edge_list)
from .oracle import brute_force_mewc
from .pls import PlsConfig, pls
from .solver import SolveResult, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "ColoringWorkspace",
    "ParseError",
    "PlsConfig",
    "SeqAndBounds",
    "SolveResult",
    "SolverConfig",
    "VertexSet",
    "WeightedGraph",
    "apply_dimacs_weights",
    "brute_force_mewc",
    "coloring_scores",
    "gen_random",
    "instance_format",
    "is_clique",
    "parse_dimacs",
    "parse_weighted_edge_list",
    "pls",
    "read_instance",
    "seq_and_bounds",
    "set_weight",
    "solve",
    "vertex_weighted_upper_bound",
    "write_weighted_edge_list",
]

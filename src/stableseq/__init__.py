"""stableseq: exact independent-set sequences of graphs, closed-form bounds
on counts and on the independence polynomial, hypercube estimate windows
with explicit error factors, sequence-shape checkers, and reproducible
percolation experiments."""

from .exact import IndSetSequence, SideProfile, count_by_size, polynomial_eval
from .graphs import (Bipartition, Graph, NotBipartiteError, bipartition,
                     hypercube, complete_bipartite, cycle, path,
                     claw_composite, parse_graph_spec, regularity_profile)
from .percolation import run_experiment

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "Graph",
    "IndSetSequence",
    "NotBipartiteError",
    "SideProfile",
    "claw_composite",
    "bipartition",
    "complete_bipartite",
    "count_by_size",
    "cycle",
    "hypercube",
    "parse_graph_spec",
    "path",
    "polynomial_eval",
    "regularity_profile",
    "run_experiment",
]

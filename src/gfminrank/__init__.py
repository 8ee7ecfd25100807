"""Minimum rank of simple graphs over finite fields.

Decides, for a prime power q and a bound k, whether a simple graph has a
symmetric matrix realisation of rank at most k over GF(q), by generating
the pattern graphs built from polarities of PG(k-1, q) and testing blowup
membership.  Ships an independent brute-force oracle, congruence
canonicalisation of symmetric matrices, and a miner for minimal forbidden
subgraphs.
"""

from .gf import FieldCtx, field_from_order, field_new
from .graphs import (LoopedGraph, SimpleGraph, are_isomorphic, blow_up,
                     canonical_form, emit_graph6, parse_graph6, twin_reduce)
from .matfq import (ClassTag, CongruenceClass, MatrixFq,
                    canonical_representatives, classify_invertible_symmetric,
                    congruence_diagonalize, rank, rank_decomposition)
from .projgeo import count_absolute, enumerate_points, pairing
from .patterns import PatternSet, generate, verify_counts
from .blowup import (BlowupWitness, MinRankBoundError, is_blowup, member,
                     min_rank, multipartite_bound_check)
from .oracle import OracleBudgetError, oracle_min_rank
from .miner import check_f2r2_form, enumerate_graphs, enumerate_trees, mine

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "field_new", "field_from_order",
    "MatrixFq", "ClassTag", "CongruenceClass", "rank",
    "congruence_diagonalize", "classify_invertible_symmetric",
    "canonical_representatives", "rank_decomposition",
    "enumerate_points", "pairing", "count_absolute",
    "SimpleGraph", "LoopedGraph", "parse_graph6", "emit_graph6",
    "twin_reduce", "are_isomorphic", "canonical_form", "blow_up",
    "PatternSet", "generate", "verify_counts",
    "BlowupWitness", "is_blowup", "member", "min_rank",
    "multipartite_bound_check", "MinRankBoundError",
    "oracle_min_rank", "OracleBudgetError",
    "mine", "check_f2r2_form", "enumerate_graphs", "enumerate_trees",
]

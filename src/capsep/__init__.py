"""capsep: desk-scale certification of Shannon-vs-entangled capacity separations."""

from .bitgraph import (BitGraph, ProductGraph, build_cycle, build_G, build_H,
                       build_orthogonality_graph)
from .hadamard import HadamardMatrix, find_hadamard, sylvester
from .geometry import (CliquePacking, OrthoRep, hadamard_clique, pack_cliques,
                       restricted_independent_set)
from .algebra_fp import haemers_matrix
from .alpha import AlphaResult, max_independent_set, verify_independent
from .channel import Protocol, protocol_from_packing, simulate
from .report import capacity_report

__version__ = "0.1.0"

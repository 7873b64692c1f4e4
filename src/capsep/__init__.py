"""capsep: desk-scale certification of Shannon-vs-entangled capacity separations."""

from .bitgraph import (BitGraph, ProductGraph, build_cycle, build_G, build_H,
                       build_orthogonality_graph, hamming_distance,
                       strong_power, strong_product)
from .hadamard import HadamardMatrix, find_hadamard, normalize, paley_one, sylvester
from .geometry import (CliquePacking, OrthoRep, clique_from_hadamard_G,
                       clique_from_hadamard_H, ortho_rep_G, ortho_rep_H,
                       pack_cliques, restricted_independent_set)
from .entcert import EntCert, cert_from_packing, classical_embedding, tensor, verify
from .algebra_fp import FpMatrix, haemers_matrix, monomial_basis, rank_fp
from .alpha import AlphaResult, max_independent_set, verify_independent
from .channel import (Channel, Protocol, canonical_channel, check_zero_error_code,
                      protocol_from_cert, simulate_transmission)
from .report import capacity_report

__version__ = "0.1.0"

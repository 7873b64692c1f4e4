"""Orthonormal representations, Hadamard-seeded cliques, and clique packings.

All certificate-grade checks here are exact: representation vectors are formed
from the vertex words as integer sign vectors with a common normalizer n+1 (the
true unit vector is row / sqrt(n+1)), so orthogonality on edges is an integer
dot product equal to zero, with no tolerance.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .alpha import verify_independent
from .bitgraph import BitGraph, sign_rows, weight_w_bits, word_label, words_from_signs
from .errors import ConstructionError, InternalCheckError, InvalidParameterError, ReadOnly
from .hadamard import HadamardMatrix

PACK_BUDGET = 10**6  # coordinate permutations a family-G packing tries at most


class OrthoRep(ReadOnly):
    """Orthonormal representation w_x = ((-1)^{x_1}, ..., (-1)^{x_n}, 1) / sqrt(n+1).

    A view of its graph: the integer rows are formed from the vertex words
    on demand (``rows``), and the unit vector of vertex i is
    ``rows([i])[0] / sqrt(normalizer)``. No matrix is stored.
    """

    def __init__(self, graph: BitGraph):
        self.__dict__["graph"] = graph

    @property
    def dim(self) -> int:
        """n + 1, also the normalizer: the squared norm of every integer row."""
        return self.graph.n + 1

    normalizer = dim

    def rows(self, idx=slice(None)) -> np.ndarray:
        """The int8 sign rows of the vertices ``idx`` (all by default), a 1 appended."""
        signs = sign_rows(self.graph.bits_array[idx], self.graph.n)
        return np.hstack([signs, np.ones((len(signs), 1), dtype=np.int8)])

    def verify(self) -> None:
        """Exact proof of unit norms and edge orthogonality, in O(|V|).

        Every row is the sign vector of its word, so <w_x, w_y> = n + 1 -
        2 d(x, y): the normalizer n + 1 at d = 0, and n + 1 - 2 (n+1)/2 = 0 on
        every edge of the distance-(n+1)/2 graph. A weight-(n+1)/2 word's row
        sums to n - 2 (n+1)/2 + 1 = 0, so for family G the weight check puts
        the span in the ones-orthogonal hyperplane. ``ConstructionError``
        names the first vertex that fails.
        """
        g = self.graph
        n, k = g.n, (g.n + 1) // 2
        if n % 2 == 0 or g.distance != k:
            raise ConstructionError(
                f"{g.graph_ref()} is not the distance-(n+1)/2 graph of odd n")
        assert n + 1 - 2 * k == 0  # edges are orthogonal by the identity
        bad = np.flatnonzero(np.bitwise_count(g.bits_array) != k) if g.family == "G" else ()
        if len(bad):
            u = int(bad[0])
            raise ConstructionError(f"vertex {u} ({g.vertex_label(u)}) has weight != {k}: "
                                    f"not orthogonal to the ones vector")

    def to_json(self) -> dict:
        return {
            "graph": self.graph.graph_ref(),
            "dim": self.dim,
            "normalizer": self.normalizer,
            "vectors": {self.graph.vertex_label(i): row
                        for i, row in enumerate(self.rows().tolist())},
        }


# -- Hadamard-seeded cliques --------------------------------------------------


def _hadamard_signs(h: HadamardMatrix) -> np.ndarray:
    """S, the normalized matrix without its first column: m rows of length m - 1.

    Entry (i, j) times e[0, j] e[i, 0] e[0, 0] is a square, 1, in row 0 and
    in column 0. Sign flips keep H.H^T = m I (checked once, by h's
    constructor), so the normalized matrix is [1 | S] with S.S^T = m I - J.
    Sign rows of length-n strings x and y have dot product n - 2 d(x, y),
    with n = m - 1; so any two rows of S are strings at distance (n+1)/2.
    Row 0 is all ones, the all-zeros string, so every other row has weight
    m/2, even as 4 divides every Hadamard order >= 4. No pair is compared.
    """
    e = h.entries
    signs = e * e[:, :1]  # the one m x m copy; the row flips go in place
    signs *= e[0, :] * e[0, 0]
    return signs[:, 1:]


def hadamard_clique(h: HadamardMatrix, family: str) -> list[int]:
    """Mutually adjacent words from a size-(n+1) Hadamard matrix: n of weight
    (n+1)/2 for family G, and for H those n with the all-zeros word, row 0.

    Normalizes, strips the all-ones border, and maps -1 entries to 1-bits.
    Distances follow from the Hadamard identity with no graph built, so
    this works at sizes like 164 where the graph itself does not.
    """
    if family not in ("G", "H"):
        raise InvalidParameterError(f"Hadamard cliques are defined for G/H, got {family}")
    if h.size < 4:
        raise InvalidParameterError(
            f"need an even Hadamard size >= 4 to seed a clique, got {h.size}")
    signs = _hadamard_signs(h)
    return words_from_signs(signs[1:] if family == "G" else signs)


# -- packings ----------------------------------------------------------------


class CliquePacking(ReadOnly):
    """Pairwise-disjoint cliques of one fixed size in a packed graph, each
    proved a clique of g by the constructor (``_check_cliques``)."""

    def __init__(self, graph: BitGraph, clique_size: int,
                 cliques: tuple[tuple[int, ...], ...]):
        # cliques: vertex words, each clique sorted
        _check_cliques(graph, cliques, clique_size)
        self.__dict__.update(graph=graph, clique_size=clique_size, cliques=cliques)

    @property
    def count(self) -> int:
        return len(self.cliques)

    @property
    def target(self) -> int:
        """ceil(|V| / d^2), the count the clique-packing bound guarantees."""
        return math.ceil(self.graph.vertex_count / self.clique_size ** 2)

    @property
    def target_met(self) -> bool:
        return self.count >= self.target

    def to_json(self) -> dict:
        n = self.graph.n
        return {
            "graph": self.graph.graph_ref(),
            "clique_size": self.clique_size,
            "count": self.count,
            "target": self.target,
            "target_met": self.target_met,
            "cliques": [[word_label(b, n) for b in c] for c in self.cliques],
        }


def _check_cliques(g: BitGraph, cliques, size: int) -> None:
    """Each clique is ``size`` vertices of g, none reused, pairwise adjacent.

    One lookup for every word, one ``np.unique`` for reuse and one
    ``adjacency_among`` per clique; ``ConstructionError`` names the clique.
    """
    for c, clique in enumerate(cliques):
        if len(clique) != size:
            raise ConstructionError(f"clique {c} has size {len(clique)}, want {size}")
    try:
        idx = g.indices_of(cliques).reshape(len(cliques), size)
    except InvalidParameterError as exc:
        c = next(c for c, clique in enumerate(cliques) if not all(b in g for b in clique))
        raise ConstructionError(f"clique {c}: {exc}") from None
    _, first = np.unique(idx, return_index=True)
    reused = np.ones(idx.size, dtype=bool)
    reused[first] = False
    if reused.any():
        c, j = divmod(int(np.argmax(reused)), size)
        raise ConstructionError(f"clique {c} reuses vertex {g.vertex_label(idx[c, j])}")
    off_diagonal = ~np.eye(size, dtype=bool)
    for c, row in enumerate(idx):
        missing = off_diagonal & ~g.adjacency_among(row)
        if missing.any():
            a, b = np.argwhere(missing)[0].tolist()
            raise ConstructionError(f"clique {c}: vertices {g.vertex_label(row[a])} and "
                                    f"{g.vertex_label(row[b])} are not adjacent")


def pack_cliques(g: BitGraph, seed: list[int], rng_seed: int = 0) -> CliquePacking:
    """Greedy disjoint packing by images of a seed clique under automorphisms.

    The weight-(n+1)/2 graph is vertex transitive under coordinate
    permutations; the even-weight graph under translations x -> x xor z. For
    the latter the 2^(n-1) translations are enumerated in increasing order,
    which makes the packing maximal within the family and hence guaranteed to
    reach ceil(|V|/d^2); for the former, permutations come from a seeded
    pseudorandom stream capped by ``PACK_BUDGET``, and falling short is reported
    via ``target_met`` rather than papered over.
    """
    if g.family not in ("G", "H"):
        raise InvalidParameterError(f"packing is defined for families G/H, got {g.family}")
    n, d = g.n, len(seed)
    if not seed or any(b >> n for b in seed):
        raise InvalidParameterError("seed must be nonempty with words of at most n bits")
    target = CliquePacking(g, d, (tuple(seed),)).target  # checks the seed

    used: set[int] = set()
    cliques: list[tuple[int, ...]] = []

    def try_add(image: list[int]) -> None:
        if len(set(image)) == d and not used.intersection(image):
            used.update(image)
            cliques.append(tuple(sorted(image)))

    if g.family == "H":
        for z in g.bits_array.tolist():
            try_add([b ^ z for b in seed])
            if len(cliques) >= target:
                break
    else:
        seed_signs = sign_rows(np.asarray(seed, dtype=np.uint64), n)
        rng = random.Random(rng_seed)
        perm = list(range(n))
        for _ in range(PACK_BUDGET):
            # destination coordinate j takes source coordinate perm[j]
            try_add(words_from_signs(seed_signs[:, perm]))
            if len(cliques) >= target:
                break
            rng.shuffle(perm)

    return CliquePacking(g, d, tuple(cliques))


# -- explicit independent sets ------------------------------------------------


def restricted_independent_set(g: BitGraph) -> tuple[int, np.ndarray]:
    """(k, the indices in g of its weight-(n+1)/2 words with zeros on the last
    k = ceil((n+1)/4) coordinates). Two share at least k+1 > (n+1)/4 ones,
    while adjacent words share exactly (n+1)/4, so none is an edge. The
    words have even weight, so lie in H as well as G, when 4 divides n + 1, as
    it does wherever a Hadamard matrix of order n + 1 exists; elsewhere
    ``InvalidParameterError`` names one not in g. Independence is still proved
    by the exhaustive ``verify_independent`` pass on g: an edge raises
    ``InternalCheckError``."""
    if g.family not in ("G", "H"):
        raise InvalidParameterError(f"the restricted set is defined for G/H, got {g.graph_ref()}")
    n, k = g.n, -(-(g.n + 1) // 4)
    idx = g.indices_of([b << k for b in weight_w_bits(n - k, (n + 1) // 2)])
    independent, edge = verify_independent(g, idx)
    if not independent:
        raise InternalCheckError(f"restricted set of {g.graph_ref()} has the edge {edge}")
    return k, idx

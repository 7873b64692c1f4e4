"""Orthonormal representations, Hadamard-seeded cliques, and clique packings.

All certificate-grade checks here are exact: representation vectors are stored
as integer sign vectors with a common normalizer n+1 (the true unit vector is
row / sqrt(n+1)), so orthogonality on edges is an integer dot product equal to
zero, with no tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .alpha import verify_independent
from .bitgraph import (BitGraph, BitVertex, build_G, build_H, sign_rows,
                       weight_w_bits, words_from_signs)
from .errors import ConstructionError, InvalidParameterError
from .hadamard import HadamardMatrix, normalize


@dataclass(frozen=True)
class OrthoRep:
    """Orthonormal representation with exact integer coordinates.

    ``matrix`` has one row per graph vertex (same order); the unit vector of
    vertex i is ``matrix[i] / sqrt(normalizer)``. For the weight-(n+1)/2
    family every row is additionally orthogonal to the appended-ones vector,
    recorded by ``hyperplane_certified``.
    """

    graph: BitGraph
    dim: int
    normalizer: int
    matrix: np.ndarray
    hyperplane_certified: bool = False

    def verify(self) -> None:
        """Exact check of unit norms and edge orthogonality, in O(|V| n).

        Row x must be the sign vector w_x = ((-1)^{x_1}, ..., (-1)^{x_n}, 1),
        so <w_x, w_y> = n + 1 - 2 d(x, y): the normalizer n + 1 at d = 0, and
        n + 1 - 2 (n+1)/2 = 0 on every edge of the distance-(n+1)/2 graph.
        Checking the normalizer, the edge rule and each row against the
        closed form thus proves every norm and every edge orthogonality with
        no inner product formed. ``ConstructionError`` names the first
        vertex that fails.
        """
        g = self.graph
        n, k = g.n, (g.n + 1) // 2
        if n % 2 == 0 or g.distance != k:
            raise ConstructionError(
                f"{g.graph_ref()} is not the distance-(n+1)/2 graph of odd n")
        assert n + 1 - 2 * k == 0  # edges are orthogonal by the identity
        if self.normalizer != n + 1:
            raise ConstructionError(f"vertex 0 has squared norm {n + 1}, "
                                    f"not the normalizer {self.normalizer}")
        expected = _rep_for(g)
        if self.dim != n + 1 or self.matrix.shape != expected.shape:
            raise ConstructionError(f"matrix shape {self.matrix.shape} is not "
                                    f"{expected.shape} with dim {n + 1}")
        bad = np.flatnonzero((self.matrix != expected).any(axis=1))
        if bad.size:
            u = int(bad[0])
            raise ConstructionError(
                f"vertex {u} ({g.vertex_label(u)}) is not its sign vector")

    def to_json(self) -> dict:
        return {
            "graph": self.graph.graph_ref(),
            "dim": self.dim,
            "normalizer": self.normalizer,
            "vectors": {self.graph.vertex_label(i): self.matrix[i].tolist()
                        for i in range(self.graph.vertex_count)},
        }


def _rep_for(graph: BitGraph) -> np.ndarray:
    """Sign vector of each vertex with a 1 appended, as int8 rows."""
    signs = sign_rows(graph.bits_array, graph.n)
    return np.hstack([signs, np.ones((len(signs), 1), dtype=np.int8)])


def ortho_rep_H(n: int) -> OrthoRep:
    """(n+1)-dimensional representation of the even-weight graph."""
    graph = build_H(n)
    rep = OrthoRep(graph, n + 1, n + 1, _rep_for(graph))
    rep.verify()
    return rep


def ortho_rep_G(n: int) -> OrthoRep:
    """Ambient (n+1)-dim representation of the weight-(n+1)/2 graph.

    Also certifies that every vector is orthogonal to the appended-ones
    vector, so the span has dimension at most n.
    """
    graph = build_G(n)
    mat = _rep_for(graph)
    sums = mat.astype(np.int64).sum(axis=1)
    if sums.any():
        bad = int(np.argmax(sums != 0))
        raise ConstructionError(f"vertex {bad} not orthogonal to the ones vector")
    rep = OrthoRep(graph, n + 1, n + 1, mat, hyperplane_certified=True)
    rep.verify()
    return rep


# -- Hadamard-seeded cliques --------------------------------------------------


def _hadamard_signs(h: HadamardMatrix) -> np.ndarray:
    """S, the normalized matrix without its first column: m rows of length m - 1.

    The normalized matrix is H = [1 | S] with H.H^T = m I (checked by its
    constructor) and a first column of ones (checked here), so
    S.S^T = m I - J. Sign rows of length-n strings x and y have dot product
    n - 2 d(x, y), with n = m - 1; so any two rows of S are strings at
    distance (n+1)/2. Row 0 is all ones, the all-zeros string, so every
    other row also has weight (n+1)/2. No pair needs to be compared.
    """
    m = h.size
    if m < 4 or m % 2 != 0:
        raise InvalidParameterError(
            f"need an even Hadamard size >= 4 to seed a clique, got {m}")
    hn = normalize(h)
    if not hn.is_normalized():
        raise ConstructionError("normalized Hadamard matrix has a -1 in its border")
    return hn.entries[:, 1:]


def clique_from_hadamard_G(h: HadamardMatrix) -> list[BitVertex]:
    """n mutually adjacent weight-(n+1)/2 vertices from a size-(n+1) Hadamard.

    Normalizes, strips the all-ones border, and maps -1 entries to 1-bits.
    Distances follow from the Hadamard identity with no graph built, so
    this works at sizes like 164 where the graph itself does not.
    """
    signs = _hadamard_signs(h)
    return [BitVertex(b, signs.shape[1]) for b in words_from_signs(signs[1:])]


def clique_from_hadamard_H(h: HadamardMatrix) -> list[BitVertex]:
    """The G-clique plus the all-zeros string: n+1 mutually adjacent even-weight vertices."""
    signs = _hadamard_signs(h)
    if ((signs < 0).sum(axis=1) % 2).any():
        raise ConstructionError("clique vertex with odd weight")
    return [BitVertex(b, signs.shape[1]) for b in words_from_signs(signs)]


# -- packings ----------------------------------------------------------------


@dataclass(frozen=True)
class CliquePacking:
    """Pairwise-disjoint cliques of one fixed size in a packed graph."""

    graph: BitGraph
    clique_size: int
    cliques: tuple[tuple[int, ...], ...]  # vertex words, each clique sorted
    target: int
    target_met: bool

    @property
    def count(self) -> int:
        return len(self.cliques)

    def verify(self) -> None:
        """Independent re-check: clique sizes, membership, disjointness, adjacency."""
        _check_cliques(self.graph, self.cliques, self.clique_size)

    def to_json(self) -> dict:
        n = self.graph.n
        return {
            "graph": self.graph.graph_ref(),
            "clique_size": self.clique_size,
            "count": self.count,
            "target": self.target,
            "target_met": self.target_met,
            "cliques": [[format(b, f"0{n}b") for b in c] for c in self.cliques],
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
        raise ConstructionError(f"clique {c} reuses vertex {cliques[c][j]:#b}")
    off_diagonal = ~np.eye(size, dtype=bool)
    for c, row in enumerate(idx):
        missing = off_diagonal & ~g.adjacency_among(row)
        if missing.any():
            a, b = np.argwhere(missing)[0].tolist()
            raise ConstructionError(f"clique {c}: vertices {cliques[c][a]:#b} and "
                                    f"{cliques[c][b]:#b} are not adjacent")


def pack_cliques(g: BitGraph, seed: list[BitVertex], budget: int = 10**6,
                 rng_seed: int = 0) -> CliquePacking:
    """Greedy disjoint packing by images of a seed clique under automorphisms.

    The weight-(n+1)/2 graph is vertex transitive under coordinate
    permutations; the even-weight graph under translations x -> x xor z. For
    the latter the 2^(n-1) translations are enumerated in increasing order,
    which makes the packing maximal within the family and hence guaranteed to
    reach ceil(|V|/d^2); for the former, permutations come from a seeded
    pseudorandom stream capped by ``budget``, and falling short is reported
    via ``target_met`` rather than papered over.
    """
    if g.family not in ("G", "H"):
        raise InvalidParameterError(f"packing is defined for families G/H, got {g.family}")
    if budget < 1:
        raise InvalidParameterError(f"budget must be at least 1, got {budget}")
    n, d = g.n, len(seed)
    if not seed or any(v.len != n for v in seed):
        raise InvalidParameterError("seed must be nonempty with vertices of length n")
    seed_bits = [v.bits for v in seed]
    _check_cliques(g, [seed_bits], d)
    target = math.ceil(g.vertex_count / (d * d))

    used: set[int] = set()
    cliques: list[tuple[int, ...]] = []

    def try_add(image: list[int]) -> None:
        if len(set(image)) == d and not used.intersection(image):
            used.update(image)
            cliques.append(tuple(sorted(image)))

    if g.family == "H":
        for z in g.bits_array.tolist():
            try_add([b ^ z for b in seed_bits])
            if len(cliques) >= target:
                break
    else:
        seed_signs = sign_rows(np.asarray(seed_bits, dtype=np.uint64), n)
        rng = random.Random(rng_seed)
        perm = list(range(n))
        for _ in range(budget):
            # destination coordinate j takes source coordinate perm[j]
            try_add(words_from_signs(seed_signs[:, perm]))
            if len(cliques) >= target:
                break
            rng.shuffle(perm)

    packing = CliquePacking(g, d, tuple(cliques), target, len(cliques) >= target)
    packing.verify()
    return packing


# -- explicit independent sets ------------------------------------------------


@dataclass(frozen=True)
class RestrictedSet:
    """Weight-(n+1)/2 strings supported on the first n-k coordinates."""

    n: int
    k: int
    vertices: tuple[BitVertex, ...]
    verified: bool
    witness: tuple[BitVertex, BitVertex] | None

    def __len__(self):
        return len(self.vertices)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "size": len(self.vertices),
                "verified": self.verified,
                "witness": None if self.witness is None else
                [str(v) for v in self.witness],
                "vertices": [str(v) for v in self.vertices]}


def restricted_independent_set(n: int, k: int | None = None) -> RestrictedSet:
    """Candidate independent set with zeros on the last k coordinates.

    Defaults to k = ceil((n+1)/4): with k trailing zeros two members meet in
    at least k+1 coordinates, while an edge needs the intersection to be
    exactly (n+1)/4, so k+1 > (n+1)/4 rules edges out. Independence is
    verified regardless by ``alpha.verify_independent``, whose first edge is
    returned as a witness instead of a verdict when the set fails.
    """
    if n % 2 == 0 or n < 3:
        raise InvalidParameterError(f"n must be odd and >= 3, got {n}")
    if k is None:
        k = -(-(n + 1) // 4)
    if not 0 <= k < n:
        raise InvalidParameterError(f"k must be in [0, {n}), got {k}")
    w = (n + 1) // 2
    g = BitGraph(n, [b << k for b in weight_w_bits(n - k, w)], ("distance", w))
    independent, edge = verify_independent(g, range(g.vertex_count))
    return RestrictedSet(n, k, tuple(g.vertices), independent,
                         None if independent else tuple(map(g.vertex, edge)))

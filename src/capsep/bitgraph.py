"""Bitstring-vertex graphs: Hamming-distance families, cycles, and strong products.

A vertex is its word: a length-n binary string packed into an integer, with
coordinate i (1-based, left to right) at bit position n-i, so
``word_label(0b011, 3) == "011"`` and "the last k coordinates" are the low k
bits. Labels are made and parsed only here.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError

MAX_BITLEN = 63
MAX_VERTICES = 10**7
# All-pairs adjacency work (alpha search, blocked edge count) up to this |V|.
DENSE_ADJACENCY_CAP = 16384
BLOCK_ENTRIES = 1 << 22  # cells per ``row_blocks`` slice
_SPHERES = {"vertex_transitive": True, "sphere_transitive": True}  # G, H and O


def word_label(word: int, n: int) -> str:
    """The length-n binary string of a word, coordinate 1 first."""
    return format(word, f"0{n}b")


def sign_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """Rows (-1)^{x_1}, ..., (-1)^{x_n} for each vertex word, as int8."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    b = ((bits[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)
    return (1 - 2 * b).astype(np.int8)


def pack_words(rows: np.ndarray) -> list[int]:
    """Word of each bool row, at any length, column 0 the top bit: the words of
    ``sign_rows(...) < 0``."""
    pad = -rows.shape[1] % 8  # packbits fills the last byte with low zeros
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in np.packbits(rows, axis=1)]


def row_blocks(rows: int, width: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) row slices holding about ``BLOCK_ENTRIES`` cells of a rows x width array."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, rows, step):
        yield lo, min(rows, lo + step)


class _Graph:
    """What every graph derives from its one pair rule, ``adjacency_among``."""
    sphere_transitive = False

    def require_dense(self) -> None:
        """Refuse all-pairs adjacency work on more than ``DENSE_ADJACENCY_CAP`` vertices."""
        if self.vertex_count > DENSE_ADJACENCY_CAP:
            raise ResourceLimitError(f"all-pairs adjacency for {self.vertex_count} vertices "
                                     f"exceeds cap {DENSE_ADJACENCY_CAP}")

    def adjacency_blocks(self, among=None) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, adjacency of among[lo:hi] against among) over ``row_blocks``, among
        every vertex by default; ``require_dense`` is checked before the first block."""
        self.require_dense()
        among = np.arange(self.vertex_count) if among is None else among
        for lo, hi in row_blocks(among.size, among.size):
            yield lo, self.adjacency_among(among[lo:hi], among)

    def descriptor(self) -> dict:
        n = self.vertex_count if self.family in ("C", "K") else self.n
        d = {"family": self.family, "n": n, "vertex_count": self.vertex_count}
        try:
            d["edge_count"] = self.edge_count
        except ResourceLimitError:
            d["edge_count"] = None
        return d


class BitGraph(_Graph):
    """Simple undirected graph on bitstring vertices.

    Adjacency is either ``("distance", k)`` (u ~ v iff d(u, v) = k, with k in
    ``distance``) or an explicit edge set over vertex indices (``distance`` is
    None), stored as sorted keys min * |V| + max. Only the builders claim
    ``vertex_transitive``, each from a transitive group: S_n on the words (G),
    translations (H, O), rotations (C), all permutations (K). G, H and O also claim
    ``sphere_transitive``: the coordinate permutations fixing the word of vertex 0
    act transitively on each Hamming sphere around it. Instances are immutable.
    """

    def __init__(self, n: int, bits: Sequence[int], rule, family: str | None = None,
                 vertex_transitive: bool = False, sphere_transitive: bool = False):
        if len(bits) > MAX_VERTICES:
            raise ResourceLimitError(
                f"{len(bits)} vertices exceeds the materialization cap {MAX_VERTICES}")
        try:  # np.sort: np.unique on uint64 would import numpy.ma (about 1 MB)
            self._bits = np.sort(np.asarray(bits, dtype=np.uint64))
        except OverflowError:
            raise InvalidParameterError("vertex word negative or wider than 64 bits") from None
        if (self._bits[1:] == self._bits[:-1]).any():
            raise InvalidParameterError("duplicate vertices")
        if self._bits.size and int(self._bits[-1]) >> n:
            raise InvalidParameterError(f"vertex {int(self._bits[-1]):#b} does not fit {n} bits")
        self.n = n
        self.family = family
        self.vertex_transitive, self.sphere_transitive = vertex_transitive, sphere_transitive
        kind = rule[0]
        if kind == "distance":
            self.distance = int(rule[1])
            self._edge_keys = None
        elif kind == "explicit":
            self.distance = None
            self._edge_keys = self._sorted_edge_keys(rule[1])
        else:
            raise InvalidParameterError(f"unknown adjacency rule {kind!r}")

    def _sorted_edge_keys(self, edges) -> np.ndarray:
        """Validate explicit edges; return sorted unique keys min * |V| + max."""
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        if (lo == hi).any():
            raise InvalidParameterError("self-loop in explicit edge set")
        if e.size and (lo.min() < 0 or hi.max() >= self.vertex_count):
            raise InvalidParameterError("edge endpoint out of range")
        keys = np.sort(lo * self.vertex_count + hi)
        return keys[np.diff(keys, prepend=-1) != 0]

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._bits)

    @property
    def bits_array(self) -> np.ndarray:
        return self._bits

    def indices_of(self, words) -> np.ndarray:
        """Index of each word among the sorted vertex words, by binary search."""
        try:
            w = np.asarray(words, dtype=np.uint64)
        except OverflowError:  # negative or wider than 64 bits: never a vertex
            raise InvalidParameterError("vertex word out of range") from None
        pos = np.searchsorted(self._bits, w)
        found = pos < self.vertex_count
        found[found] = self._bits[pos[found]] == w[found]
        if not found.all():
            raise InvalidParameterError(f"vertex {int(w[~found][0]):#b} not in graph")
        return pos

    def index_of(self, word) -> int:
        return int(self.indices_of([int(word)])[0])

    def __contains__(self, v) -> bool:
        try:
            return self.index_of(v) >= 0
        except InvalidParameterError:
            return False

    def vertex_label(self, i: int) -> str:
        word = int(self._bits[i])
        return str(word) if self.family == "C" else word_label(word, self.n)

    def indices_of_labels(self, labels: Sequence) -> np.ndarray:
        """Index of the vertex whose ``vertex_label`` is exactly each label, in one
        batch; a label that merely parses to a vertex, like "+011", raises."""
        base, form = (10, "0|[1-9][0-9]{0,18}") if self.family == "C" else (2, f"[01]{{{self.n}}}")
        words = [int(s, base) if isinstance(s, str) and re.fullmatch(form, s) else 0
                 for s in labels]
        idx = np.searchsorted(self._bits, np.array(words, dtype=np.uint64))
        idx = idx.clip(max=self.vertex_count - 1)
        for i, label in zip(idx.tolist(), labels):
            if self.vertex_label(i) != label:
                raise InvalidParameterError(f"unknown vertex {label!r} in {self.graph_ref()}")
        return idx

    # -- adjacency ---------------------------------------------------------

    def adjacency_among(self, rows, cols=None) -> np.ndarray:
        """Boolean matrix A[a, b] = (rows[a] ~ cols[b]); cols defaults to rows."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = rows if cols is None else np.asarray(cols, dtype=np.int64)
        r, c = rows[:, None], cols[None, :]
        if self.distance is not None:
            adj = np.bitwise_count(self._bits[r] ^ self._bits[c]) == self.distance
        else:
            keys = np.minimum(r, c) * self.vertex_count + np.maximum(r, c)
            known = self._edge_keys
            pos = np.searchsorted(known, keys).clip(max=max(known.size - 1, 0))
            adj = known[pos] == keys if known.size else np.zeros(keys.shape, dtype=bool)
        return adj & (r != c)

    @property
    def edge_count(self) -> int:
        """|E|: the explicit keys; for a vertex-transitive graph |V| deg(0) / 2
        from one row; for any other distance graph a blocked count."""
        if self._edge_keys is not None:
            return int(self._edge_keys.size)
        nv = self.vertex_count
        if self.vertex_transitive:
            return nv * int(self.adjacency_among([0], np.arange(nv)).sum()) // 2
        return sum(int(block.sum()) for _, block in self.adjacency_blocks()) // 2

    def graph_ref(self) -> str:
        if self.family in ("C", "K"):
            return f"{self.family}{self.vertex_count}"
        return f"{self.family or 'X'}{self.n}"

    def __repr__(self):
        return f"BitGraph({self.graph_ref()}, |V|={self.vertex_count})"


# -- constructors ------------------------------------------------------------


def _require_odd_n(n: int):
    if n % 2 == 0 or not 3 <= n <= MAX_BITLEN:
        raise InvalidParameterError(f"n must be odd with 3 <= n <= {MAX_BITLEN}, got {n}")


def weight_w_bits(n: int, w: int) -> list[int]:
    """Every length-n word of weight w, ascending. The weight-j words on k+1
    bits are the weight-j words on k bits, then the weight-(j-1) ones with bit
    k set: both runs ascend, so bit by bit no sort is needed."""
    if not 0 <= w <= n:
        return []
    words = [np.zeros(1, np.uint64)] + [np.zeros(0, np.uint64)] * w  # by weight, on 0 bits
    for k in range(n):
        # weights below w - (n-1-k) cannot reach w in the bits that are left
        for j in range(min(k + 1, w), max(0, w - n + k), -1):
            words[j] = np.concatenate((words[j], words[j - 1] | np.uint64(1 << k)))
    return words[w].tolist()


def build_G(n: int) -> BitGraph:
    """Graph on length-n strings of weight (n+1)/2, edges at distance (n+1)/2."""
    _require_odd_n(n)
    w = (n + 1) // 2
    if math.comb(n, w) > MAX_VERTICES:
        raise ResourceLimitError(f"C({n},{w}) vertices exceed cap {MAX_VERTICES}")
    return BitGraph(n, weight_w_bits(n, w), ("distance", w), family="G", **_SPHERES)


def build_H(n: int) -> BitGraph:
    """Graph on length-n strings of even weight, edges at distance (n+1)/2."""
    _require_odd_n(n)
    if 2 ** (n - 1) > MAX_VERTICES:
        raise ResourceLimitError(f"2^{n - 1} vertices exceed cap {MAX_VERTICES}")
    # An even-weight string is its first n-1 coordinates plus a parity bit.
    ys = np.arange(2 ** (n - 1), dtype=np.uint64)
    bits = (ys << np.uint64(1)) | (np.bitwise_count(ys) & np.uint64(1))
    return BitGraph(n, bits, ("distance", (n + 1) // 2), family="H", **_SPHERES)


def build_orthogonality_graph(n: int) -> BitGraph:
    """Graph on all length-n strings, edges at distance n/2 (n even)."""
    if n % 2 != 0 or not 2 <= n <= 24:
        raise InvalidParameterError(f"n must be even with 2 <= n <= 24, got {n}")
    if 2**n > MAX_VERTICES:
        raise ResourceLimitError(f"2^{n} vertices exceed cap {MAX_VERTICES}")
    return BitGraph(n, range(2**n), ("distance", n // 2), family="O", **_SPHERES)


def build_cycle(n: int) -> BitGraph:
    """Cycle on n index vertices (each word is its index)."""
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3, got {n}")
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"{n} vertices exceed cap {MAX_VERTICES}")
    ring = np.arange(n)
    return BitGraph(max(1, (n - 1).bit_length()), ring,
                    ("explicit", np.stack([ring, (ring + 1) % n], axis=1)), family="C",
                    vertex_transitive=True)


def build_complete(n: int) -> BitGraph:
    """Complete graph on n index vertices (K_1 allowed)."""
    if n < 1:
        raise InvalidParameterError(f"complete graph needs n >= 1, got {n}")
    if n * (n - 1) // 2 > MAX_VERTICES:
        raise ResourceLimitError(f"K{n} edges exceed cap {MAX_VERTICES}")
    return BitGraph(max(1, (n - 1).bit_length()), np.arange(n),
                    ("explicit", np.stack(np.triu_indices(n, 1), axis=1)), family="K",
                    vertex_transitive=True)


def graph_from_ref(ref: str) -> BitGraph | ProductGraph:
    """Rebuild a graph from its reference, e.g. "G11", "C5" or the product "H3xH3",
    whose factors are built once each, after the vertex cap admits those before."""
    builders = {"G": build_G, "H": build_H, "O": build_orthogonality_graph,
                "C": build_cycle, "K": build_complete}

    @functools.cache
    def factor(part: str) -> BitGraph:
        family, num = part[:1], part[1:]  # no leading zero; a size cap refuses any n this long
        if family not in builders or not re.fullmatch(r"0|[1-9][0-9]{0,19}", num):
            raise InvalidParameterError(
                f"cannot build a graph from {ref!r} (want e.g. C5, G11, H3xH3)")
        return builders[family](int(num))

    parts = ref.split("x")
    return factor(ref) if len(parts) == 1 else ProductGraph(map(factor, parts))


# -- strong products ---------------------------------------------------------


class ProductGraph(_Graph):
    """Strong product of factor graphs; a vertex is its tuple of factor indices,
    flattened to a single index in row-major order."""

    def __init__(self, factors: Iterable):
        self.factors, count = [], 1
        for f in factors:  # the cap is checked before the next factor is drawn
            count *= f.vertex_count
            if count > MAX_VERTICES:
                raise ResourceLimitError(
                    f"product would exceed the {MAX_VERTICES}-vertex cap")
            self.factors.append(f)
        if not self.factors:
            raise InvalidParameterError("product needs at least one factor")
        self._count = count
        self.family = "product"
        self.n = sum(f.n for f in self.factors)
        self.vertex_transitive = all(f.vertex_transitive for f in self.factors)

    @property
    def vertex_count(self) -> int:
        return self._count

    def parts(self, i: int) -> tuple[int, ...]:
        out = []
        for f in reversed(self.factors):
            out.append(i % f.vertex_count)
            i //= f.vertex_count
        return tuple(reversed(out))

    def adjacency_among(self, rows, cols=None) -> np.ndarray:
        """Boolean matrix A[a, b] = (rows[a] ~ cols[b]); cols defaults to rows.

        Factor by factor the coordinates must be equal or adjacent; the
        vertex itself is cleared.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = rows if cols is None else np.asarray(cols, dtype=np.int64)
        adj = rows[:, None] != cols[None, :]
        for f in reversed(self.factors):
            (rows, r), (cols, c) = divmod(rows, f.vertex_count), divmod(cols, f.vertex_count)
            adj &= (r[:, None] == c[None, :]) | f.adjacency_among(r, c)
        return adj

    @property
    def edge_count(self) -> int:
        """|E| from 2|E| = prod(|V_i| + 2|E_i|) - prod |V_i|: closed
        neighbourhoods multiply, and each vertex is in its own."""
        closed = math.prod(f.vertex_count + 2 * f.edge_count for f in self.factors)
        return (closed - self._count) // 2

    def vertex_label(self, i: int) -> str:
        parts = self.parts(i)
        return "(" + ",".join(f.vertex_label(p) for f, p in zip(self.factors, parts)) + ")"

    def graph_ref(self) -> str:
        return "x".join(f.graph_ref() for f in self.factors)

    def __repr__(self):
        return f"ProductGraph({self.graph_ref()}, |V|={self._count})"

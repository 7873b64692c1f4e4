"""Maximum-independent-set search with honest anytime bounds.

Branch and bound on the complement-clique formulation: an independent set in
G is a clique in the complement, and a greedy coloring of the complement's
candidate subgraph bounds how much a branch can still gain. Within budget the
result is exact; at budget exhaustion the incumbent and the root coloring
bound are returned as certified lower/upper bounds.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .bitgraph import row_blocks
from .errors import InternalCheckError


@dataclass(frozen=True)
class AlphaResult:
    lower: int
    upper: int
    exact: bool
    witness: tuple[int, ...]  # vertex indices, independent, |witness| = lower
    nodes_explored: int
    elapsed_s: float

    def to_json(self, g) -> dict:
        return {
            "graph": g.graph_ref(),
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": [g.vertex_label(i) for i in self.witness],
            "nodes": self.nodes_explored,
            "seconds": round(self.elapsed_s, 3),
        }


def verify_independent(g, vertex_indices) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustive pair check in row blocks; returns (ok, first witness edge or None)."""
    idx = np.array(sorted(set(int(i) for i in vertex_indices)), dtype=np.int64)
    for lo, hi in row_blocks(idx.size, idx.size):
        hits = np.argwhere(np.triu(g.adjacency_among(idx[lo:hi], idx), lo + 1))
        if hits.size:
            a, b = hits[0].tolist()
            return False, (int(idx[lo + a]), int(idx[b]))
    return True, None


def _color_classes(cand: int, adj: list[int], k_min: int = 0) -> list[tuple[int, int]]:
    """Color the complement subgraph on cand greedily, one class at a time.

    Bit r of cand is the vertex of static-order rank r, so each class takes
    the lowest uncolored vertex, keeps in the class's pool only its neighbours
    in g (its non-neighbours in the complement), and repeats: the classes of
    first-fit coloring along the static order. The number of classes bounds
    the largest complement-clique inside cand. Returns (rank, color) pairs,
    colors nondecreasing, for color > k_min only: below Tomita's k_min a
    branch cannot beat the incumbent.
    """
    out = []
    color = 0
    while cand:
        color += 1
        pool = cand
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            if color > k_min:
                out.append((v, color))
            cand ^= low
            pool &= adj[v]
    return out


def _rank_rows(g, order: np.ndarray) -> list[int]:
    """Adjacency as one bitset int per rank, bit r the vertex of rank r."""
    rows: list[int] = []
    for lo, hi in row_blocks(order.size, order.size):
        packed = np.packbits(g.adjacency_among(order[lo:hi], order), axis=1, bitorder="little")
        rows += [int.from_bytes(row.tobytes(), "little") for row in packed]
    return rows


def max_independent_set(g, node_budget: int = 1_000_000) -> AlphaResult:
    """Budgeted exact/anytime alpha with a re-verified witness."""
    n = g.vertex_count
    # Static order: complement degree descending, then vertex index. The
    # search runs on ranks in this order; the witness is mapped back.
    degrees = [np.zeros(0, dtype=np.int64)]  # a graph with no vertices has no block
    degrees += [block.sum(axis=1) for _, block in g.adjacency_blocks()]
    order = np.argsort(np.concatenate(degrees), kind="stable")
    adj = _rank_rows(g, order)

    # Greedy incumbent: grow a complement clique along the static order.
    best_set: list[int] = []
    clique = 0
    for v in range(n):
        if not clique & adj[v]:
            best_set.append(v)
            clique |= 1 << v
    best_size = len(best_set)

    start = time.monotonic()
    nodes = 0
    truncated = False
    current: list[int] = []

    full = (1 << n) - 1
    root_colored = _color_classes(full, adj)
    root_bound = root_colored[-1][1] if root_colored else 0

    sys.setrecursionlimit(max(sys.getrecursionlimit(), n + 100))

    def expand(cand: int, colored: list[tuple[int, int]]):
        nonlocal nodes, best_size, best_set, truncated
        nodes += 1
        if nodes > node_budget:
            truncated = True
            return
        for v, color in reversed(colored):
            if len(current) + color <= best_size:
                return
            cand ^= 1 << v
            current.append(v)
            new_cand = cand & ~adj[v]
            if new_cand == 0:
                if len(current) > best_size:
                    best_size = len(current)
                    best_set = list(current)
            else:
                expand(new_cand, _color_classes(new_cand, adj, best_size - len(current)))
            current.pop()
            if truncated:
                return

    if n > 0:
        expand(full, root_colored)

    exact = not truncated
    upper = best_size if exact else max(root_bound, best_size)
    witness = tuple(sorted(order[best_set].tolist()))
    ok, witness_edge = verify_independent(g, witness)
    if not ok:
        raise InternalCheckError(f"internal witness failed: edge {witness_edge}")
    return AlphaResult(best_size, upper, exact, witness,
                       nodes, time.monotonic() - start)

"""Maximum-independent-set search with honest anytime bounds.

Branch and bound on the complement-clique formulation: an independent set in
G is a clique in the complement, and a greedy coloring of the complement's
candidate subgraph bounds how much a branch can still gain. Within budget the
result is exact; at budget exhaustion the incumbent and the root coloring
bound are returned as certified lower/upper bounds. Rank r of the static
order is bit n-1-r: the search forms no negative operand (``x & -x``, ``~row``).

On a vertex-transitive graph every vertex is in some maximum independent set,
so alpha(G) = 1 + alpha(X), X = G - N[0]: vertex 0 is fixed. On G, H and O
(``sphere_transitive``) the automorphisms fixing vertex 0 are also transitive on
each Hamming sphere S_d around its word, so X is split by orbital branching:
alpha(X) = max_d 1 + alpha(X_d - N[v_d]), v_d the first vertex of S_d and X_d the
spheres not taken before, largest first. Each piece is searched in its own degree
order, the incumbent carried over. Any other graph is searched whole.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from .bitgraph import pack_words, row_blocks
from .errors import InternalCheckError, ReadOnly


class AlphaResult(ReadOnly):
    def __init__(self, lower: int, upper: int, exact: bool, witness: tuple[int, ...],
                 nodes_explored: int, elapsed_s: float):
        # witness: vertex indices, independent, |witness| = lower
        self.__dict__.update(lower=lower, upper=upper, exact=exact, witness=witness,
                             nodes_explored=nodes_explored, elapsed_s=elapsed_s)

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


def _color_classes(cand: int, adj: list[int], bit: list[int],
                   k_min: int = 0) -> list[tuple[int, int]]:
    """Color the complement subgraph on cand greedily, one class at a time.

    Bit n-1-r of cand is the vertex of static-order rank r, so each class
    takes the lowest uncolored rank, the highest set bit, keeps in its pool
    only its neighbours in g (its non-neighbours in the complement), and
    repeats: the classes of first-fit coloring along the static order. The
    number of classes bounds the largest complement-clique inside cand.
    Returns (position, color) pairs, colors nondecreasing, for color > k_min
    only: below Tomita's k_min a branch cannot beat the incumbent.
    """
    out = []
    color = 0
    while cand:
        color += 1
        pool = cand
        while pool:
            v = pool.bit_length() - 1
            if color > k_min:
                out.append((v, color))
            cand ^= bit[v]
            pool &= adj[v]
    return out


def _rank_rows(g, order: np.ndarray) -> list[int]:
    """One adjacency bitset per position b (rank n-1-b), rank r at bit n-1-r."""
    return [w for _, block in g.adjacency_blocks(order) for w in pack_words(block)][::-1]


def _search(g, searched: np.ndarray, floor: int, node_budget: int):
    """Branch and bound over the vertices ``searched`` for an independent set larger
    than ``floor``: (the greedy set or a larger one found, as vertex indices; the root
    coloring bound; nodes; exact). Static order: degree within ``searched`` ascending
    (complement degree descending), then index; rank r is held at position n-1-r."""
    degrees = [np.zeros(0, dtype=np.int64)]  # an empty set has no block
    degrees += [block.sum(axis=1) for _, block in g.adjacency_blocks(searched)]
    order = searched[np.argsort(np.concatenate(degrees), kind="stable")]
    n = order.size
    adj = _rank_rows(g, order)
    full = (1 << n) - 1
    bit = [1 << b for b in range(n)]
    nonadj = [full & ~row for row in adj]
    # Greedy incumbent: grow a complement clique along the static order.
    best_set, clique = [], 0
    for v in range(n - 1, -1, -1):
        if not clique & adj[v]:
            best_set.append(v)
            clique |= bit[v]
    best_size = max(floor, len(best_set))
    nodes, truncated, current = 0, False, []
    root_colored = _color_classes(full, adj, bit)
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
            cand ^= bit[v]
            current.append(v)
            new_cand = cand & nonadj[v]
            if new_cand == 0:
                if len(current) > best_size:
                    best_size = len(current)
                    best_set = list(current)
            else:
                expand(new_cand, _color_classes(new_cand, adj, bit, best_size - len(current)))
            current.pop()
            if truncated:
                return

    if n > 0:
        expand(full, root_colored)
    return (order[::-1][best_set].tolist(), root_colored[-1][1] if root_colored else 0,
            nodes, not truncated)


def _sphere_pieces(g, searched: np.ndarray):
    """([0, v], X_d - N[v]) for each Hamming sphere S_d of word 0 in X = searched, largest
    first, ties by smaller d: v is S_d's first vertex, X_d is X less the spheres before."""
    radius = np.bitwise_count(g.bits_array[searched] ^ g.bits_array[0])
    rest = np.ones(searched.size, dtype=bool)
    for d in sorted(set(radius.tolist()), key=lambda d: (-np.count_nonzero(radius == d), d)):
        v = searched[radius == d][0]
        yield [0, int(v)], searched[rest & (searched != v) & ~g.adjacency_among([v], searched)[0]]
        rest &= radius != d


def max_independent_set(g, node_budget: int = 1_000_000) -> AlphaResult:
    """Budgeted exact/anytime alpha with a re-verified witness, timed whole."""
    start = time.monotonic()
    g.require_dense()  # before the first adjacency row
    searched = np.arange(g.vertex_count)
    fixed = [0] if g.vertex_transitive and searched.size else []
    if fixed:  # alpha(G) = 1 + alpha(G - N[0]): search the non-neighbours of 0
        searched = searched[(searched != 0) & ~g.adjacency_among([0], searched)[0]]
    best, nodes, exact = fixed, 0, bool(fixed) and g.sphere_transitive
    # G, H and O: X sphere by sphere while the budget lasts (exact stays True); the
    # incumbent carries over, and a piece too small to beat it is skipped
    for head, piece in _sphere_pieces(g, searched) if exact else ():
        if exact and len(head) + piece.size > len(best):
            found, _, used, exact = _search(g, piece, len(best) - len(head), node_budget - nodes)
            nodes += used
            best = max(best, head + found, key=len)
    upper = len(best)
    if not exact:  # the search of X: alone, or under the same budget once the split is cut short
        found, bound, used, exact = _search(g, searched, 0, node_budget)
        nodes += used
        best = max(best, fixed + found, key=len)
        upper = len(best) if exact else max(len(best), len(fixed) + bound)
    witness = tuple(sorted(best))
    ok, witness_edge = verify_independent(g, witness)
    if not ok:
        raise InternalCheckError(f"internal witness failed: edge {witness_edge}")
    return AlphaResult(len(best), upper, exact, witness, nodes, time.monotonic() - start)

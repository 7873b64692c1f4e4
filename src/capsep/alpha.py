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

    def to_json(self, g=None) -> dict:
        return {
            "graph": g.graph_ref() if g is not None else None,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": [g.vertex_label(i) for i in self.witness] if g is not None
            else list(self.witness),
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


def _greedy_color_bound(cand: int, order: list[int], comp: list[int]) -> list[tuple[int, int]]:
    """Color the complement subgraph on cand greedily along the static order.

    Returns (vertex, color) pairs with colors nondecreasing; the number of
    classes bounds the largest complement-clique inside cand.
    """
    classes: list[int] = []
    colored: list[list[int]] = []
    for v in order:
        if not (cand >> v) & 1:
            continue
        placed = False
        for ci in range(len(classes)):
            if classes[ci] & comp[v] == 0:
                classes[ci] |= 1 << v
                colored[ci].append(v)
                placed = True
                break
        if not placed:
            classes.append(1 << v)
            colored.append([v])
    out = []
    for ci, members in enumerate(colored):
        for v in members:
            out.append((v, ci + 1))
    return out


def max_independent_set(g, node_budget: int = 1_000_000,
                        time_budget_s: float | None = None) -> AlphaResult:
    """Budgeted exact/anytime alpha with a re-verified witness."""
    n = g.vertex_count
    rows = g.adjacency_rows()
    full = (1 << n) - 1
    comp = [full & ~rows[i] & ~(1 << i) for i in range(n)]
    # Static order: complement degree descending, then vertex value.
    order = sorted(range(n), key=lambda v: (-comp[v].bit_count(), v))

    # Greedy incumbent: grow a complement clique along the static order.
    best: list[int] = []
    for v in order:
        if all((comp[v] >> u) & 1 for u in best):
            best.append(v)
    best_size = len(best)

    start = time.monotonic()
    nodes = 0
    truncated = False
    current: list[int] = []
    best_set = list(best)

    root_colored = _greedy_color_bound(full, order, comp)
    root_bound = root_colored[-1][1] if root_colored else 0

    sys.setrecursionlimit(max(sys.getrecursionlimit(), n + 100))

    def expand(cand: int, colored: list[tuple[int, int]]):
        nonlocal nodes, best_size, best_set, truncated
        nodes += 1
        if nodes > node_budget or (time_budget_s is not None and
                                   time.monotonic() - start > time_budget_s):
            truncated = True
            return
        for v, color in reversed(colored):
            if len(current) + color <= best_size:
                return
            current.append(v)
            new_cand = cand & comp[v]
            if new_cand == 0:
                if len(current) > best_size:
                    best_size = len(current)
                    best_set = list(current)
            else:
                expand(new_cand, _greedy_color_bound(new_cand, order, comp))
                if truncated:
                    current.pop()
                    return
            current.pop()
            cand &= ~(1 << v)

    if n > 0:
        expand(full, root_colored)

    exact = not truncated
    upper = best_size if exact else max(root_bound, best_size)
    ok, witness_edge = verify_independent(g, best_set)
    if not ok:
        raise InternalCheckError(f"internal witness failed: edge {witness_edge}")
    return AlphaResult(best_size, upper, exact, tuple(sorted(best_set)),
                       nodes, time.monotonic() - start)

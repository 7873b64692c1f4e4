"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: alpha by
memoized subset enumeration over Python-int bitsets and by branch and bound
with vertex-by-vertex coloring, rank by plain-list row reduction. They exist
so the fast implementations have something honest to be measured against.
The F_p elimination (``rank_fp``, ``gram_rank``) lives only here: the library
takes its fitting-matrix ranks from identities, which it checks. So do a
channel's rows (``channel_row``) and the zero-error code check
(``check_zero_error_code``), which no library code needs, and the float form
of a protocol (``float_protocol``: unit vectors and their Gram matrix), which
the library replaces by the packing's exact proof, and the scalar
simulation loop (``simulate_by_loop``), which the library runs in blocks of
array draws. So do a graph's edge list (``edge_array``), its pair predicate
(``is_adjacent``) and ``hamming_distance``, which no library code calls. The dense operator certificate lives only here: ``EntCert``,
its generic K x K check ``verify``, the tensor and classical-embedding
certificates, a packing's dense certificate (``cert_from_packing``: its
operator stack) and the protocol of a general verified certificate
(``protocol_from_cert``). The library never forms one: it writes and proves
a packing by its cliques, and builds protocols only from packings.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
import pytest

import capsep
from capsep.alpha import verify_independent
from capsep.entcert import CONDITIONS, packing_proof
from capsep.errors import (CertificateError, InternalCheckError, InvalidParameterError,
                           ResourceLimitError)
from capsep.bitgraph import ProductGraph, row_blocks, weight_w_bits
from capsep.channel import Protocol
from capsep.geometry import _hadamard_signs
from capsep.hadamard import is_prime


def alpha_by_enumeration(adj_rows: list[int]) -> int:
    """Maximum independent set size by enumerating subsets (memoized)."""
    n = len(adj_rows)
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        return max(best(rest), 1 + best(rest & ~adj_rows[v]))

    result = best(full)
    best.cache_clear()
    return result


def hamming_distance(x: int, y: int) -> int:
    """Number of coordinates where the words x and y differ."""
    return (x ^ y).bit_count()


def is_adjacent(g, i: int, j: int) -> bool:
    """Whether vertices i and j of g are adjacent, by its pair rule."""
    return bool(g.adjacency_among([i], [j])[0, 0])


def edge_array(g) -> np.ndarray:
    """Edges of a ``BitGraph`` as an (E, 2) int64 array of pairs i < j, in
    row-major order: an explicit graph's keys, else the upper triangle of
    each block of ``adjacency_blocks``."""
    if g._edge_keys is not None:
        return np.stack(np.divmod(g._edge_keys, g.vertex_count), axis=1)
    hits = [np.argwhere(np.triu(block, lo + 1)) + [lo, 0] for lo, block in g.adjacency_blocks()]
    return np.concatenate(hits or [np.empty((0, 2), dtype=np.int64)])


def dense_adjacency(g) -> np.ndarray:
    """|V| x |V| boolean adjacency formed whole: for a strong product the
    Kronecker product of the factors' closed neighbourhoods, for a distance
    graph every pair's distance, for an explicit graph its edge list; the
    diagonal cleared."""
    if hasattr(g, "factors"):
        mat = np.ones((1, 1), dtype=bool)
        for f in g.factors:
            mat = np.kron(mat, dense_adjacency(f) | np.eye(f.vertex_count, dtype=bool))
    elif g.distance is not None:
        bits = g.bits_array
        mat = np.bitwise_count(bits[:, None] ^ bits[None, :]) == g.distance
    else:
        mat = np.zeros((g.vertex_count, g.vertex_count), dtype=bool)
        u, v = edge_array(g).T
        mat[u, v] = mat[v, u] = True
    np.fill_diagonal(mat, False)
    return mat


def adjacency_rows(g) -> list[int]:
    """Adjacency as one bitset int per vertex, bit j set when j is a neighbour."""
    packed = np.packbits(dense_adjacency(g), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _greedy_color_bound(cand: int, order: list[int], comp: list[int]) -> list[tuple[int, int]]:
    """Color the complement subgraph on cand greedily along the static order,
    vertex by vertex, each into the first class it fits.

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


def alpha_by_vertex_coloring(g, node_budget: int = 1_000_000):
    """(lower, upper, exact, witness, nodes) of the budgeted branch and bound on
    vertex indices, its bound from the vertex-by-vertex first-fit coloring;
    a vertex-transitive graph expands only the root's first branch."""
    n = g.vertex_count
    rows = adjacency_rows(g)
    full = (1 << n) - 1
    comp = [full & ~rows[i] & ~(1 << i) for i in range(n)]
    order = sorted(range(n), key=lambda v: (-comp[v].bit_count(), v))

    best: list[int] = []
    for v in order:
        if all((comp[v] >> u) & 1 for u in best):
            best.append(v)
    best_size = len(best)
    nodes = 0
    truncated = False
    current: list[int] = []
    best_set = list(best)
    root_colored = _greedy_color_bound(full, order, comp)
    root_bound = root_colored[-1][1] if root_colored else 0

    def expand(cand: int, colored: list[tuple[int, int]]):
        nonlocal nodes, best_size, best_set, truncated
        nodes += 1
        if nodes > node_budget:
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
        expand(full, root_colored[-1:] if g.vertex_transitive else root_colored)
    exact = not truncated
    upper = best_size if exact else max(root_bound, best_size)
    return best_size, upper, exact, tuple(sorted(best_set)), nodes


def rank_by_row_reduction(matrix, p: int) -> int:
    """Textbook RREF over F_p on plain Python lists."""
    rows = [[int(x) % p for x in row] for row in np.asarray(matrix)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_explicit_graph(n: int, edge_prob: float, seed: int) -> capsep.BitGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    length = max(1, (n - 1).bit_length())
    return capsep.BitGraph(length, range(n), ("explicit", edges), family="R")


def degree(g, i: int) -> int:
    """Neighbours of vertex i, from one row of ``adjacency_among``."""
    return int(g.adjacency_among([i], np.arange(g.vertex_count)).sum())


def flatten(product, parts) -> int:
    """Row-major index of a strong-product vertex from its factor indices."""
    i = 0
    for f, part in zip(product.factors, parts):
        i = i * f.vertex_count + part
    return i


@pytest.fixture(scope="session")
def g11():
    return capsep.build_G(11)


@pytest.fixture(scope="session")
def h11():
    return capsep.build_H(11)


@pytest.fixture(scope="session")
def paley12():
    h = capsep.find_hadamard(12)
    assert h.construction == "paley(11)"
    return h


# -- dense certificate oracles --------------------------------------------------
#
# The operator stack of a certificate, checked instance by instance: the
# reference that the packing proof, the tensor supermultiplicativity step and
# the classical embedding are measured against.


# total int64 entries across all stored numerators
TENSOR_ENTRY_CAP = 125_000_000
# witnesses listed per condition; every violation is still counted
WITNESS_CAP = 10
# products and sums of entries must stay below this, exact in int64 and float64
_EXACT_BOUND = 1 << 53


@dataclasses.dataclass
class VerificationReport:
    passed: bool
    conditions: dict
    witnesses: list
    violations: dict = dataclasses.field(default_factory=dict)  # per condition, all counted
    mode: str = "full"  # "full": every instance checked; "packing": proved by it

    def to_json(self) -> dict:
        """The report; ``violations`` only when it failed (all zero otherwise)."""
        out = {"mode": self.mode, "passed": self.passed, "conditions": self.conditions}
        if not self.passed:
            out["violations"] = self.violations
        return out | {"witnesses": self.witnesses}


@dataclasses.dataclass
class EntCert:
    """Operator system (rho, ops) over a graph, exact-rational: the operator at
    vertex ``verts[k]`` for message ``msgs[k]`` (1-based) is ``ops[k]`` /
    denominator, in one (K, dim, dim) int64 stack sorted by (vertex, message);
    a missing pair is the zero operator. The constructor is the one place that
    checks shapes, vertex indices and repeated pairs (``InvalidParameterError``),
    and leaves the arrays read-only."""

    graph: object
    M: int
    dim: int
    denominator: int
    rho_num: np.ndarray
    verts: np.ndarray
    msgs: np.ndarray
    ops: np.ndarray
    verification: VerificationReport | None = None

    def __post_init__(self):
        d, g = self.dim, self.graph
        try:
            rho, verts, msgs = (np.asarray(a, dtype=np.int64)
                                for a in (self.rho_num, self.verts, self.msgs))
            stack = _operator_stack(self.ops, d, verts, msgs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed certificate: {exc}") from None
        if rho.shape != (d, d):
            raise InvalidParameterError(f"rho has shape {rho.shape}, not ({d}, {d})")
        if not verts.shape == msgs.shape == stack.shape[:1]:
            raise InvalidParameterError("verts, msgs and ops differ in length")
        if verts.size and not 0 <= verts.min() <= verts.max() < g.vertex_count:
            raise InvalidParameterError(f"a vertex index is outside {g.graph_ref()}")
        order = np.lexsort((msgs, verts))
        if (order != np.arange(order.size)).any():
            verts, msgs, stack = verts[order], msgs[order], stack[order]
        twice = np.flatnonzero((verts[1:] == verts[:-1]) & (msgs[1:] == msgs[:-1]))
        if twice.size:
            u, i = g.vertex_label(verts[twice[0]]), msgs[twice[0]]
            raise InvalidParameterError(f"repeated operator at vertex {u!r}, i = {i}")
        for a in (rho, verts, msgs, stack):
            a.flags.writeable = False
        self.rho_num, self.verts, self.msgs, self.ops = rho, verts, msgs, stack


def rank_one_row(num: np.ndarray) -> np.ndarray:
    """Row of N at its largest diagonal entry, for N or a stack of N.

    For a rank-one PSD N = c w w^T (c > 0) this row is c w_j w with w_j != 0:
    a nonzero integer multiple of w.
    """
    j = np.argmax(np.diagonal(num, axis1=-2, axis2=-1), axis=-1)
    return np.take_along_axis(num, j[..., None, None], axis=-2)[..., 0, :]


def _pair_witness(cond: int, verts, msgs, a: int, b: int) -> dict:
    where = ({"vertex": int(verts[a])} if cond == 2
             else {"edge": [int(verts[a]), int(verts[b])]})
    return {"condition": cond, **where, "i": int(msgs[a]), "j": int(msgs[b])}


def _operator_stack(ops, d: int, verts: np.ndarray, msgs: np.ndarray) -> np.ndarray:
    """ops as one (K, d, d) int64 array; the first operator of another shape is
    named by its (vertex, message), and a ragged one raises numpy's ValueError."""
    try:
        stack = np.asarray(ops, dtype=np.int64)
        if stack.shape[1:] == (d, d) or not len(ops):
            return stack.reshape(-1, d, d)
    except ValueError:  # operators of unequal shapes
        pass
    for u, i, shape in zip(verts.tolist(), msgs.tolist(), map(np.shape, ops)):
        if shape != (d, d):
            raise InvalidParameterError(f"operator {(u, i)} has shape {shape}, not ({d}, {d})")
    return np.asarray(ops, dtype=np.int64)  # every shape is right: raise its own error


def verify(cert: EntCert) -> VerificationReport:
    """Re-check every instance of every condition, exactly and without sampling.

    Each operator must be rank-one PSD, N = c w w^T with c > 0: symmetric,
    tr N > 0 and N^2 = tr(N) N, in one batched pass. Its row r at the largest
    diagonal entry is a nonzero multiple of w, so N_a N_b vanishes iff
    r_a . r_b = 0: conditions 2 and 3 are read off one K x K integer Gram
    matrix of the rows of the operators that pass ``psd`` (in row blocks),
    masked by "same vertex" or "adjacent" and "different message". rho is PSD
    as, with M >= 1, condition 1 makes it the sum of message 1's operators.

    Each condition lists at most ``WITNESS_CAP`` witnesses and counts all its
    violations. Entries so large that a product or sum could reach 2^53 fail
    ``psd``, and the other conditions are then reported unchecked (False).
    The result is a value; nothing is raised."""
    g = cert.graph
    d, M, rho = cert.dim, cert.M, cert.rho_num
    verts, msgs, stack = cert.verts, cert.msgs, cert.ops
    k_ops = len(stack)
    big = max(max(int(x.max(initial=0)), -int(x.min(initial=0))) for x in (stack, rho))
    if d * big * big >= _EXACT_BOUND or (k_ops + d) * big >= _EXACT_BOUND:
        return VerificationReport(
            False, dict.fromkeys(CONDITIONS, False),
            [{"condition": "psd", "max_abs": big,
              "error": "entries too large for exact arithmetic"}], {"psd": 1})

    violations = dict.fromkeys(CONDITIONS, 0)
    found: dict[str, list] = {name: [] for name in CONDITIONS}

    def note(name: str, count: int, witnesses: list) -> None:
        violations[name] += count
        found[name].extend(witnesses[:WITNESS_CAP - len(found[name])])

    trace = int(np.trace(rho))
    if trace != cert.denominator:
        note("trace", 1, [{"condition": "trace", "got": trace,
                           "want": cert.denominator}])

    rank_one = np.zeros(k_ops, dtype=bool)
    for lo, hi in row_blocks(k_ops, d * d):
        b = stack[lo:hi]
        tr = np.einsum("kii->k", b)
        rank_one[lo:hi] = ((b == b.transpose(0, 2, 1)).all(axis=(1, 2)) & (tr > 0)
                           & (b @ b == tr[:, None, None] * b).all(axis=(1, 2)))
    bad = np.flatnonzero(~rank_one)
    note("psd", bad.size, [{"condition": "psd", "vertex": int(verts[k]),
                            "i": int(msgs[k])} for k in bad[:WITNESS_CAP]])

    # Condition 1: the operators of each message 1..M sum to rho.
    if M < 1:
        note("sum_to_rho", 1, [{"condition": 1, "error": "M must be at least 1", "M": M}])
    in_range = (msgs >= 1) & (msgs <= M)
    bad = np.flatnonzero(~in_range)
    note("sum_to_rho", bad.size, [{"condition": 1, "i": int(msgs[k]),
                                   "error": "message label out of range"}
                                  for k in bad[:WITNESS_CAP]])
    labels, which = np.unique(msgs[in_range], return_inverse=True)
    sums = np.zeros((labels.size, d, d), dtype=np.int64)
    np.add.at(sums, which, stack[in_range])
    bad = labels[(sums != rho).any(axis=(1, 2))]
    note("sum_to_rho", bad.size, [{"condition": 1, "i": int(i)}
                                  for i in bad[:WITNESS_CAP]])
    missing = max(M, 0) - labels.size
    if missing:
        first = np.setdiff1d(np.arange(1, min(M, labels.size + WITNESS_CAP) + 1),
                             labels)[:WITNESS_CAP]
        note("sum_to_rho", missing, [{"condition": 1, "count": missing,
                                      "error": "messages without operators",
                                      "first": first.tolist()}])

    # Conditions 2 and 3, among the rank-one operators. The Gram is a BLAS
    # product, exact because every partial sum is an integer below 2^53.
    rows = rank_one_row(stack).astype(np.float64)
    rows[~rank_one] = 0
    for lo, hi in row_blocks(k_ops, k_ops):
        nonzero = ((rows[lo:hi] @ rows.T != 0) & (msgs[lo:hi, None] != msgs)
                   & (np.arange(lo, hi)[:, None] < np.arange(k_ops)))
        for name, cond, mask in (("same_vertex", 2, verts[lo:hi, None] == verts),
                                 ("adjacent", 3, g.adjacency_among(verts[lo:hi], verts))):
            hits = nonzero & mask
            count = int(np.count_nonzero(hits))
            if count:
                note(name, count, [_pair_witness(cond, verts, msgs, lo + a, b)
                                   for a, b in np.argwhere(hits)[:WITNESS_CAP].tolist()])

    conditions = {name: violations[name] == 0 for name in CONDITIONS}
    return VerificationReport(all(conditions.values()), conditions,
                              [w for name in CONDITIONS for w in found[name]],
                              violations)


def _verified(cert: EntCert, source: str) -> EntCert:
    """Attach a fresh verification report; raise CertificateError if it fails."""
    cert.verification = verify(cert)
    if not cert.verification.passed:
        raise CertificateError(f"{source} certificate failed verification: "
                               f"{cert.verification.witnesses[:3]}")
    return cert


def classical_embedding(g, vertex_indices) -> EntCert:
    """One-dimensional certificate from an independent set (so M >= alpha)."""
    idx = sorted(set(int(i) for i in vertex_indices))
    if not idx:
        raise InvalidParameterError("independent set must be nonempty (M >= 1)")
    independent, edge = verify_independent(g, idx)
    if not independent:
        raise InvalidParameterError(f"set is not independent: edge {edge}")
    cert = EntCert(g, len(idx), 1, 1, [[1]], idx, np.arange(1, len(idx) + 1),
                   np.ones((len(idx), 1, 1), dtype=np.int64))
    return _verified(cert, "classical embedding")


def factors(g) -> list:
    """The factors of a strong product, or [g] for any other graph."""
    return list(getattr(g, "factors", [g]))


def tensor(a: EntCert, b: EntCert) -> EntCert:
    """Kronecker-product certificate on the strong product graph.

    Messages multiply (M = M_a * M_b), which is the supermultiplicativity
    step behind the capacity lower bound. Fully verified at every size the
    entry cap allows."""
    g = ProductGraph(factors(a.graph) + factors(b.graph))
    entries = len(a.ops) * len(b.ops) * (a.dim * b.dim) ** 2
    if entries > TENSOR_ENTRY_CAP:
        raise ResourceLimitError(
            f"tensor certificate would store {entries} matrix entries")
    d = a.dim * b.dim
    verts = a.verts[:, None] * b.graph.vertex_count + b.verts
    msgs = (a.msgs[:, None] - 1) * b.M + b.msgs
    # kron(A, B)[i db + k, j db + l] = A[i, j] B[k, l], for every pair at once
    ops = np.einsum("aij,bkl->abikjl", a.ops, b.ops).reshape(-1, d, d)
    cert = EntCert(g, a.M * b.M, d, a.denominator * b.denominator,
                   np.kron(a.rho_num, b.rho_num), verts.ravel(), msgs.ravel(), ops)
    return _verified(cert, "tensor")


def packing_report() -> VerificationReport:
    """``entcert.PACKING_REPORT`` as a report, every violation count zero."""
    return VerificationReport(True, dict.fromkeys(CONDITIONS, True), [],
                              dict.fromkeys(CONDITIONS, 0), "packing")


def cert_from_packing(packing) -> EntCert:
    """The packing's dense certificate, with ``packing_proof``'s report attached:
    message i is the i-th clique, the operator at its vertex u is w w^T for
    the ``OrthoRep`` row w, and rho is the first clique's sum, of trace one
    over the denominator clique size times n + 1. The dense oracle that the
    generic ``verify`` checks against the packing proof."""
    packing_proof(packing)
    g, size = packing.graph, packing.clique_size
    rep = capsep.OrthoRep(g)
    verts = g.indices_of(packing.cliques).ravel()
    w = rep.rows(verts).astype(np.int64)
    ops = w[:, :, None] * w[:, None, :]  # clique by clique, its members in turn
    msgs = np.repeat(np.arange(1, packing.count + 1), size)
    return EntCert(g, packing.count, rep.dim, size * rep.dim,
                   ops[:size].sum(axis=0), verts, msgs, ops, packing_report())


# What the library no longer defines: the dense certificate and its product graphs
DENSE_NAMES = frozenset({"EntCert", "verify", "tensor", "classical_embedding",
                         "cert_from_json", "strong_product", "strong_power"})


def dense_names_in_library() -> set:
    """The names of ``DENSE_NAMES`` that a loaded capsep module defines."""
    return {name for mod_name, mod in list(sys.modules.items())
            if mod_name == "capsep" or mod_name.startswith("capsep.")
            for name in DENSE_NAMES & vars(mod).keys()}


def dense_h3_json() -> dict:
    """A certificate file in the dense operator form, which ``verify-cert``
    refuses: the H3 packing's one clique, rho and each operator w w^T by
    vertex label, message and matrix, written without capsep's help."""
    g = capsep.build_H(3)
    w = capsep.OrthoRep(g).rows().astype(np.int64)
    ops = w[:, :, None] * w[:, None, :]
    return {"graph": "H3", "M": 1, "dim": 4, "denominator": 16, "rho": ops.sum(axis=0).tolist(),
            "ops": [{"vertex": g.vertex_label(u), "i": 1, "matrix": num.tolist()}
                    for u, num in enumerate(ops)]}


@pytest.fixture(scope="session")
def h11_cert(h11, paley12):
    return cert_from_packing(
        capsep.pack_cliques(h11, capsep.hadamard_clique(paley12, "H")))


@pytest.fixture(scope="session")
def g11_cert(g11, paley12):
    return cert_from_packing(
        capsep.pack_cliques(g11, capsep.hadamard_clique(paley12, "G")))


def normalize_by_loop(h) -> np.ndarray:
    """Negate row 0, then each column, then each row, until the border is all +1."""
    e = h.entries.copy()
    if e[0, 0] == -1:
        e[0] = -e[0]
    for j in range(e.shape[1]):
        if e[0, j] == -1:
            e[:, j] = -e[:, j]
    for i in range(e.shape[0]):
        if e[i, 0] == -1:
            e[i] = -e[i]
    return e


def normalized(h) -> np.ndarray:
    """The normalized matrix [1 | S]: ``_hadamard_signs(h)`` with its ones column back."""
    return np.hstack([np.ones((h.size, 1), dtype=np.int64), _hadamard_signs(h)])


def paley_by_loop(q: int) -> np.ndarray:
    """I + the bordered Jacobsthal matrix of q, entry by entry, with chi by
    Euler's criterion: row 0 all +1, column 0 below it -1, chi(j - i) inside."""
    chi = [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)]
    rows = [[1] * (q + 1)] + [[-1] + [int(i == j) + chi[(j - i) % q] for j in range(q)]
                              for i in range(q)]
    return np.array(rows, dtype=np.int64)


def hadamard_by_doubling(m: int):
    """(entries, construction) of order m by explicit doubling steps, or None.

    [[1]] doubled k times when m = 2^k <= 2^12; else the Paley matrix of the
    prime q = 3 mod 4, q <= 10^4, with q + 1 = m / 2^j for the fewest j,
    doubled j times, each step [[e, e], [e, -e]] wrapping the label in double().
    """
    def double(e):
        return np.block([[e, e], [e, -e]])

    k = m.bit_length() - 1
    if m == 1 << k and k <= 12:
        e = np.ones((1, 1), dtype=np.int64)
        for _ in range(k):
            e = double(e)
        return e, f"sylvester({k})"
    j = 0
    while (q := (m >> j) - 1) > 10**4 or q % 4 != 3 or not is_prime(q):
        if (m >> j) % 2:
            return None
        j += 1
    e, label = paley_by_loop(q), f"paley({q})"
    for _ in range(j):
        e, label = double(e), f"double({label})"
    return e, label


# -- channel oracles -----------------------------------------------------------
#
# The explicit d^2-dimensional shared state and the dict-and-loop forms of the
# channel routines, kept as references for the array and Gram-matrix code.


def canonical_output_labels(g) -> list[str]:
    """Every output label of g's canonical channel, built up front: the
    vertices, then the edges of ``edge_array(g)`` as "a|b"."""
    labels = [g.vertex_label(i) for i in range(g.vertex_count)]
    return labels + [f"{labels[i]}|{labels[j]}" for i, j in edge_array(g).tolist()]


@lru_cache(maxsize=4)
def _edge_keys(g) -> np.ndarray:
    """i * |V| + j of each edge (i, j) of ``edge_array(g)``, ascending: the
    edges are row-major, and output |V| + e is edge e."""
    edges = edge_array(g)
    return edges[:, 0] * g.vertex_count + edges[:, 1]


def channel_row(g, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The outputs input x reaches, ascending, and their probabilities."""
    nv = g.vertex_count
    y = np.flatnonzero(g.adjacency_among([x], np.arange(nv))[0])
    edge = np.searchsorted(_edge_keys(g), np.minimum(x, y) * nv + np.maximum(x, y))
    idx = np.concatenate(([x], nv + edge))
    return idx, np.full(idx.size, 1.0 / idx.size)


def check_zero_error_code(g, words: list[tuple[int, ...]]):
    """True iff every pair of words has a coordinate with disjoint supports.

    Two words are confusable when each coordinate is equal or adjacent in
    g: one ``adjacency_among`` per coordinate.
    Returns (ok, witness); the witness is the first confusable pair in list
    order, with the least shared output of each coordinate.
    """
    k = len(words[0]) if words else 0
    if any(len(w) != k for w in words):
        raise InvalidParameterError("words must share one length")
    arr = np.array(words, dtype=np.int64).reshape(len(words), k)
    bad = (arr < 0) | (arr >= g.vertex_count)
    if bad.any():
        raise InvalidParameterError(f"input index {arr[bad][0]} out of range")
    count = len(words)
    for lo, hi in row_blocks(count, count):
        confusable = np.arange(lo, hi)[:, None] < np.arange(count)
        for a, b in zip(arr[lo:hi].T, arr.T):
            confusable &= g.adjacency_among(a, b) | (a[:, None] == b)
        if confusable.any():
            a, b = np.argwhere(confusable)[0].tolist()
            pair = [list(words[lo + a]), list(words[b])]
            shared = [np.intersect1d(channel_row(g, x)[0], channel_row(g, y)[0]).min()
                      for x, y in zip(*pair)]
            labels = canonical_output_labels(g)
            return False, {"words": pair, "shared_outputs": [labels[t] for t in shared]}
    return True, None


def channel_rows(g) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, targets) of the rows: row x is ``targets[indptr[x]:indptr[x + 1]]``.

    Built from the whole edge list: edges are row-major, so edges (i, u)
    precede edges (u, j), and a stable sort by input lists each row's
    outputs in ascending order.
    """
    nv, edges = g.vertex_count, edge_array(g)
    src = np.concatenate([np.arange(nv), edges[:, 1], edges[:, 0]])
    dst = np.concatenate([np.arange(nv), nv + np.tile(np.arange(len(edges)), 2)])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=nv))))
    return indptr, dst[np.argsort(src, kind="stable")]


def members_by_output(g) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, inputs) of the inputs that can produce each output.

    The members of output t, in ascending input order, are
    ``inputs[indptr[t]:indptr[t + 1]]``: t itself for a vertex output,
    the two ends of edge t - |V| for an edge output.
    """
    nv, edges = g.vertex_count, edge_array(g)
    indptr = np.concatenate([np.arange(nv), nv + 2 * np.arange(len(edges) + 1)])
    return indptr, np.concatenate([np.arange(nv), edges.ravel()])


@dataclasses.dataclass
class FloatProtocol:
    """A protocol in floats: row k of ``vectors`` is the unit vector f_u of
    channel input u = ``inputs[k]``, which carries message ``messages[k]``.
    Message i's sender POVM is the projectors f f^T of its rows, and the
    receiver's for output t groups the projectors of t's members by message,
    with the completion I - sum on message 1. ``gram`` is F F^T over the
    rows, and ``dim`` their length d."""

    graph: object
    M: int
    inputs: np.ndarray
    messages: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T


class ProtocolError(Exception):
    """``protocol_from_cert`` refused: the certificate proves no protocol."""


def protocol_from_cert(cert: EntCert, graph) -> Protocol:
    """The protocol realizing a verified certificate, proved in exact integers.

    Refused with ``ProtocolError``: a vertex with two messages; a certificate
    whose attached ``verification`` is missing or failed; operators of
    unequal traces; and a message whose operators do not annihilate pairwise.
    The last is read off one d x d identity: with every N = c w w^T of trace
    tau and each message summing to rho (condition 1), rho^2 = tau rho plus
    the sum of N_a N_b over the pairs a != b of one message, whose trace is
    the sum of c_a c_b <w_a, w_b>^2 >= 0. So rho^2 = tau rho holds iff every
    such pair annihilates. Then each message's operators are tau times the
    projectors of an orthonormal basis of range(rho), and rho / tau is a
    projector of rank ``dim`` = tr(rho) / tau. So every sender measurement
    is complete, every receiver class (a singleton or an adjacent pair,
    orthogonal by conditions 2 and 3) is orthogonal, and every zero-error
    instance is exactly 0.
    """
    def labels(h):
        return [h.vertex_label(i) for i in range(h.vertex_count)]

    g = cert.graph
    if graph is not g and labels(graph) != labels(g):
        raise InvalidParameterError("channel inputs do not match the certificate's graph")

    inputs, messages, stack = cert.verts, cert.msgs, cert.ops
    twice = np.flatnonzero(np.diff(inputs) == 0)
    if twice.size:
        k = int(twice[0])
        raise ProtocolError(f"vertex {inputs[k]} carries two messages "
                            f"({messages[k]} and {messages[k + 1]})")
    if cert.verification is None or not cert.verification.passed:
        raise ProtocolError("the certificate has no passing verification")
    traces = np.einsum("kii->k", stack)
    unequal = np.flatnonzero(traces != traces[0])
    if unequal.size:
        k = int(unequal[0])
        raise ProtocolError(f"operators have unequal traces ({traces[0]} at vertex "
                            f"{inputs[0]}, {traces[k]} at vertex {inputs[k]})")
    rho = cert.rho_num  # verified entries keep d * max^2 below 2^53: exact in int64
    if not np.array_equal(rho @ rho, traces[0] * rho):
        raise ProtocolError("the operators of a message do not annihilate pairwise "
                            "(rho^2 != tr(N) rho)")
    # grouped by message, inputs ascending within each: a packing's row order
    dim = int(np.trace(rho)) // int(traces[0])
    return Protocol(graph, inputs[np.argsort(messages, kind="stable")].reshape(cert.M, dim))


def float_protocol(cert, graph, vectors=None) -> FloatProtocol:
    """The float form of ``protocol_from_cert(cert, graph)``, or of the same
    inputs and messages with other ``vectors``. By default each operator's
    nonzero row, normalized; when rho is not a scaled identity (weight-(n+1)/2
    cliques) re-expressed by ``eigh`` in an orthonormal basis of its range,
    which preserves all inner products."""
    if vectors is None:
        vectors = rank_one_row(cert.ops).astype(np.float64)
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        rho = cert.rho_num
        if not np.array_equal(rho, rho[0, 0] * np.eye(cert.dim, dtype=rho.dtype)):
            evals, evecs = np.linalg.eigh(rho.astype(np.float64))
            vectors = vectors @ evecs[:, evals > evals[-1] / 2.0]
    return FloatProtocol(graph, cert.M, cert.verts, cert.msgs, vectors)


def receivers(proto, t: int) -> np.ndarray:
    """Vector rows of the inputs that can produce output t, ascending."""
    nv = proto.graph.vertex_count
    members = [t] if t < nv else np.divmod(_edge_keys(proto.graph)[t - nv], nv)
    return np.flatnonzero(np.isin(proto.inputs, members))


def _groups_by_size(indptr: np.ndarray, values: np.ndarray):
    """Yield the CSR groups of each size k > 0, stacked as an (n_k, k) array."""
    counts = np.diff(indptr)
    for k in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        starts = indptr[:-1][counts == k]
        yield values[starts[:, None] + np.arange(k)]


def receiver_excess_by_outputs(proto) -> float:
    """Worst lambda_max(G[members, members]) - 1 (at least 0) over every
    output of the channel, batched by member count."""
    row_of = np.full(proto.graph.vertex_count, -1, dtype=np.int64)
    row_of[proto.inputs] = np.arange(len(proto.inputs))
    indptr, members = members_by_output(proto.graph)
    rows = row_of[members]
    recv_indptr = np.concatenate(([0], np.cumsum(rows >= 0)))[indptr]
    worst = 0.0
    for groups in _groups_by_size(recv_indptr, rows[rows >= 0]):
        top = np.linalg.eigvalsh(proto.gram[groups[:, :, None], groups[:, None, :]])
        worst = max(worst, float(top[:, -1].max()) - 1.0)
    return worst


def drawn_indices(g, sender: str, output: str) -> tuple[int, int]:
    """(s, t): the input and output indices a transcript's sender and output labels name."""
    ends = g.indices_of_labels([sender, *output.split("|")]).tolist()
    if len(ends) == 2:
        return ends[0], ends[1]
    nv, (i, j) = g.vertex_count, sorted(ends[1:])
    e = int(np.searchsorted(_edge_keys(g), i * nv + j))
    assert _edge_keys(g)[e] == i * nv + j, f"{output} is not an edge output"
    return ends[0], nv + e


def simulate_by_loop(proto, trials: int, rngs, shown: int = 20):
    """The scalar reference for ``channel.simulate``: (failures, the first
    ``shown`` transcripts). Trial t sends message t % M + 1; one
    ``integers(len(rows))`` from the first generator picks the sender among
    the message's inputs in row order, then one ``integers(deg s + 1)`` from the
    second picks the output of row s: s's own, or the edge to its pos-th
    neighbour ascending, read from the graph's adjacency."""
    senders, outputs = rngs
    g, M = proto.graph, proto.M
    rows = {i: np.flatnonzero(proto.messages == i) for i in range(1, M + 1)}
    neighbours = {}
    failures, transcripts = 0, []
    for trial in range(trials):
        message = trial % M + 1
        k = int(rows[message][senders.integers(len(rows[message]))])
        s, decoded = int(proto.inputs[k]), int(proto.messages[k])
        if s not in neighbours:
            neighbours[s] = np.flatnonzero(g.adjacency_among([s], np.arange(g.vertex_count))[0])
        pos = int(outputs.integers(len(neighbours[s]) + 1))
        failures += decoded != message
        if trial < shown:
            sender = output = g.vertex_label(s)
            if pos:
                a, b = sorted((s, int(neighbours[s][pos - 1])))
                output = f"{g.vertex_label(a)}|{g.vertex_label(b)}"
            transcripts.append({"message": message, "sender_outcome": sender,
                                "channel_output": output,
                                "distribution": [float(j == decoded) for j in range(1, M + 1)],
                                "decoded": decoded, "correct": decoded == message})
    return failures, transcripts


class RecordingGenerator:
    """A ``Generator`` whose ``integers`` logs the bound of each value it draws."""

    def __init__(self, seed: int):
        self._rng, self.bounds = np.random.default_rng(seed), []

    def integers(self, high, size=None):
        self.bounds += np.broadcast_to(high, np.shape(high) if size is None else size).tolist()
        return self._rng.integers(high, size=size)


class ScriptedGenerator:
    """A ``Generator`` whose ``integers`` returns the given values in turn, one
    per value asked for, in the shape asked for."""

    def __init__(self, *values):
        self._values = iter(values)

    def integers(self, high, size=None):
        shape = np.shape(high) if size is None else (size,)
        return np.array([next(self._values) for _ in range(math.prod(shape))],
                        dtype=np.int64).reshape(shape)


def _uniform_one_hot(sender_p, row_p, dist, message: int) -> np.ndarray:
    """Check the float claims behind the two uniform draws and the exact
    decoding, each within 1e-12: the sender probabilities over the message's
    inputs, and the row probabilities over row s, are uniform; the receiver
    distribution is one-hot at the message. Returns the distribution."""
    assert np.abs(sender_p - 1.0 / len(sender_p)).max() <= 1e-12
    assert np.abs(row_p - 1.0 / len(row_p)).max() <= 1e-12
    one_hot = np.arange(1, len(dist) + 1) == message
    assert np.abs(dist - one_hot).max() <= 1e-12
    return dist


def transmission_by_gram(proto, message: int, s: int, t: int) -> np.ndarray:
    """The float receiver distribution of a run that drew sender input s and
    output t, from the Gram rows, after ``_uniform_one_hot``'s checks."""
    rows = np.flatnonzero(proto.messages == message)
    assert s in proto.inputs[rows], f"input {s} does not carry message {message}"
    k = int(np.flatnonzero(proto.inputs == s)[0])
    idx, row_p = channel_row(proto.graph, s)
    assert t in idx, f"output {t} is not in row {s}"
    r = receivers(proto, t)
    overlap = proto.gram[k, r] ** 2 / proto.gram[k, k]
    dist = np.bincount(proto.messages[r] - 1, weights=overlap, minlength=proto.M)
    dist[0] += 1.0 - overlap.sum()
    return _uniform_one_hot(np.diagonal(proto.gram)[rows] / proto.dim, row_p,
                            np.maximum(dist, 0.0), message)


def support(g, x: int) -> frozenset:
    """Outputs input x reaches."""
    return frozenset(channel_row(g, x)[0].tolist())


def sender_measurement(proto, i: int) -> dict[int, np.ndarray]:
    """POVM elements A_i^s of message i, keyed by the input s that carries them."""
    return {int(proto.inputs[k]): np.outer(proto.vectors[k], proto.vectors[k])
            for k in np.flatnonzero(proto.messages == i)}


def receiver_measurement(proto, t: int) -> list[np.ndarray]:
    """Full measurement for output t: outcomes 1..M, completion on 1."""
    ops = [np.zeros((proto.dim, proto.dim)) for _ in range(proto.M)]
    for k in receivers(proto, t).tolist():
        ops[proto.messages[k] - 1] += np.outer(proto.vectors[k], proto.vectors[k])
    ops[0] = ops[0] + np.eye(proto.dim) - sum(ops)
    return ops


def maximally_entangled_state(d: int) -> np.ndarray:
    """Density matrix of (1/sqrt d) sum_k e_k (x) e_k, size d^2."""
    psi = np.zeros(d * d)
    for k in range(d):
        psi[k * d + k] = 1.0
    psi /= np.sqrt(d)
    return np.outer(psi, psi)


def partial_trace(m: np.ndarray, dx: int, dy: int, over: str = "x") -> np.ndarray:
    """Trace out one tensor factor of a (dx*dy) x (dx*dy) matrix."""
    t = m.reshape(dx, dy, dx, dy)
    if over == "x":
        return np.einsum("ijik->jk", t)
    if over == "y":
        return np.einsum("ijkj->ik", t)
    raise ValueError("over must be 'x' or 'y'")


def me_pair_trace(a: np.ndarray, b: np.ndarray, d: int) -> float:
    """Tr((A (x) B) rho) for the maximally entangled state: Tr(A B^T)/d."""
    return float(np.trace(a @ b.T)) / d


def explicit_state_transmission(proto, message: int, s: int, t: int) -> np.ndarray:
    """The receiver distribution of a run that drew sender input s and
    output t, through the explicit shared state and partial trace, after
    ``_uniform_one_hot``'s checks."""
    d = proto.dim
    rho = maximally_entangled_state(d)
    sender = sender_measurement(proto, message)
    assert s in sender, f"input {s} does not carry message {message}"
    p = np.array([float(np.trace(np.kron(a, np.eye(d)) @ rho)) for a in sender.values()])
    idx, row_p = channel_row(proto.graph, s)
    assert t in idx, f"output {t} is not in row {s}"
    big = np.kron(sender[s], np.eye(d)) @ rho
    post = partial_trace(big, d, d, over="x") / float(np.trace(big))
    dist = np.array([float(np.trace(b @ post))
                     for b in receiver_measurement(proto, t)])
    return _uniform_one_hot(p, row_p, np.clip(dist, 0.0, None), message)


def output_members_by_dict(g) -> dict[int, list[int]]:
    """Map output index -> inputs that can produce it."""
    members: dict[int, list[int]] = {}
    for x in range(g.vertex_count):
        for t in channel_row(g, x)[0].tolist():
            members.setdefault(t, []).append(x)
    return members


def confusable_pairs_by_loop(g) -> list[tuple[int, int]]:
    """Sorted input pairs a < b sharing an output, pair by pair."""
    edges = set()
    for members in output_members_by_dict(g).values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.add((members[a], members[b]))
    return sorted(edges)


def zero_error_by_loop(proto):
    """(instances, max_violation, witness) of the zero-error check, per instance.

    Instances run in the order messages first appear among the inputs, then
    sender, then output in row order, then receiver message ascending; the
    witness is the first worst instance, or None when every value is zero.
    """
    g, d = proto.graph, proto.dim
    members = output_members_by_dict(g)
    row = {int(u): k for k, u in enumerate(proto.inputs)}
    by_message: dict[int, list[int]] = {}
    for k, i in enumerate(proto.messages.tolist()):
        by_message.setdefault(i, []).append(k)
    worst, witness, instances = 0.0, None, 0
    for i, rows in by_message.items():
        for k in rows:
            f_s = proto.vectors[k]
            s = int(proto.inputs[k])
            for t in channel_row(g, s)[0].tolist():
                by_msg: dict[int, float] = {}
                total = 0.0
                for u in members.get(t, []):
                    if u in row:
                        val = float(f_s @ proto.vectors[row[u]]) ** 2
                        j = int(proto.messages[row[u]])
                        by_msg[j] = by_msg.get(j, 0.0) + val
                        total += val
                for j in sorted(set(by_msg) | {1}):
                    if j == i:
                        continue
                    instances += 1
                    value = by_msg.get(j, 0.0)
                    if j == 1:
                        value += 1.0 - total  # completion operator
                    value = abs(value) / d
                    if value > worst:
                        worst = value
                        witness = (i, j, s, t)
    if witness is None:
        return instances, worst, None
    i, j, s, t = witness
    return instances, worst, (i, j, g.vertex_label(s), canonical_output_labels(g)[t])


def zero_error_code_by_loop(g, words):
    """(ok, witness) of the zero-error code check, pair by pair over supports."""
    supports = [support(g, x) for x in range(g.vertex_count)]
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            shared = []
            for x, y in zip(words[a], words[b]):
                common = supports[x] & supports[y]
                if not common:
                    shared = None
                    break
                shared.append(min(common))
            if shared is not None:
                labels = canonical_output_labels(g)
                return False, {"words": [list(words[a]), list(words[b])],
                               "shared_outputs": [labels[t] for t in shared]}
    return True, None


# -- vertex-set oracles ----------------------------------------------------------
#
# Bit by bit and pair by pair over Python ints: the forms the library replaced
# with the Hadamard identity, ``indices_of`` and ``adjacency_among``.


def _check_clique_bits(verts: list[int], n: int, expect_weight: int | None):
    """Every pair at distance (n+1)/2, and every weight as expected."""
    from capsep.errors import ConstructionError
    k = (n + 1) // 2
    for i, b in enumerate(verts):
        if expect_weight is not None and b.bit_count() != expect_weight:
            raise ConstructionError(f"row {i} has weight {b.bit_count()}, want {expect_weight}")
        for j in range(i + 1, len(verts)):
            if (b ^ verts[j]).bit_count() != k:
                raise ConstructionError(
                    f"rows {i},{j} at distance {(b ^ verts[j]).bit_count()}, want {k}")


def _permute_bits(bits: int, perm: list[int], n: int) -> int:
    """Destination coordinate d takes source coordinate perm[d]."""
    out = 0
    for dst in range(n):
        if (bits >> (n - 1 - perm[dst])) & 1:
            out |= 1 << (n - 1 - dst)
    return out


def word_of_signs(row) -> int:
    """Word of one +-1 row, bit by bit: -1 is a 1-bit, the first entry highest."""
    out = 0
    for s in row:
        out = (out << 1) | int(s == -1)
    return out


def weight_w_bits_by_combinations(n: int, w: int) -> list[int]:
    """Every length-n word of weight w, ascending: each w-subset of the bits, summed."""
    return sorted(map(sum, combinations([1 << i for i in range(n)], w)))


def restricted_set_by_pairs(n: int, k: int):
    """(words, first edge as a word pair or None) of the restricted set."""
    w = (n + 1) // 2
    verts = sorted(sum(c) << k for c in combinations([1 << i for i in range(n - k)], w))
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if (verts[i] ^ verts[j]).bit_count() == w:
                return verts, (verts[i], verts[j])
    return verts, None


# -- verification oracles ------------------------------------------------------
#
# The pairwise forms of the two certificate-grade checks: every inner product
# of the representation and every operator product of the certificate formed
# explicitly. The library checks them through identities instead.


def adjacency_by_rule(g):
    """Pairwise adjacency predicate read off the graph's definition, in Python."""
    if hasattr(g, "factors"):  # strong product: each coordinate equal or adjacent
        rules = [adjacency_by_rule(f) for f in g.factors]
        return lambda i, j: i != j and all(
            a == b or rule(a, b) for rule, a, b in zip(rules, g.parts(i), g.parts(j)))
    if g.distance is not None:
        bits = g.bits_array.tolist()
        return lambda i, j: (bits[i] ^ bits[j]).bit_count() == g.distance
    edges = set(map(tuple, edge_array(g).tolist()))
    return lambda i, j: (min(i, j), max(i, j)) in edges


def ortho_rep_verify_by_pairs(rep) -> None:
    """Blocked |V| x |V| Gram: every squared norm and every edge inner product."""
    from capsep.errors import ConstructionError

    w = rep.rows().astype(np.int64)
    k = (rep.graph.n + 1) // 2
    bits = rep.graph.bits_array
    nv = rep.graph.vertex_count
    step = max(1, (1 << 22) // max(nv, 1))
    for lo in range(0, nv, step):
        hi = min(nv, lo + step)
        gram = w[lo:hi] @ w.T
        norms = gram[np.arange(hi - lo), np.arange(lo, hi)]
        if not (norms == rep.normalizer).all():
            bad = lo + int(np.argmax(norms != rep.normalizer))
            raise ConstructionError(f"vertex {bad} has squared norm != 1")
        adj = np.bitwise_count(bits[lo:hi, None] ^ bits[None, :]) == k
        if gram[adj].any():
            i, j = np.argwhere(adj & (gram != 0))[0]
            raise ConstructionError(f"edge ({lo + int(i)}, {int(j)}) not orthogonal")


def _is_scaled_projector(num: np.ndarray) -> bool:
    """Integer symmetric N with N^2 = c N, c > 0 (so PSD), or N = 0."""
    if (num != num.T).any():
        return False
    if not num.any():
        return True
    sq = num @ num
    a, b = np.argwhere(num != 0)[0]
    if (sq * int(num[a, b]) != num * int(sq[a, b])).any():
        return False
    return int(sq[a, b]) * int(num[a, b]) > 0


def _is_rank_one_psd(num: np.ndarray) -> bool:
    """Symmetric with N^2 = tr(N) N and tr N > 0."""
    if (num != num.T).any():
        return False
    tr = int(np.trace(num))
    return tr > 0 and (num @ num == tr * num).all()


def ops_by_pair(cert) -> dict[tuple[int, int], np.ndarray]:
    """The operators keyed by (vertex, message): the form the tests edit."""
    return dict(zip(zip(cert.verts.tolist(), cert.msgs.tolist()), cert.ops))


def cert_with(cert, ops: dict | None = None, **fields):
    """A new certificate (not verified) with the operators ``ops``, keyed by
    (vertex, message) in any order, and the other ``fields`` replaced."""
    ops = ops_by_pair(cert) if ops is None else ops
    return dataclasses.replace(cert, verts=[u for u, _ in ops], msgs=[i for _, i in ops],
                               ops=list(ops.values()), verification=None, **fields)


def tensor_by_loop(a, b) -> EntCert:
    """The Kronecker-product certificate, one ``np.kron`` per operator pair (not verified)."""
    nb = b.graph.vertex_count
    ops = {(ua * nb + ub, (ia - 1) * b.M + ib): np.kron(na, nbm)
           for (ua, ia), na in ops_by_pair(a).items()
           for (ub, ib), nbm in ops_by_pair(b).items()}
    return cert_with(a, ops, graph=ProductGraph(factors(a.graph) + factors(b.graph)), M=a.M * b.M,
                     dim=a.dim * b.dim, denominator=a.denominator * b.denominator,
                     rho_num=np.kron(a.rho_num, b.rho_num))


def verify_by_pairs(cert, g=None):
    """Every certificate condition, with every operator product formed.

    Returns (passed, conditions, witnesses). rho must be a scaled projector,
    which is stricter than the PSD it needs to be.
    """
    g = g if g is not None else cert.graph
    conditions: dict = {}
    witnesses: list = []
    conditions["trace"] = int(np.trace(cert.rho_num)) == cert.denominator

    ops = ops_by_pair(cert)
    psd_ok = _is_scaled_projector(cert.rho_num)
    for (u, i), num in ops.items():
        if not _is_rank_one_psd(num):
            psd_ok = False
            witnesses.append({"condition": "psd", "vertex": u, "i": i})
    conditions["psd"] = psd_ok

    cond1_ok = True
    sums = {i: np.zeros_like(cert.rho_num) for i in range(1, cert.M + 1)}
    for (u, i), num in ops.items():
        if not 1 <= i <= cert.M:
            cond1_ok = False
            continue
        sums[i] = sums[i] + num
    for i, s in sums.items():
        if (s != cert.rho_num).any():
            cond1_ok = False
            witnesses.append({"condition": 1, "i": i})
    conditions["sum_to_rho"] = cond1_ok

    keys = sorted(ops)
    adjacent = adjacency_by_rule(g)
    same_ok = adjacent_ok = True
    for a in range(len(keys)):
        ua, ia = keys[a]
        for b in range(a + 1, len(keys)):
            ub, ib = keys[b]
            if ia == ib or not (ua == ub or adjacent(ua, ub)):
                continue
            if (ops[keys[a]] @ ops[keys[b]]).any():
                if ua == ub:
                    same_ok = False
                    witnesses.append({"condition": 2, "vertex": ua, "i": ia, "j": ib})
                else:
                    adjacent_ok = False
                    witnesses.append({"condition": 3, "edge": [ua, ub], "i": ia, "j": ib})
    conditions["same_vertex"] = same_ok
    conditions["adjacent"] = adjacent_ok
    return all(conditions.values()), conditions, witnesses


# -- fitting-matrix oracles ----------------------------------------------------
#
# The per-vertex construction of the fitting matrix: each vertex's
# Frankl-Wilson product polynomial, multilinearized term by term, and the
# |V| x |V| product S T^T of the coefficient matrix S with the monomial values
# T, and A = -T T^T formed from the monomial values T, with its rank by Gaussian
# elimination mod p. The library forms none of these: it checks A by distance
# class and takes its rank from an identity, which these oracles check.

MEMORY_CAP_BYTES = 2 << 30


@dataclasses.dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over F_p, entries reduced into [0, p), stored in 8-bit cells."""

    p: int
    data: np.ndarray

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidParameterError(f"modulus {self.p} is not prime")
        if self.p >= 256:
            raise InvalidParameterError("8-bit cells require p < 256")
        d = np.asarray(self.data, dtype=np.uint8)
        if (d >= self.p).any():
            raise InvalidParameterError("entries not reduced mod p")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)


def monomial_basis(n: int, p: int) -> list[int]:
    """All multilinear monomials of degree <= p-1 as bitmasks, (degree, value)-sorted.

    Bit b of a mask is the variable of vertex bit b.
    """
    return [m for k in range(p) for m in weight_w_bits(n, k)]


def monomial_values(g, p: int) -> np.ndarray:
    """T, |V| x m int64: each ``monomial_basis`` monomial at each u[x], -1 as p-1.

    T and a working copy, 16 bytes per cell, must fit in ``MEMORY_CAP_BYTES``.
    """
    m = sum(math.comb(g.n, k) for k in range(p))
    if 16 * g.vertex_count * m > MEMORY_CAP_BYTES:
        raise MemoryError(f"T is {g.vertex_count} x {m}, over the oracle's cap")
    masks = np.array(monomial_basis(g.n, p), dtype=np.uint64)
    return np.where(np.bitwise_count(g.bits_array[:, None] & masks) & 1, p - 1, 1)


def _pivot_columns(a: np.ndarray, p: int) -> list[int]:
    """Row-echelon form of int64 ``a`` (entries in [0, p)) in place; its pivot columns.

    First-nonzero pivoting; the number of pivots is the rank.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.nonzero(a[r + 1:, c])[0]
        if below.size:
            a[below] = (a[below] - a[below, c][:, None] * a[r][None, :]) % p
        pivots.append(c)
    return pivots


def rank_fp(m: FpMatrix) -> int:
    """Exact rank by Gaussian elimination mod p, first-nonzero pivoting."""
    return len(_pivot_columns(m.data.astype(np.int64), m.p))


def gram_rank(t: np.ndarray, p: int) -> int:
    """rank_p(T T^T) from the r x r Gram of a row basis of T.

    Lemma: the pivot columns of an echelon form of T^T index r rows T_I that
    are a basis of the row space of T, so T = L T_I, where L holds the r x r
    identity in the rows I and has full column rank. Then
    T T^T = L (T_I T_I^T) L^T, and as L has a left inverse and L^T a right
    inverse, rank_p(T T^T) = rank_p(T_I T_I^T).
    """
    work = np.array(t.T, dtype=np.int64, order="C")
    work %= p
    t_i = t[_pivot_columns(work, p)].astype(np.int64) % p
    return rank_fp(FpMatrix(p, t_i @ t_i.T % p))


def inner_product_identity_check(x: int, y: int, n: int, p: int) -> int:
    """<u[x],u[y]> mod p for length-n words, asserted equal to (-2 d(x,y) - 1) mod p.

    Valid whenever n = -1 mod p; for the graph families n = 4p-1.
    """
    if n % p != p - 1:
        raise InvalidParameterError(f"need n = -1 mod {p}, got n = {n}")
    d = (x ^ y).bit_count()
    ip = (n - 2 * d) % p
    expected = (-2 * d - 1) % p
    if ip != expected:
        raise InternalCheckError(f"inner-product identity failed at d={d}")
    return ip


def monomial_basis_by_filter(n: int, p: int) -> list[int]:
    """Masks of weight <= p-1 filtered from all 2^n, (degree, value)-sorted."""
    masks = [m for m in range(1 << n) if m.bit_count() <= p - 1]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return masks


def sign_vector(word: int, n: int, p: int) -> np.ndarray:
    """u[x] of a length-n word over F_p: coordinate i is 1 for a 0-bit, p-1 for a 1-bit."""
    return np.array([p - 1 if (word >> (n - 1 - j)) & 1 else 1
                     for j in range(n)], dtype=np.int64)


class ProductFormPoly:
    """Q_u in product form: evaluates prod_{i=1}^{p-1} (<u,v> + 1 - i) over F_p."""

    def __init__(self, u: np.ndarray, p: int):
        if u.shape[0] % p != p - 1:
            raise InvalidParameterError(
                f"need n = -1 mod {p}, got n = {u.shape[0]}")
        self.u = np.mod(u, p).astype(np.int64)
        self.p = p
        self.n = int(u.shape[0])

    def evaluate(self, v: np.ndarray) -> int:
        t = int(self.u @ np.mod(v, self.p)) % self.p
        out = 1
        for i in range(1, self.p):
            out = out * (t + 1 - i) % self.p
        return out


def frankl_wilson_Q(u, p: int) -> ProductFormPoly:
    """Product-form polynomial for a sign vector."""
    if not is_prime(p) or p % 2 == 0:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    return ProductFormPoly(np.asarray(u, dtype=np.int64), p)


class MultilinearPoly:
    """Multilinear polynomial over F_p, keyed by variable-subset bitmask."""

    def __init__(self, p: int, n: int, terms: dict):
        self.p, self.n, self.terms = p, n, terms  # bitmask -> coefficient in [1, p)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def evaluate(self, v: np.ndarray) -> int:
        v = np.mod(np.asarray(v, dtype=np.int64), self.p)
        total = 0
        for mask, c in self.terms.items():
            prod = c
            mm = mask
            while mm:
                j = (mm & -mm).bit_length() - 1
                prod = prod * int(v[j]) % self.p
                mm &= mm - 1
            total += prod
        return total % self.p


def _times_linear_form(terms: dict, u: np.ndarray, p: int, n: int) -> dict:
    """Multiply a multilinear poly by sum_j u_j v_j, reducing v_j^2 -> 1."""
    out: dict[int, int] = {}
    for mask, c in terms.items():
        for j in range(n):
            c2 = c * int(u[j]) % p
            if c2 == 0:
                continue
            m2 = mask ^ (1 << j)
            out[m2] = (out.get(m2, 0) + c2) % p
    return {m: c for m, c in out.items() if c}


def multilinearize(q: ProductFormPoly) -> MultilinearPoly:
    """Expand Q_u into the multilinear monomial basis.

    First convolves the p-1 linear factors into coefficients of powers of
    t = <u,v>, then expands each power into monomials with even exponents
    collapsed (v_j^2 = 1 on the +-1 cube).
    """
    p, n, u = q.p, q.n, q.u
    t_coeffs = [1]
    for i in range(1, p):
        c = (1 - i) % p
        nxt = [0] * (len(t_coeffs) + 1)
        for k, a in enumerate(t_coeffs):
            nxt[k] = (nxt[k] + a * c) % p
            nxt[k + 1] = (nxt[k + 1] + a) % p
        t_coeffs = nxt
    result: dict[int, int] = {}
    power: dict[int, int] = {0: 1}  # t^0
    for k, ck in enumerate(t_coeffs):
        if k > 0:
            power = _times_linear_form(power, u, p, n)
        if ck:
            for m, a in power.items():
                result[m] = (result.get(m, 0) + ck * a) % p
    return MultilinearPoly(p, n, {m: c for m, c in result.items() if c})


def build_ST(g, p: int):
    """Coefficient matrix S and evaluation matrix T with S[x].T[y] = P_x(u[y]).

    Row x of S holds the coefficients of the multilinearized polynomial of
    vertex x in the monomial basis; row y of T holds the values of those
    monomials at the sign vector of y.
    """
    if not is_prime(p) or p % 2 == 0:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    n = g.n
    if n != 4 * p - 1:
        raise InvalidParameterError(f"need n = 4p-1 = {4 * p - 1}, got n = {n}")
    basis = monomial_basis_by_filter(n, p)
    col_of = {m: c for c, m in enumerate(basis)}
    signs = np.array([sign_vector(b, n, p) for b in g.bits_array.tolist()])
    s = np.zeros((g.vertex_count, len(basis)), dtype=np.uint8)
    t = np.ones((g.vertex_count, len(basis)), dtype=np.int64)
    for ix in range(g.vertex_count):
        for m, c in multilinearize(ProductFormPoly(signs[ix], p)).terms.items():
            s[ix, col_of[m]] = c
    for col, mask in enumerate(basis):
        for j in range(n):
            if mask >> j & 1:
                t[:, col] = t[:, col] * signs[:, j] % p
    return FpMatrix(p, s), FpMatrix(p, t.astype(np.uint8))


def fitting_matrix_by_polynomials(g, p: int) -> np.ndarray:
    """A = S T^T mod p, |V| x |V|, from the per-vertex polynomials."""
    s, t = build_ST(g, p)
    return (s.data.astype(np.int64) @ t.data.astype(np.int64).T) % p


def fitting_matrix(g, p: int) -> FpMatrix:
    """A = -T T^T mod p, |V| x |V|, from the library's monomial values T."""
    t = monomial_values(g, p)
    return FpMatrix(p, -(t @ t.T) % p)


def assert_fits(g, a: FpMatrix) -> None:
    """A fits g: a nonzero diagonal and a zero at every non-adjacent pair."""
    off = ~dense_adjacency(g) & ~np.eye(g.vertex_count, dtype=bool)
    assert (np.diagonal(a.data) != 0).all()
    assert not a.data[off].any()

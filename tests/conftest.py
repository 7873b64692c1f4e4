"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: alpha by
memoized subset enumeration over Python-int bitsets and by branch and bound
with vertex-by-vertex coloring, rank by plain-list row reduction. They exist
so the fast implementations have something honest to be measured against.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

import capsep
from capsep.algebra_fp import FpMatrix, monomial_values
from capsep.channel import Transcript
from capsep.entcert import EntCert
from capsep.errors import InternalCheckError, InvalidParameterError
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
        u, v = g.edge_array().T
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
    vertex indices, its bound from the vertex-by-vertex first-fit coloring."""
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
        expand(full, root_colored)
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
    return capsep.paley_one(11)


@pytest.fixture(scope="session")
def h11_cert(h11, paley12):
    return capsep.cert_from_packing(
        capsep.pack_cliques(h11, capsep.hadamard_clique(paley12, "H")))


@pytest.fixture(scope="session")
def g11_cert(g11, paley12):
    return capsep.cert_from_packing(
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
    """Every output label of ``canonical_channel(g)``, built up front."""
    labels = [g.vertex_label(i) for i in range(g.vertex_count)]
    return labels + [f"{labels[i]}|{labels[j]}" for i, j in g.edge_array().tolist()]


def sample_output(chan, x: int, rng: np.random.Generator) -> int:
    """Output of input x drawn with ``Generator.choice`` over row x."""
    idx, probs = chan.row(x)
    return int(rng.choice(idx, p=probs / probs.sum()))


def simulate_transmission_by_choice(proto, message: int, seed: int = 0) -> Transcript:
    """``simulate_transmission`` drawing both outcomes with ``Generator.choice``."""
    rng = np.random.default_rng(seed)
    rows = np.flatnonzero(proto.messages == message)
    p = np.diagonal(proto.gram)[rows] / proto.dim
    k = int(rng.choice(rows, p=p / p.sum()))
    s = int(proto.inputs[k])
    t = sample_output(proto.channel, s, rng)
    r = proto.receivers(t)
    overlap = proto.gram[k, r] ** 2 / proto.gram[k, k]
    dist = np.bincount(proto.messages[r] - 1, weights=overlap, minlength=proto.M)
    dist[0] += 1.0 - overlap.sum()
    dist = np.maximum(dist, 0.0)
    return Transcript(message, proto.channel.inputs[s], proto.channel.outputs[t],
                      tuple(dist.tolist()), int(np.argmax(dist)) + 1)


def support(chan, x: int) -> frozenset:
    """Outputs input x reaches."""
    return frozenset(chan.row(x)[0].tolist())


def sender_measurement(proto, i: int) -> dict[int, np.ndarray]:
    """POVM elements A_i^s of message i, keyed by the input s that carries them."""
    return {int(proto.inputs[k]): np.outer(proto.vectors[k], proto.vectors[k])
            for k in np.flatnonzero(proto.messages == i)}


def receiver_measurement(proto, t: int) -> list[np.ndarray]:
    """Full measurement for output t: outcomes 1..M, completion on 1."""
    ops = [np.zeros((proto.dim, proto.dim)) for _ in range(proto.M)]
    for k in proto.receivers(t).tolist():
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


def explicit_state_transmission(proto, chan, message: int, seed: int = 0):
    """One protocol run through the explicit shared state and partial trace.

    Returns (sender input, channel output, receiver distribution), drawing
    from ``default_rng(seed)`` exactly as ``simulate_transmission`` does.
    """
    rng = np.random.default_rng(seed)
    d = proto.dim
    rho = maximally_entangled_state(d)
    sender = sender_measurement(proto, message)
    members = sorted(sender)
    p = np.array([float(np.trace(np.kron(sender[s], np.eye(d)) @ rho))
                  for s in members])
    s = int(rng.choice(members, p=p / p.sum()))
    t = sample_output(chan, s, rng)
    big = np.kron(sender[s], np.eye(d)) @ rho
    post = partial_trace(big, d, d, over="x") / float(np.trace(big))
    dist = np.array([float(np.trace(b @ post))
                     for b in receiver_measurement(proto, t)])
    return s, t, np.clip(dist, 0.0, None)


def output_members_by_dict(chan) -> dict[int, list[int]]:
    """Map output index -> inputs that can produce it."""
    members: dict[int, list[int]] = {}
    for x in range(chan.input_count):
        for t in chan.row(x)[0].tolist():
            members.setdefault(t, []).append(x)
    return members


def confusable_pairs_by_loop(chan) -> list[tuple[int, int]]:
    """Sorted input pairs a < b sharing an output, pair by pair."""
    edges = set()
    for members in output_members_by_dict(chan).values():
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
    chan, d = proto.channel, proto.dim
    members = output_members_by_dict(chan)
    row = {int(u): k for k, u in enumerate(proto.inputs)}
    by_message: dict[int, list[int]] = {}
    for k, i in enumerate(proto.messages.tolist()):
        by_message.setdefault(i, []).append(k)
    worst, witness, instances = 0.0, None, 0
    for i, rows in by_message.items():
        for k in rows:
            f_s = proto.vectors[k]
            s = int(proto.inputs[k])
            for t in chan.row(s)[0].tolist():
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
                        witness = (i, j, chan.inputs[s], chan.outputs[t])
    return instances, worst, witness


def zero_error_code_by_loop(c, words):
    """(ok, witness) of the zero-error code check, pair by pair over supports."""
    supports = [support(c, x) for x in range(c.input_count)]
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
                return False, {"words": [list(words[a]), list(words[b])],
                               "shared_outputs": [c.outputs[t] for t in shared]}
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
    edges = set(map(tuple, g.edge_array().tolist()))
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
    return cert_with(a, ops, graph=capsep.strong_product(a.graph, b.graph), M=a.M * b.M,
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
    is_adjacent = adjacency_by_rule(g)
    same_ok = adjacent_ok = True
    for a in range(len(keys)):
        ua, ia = keys[a]
        for b in range(a + 1, len(keys)):
            ub, ib = keys[b]
            if ia == ib or not (ua == ub or is_adjacent(ua, ub)):
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
# T, and A = -T T^T formed from the library's own T. The library forms neither:
# it checks A by distance class and takes its rank from a row basis of T.


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

"""Exact operator-system certificates for entangled zero-error lower bounds.

A certificate holds a trace-1 PSD operator rho and a sparse family of PSD
operators, one per (vertex, message) pair, satisfying three exact conditions:
the operators of each message sum to rho; operators of one vertex with
different messages annihilate; and operators of adjacent vertices with
different messages annihilate. A verified certificate with M messages shows
the one-shot entangled independence number is at least M.

A packing certificate is fixed by its cliques and proved by its packing
(``packing_proof``), with no operator formed. A general one (tensors,
classical embeddings) holds integer numerators over one denominator, and
``verify`` checks every instance of every condition exactly, with no
sampling: its rank-one operators N = c w w^T annihilate iff one nonzero row
of each is orthogonal to the other, so the cross-operator conditions are
zeros of one K x K integer Gram matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .alpha import verify_independent
from .bitgraph import graph_from_ref, row_blocks, strong_product
from .errors import (CertificateError, ConstructionError, InvalidParameterError,
                     ResourceLimitError)
from .geometry import CliquePacking, OrthoRep

# total int64 entries across all stored numerators
TENSOR_ENTRY_CAP = 125_000_000
# witnesses listed per condition; every violation is still counted
WITNESS_CAP = 10
CONDITIONS = ("trace", "psd", "sum_to_rho", "same_vertex", "adjacent")
# products and sums of entries must stay below this, exact in int64 and float64
_EXACT_BOUND = 1 << 53


@dataclass
class VerificationReport:
    passed: bool
    conditions: dict
    witnesses: list
    violations: dict = field(default_factory=dict)  # per condition, all counted
    mode: str = "full"  # "full": every instance checked; "packing": proved by it

    def to_json(self) -> dict:
        """The report; ``violations`` only when it failed (all zero otherwise)."""
        out = {"mode": self.mode, "passed": self.passed, "conditions": self.conditions}
        if not self.passed:
            out["violations"] = self.violations
        return out | {"witnesses": self.witnesses}


@dataclass
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

    def to_json(self) -> dict:
        return {
            "graph": self.graph.graph_ref(),
            "M": self.M,
            "dim": self.dim,
            "denominator": self.denominator,
            "rho": self.rho_num.tolist(),
            "ops": [{"vertex": self.graph.vertex_label(u), "i": i, "matrix": num}
                    for u, i, num in zip(self.verts.tolist(), self.msgs.tolist(),
                                         self.ops.tolist())],
            "verification": None if self.verification is None
            else self.verification.to_json(),
        }


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


def packing_proof(packing: CliquePacking) -> VerificationReport:
    """Every condition of the packing's certificate (message i the i-th clique,
    w w^T at each vertex, for its ``OrthoRep`` row w), with no operator formed.

    ``OrthoRep.verify`` gives unit rows, orthogonal on edges (condition 3),
    and ``CliquePacking`` gives disjoint cliques (condition 2). A clique is
    then an orthonormal set in the span of the rows; it is a basis of it when
    its size is that span's dimension: n + 1, or n for family G, whose rows
    lie in the ones-hyperplane. So every message sums to the same scaled
    projector rho (condition 1), and the trace and psd conditions hold by
    construction. Any other size raises ``CertificateError``."""
    g, size = packing.graph, packing.clique_size
    if not packing.cliques:
        raise InvalidParameterError("packing has no cliques (M must be at least 1)")
    rep = OrthoRep(g)
    rep.verify()
    span = rep.dim - (g.family == "G")
    if size != span:
        raise CertificateError(f"packing certificate failed verification: cliques "
                               f"of size {size} do not span the rows' dimension {span}")
    return VerificationReport(True, dict.fromkeys(CONDITIONS, True), [],
                              dict.fromkeys(CONDITIONS, 0), "packing")


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


def tensor(a: EntCert, b: EntCert) -> EntCert:
    """Kronecker-product certificate on the strong product graph.

    Messages multiply (M = M_a * M_b), which is the supermultiplicativity
    step behind the capacity lower bound. Fully verified at every size the
    entry cap allows."""
    g = strong_product(a.graph, b.graph)
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


# -- persistence ---------------------------------------------------------------


def _json_int(value) -> int:
    """A JSON integer; a float, a bool or any other value is malformed."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _json_label(value) -> int:
    """A message label: a JSON integer within int64, where labels are stacked."""
    if not -(1 << 63) <= _json_int(value) < 1 << 63:
        raise ValueError(f"message label {value} is outside int64")
    return value


def cert_from_json(payload: dict) -> EntCert:
    """Rebuild a general certificate from its parsed JSON form (``EntCert.to_json``).

    The graph is rebuilt from the stored reference, which works for the
    named families (G/H/O/C/K) and their strong products, and the vertex
    labels are looked up in one ``indices_of_labels`` batch. Malformed input
    (a missing field, a wrong type, a number that is not a JSON integer, an
    unknown vertex label, a label i outside int64, and what the ``EntCert``
    constructor rejects: a repeated (vertex, i) entry or a matrix not dim x
    dim) raises ``InvalidParameterError``."""
    try:
        graph = graph_from_ref(str(payload["graph"]))
        M, dim, denominator = (_json_int(payload[k]) for k in ("M", "dim", "denominator"))
        entries = [(e["vertex"], _json_label(e["i"]), e["matrix"]) for e in payload["ops"]]
        labels, msgs, matrices = zip(*entries) if entries else ((), (), ())
        verts = graph.indices_of_labels(labels)
        rho = payload["rho"]
        # one check that every entry of rho and of every matrix is a JSON integer
        odd = set(map(type, chain.from_iterable(chain.from_iterable([rho, *matrices])))) - {int}
        if odd:
            raise ValueError(f"a matrix entry of type {odd.pop().__name__} is not an integer")
        return EntCert(graph, M, dim, denominator, rho, verts, msgs, matrices)
    except KeyError as exc:
        raise InvalidParameterError(f"certificate is missing field {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InvalidParameterError(f"malformed certificate: {exc}") from None


def verify_json(text: str | bytes) -> VerificationReport:
    """The verdict on a certificate file, by its form. A file with ``cliques``
    (``cert``'s form) is proved from scratch with no operator formed: its G or
    H graph from the reference, its labels in one ``indices_of_labels`` batch,
    the ``CliquePacking`` constructor (sizes, reuse, adjacency), ``packing_proof``
    and its M and dim against the proven ones; a failed proof raises
    ``CertificateError``. Any other (``EntCert.to_json``) is checked by
    ``verify``. Malformed input, or both ``cliques`` and ``ops``, raises
    ``InvalidParameterError``."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"malformed certificate: {exc}") from None
    if not (isinstance(payload, dict) and "cliques" in payload):
        return verify(cert_from_json(payload))
    try:
        graph, cliques = graph_from_ref(str(payload["graph"])), payload["cliques"]
        claimed = tuple(_json_int(payload[k]) for k in ("M", "dim"))
        if "ops" in payload or graph.family not in ("G", "H"):
            raise ValueError("a packing certificate has a G or H graph and no ops")
        words = iter(graph.bits_array[graph.indices_of_labels(
            list(chain.from_iterable(cliques)))].tolist())
        packing = CliquePacking(graph, len(cliques[0]) if cliques else 0,
                                tuple(tuple(islice(words, len(c))) for c in cliques))
    except KeyError as exc:
        raise InvalidParameterError(f"certificate is missing field {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InvalidParameterError(f"malformed certificate: {exc}") from None
    except ConstructionError as exc:
        raise CertificateError(f"packing certificate failed verification: {exc}") from None
    proof, proven = packing_proof(packing), (packing.count, OrthoRep(graph).dim)
    if claimed != proven:
        raise CertificateError(f"packing certificate failed verification: the file claims "
                               f"(M, dim) = {claimed}, its packing proves {proven}")
    return proof

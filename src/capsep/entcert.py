"""Exact operator-system certificates for entangled zero-error lower bounds.

A certificate holds a trace-1 PSD operator rho and a sparse family of PSD
operators, one per (vertex, message) pair, satisfying three exact conditions:
the operators of each message sum to rho; operators of one vertex with
different messages annihilate; and operators of adjacent vertices with
different messages annihilate. A verified certificate with M messages shows
the one-shot entangled independence number is at least M.

All matrices are stored as integer numerators over a single global
denominator, so every check is exact integer arithmetic with zero tolerance.
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass, field

import numpy as np

from .alpha import verify_independent
from .bitgraph import graph_from_ref, strong_product
from .errors import (CertificateError, InvalidParameterError,
                     ResourceLimitError)
from .geometry import CliquePacking, OrthoRep

FULL_VERIFY_VERTEX_CAP = 10**4
SAMPLED_INSTANCES = 10**5
# total int64 entries across all stored numerators
TENSOR_ENTRY_CAP = 125_000_000


@dataclass
class VerificationReport:
    passed: bool
    mode: str  # "full" | "sampled"
    conditions: dict
    witnesses: list

    def to_json(self) -> dict:
        return {"mode": self.mode, "passed": self.passed,
                "conditions": self.conditions, "witnesses": self.witnesses}


@dataclass
class EntCert:
    """Operator system (rho, ops) over a graph, exact-rational.

    ``ops`` maps (vertex_index, message) to an integer numerator matrix;
    missing keys are the zero operator. Message labels are 1-based. The true
    operators are numerator / denominator.
    """

    graph: object
    M: int
    dim: int
    denominator: int
    rho_num: np.ndarray
    ops: dict[tuple[int, int], np.ndarray]
    verification: VerificationReport | None = None
    meta: dict = field(default_factory=dict)

    @property
    def graph_ref(self) -> str:
        return self.graph.graph_ref()

    def to_json(self) -> dict:
        return {
            "graph": self.graph_ref,
            "M": self.M,
            "dim": self.dim,
            "denominator": self.denominator,
            "rho": self.rho_num.tolist(),
            "ops": [{"vertex": self.graph.vertex_label(u), "i": i,
                     "matrix": num.tolist()}
                    for (u, i), num in sorted(self.ops.items())],
            "verification": None if self.verification is None
            else self.verification.to_json(),
        }


def _is_scaled_projector(num: np.ndarray) -> bool:
    """Exact PSD check for integer symmetric N with N^2 = c N, c > 0.

    Such N equals c times an orthogonal projector, so its eigenvalues are in
    {0, c} and N is PSD. Avoids any floating-point eigensolve.
    """
    if (num != num.T).any():
        return False
    if not num.any():
        return True
    sq = num @ num
    nz = np.argwhere(num != 0)
    a, b = nz[0]
    # cross-multiplied proportionality: N^2 * N[a,b] == N * N^2[a,b]
    if (sq * int(num[a, b]) != num * int(sq[a, b])).any():
        return False
    return int(sq[a, b]) * int(num[a, b]) > 0  # scale factor positive


def _is_rank_one_psd(num: np.ndarray) -> bool:
    """Exact check that N is symmetric PSD of rank one: N^2 = tr(N) N, tr > 0."""
    if (num != num.T).any():
        return False
    tr = int(np.trace(num))
    if tr <= 0:
        return False
    return (num @ num == tr * num).all()


def verify(cert: EntCert, g=None, mode: str = "auto") -> VerificationReport:
    """Re-check all certificate conditions independently of construction.

    ``mode`` "full" checks every condition instance exactly; "sampled" draws
    random instances for the cross-vertex conditions (used when the product
    graph is too large to sweep); "auto" picks based on graph size. The
    result is a value, never an exception.
    """
    g = g if g is not None else cert.graph
    if mode == "auto":
        mode = "full" if g.vertex_count <= FULL_VERIFY_VERTEX_CAP else "sampled"
    conditions: dict = {}
    witnesses: list = []

    trace_ok = int(np.trace(cert.rho_num)) == cert.denominator
    conditions["trace"] = trace_ok
    if not trace_ok:
        witnesses.append({"condition": "trace",
                          "got": int(np.trace(cert.rho_num)),
                          "want": cert.denominator})

    psd_ok = _is_scaled_projector(cert.rho_num)
    if not psd_ok:
        witnesses.append({"condition": "psd", "operator": "rho"})
    for (u, i), num in cert.ops.items():
        if not _is_rank_one_psd(num):
            psd_ok = False
            witnesses.append({"condition": "psd", "vertex": u, "i": i})
    conditions["psd"] = psd_ok

    # Condition 1: per-message sums equal rho.
    cond1_ok = True
    sums = {i: np.zeros_like(cert.rho_num) for i in range(1, cert.M + 1)}
    for (u, i), num in cert.ops.items():
        if not 1 <= i <= cert.M:
            cond1_ok = False
            witnesses.append({"condition": 1, "error": "message label out of range",
                              "i": i})
            continue
        sums[i] = sums[i] + num
    for i, s in sums.items():
        if (s != cert.rho_num).any():
            cond1_ok = False
            witnesses.append({"condition": 1, "i": i})
    conditions["sum_to_rho"] = cond1_ok

    # Condition 2: one vertex, different messages.
    cond2_ok = True
    by_vertex: dict[int, list[tuple[int, np.ndarray]]] = {}
    for (u, i), num in cert.ops.items():
        by_vertex.setdefault(u, []).append((i, num))
    for u, entries in by_vertex.items():
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                ia, na = entries[a]
                ib, nb = entries[b]
                if ia != ib and (na @ nb).any():
                    cond2_ok = False
                    witnesses.append({"condition": 2, "vertex": u, "i": ia, "j": ib})
    conditions["same_vertex"] = cond2_ok

    # Condition 3: adjacent vertices, different messages.
    cond3_ok = True
    keys = sorted(cert.ops.keys())
    if mode == "full":
        for a in range(len(keys)):
            ua, ia = keys[a]
            for b in range(a + 1, len(keys)):
                ub, ib = keys[b]
                if ia == ib or ua == ub:
                    continue
                if g.is_adjacent(ua, ub):
                    if (cert.ops[keys[a]] @ cert.ops[keys[b]]).any():
                        cond3_ok = False
                        witnesses.append({"condition": 3, "edge": [ua, ub],
                                          "i": ia, "j": ib})
    else:
        rng = _random.Random(0)
        checked = 0
        while checked < SAMPLED_INSTANCES:
            (ua, ia), (ub, ib) = rng.sample(keys, 2) if len(keys) > 1 else (keys[0], keys[0])
            checked += 1
            if ia == ib or ua == ub or not g.is_adjacent(ua, ub):
                continue
            if (cert.ops[(ua, ia)] @ cert.ops[(ub, ib)]).any():
                cond3_ok = False
                witnesses.append({"condition": 3, "edge": [ua, ub], "i": ia, "j": ib})
                break
    conditions["adjacent"] = cond3_ok

    passed = trace_ok and psd_ok and cond1_ok and cond2_ok and cond3_ok
    return VerificationReport(passed, mode, conditions, witnesses)


def cert_from_packing(rep: OrthoRep, packing: CliquePacking) -> EntCert:
    """Certificate with one message per packed clique.

    Each clique's unit vectors form an orthonormal basis of the common span
    (the whole space for the even-weight family, the ones-hyperplane for the
    weight-(n+1)/2 family), so the per-message sums all equal the same scaled
    projector rho with trace exactly one. The numerator of the operator at
    vertex u is the integer outer product w w^T; the global denominator is
    d * (n+1).
    """
    g = packing.graph
    if rep.graph is not g and rep.graph.graph_ref() != g.graph_ref():
        raise InvalidParameterError("representation and packing disagree on the graph")
    packing.verify()
    d = packing.clique_size
    dim = rep.dim
    denominator = d * rep.normalizer
    ops: dict[tuple[int, int], np.ndarray] = {}
    for i, clique in enumerate(packing.cliques, start=1):
        for b in clique:
            u = g.index_of(b)
            w = rep.matrix[u].astype(np.int64)
            ops[(u, i)] = np.outer(w, w)
    rho = np.zeros((dim, dim), dtype=np.int64)
    for b in packing.cliques[0]:
        rho += ops[(g.index_of(b), 1)]
    cert = EntCert(g, len(packing.cliques), dim, denominator, rho, ops,
                   meta={"clique_size": d, "source": "packing"})
    report = verify(cert, g, mode="full")
    cert.verification = report
    if not report.passed:
        raise CertificateError(f"packing certificate failed verification: "
                               f"{report.witnesses[:3]}")
    return cert


def classical_embedding(g, vertex_indices) -> EntCert:
    """One-dimensional certificate from an independent set (so M >= alpha)."""
    idx = sorted(set(int(i) for i in vertex_indices))
    if not idx:
        raise InvalidParameterError("independent set must be nonempty (M >= 1)")
    independent, edge = verify_independent(g, idx)
    if not independent:
        raise InvalidParameterError(f"set is not independent: edge {edge}")
    one = np.array([[1]], dtype=np.int64)
    ops = {(u, i): one.copy() for i, u in enumerate(idx, start=1)}
    cert = EntCert(g, len(idx), 1, 1, one.copy(), ops,
                   meta={"source": "classical"})
    report = verify(cert, g, mode="full" if g.vertex_count <= FULL_VERIFY_VERTEX_CAP
                    else "sampled")
    cert.verification = report
    if not report.passed:
        raise CertificateError("classical embedding failed verification")
    return cert


def tensor(a: EntCert, b: EntCert) -> EntCert:
    """Kronecker-product certificate on the strong product graph.

    Messages multiply (M = M_a * M_b), which is the supermultiplicativity
    step behind the capacity lower bound. Fully verified when the product
    graph is small enough to sweep; otherwise sample-verified with the mode
    recorded on the certificate.
    """
    g = strong_product(a.graph, b.graph)
    entries = len(a.ops) * len(b.ops) * (a.dim * b.dim) ** 2
    if entries > TENSOR_ENTRY_CAP:
        raise ResourceLimitError(
            f"tensor certificate would store {entries} matrix entries")
    nb = b.graph.vertex_count
    ops: dict[tuple[int, int], np.ndarray] = {}
    for (ua, ia), na in a.ops.items():
        for (ub, ib), nbm in b.ops.items():
            key = (ua * nb + ub, (ia - 1) * b.M + ib)
            ops[key] = np.kron(na, nbm)
    cert = EntCert(g, a.M * b.M, a.dim * b.dim,
                   a.denominator * b.denominator,
                   np.kron(a.rho_num, b.rho_num), ops,
                   meta={"source": "tensor"})
    report = verify(cert, g, mode="auto")
    cert.verification = report
    if not report.passed:
        raise CertificateError(f"tensor certificate failed verification: "
                               f"{report.witnesses[:3]}")
    return cert


# -- persistence ---------------------------------------------------------------


def cert_to_json_str(cert: EntCert) -> str:
    return json.dumps(cert.to_json(), indent=2)


def cert_from_json(payload: dict | str | bytes, graph=None) -> EntCert:
    """Rebuild a certificate from its JSON form.

    If ``graph`` is not given it is reconstructed from the stored reference,
    which works for the named families (G/H/O/C); product certificates need
    the graph passed in. Malformed input (a missing field, a wrong type, an
    unknown vertex label, a matrix not dim x dim) raises
    ``InvalidParameterError``.
    """
    try:
        if isinstance(payload, (str, bytes)):
            payload = json.loads(payload)
        if graph is None:
            graph = graph_from_ref(str(payload["graph"]))
        label_to_index = {graph.vertex_label(i): i for i in range(graph.vertex_count)}
        dim = int(payload["dim"])
        ops = {}
        for entry in payload["ops"]:
            u = label_to_index.get(entry["vertex"])
            if u is None:
                raise InvalidParameterError(
                    f"unknown vertex {entry['vertex']!r} in {graph.graph_ref()}")
            ops[(u, int(entry["i"]))] = np.array(entry["matrix"], dtype=np.int64)
        rho = np.array(payload["rho"], dtype=np.int64)
        cert = EntCert(graph, int(payload["M"]), dim, int(payload["denominator"]),
                       rho, ops)
    except KeyError as exc:
        raise InvalidParameterError(f"certificate is missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed certificate: {exc}") from None
    for name, num in [("rho", rho)] + [(f"operator {k}", m) for k, m in ops.items()]:
        if num.shape != (dim, dim):
            raise InvalidParameterError(
                f"{name} has shape {num.shape}, not ({dim}, {dim})")
    return cert

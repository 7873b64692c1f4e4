"""The canonical channel of a graph, and entanglement-assisted protocols over it.

The protocol construction follows the one-shot scheme: sender and receiver
share a maximally entangled state of local dimension d; to send message i the
sender measures with the rank-one projectors onto the i-th clique's
representation vectors, transmits her outcome through the channel, and the
receiver measures with projectors grouped by which clique could have produced
the channel output. Orthogonality across cliques through every shared output
makes the decoding exact.

For the maximally entangled state, Tr((A (x) B) rho) = Tr(A B^T)/d. Every
measurement operator is a sum of rank-one projectors f f^T onto real unit
vectors, so every probability the protocol needs is a sum of squared entries
of the Gram matrix G = F F^T of the stacked vectors F; the d^2-dimensional
state is never formed.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bitgraph import MAX_VERTICES, row_blocks
from .entcert import EntCert, rank_one_row
from .errors import InvalidParameterError, ProtocolError, ResourceLimitError

COMPLETENESS_TOL = 1e-10
ZERO_ERROR_TOL = 1e-9
CHOICE_SUM_TOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's own


def _gather(indptr: np.ndarray, values: np.ndarray, keys: np.ndarray):
    """Concatenate the CSR groups ``keys``: (position in keys, value) per entry."""
    lo = indptr[keys]
    n = indptr[keys + 1] - lo
    pos = np.repeat(np.arange(len(keys)), n)
    return pos, values[np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)]


def _groups_by_size(indptr: np.ndarray, values: np.ndarray):
    """Yield the CSR groups of each size k > 0, stacked as an (n_k, k) array."""
    counts = np.diff(indptr)
    for k in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        starts = indptr[:-1][counts == k]
        yield values[starts[:, None] + np.arange(k)]


class _OutputLabels(Sequence):
    """Canonical-channel output labels, formed when read: vertices, then "a|b" per edge."""

    def __init__(self, labels: list[str], edges: np.ndarray):
        self._labels, self._edges = labels, edges

    def __len__(self) -> int:
        return len(self._labels) + len(self._edges)

    def __getitem__(self, t) -> str:
        t = range(len(self))[operator.index(t)]
        if t < len(self._labels):
            return self._labels[t]
        i, j = self._edges[t - len(self._labels)].tolist()
        return f"{self._labels[i]}|{self._labels[j]}"


class Channel:
    """The canonical channel of a graph g, whose confusability graph is g.

    Inputs are the vertices; outputs are the vertices, then the edges of
    ``g.edge_array()``. Input u reaches its private output u and the shared
    output |V| + e of each edge e at u, each with probability 1/(deg u + 1),
    so two inputs share an output exactly when they are adjacent. Rows are
    stored back to back (CSR), each in ascending output order. Build it with
    ``canonical_channel``, which checks the output cap first.
    """

    def __init__(self, graph):
        nv, edges = graph.vertex_count, graph.edge_array()
        self.graph, self.edges = graph, edges
        self.inputs = [graph.vertex_label(i) for i in range(nv)]
        self.outputs = _OutputLabels(self.inputs, edges)
        # Edges are row-major, so edges (i, u) precede edges (u, j): a stable
        # sort by input lists each row's outputs in ascending order.
        src = np.concatenate([np.arange(nv), edges[:, 1], edges[:, 0]])
        dst = np.concatenate([np.arange(nv), nv + np.tile(np.arange(len(edges)), 2)])
        self._targets = dst[np.argsort(src, kind="stable")]
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=nv))))

    @property
    def input_count(self) -> int:
        return len(self.inputs)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, targets) of the rows: row x is ``targets[indptr[x]:indptr[x + 1]]``."""
        return self._indptr, self._targets

    def row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """The outputs input x reaches, ascending, and their probabilities."""
        idx = self._targets[self._indptr[x]:self._indptr[x + 1]]
        return idx, np.full(idx.size, 1.0 / idx.size)

    def members_by_output(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, inputs) of the inputs that can produce each output.

        The members of output t, in ascending input order, are
        ``inputs[indptr[t]:indptr[t + 1]]``: t itself for a vertex output,
        the two ends of edge t - |V| for an edge output.
        """
        nv, ne = self.input_count, len(self.edges)
        indptr = np.concatenate([np.arange(nv), nv + 2 * np.arange(ne + 1)])
        return indptr, np.concatenate([np.arange(nv), self.edges.ravel()])


def canonical_channel(g) -> Channel:
    """Channel whose confusability graph is exactly g (see ``Channel``).

    More than ``MAX_VERTICES`` outputs are refused before any of them is built.
    """
    outputs = g.vertex_count + g.edge_count
    if outputs > MAX_VERTICES:
        raise ResourceLimitError(f"canonical channel of {g.graph_ref()} would have "
                                 f"{outputs} outputs, over the cap {MAX_VERTICES}")
    return Channel(g)


def check_zero_error_code(c: Channel, words: list[tuple[int, ...]]):
    """True iff every pair of words has a coordinate with disjoint supports.

    Two words are confusable when each coordinate is equal or adjacent in
    ``c.graph``: one ``adjacency_among`` per coordinate.
    Returns (ok, witness); the witness is the first confusable pair in list
    order, with the least shared output of each coordinate.
    """
    k = len(words[0]) if words else 0
    if any(len(w) != k for w in words):
        raise InvalidParameterError("words must share one length")
    arr = np.array(words, dtype=np.int64).reshape(len(words), k)
    bad = (arr < 0) | (arr >= c.input_count)
    if bad.any():
        raise InvalidParameterError(f"input index {arr[bad][0]} out of range")
    g, count = c.graph, len(words)
    for lo, hi in row_blocks(count, count):
        confusable = np.arange(lo, hi)[:, None] < np.arange(count)
        for a, b in zip(arr[lo:hi].T, arr.T):
            confusable &= g.adjacency_among(a, b) | (a[:, None] == b)
        if confusable.any():
            a, b = np.argwhere(confusable)[0].tolist()
            pair = [list(words[lo + a]), list(words[b])]
            shared = [np.intersect1d(c.row(x)[0], c.row(y)[0]).min() for x, y in zip(*pair)]
            return False, {"words": pair, "shared_outputs": [c.outputs[t] for t in shared]}
    return True, None


# -- protocols -----------------------------------------------------------------


@dataclass
class ZeroErrorReport:
    passed: bool
    max_violation: float
    instances: int
    witness: tuple | None = None

    def to_json(self) -> dict:
        return {"passed": self.passed, "max_violation": self.max_violation,
                "instances": self.instances,
                "witness": list(self.witness) if self.witness else None}


@dataclass
class Protocol:
    """One-shot entanglement-assisted protocol bound to a channel.

    Row k of ``vectors`` is the reduced unit vector f_u of channel input
    u = ``inputs[k]`` (ascending), which carries message ``messages[k]``;
    other inputs are used by no sender measurement. The sender POVM for
    message i consists of the rank-one projectors of that message's vectors
    (zero elsewhere), and the receiver measurement for output t projects onto
    the vectors of the inputs that can produce t, grouped by message. The
    completion operator I - sum_j B_t^j is folded into outcome 1. ``gram`` is
    F F^T over the rows of ``vectors``, and ``dim`` is their length d.
    """

    channel: Channel
    M: int
    inputs: np.ndarray
    messages: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.dim = self.vectors.shape[1]
        self.gram = self.vectors @ self.vectors.T
        row_of = np.full(self.channel.input_count, -1, dtype=np.int64)
        row_of[self.inputs] = np.arange(len(self.inputs))
        # Receivers: per output, the vector rows of the inputs that reach it.
        indptr, members = self.channel.members_by_output()
        rows = row_of[members]
        self._recv_rows = rows[rows >= 0]
        self._recv_indptr = np.concatenate(([0], np.cumsum(rows >= 0)))[indptr]
        # Senders: per message, its vector rows and the CDF of Tr(A_i^s)/d.
        self._senders = {}
        for i in np.flatnonzero(np.bincount(self.messages)).tolist():
            k = np.flatnonzero(self.messages == i)
            p = np.diagonal(self.gram)[k] / self.dim
            p = p / p.sum()
            if not (np.isfinite(p) & (p >= 0)).all() or abs(p.sum() - 1.0) > CHOICE_SUM_TOL:
                raise ProtocolError(f"message {i}: sender probabilities are no distribution")
            cdf = p.cumsum()
            self._senders[i] = (k, cdf / cdf[-1])

    def receivers(self, t: int) -> np.ndarray:
        """Vector rows of the inputs that can produce output t."""
        return self._recv_rows[self._recv_indptr[t]:self._recv_indptr[t + 1]]

    def completeness_report(self) -> dict:
        """Exhaustive check of both measurements.

        Each sender POVM must sum to the identity. Receiver completion is
        exact by construction; the real constraint is that the projectors of
        each output never overlap: the spectrum of sum_u f_u f_u^T over the
        members u of t, which is that of G[members, members], is at most 1.
        Every output is checked, batched by member count.
        """
        worst_sender = 0.0
        for k, _ in self._senders.values():
            f = self.vectors[k]
            worst_sender = max(worst_sender,
                               float(np.abs(f.T @ f - np.eye(self.dim)).max()))
        worst_receiver = 0.0
        for groups in _groups_by_size(self._recv_indptr, self._recv_rows):
            top = np.linalg.eigvalsh(self.gram[groups[:, :, None], groups[:, None, :]])
            worst_receiver = max(worst_receiver, float(top[:, -1].max()) - 1.0)
        passed = worst_sender <= COMPLETENESS_TOL and worst_receiver <= COMPLETENESS_TOL
        return {"passed": passed, "sender_deviation": worst_sender,
                "receiver_excess": worst_receiver}

    def zero_error_report(self) -> ZeroErrorReport:
        """Exhaustive check of Tr((A_i^s (x) B_t^j) rho) = 0 for i != j, P(t|s) > 0.

        With unit f_s that value is sum G[s,u]^2 / d over the members u of t
        carrying message j, plus (1 - sum G[s,u]^2 over all members) / d for
        j = 1 from the completion operator. One instance per (s, t) and per
        message j != i among t's messages and message 1. Instances run in the
        order messages first appear among the inputs, then s, then t in row
        order, then j ascending; the witness is the first worst one.
        """
        c, m1 = self.channel, self.M + 1
        _, first, inverse = np.unique(self.messages, return_index=True,
                                      return_inverse=True)
        senders = np.argsort(first[inverse], kind="stable")
        st_pos, st_t = _gather(*c.rows(), self.inputs[senders])
        st_s = senders[st_pos]
        n = len(st_t)
        e_st, e_u = _gather(self._recv_indptr, self._recv_rows, st_t)
        vals = self.gram[st_s[e_st], e_u] ** 2
        total = np.bincount(e_st, weights=vals, minlength=n)
        slot = e_st * m1 + self.messages[e_u]
        by_msg = np.bincount(slot, weights=vals, minlength=n * m1).reshape(n, m1)
        by_msg[:, 1] += 1.0 - total  # completion operator
        counted = np.bincount(slot, minlength=n * m1).reshape(n, m1) > 0
        counted[:, 1] = True
        counted[np.arange(n), self.messages[st_s]] = False
        value = np.abs(by_msg[counted]) / self.dim
        worst = float(value.max()) if value.size else 0.0
        passed = worst <= ZERO_ERROR_TOL
        witness = None
        if not passed:
            st, j = (a[int(np.argmax(value))] for a in np.nonzero(counted))
            s = st_s[st]
            witness = (int(self.messages[s]), int(j),
                       c.inputs[self.inputs[s]], c.outputs[st_t[st]])
        return ZeroErrorReport(passed, worst, int(value.size), witness)


def protocol_from_cert(cert: EntCert, chan: Channel) -> Protocol:
    """Build and fully verify the protocol realizing a packing certificate.

    Accepts certificates whose rho is a scaled identity (even-weight or
    complete-graph cliques, and the one-dimensional classical embedding) or a
    scaled projector (weight-(n+1)/2 cliques); in the projector case vectors
    are re-expressed in an orthonormal basis of the projector's range, which
    preserves all inner products.
    """
    g = cert.graph
    if chan.inputs != [g.vertex_label(i) for i in range(g.vertex_count)]:
        raise InvalidParameterError("channel inputs do not match the certificate's graph")

    inputs, messages, stack = cert.verts, cert.msgs, cert.ops
    twice = np.flatnonzero(np.diff(inputs) == 0)
    if twice.size:
        k = int(twice[0])
        raise ProtocolError(f"vertex {inputs[k]} carries two messages "
                            f"({messages[k]} and {messages[k + 1]})")
    # unit vectors f with num proportional to f f^T (sign immaterial)
    vectors = rank_one_row(stack).astype(np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    if not norms.all():
        raise ProtocolError("operator numerator is not a rank-one outer product")
    vectors /= norms[:, None]
    rho = cert.rho_num
    if not np.array_equal(rho, rho[0, 0] * np.eye(cert.dim, dtype=rho.dtype)):
        evals, evecs = np.linalg.eigh(rho.astype(np.float64))
        vectors = vectors @ evecs[:, evals > evals[-1] / 2.0]
    proto = Protocol(chan, cert.M, inputs, messages, vectors)

    comp = proto.completeness_report()
    if not comp["passed"]:
        raise ProtocolError(f"measurement completeness violated: {comp}")
    report = proto.zero_error_report()
    if not report.passed:
        raise ProtocolError(f"zero-error condition violated by "
                            f"{report.max_violation:.3e} at {report.witness}")
    return proto


@dataclass(frozen=True)
class Transcript:
    message: int
    sender_outcome: str
    channel_output: str
    distribution: tuple[float, ...]
    decoded: int

    @property
    def correct(self) -> bool:
        return self.decoded == self.message

    def to_json(self) -> dict:
        return {"message": self.message, "sender_outcome": self.sender_outcome,
                "channel_output": self.channel_output,
                "distribution": list(self.distribution), "decoded": self.decoded,
                "correct": self.correct}


def simulate_transmission(proto: Protocol, message: int, seed: int = 0) -> Transcript:
    """Run the protocol once over ``proto.channel`` for one message, with an RNG seed.

    The sender's outcome s is drawn with probability Tr(A_i^s)/d over the
    message's inputs, then the channel output t from row s, from the two
    uniforms of ``default_rng(seed).random(2)``: the draws two calls of
    ``Generator.choice(a, p=p)`` make. By the maximally-entangled trace
    identity, the receiver's outcome j then has probability
    sum G[s,u]^2 / G[s,s] over the members u of t carrying j, plus the
    completion term for j = 1: one row of the Gram matrix.
    """
    if message not in proto._senders:
        raise InvalidParameterError(f"message {message} not in 1..{proto.M}")
    chan, u = proto.channel, np.random.default_rng(seed).random(2)
    rows, cdf = proto._senders[message]
    k = int(rows[cdf.searchsorted(u[0], side="right")])
    s = int(proto.inputs[k])
    idx, probs = chan.row(s)
    cdf = (probs / probs.sum()).cumsum()
    t = int(idx[(cdf / cdf[-1]).searchsorted(u[1], side="right")])
    r = proto.receivers(t)
    overlap = proto.gram[k, r] ** 2 / proto.gram[k, k]
    dist = np.bincount(proto.messages[r] - 1, weights=overlap, minlength=proto.M)
    dist[0] += 1.0 - overlap.sum()
    dist = np.maximum(dist, 0.0)
    decoded = int(np.argmax(dist)) + 1
    return Transcript(message, chan.inputs[s], chan.outputs[t],
                      tuple(dist.tolist()), decoded)

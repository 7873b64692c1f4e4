"""Noisy channels, confusability graphs, and entanglement-assisted protocols.

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

from dataclasses import dataclass

import numpy as np

from .bitgraph import BitGraph, row_blocks
from .entcert import EntCert, rank_one_row
from .errors import InvalidParameterError, ProtocolError

ROW_SUM_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
ZERO_ERROR_TOL = 1e-9


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


class Channel:
    """Discrete memoryless channel with sparse row storage.

    Row x lists the outputs that input x reaches with positive probability,
    with those probabilities; each row must sum to one. Rows are stored back
    to back (CSR): row x is entries ``_indptr[x]:_indptr[x + 1]``.
    """

    def __init__(self, inputs: list[str], outputs: list[str],
                 rows: list[tuple[np.ndarray, np.ndarray]]):
        if len(rows) != len(inputs):
            raise InvalidParameterError("one probability row per input required")
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        sizes = [np.size(i) for i, _ in rows]
        if sizes != [np.size(p) for _, p in rows]:
            raise InvalidParameterError("each row needs one probability per output")
        row_of = np.repeat(np.arange(len(rows)), sizes)
        idx = np.concatenate([np.zeros(0)] + [np.ravel(i) for i, _ in rows])
        idx = idx.astype(np.int64)
        probs = np.concatenate([np.zeros(0)] + [np.ravel(p) for _, p in rows])
        bad = (probs < 0) | (idx < 0) | (idx >= len(self.outputs))
        if bad.any():
            raise InvalidParameterError(f"negative probability or output index "
                                        f"out of range in row {row_of[np.argmax(bad)]}")
        keys = np.sort(row_of * len(self.outputs) + idx)
        if (keys[1:] == keys[:-1]).any():
            raise InvalidParameterError("an output is listed twice in one row")
        sums = np.bincount(row_of, weights=probs, minlength=len(rows))
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        if off.any():
            x = int(np.argmax(off))
            raise InvalidParameterError(f"row {x} sums to {sums[x]}, not 1")
        keep = probs > 0
        self._row_of, self._idx, self._probs = row_of[keep], idx[keep], probs[keep]
        self._indptr = np.searchsorted(self._row_of, np.arange(len(rows) + 1))
        self._members = None

    @property
    def input_count(self) -> int:
        return len(self.inputs)

    def row(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._indptr[x], self._indptr[x + 1]
        return self._idx[lo:hi], self._probs[lo:hi]

    def sample_output(self, x: int, rng: np.random.Generator) -> int:
        idx, probs = self.row(x)
        return int(rng.choice(idx, p=probs / probs.sum()))

    def members_by_output(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, inputs) of the inputs that can produce each output, cached.

        The members of output t, in ascending input order, are
        ``inputs[indptr[t]:indptr[t + 1]]``.
        """
        if self._members is None:
            order = np.argsort(self._idx, kind="stable")
            indptr = np.searchsorted(self._idx[order], np.arange(len(self.outputs) + 1))
            self._members = (indptr, self._row_of[order])
        return self._members


def confusable_pairs(c: Channel) -> np.ndarray:
    """Input pairs a < b that share an output, as a row-major sorted (E, 2) array."""
    indptr, members = c.members_by_output()
    found = [np.zeros((0, 2), dtype=np.int64)]
    for groups in _groups_by_size(indptr, members):
        a, b = np.triu_indices(groups.shape[1], 1)
        found.append(np.stack([groups[:, a].ravel(), groups[:, b].ravel()], axis=1))
    n = c.input_count
    keys = np.sort(np.concatenate(found) @ np.array([n, 1]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack([keys // n, keys % n], axis=1)


def confusability_graph(c: Channel) -> BitGraph:
    """Unnamed graph on channel inputs; an edge where two inputs share an output."""
    return BitGraph(max(1, (c.input_count - 1).bit_length()),
                    np.arange(c.input_count), ("explicit", confusable_pairs(c)))


def canonical_channel(g) -> Channel:
    """Channel whose confusability graph is exactly g.

    Inputs are the vertices; outputs are the vertices plus the edges; input u
    reaches its own private output and one shared output per incident edge,
    uniformly. The confusable pairs of the built channel are checked to be
    exactly the edges of g.
    """
    nv = g.vertex_count
    edges = g.edge_array()
    labels = [g.vertex_label(i) for i in range(nv)]
    outputs = labels + [f"{labels[i]}|{labels[j]}"
                        for i, j in zip(edges[:, 0].tolist(), edges[:, 1].tolist())]
    src = np.concatenate([np.arange(nv), edges.T.ravel()])
    dst = np.concatenate([np.arange(nv), nv + np.tile(np.arange(len(edges)), 2)])
    order = np.lexsort((dst, src))
    bounds = np.cumsum(np.bincount(src, minlength=nv))[:-1]
    rows = [(idx, np.full(idx.size, 1.0 / idx.size))
            for idx in np.split(dst[order], bounds)]
    chan = Channel(labels, outputs, rows)
    if not np.array_equal(confusable_pairs(chan), edges):
        raise InvalidParameterError("canonical channel round-trip mismatch")
    return chan


def check_zero_error_code(c: Channel, words: list[tuple[int, ...]]):
    """True iff every pair of words has a coordinate with disjoint supports.

    Two words are confusable when each coordinate is equal or adjacent in
    ``confusability_graph(c)``: one ``adjacency_among`` per coordinate.
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
    g, count = confusability_graph(c), len(words)
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
    F F^T over the rows of ``vectors``.
    """

    channel: Channel
    dim: int
    M: int
    inputs: np.ndarray
    messages: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.gram = self.vectors @ self.vectors.T
        row_of = np.full(self.channel.input_count, -1, dtype=np.int64)
        row_of[self.inputs] = np.arange(len(self.inputs))
        # Receivers: per output, the vector rows of the inputs that reach it.
        indptr, members = self.channel.members_by_output()
        rows = row_of[members]
        self._recv_rows = rows[rows >= 0]
        self._recv_indptr = np.concatenate(([0], np.cumsum(rows >= 0)))[indptr]
        self._senders = {}
        for i in np.flatnonzero(np.bincount(self.messages)).tolist():
            k = np.flatnonzero(self.messages == i)
            p = np.diagonal(self.gram)[k] / self.dim
            self._senders[i] = (k, p / p.sum())

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
        st_pos, st_t = _gather(c._indptr, c._idx, self.inputs[senders])
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
    if chan.input_count != g.vertex_count:
        raise InvalidParameterError(
            "channel inputs do not match the certificate's graph")
    labels = [g.vertex_label(i) for i in range(g.vertex_count)]
    if chan.inputs != labels:
        raise InvalidParameterError("channel input labels do not match the graph")

    keys = sorted(cert.ops)
    inputs = np.array([u for u, _ in keys], dtype=np.int64)
    messages = np.array([i for _, i in keys], dtype=np.int64)
    twice = np.flatnonzero(np.diff(inputs) == 0)
    if twice.size:
        (u, i), (_, j) = keys[twice[0]], keys[twice[0] + 1]
        raise ProtocolError(f"vertex {u} carries two messages ({i} and {j})")
    # unit vectors f with num proportional to f f^T (sign immaterial)
    stack = np.array([cert.ops[k] for k in keys]).reshape(-1, cert.dim, cert.dim)
    vectors = rank_one_row(stack).astype(np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    if not norms.all():
        raise ProtocolError("operator numerator is not a rank-one outer product")
    vectors /= norms[:, None]
    rho = cert.rho_num
    scaled_identity = np.array_equal(rho, rho[0, 0] * np.eye(cert.dim, dtype=rho.dtype))
    if scaled_identity:
        d = cert.dim
    else:
        evals, evecs = np.linalg.eigh(rho.astype(np.float64))
        keep = evals > evals[-1] / 2.0
        d = int(keep.sum())
        vectors = vectors @ evecs[:, keep]
    proto = Protocol(chan, d, cert.M, inputs, messages, vectors)

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
    message's inputs, then the channel output t from row s. By the
    maximally-entangled trace identity, the receiver's outcome j then has
    probability sum G[s,u]^2 / G[s,s] over the members u of t carrying j,
    plus the completion term for j = 1: one row of the Gram matrix.
    """
    if message not in proto._senders:
        raise InvalidParameterError(f"message {message} not in 1..{proto.M}")
    chan, rng = proto.channel, np.random.default_rng(seed)
    rows, p = proto._senders[message]
    k = int(rng.choice(rows, p=p))
    s = int(proto.inputs[k])
    t = chan.sample_output(s, rng)
    r = proto.receivers(t)
    overlap = proto.gram[k, r] ** 2 / proto.gram[k, k]
    dist = np.bincount(proto.messages[r] - 1, weights=overlap, minlength=proto.M)
    dist[0] += 1.0 - overlap.sum()
    dist = np.maximum(dist, 0.0)
    decoded = int(np.argmax(dist)) + 1
    return Transcript(message, chan.inputs[s], chan.outputs[t],
                      tuple(dist.tolist()), decoded)

"""Entanglement-assisted protocols over the canonical channel of a graph.

The canonical channel of a graph g, whose confusability graph is exactly g,
is fixed by g's vertices and edges, so the protocol reads it from g. Its
inputs are the vertices; its outputs are the vertices, then the edges,
|V| + |E| in all. Input u reaches its private output u and the shared output
of each edge at u, each with probability 1/(deg u + 1), so two inputs share
an output exactly when they are adjacent. Output u is labelled
``g.vertex_label(u)``; the edge output of a and b is "a|b", lower index
first.

The protocol construction follows the one-shot scheme: sender and receiver
share a maximally entangled state of local dimension d; to send message i the
sender measures with the rank-one projectors of the i-th clique's
representation, transmits her outcome through the channel, and the receiver
measures with projectors grouped by which clique could have produced the
channel output. Orthogonality across cliques through every shared output
makes the decoding exact.

The protocol is proved by its packing (``entcert.packing_proof``), in exact
integers and with no operator formed: each clique's rows are an orthonormal
basis of the rows' span, the cliques are disjoint, and adjacent rows are
orthogonal. So every sender measurement is complete and uniform, every
receiver measurement orthogonal, every zero-error instance exactly 0, and
the receiver decodes the sent message with probability 1. A simulation
draws the sender's outcome and the channel output uniformly and reports
that decoding; the float forms of the measurements are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitgraph import MAX_VERTICES
from .entcert import packing_proof
from .errors import ResourceLimitError


@dataclass
class Protocol:
    """One-shot entanglement-assisted protocol over the canonical channel of
    ``graph``, as proved by ``protocol_from_packing``: message i's channel
    inputs are row i - 1 of ``rows``, (M, dim) vertex indices. Sender row k
    is input ``inputs[k]`` of ``rows.ravel()``, with message ``messages[k]``.

    Each message's rows are an orthonormal basis of one ``dim``-dimensional
    space, so the sender draws each of its inputs with probability 1/dim,
    and the receiver, whose measurement for an output groups the projectors
    of the inputs that can produce it by message, decodes the message with
    certainty. ``dim`` is the clique size: n + 1 for H, n for G (its rows
    lie in the ones-hyperplane); a certificate's ``dim`` is its matrix
    order, n + 1 for both.

    The channel rows of the inputs come from one ``adjacency_among(inputs,
    all vertices)``, never from an edge numbering: row k is its vertex
    output, then its edge outputs by neighbour ascending, the channel's own
    order. An output of row k is received by the rows {k, l} when it is the
    edge to the input of row l, and by {k} alone otherwise: those outputs
    are solo. The receiver pairs (k, l) are listed in row order.
    """

    graph: object
    rows: np.ndarray

    def __post_init__(self):
        g, (self.M, self.dim), count = self.graph, self.rows.shape, self.rows.size
        self.inputs = self.rows.ravel()
        self.messages = np.repeat(np.arange(1, self.M + 1), self.dim)
        row_k, self._neighbours = np.nonzero(
            g.adjacency_among(self.inputs, np.arange(g.vertex_count)))
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(row_k, minlength=count))))
        row_of = np.full(g.vertex_count, -1, dtype=np.int64)
        row_of[self.inputs] = np.arange(count)
        peer = row_of[self._neighbours]
        self._pairs = np.stack([row_k, peer], axis=1)[peer >= 0]

    @property
    def zero_error_instances(self) -> int:
        """The number of instances Tr((A_i^s (x) B_t^j) rho) = 0 that the
        proof gives: per sender row k with message i and output t of
        its row, one per message j != i among t's members and message 1 (the
        completion). A solo output of row k counts [i != 1]; a receiver pair
        (k, l) counts [m_l != i] + [i != 1 and m_l != 1]."""
        k, l = self._pairs.T
        i, j = self.messages[k], self.messages[l]
        solo = np.diff(self._indptr) + 1 - np.bincount(k, minlength=self.rows.size)
        return int(solo @ (self.messages != 1) + np.count_nonzero(j != i)
                   + np.count_nonzero((i != 1) & (j != 1)))

    def transcript(self, message: int, k: int, pos: int) -> dict:
        """The printed record of ``message`` sent from row k through output
        ``pos`` of the row (0: the sender's own), decoded as the row's message."""
        s, lo, decoded = int(self.inputs[k]), int(self._indptr[k]), int(self.messages[k])
        label = self.graph.vertex_label
        sender = output = label(s)
        if pos:  # the edge output: lower index first
            t = int(self._neighbours[lo + pos - 1])
            output = f"{sender}|{label(t)}" if s < t else f"{label(t)}|{sender}"
        return {"message": message, "sender_outcome": sender, "channel_output": output,
                "distribution": [0.0] * (decoded - 1) + [1.0] + [0.0] * (self.M - decoded),
                "decoded": decoded, "correct": decoded == message}


def protocol_from_packing(packing) -> Protocol:
    """The protocol of a clique packing over its graph's canonical channel,
    proved by its packing: message i is the i-th clique, whose rows are an
    orthonormal basis of the rows' span, so ``dim`` is the clique size.

    More than ``MAX_VERTICES`` channel outputs are refused before the proof
    runs; a failed proof raises ``CertificateError``.
    """
    g = packing.graph
    outputs = g.vertex_count + g.edge_count
    if outputs > MAX_VERTICES:
        raise ResourceLimitError(f"canonical channel of {g.graph_ref()} would have "
                                 f"{outputs} outputs, over the cap {MAX_VERTICES}")
    packing_proof(packing)
    return Protocol(g, g.indices_of(packing.cliques))


SIM_BLOCK = 1 << 14  # trials per block of draws: bounds the arrays a simulation holds
MAX_TRIALS = 10**9  # the most trials ``channel-sim`` runs: about a minute


def simulate(proto: Protocol, trials: int, rngs, shown: int = 20) -> list[dict]:
    """Run the protocol ``trials`` times over its graph's channel, trial t
    sending message t % M + 1; return the first ``shown`` transcripts.

    Of the generator pair rngs (``default_rng(seed).spawn(2)``), the first
    draws the sender's row uniformly among the message's dim inputs (an
    orthonormal basis, each with Tr(A_i^s)/d = 1/dim), the second the output
    uniformly from that row. Trials run in blocks of ``SIM_BLOCK``; each
    stream is read in trial order, and numpy's bounded array draws match its
    scalar draws one for one, so the first trials come out the same whatever
    ``trials``. The receiver decodes the row's message with certainty, as
    ``protocol_from_packing`` proves, and the row lies in the sent message's
    block, so no trial fails; only the returned transcripts are formed.
    """
    senders, outputs = rngs
    degrees = np.diff(proto._indptr)
    transcripts = []
    for start in range(0, trials, SIM_BLOCK):
        messages = np.arange(start, min(start + SIM_BLOCK, trials)) % proto.M + 1
        k = (messages - 1) * proto.dim + senders.integers(proto.dim, size=messages.size)
        pos = outputs.integers(degrees[k] + 1)
        head = slice(max(shown - start, 0))
        transcripts += map(proto.transcript, messages[head].tolist(), k[head].tolist(),
                           pos[head].tolist())
    return transcripts

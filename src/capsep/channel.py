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

import numpy as np

from .bitgraph import MAX_VERTICES
from .entcert import packing_proof
from .errors import ResourceLimitError


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

    The channel rows of the inputs are read from one matrix, ``adjacency =
    adjacency_among(inputs, all vertices)``, (M dim, |V|) bool, never from
    an edge numbering: row k is its vertex output, then its edge outputs by
    neighbour ascending, the channel's own order. An output of row k is
    received by the rows {k, l} when it is the edge to the input of row l,
    and by {k} alone otherwise: those outputs are solo.
    """

    def __init__(self, graph, rows: np.ndarray):
        self.graph, self.rows, (self.M, self.dim) = graph, rows, rows.shape
        self.inputs = rows.ravel()
        self.messages = np.repeat(np.arange(1, self.M + 1), self.dim)
        self.adjacency = graph.adjacency_among(self.inputs, np.arange(graph.vertex_count))

    @property
    def zero_error_instances(self) -> int:
        """The number of instances Tr((A_i^s (x) B_t^j) rho) = 0 that the
        proof gives: per sender row k with message i and output t of
        its row, one per message j != i among t's members and message 1 (the
        completion). A solo output of row k counts [i != 1]; a receiver pair
        (k, l) counts [m_l != i] + [i != 1 and m_l != 1]."""
        k, l = np.nonzero(self.adjacency[:, self.inputs])
        i, j = self.messages[k], self.messages[l]
        solo = self.adjacency.sum(1) + 1 - np.bincount(k, minlength=self.rows.size)
        return int(solo @ (self.messages != 1) + np.count_nonzero(j != i)
                   + np.count_nonzero((i != 1) & (j != 1)))

    def transcript(self, message: int, k: int, pos: int) -> dict:
        """The printed record of ``message`` sent from row k through output
        ``pos`` of the row (0: the sender's own), decoded as the row's message."""
        s, decoded = int(self.inputs[k]), int(self.messages[k])
        label = self.graph.vertex_label
        sender = output = label(s)
        if pos:  # the edge output: lower index first
            t = int(np.flatnonzero(self.adjacency[k])[pos - 1])
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


MAX_TRIALS = 10**9  # the most trials ``channel-sim`` counts; it draws only those it prints


def simulate(proto: Protocol, trials: int, rngs) -> list[dict]:
    """The transcripts of ``trials`` runs of the protocol over its graph's
    channel, trial t sending message t % M + 1.

    Of the generator pair rngs (``default_rng(seed).spawn(2)``), the first
    draws the sender's row uniformly among the message's dim inputs (an
    orthonormal basis, each with Tr(A_i^s)/d = 1/dim), the second the output
    uniformly from that row, one array draw each. Each stream is read in
    trial order, and numpy's bounded array draws match its scalar draws one
    for one, so the first trials come out the same whatever ``trials``: a
    caller that prints a prefix draws only that prefix. The receiver decodes
    the row's message with certainty, as ``protocol_from_packing`` proves,
    and the row lies in the sent message's block, so no trial fails.
    """
    senders, outputs = rngs
    messages = np.arange(trials) % proto.M + 1
    k = (messages - 1) * proto.dim + senders.integers(proto.dim, size=trials)
    pos = outputs.integers(proto.adjacency.sum(1)[k] + 1)
    return list(map(proto.transcript, messages.tolist(), k.tolist(), pos.tolist()))

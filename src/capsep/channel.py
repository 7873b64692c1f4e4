"""The canonical channel of a graph, and entanglement-assisted protocols over it.

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
the receiver decodes the sent message with probability 1. So a simulation
draws the sender's outcome and the channel output uniformly and reports the
decoding the proof gives; no float form of the measurements is built, and
the float forms are test oracles.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cache, cached_property

import numpy as np

from .bitgraph import MAX_VERTICES
from .entcert import VerificationReport, packing_proof
from .errors import ResourceLimitError


class _Labels(Sequence):
    """Read-only labels, each formed when read: entry t is ``label(t)``; negative
    indices work as on a list and an index past the end raises ``IndexError``."""

    def __init__(self, count: int, label):
        self._count, self._label = count, label

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, t) -> str:
        return self._label(range(self._count)[operator.index(t)])


class Channel:
    """The canonical channel of a graph g, whose confusability graph is g.

    Inputs are the vertices; outputs are the vertices, then the edges of
    ``g.edge_array()``. Input u reaches its private output u and the shared
    output |V| + e of each edge e at u, each with probability 1/(deg u + 1),
    so two inputs share an output exactly when they are adjacent; row u lists
    them ascending: u, then its edges by neighbour ascending.

    Building it counts the outputs, |V| + |E| (refusing more than
    ``MAX_VERTICES`` before any work); nothing more. ``inputs`` and
    ``outputs`` are label views, formed entry by entry when read; an input
    label is formed once (``input_label``), as every edge output's label
    reads two. The global edge numbering ``edges`` is listed on first use,
    by an edge output's label; a ``Protocol`` never uses it.
    """

    def __init__(self, graph):
        count = graph.vertex_count + graph.edge_count
        if count > MAX_VERTICES:
            raise ResourceLimitError(f"canonical channel of {graph.graph_ref()} would have "
                                     f"{count} outputs, over the cap {MAX_VERTICES}")
        self.graph = graph
        self.input_label = cache(graph.vertex_label)
        self.inputs = _Labels(graph.vertex_count, self.input_label)
        self._output_count = count

    @property
    def input_count(self) -> int:
        return len(self.inputs)

    @property
    def outputs(self) -> _Labels:
        """The output labels; formed when read, so the channel holds no view
        of itself and is freed as soon as its last reference goes."""
        return _Labels(self._output_count, self._output_label)

    @cached_property
    def edges(self) -> np.ndarray:
        """The (E, 2) edges i < j, row-major: output |V| + e is edge ``edges[e]``."""
        return self.graph.edge_array()

    def _output_label(self, t: int) -> str:
        if t < self.input_count:
            return self.input_label(t)
        return self.edge_label(*self.edges[t - self.input_count].tolist())

    def edge_label(self, a: int, b: int) -> str:
        """Label of the output shared by adjacent inputs a and b: "a|b", lower index first."""
        a, b = sorted((a, b))
        return f"{self.input_label(a)}|{self.input_label(b)}"


def canonical_channel(g) -> Channel:
    """Channel whose confusability graph is exactly g (see ``Channel``).

    More than ``MAX_VERTICES`` outputs are refused before any of them is built.
    """
    return Channel(g)


# -- protocols -----------------------------------------------------------------


@dataclass
class Protocol:
    """One-shot entanglement-assisted protocol bound to a channel, as proved
    by ``protocol_from_packing``.

    Channel input u = ``inputs[k]`` (ascending) carries message
    ``messages[k]``; other inputs are used by no sender measurement. Each
    message's rows are an orthonormal basis of one ``dim``-dimensional
    space, so the sender draws each of a message's inputs with probability
    1/dim, and the receiver, whose measurement for an output groups the
    projectors of the inputs that can produce it by message, decodes the
    message with certainty. ``dim`` is this local dimension, the clique
    size: n + 1 for H, n for G (its rows lie in the ones-hyperplane); a
    certificate's ``dim`` is its matrix order, n + 1 for both.

    The channel rows of the inputs come from one ``adjacency_among(inputs,
    all vertices)``, never from the channel's edge numbering: row k is its
    vertex output, then its edge outputs by neighbour ascending, the
    channel's own order. An output of row k is received by the rows
    {k, l} when it is the edge to the input of row l, and by {k} alone
    otherwise: those outputs are solo. The receiver pairs (k, l) are listed
    in row order.
    """

    channel: Channel
    M: int
    inputs: np.ndarray
    messages: np.ndarray
    dim: int

    def __post_init__(self):
        g, count = self.channel.graph, len(self.inputs)
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
        count = len(self.inputs)
        k, l = self._pairs.T
        i, j = self.messages[k], self.messages[l]
        solo = np.diff(self._indptr) + 1 - np.bincount(k, minlength=count)
        return int(solo @ (self.messages != 1) + np.count_nonzero(j != i)
                   + np.count_nonzero((i != 1) & (j != 1)))

    def transcript(self, message: int, k: int, pos: int) -> Transcript:
        """Message sent from row k, through output ``pos`` of the row (0: the
        sender's own output), decoded as the row's message."""
        s, lo, decoded = int(self.inputs[k]), int(self._indptr[k]), int(self.messages[k])
        sender = self.channel.input_label(s)
        output = self.channel.edge_label(s, int(self._neighbours[lo + pos - 1])) if pos else sender
        distribution = (0.0,) * (decoded - 1) + (1.0,) + (0.0,) * (self.M - decoded)
        return Transcript(message, sender, output, distribution, decoded)


def protocol_from_packing(packing) -> tuple[Protocol, VerificationReport]:
    """The protocol of a clique packing over its graph's canonical channel,
    and the packing's proof: message i is the i-th clique, whose rows are an
    orthonormal basis of the rows' span, so ``dim`` is the clique size.

    The channel is built first, so its output cap refuses before the proof
    runs; a failed proof raises ``CertificateError``.
    """
    g = packing.graph
    chan = canonical_channel(g)
    proof = packing_proof(packing)
    verts = g.indices_of(packing.cliques).ravel()
    order = np.argsort(verts)  # the cliques are disjoint: no ties
    messages = np.repeat(np.arange(1, packing.count + 1), packing.clique_size)
    return Protocol(chan, packing.count, verts[order], messages[order],
                    packing.clique_size), proof


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
        return {**asdict(self), "distribution": list(self.distribution), "correct": self.correct}


SIM_BLOCK = 1 << 14  # trials per block of draws: bounds the arrays a simulation holds
MAX_TRIALS = 10**9  # the most trials ``channel-sim`` runs: about a minute


def simulate(proto: Protocol, trials: int, rngs, shown: int = 20) -> tuple[int, list[Transcript]]:
    """Run the protocol ``trials`` times over ``proto.channel``, trial t sending
    message t % M + 1; return the failures and the first ``shown`` transcripts.

    Of the generator pair rngs (``default_rng(seed).spawn(2)``), the first
    draws the sender's row uniformly among the message's dim inputs (an
    orthonormal basis, each with Tr(A_i^s)/d = 1/dim), the second the output
    uniformly from that row. Trials run in blocks of ``SIM_BLOCK``; each
    stream is read in trial order, and numpy's bounded array draws match its
    scalar draws one for one, so the first trials come out the same whatever
    ``trials``. The receiver decodes the row's message with certainty, as
    ``protocol_from_packing`` proves; only the returned transcripts are formed.
    """
    senders, outputs = rngs
    rows = np.argsort(proto.messages, kind="stable").reshape(proto.M, proto.dim)
    degrees = np.diff(proto._indptr)
    failures, transcripts = 0, []
    for start in range(0, trials, SIM_BLOCK):
        messages = np.arange(start, min(start + SIM_BLOCK, trials)) % proto.M + 1
        k = rows[messages - 1, senders.integers(proto.dim, size=messages.size)]
        pos = outputs.integers(degrees[k] + 1)
        failures += int(np.count_nonzero(proto.messages[k] != messages))
        head = slice(max(shown - start, 0))
        transcripts += map(proto.transcript, messages[head].tolist(), k[head].tolist(),
                           pos[head].tolist())
    return failures, transcripts

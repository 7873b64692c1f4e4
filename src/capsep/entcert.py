"""Exact operator-system certificates for entangled zero-error lower bounds.

A certificate holds a trace-1 PSD operator rho and a family of PSD operators,
one per (vertex, message) pair, satisfying three exact conditions: the
operators of each message sum to rho; operators of one vertex with different
messages annihilate; and operators of adjacent vertices with different
messages annihilate. A verified certificate with M messages shows the
one-shot entangled independence number is at least M.

capsep's certificates are clique packings: message i is the i-th clique, and
the operator at its vertex u is w w^T for the ``OrthoRep`` row w of u. Such a
certificate is fixed by its cliques and proved by its packing
(``packing_proof``), with no operator formed; its file holds the cliques and
is proved again by ``verify_json``."""

from __future__ import annotations

import json
from itertools import chain, islice

from .bitgraph import graph_from_ref
from .errors import CertificateError, ConstructionError, InvalidParameterError
from .geometry import CliquePacking, OrthoRep

CONDITIONS = ("trace", "psd", "sum_to_rho", "same_vertex", "adjacent")
# The report of every proved packing: a failed proof raises instead.
PACKING_REPORT = {"mode": "packing", "passed": True,
                  "conditions": dict.fromkeys(CONDITIONS, True), "witnesses": []}
_PACKING_FORM = "a packing certificate has a G or H graph and no ops"


def packing_proof(packing: CliquePacking) -> tuple[int, int]:
    """Prove every condition of the packing's certificate (message i the i-th
    clique, w w^T at each vertex, for its ``OrthoRep`` row w), with no operator
    formed, and return the (M, dim) it proves; its report is ``PACKING_REPORT``.

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
    return packing.count, rep.dim


def _json_int(value) -> int:
    """A JSON integer; a float, a bool or any other value is malformed."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def verify_json(text: str | bytes) -> None:
    """Prove a certificate file (``cert``'s form) from scratch, with no operator
    formed: its G or H graph from the reference, its labels in one
    ``indices_of_labels`` batch, the ``CliquePacking`` constructor (sizes,
    reuse, adjacency), ``packing_proof`` and its M and dim against the proven
    ones. A failed proof raises ``CertificateError``. Malformed input, such as
    cliques other than lists of labels, and a file in any other form (one with
    ``ops``), raises ``InvalidParameterError``."""
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or "ops" in payload:
            raise ValueError(f"{_PACKING_FORM}; its fields are graph, M, dim and cliques")
        cliques, graph = payload["cliques"], graph_from_ref(str(payload["graph"]))
        claimed = tuple(_json_int(payload[k]) for k in ("M", "dim"))
        if graph.family not in ("G", "H"):
            raise ValueError(_PACKING_FORM)
        if type(cliques) is not list or not all(type(c) is list for c in cliques):
            raise ValueError("cliques must be a list of lists of vertex labels")
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
    proven = packing_proof(packing)
    if claimed != proven:
        raise CertificateError(f"packing certificate failed verification: the file claims "
                               f"(M, dim) = {claimed}, its packing proves {proven}")

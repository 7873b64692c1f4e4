"""Spans and counts around the public functions of each capsep layer.

The tracer wraps functions from outside the package: ``src/`` carries no
instrumentation. A function is replaced at every binding site the CLI path
uses (``find_hadamard`` is bound in ``cli``, ``report`` and ``hadamard``;
``build_G``/``build_H`` in ``bitgraph`` and ``geometry``), and a method is
replaced on its class. Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, op]``. A span's self time is its
duration minus the durations of its direct children; the layers are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# Functions traced, as (module, attribute path); a dotted path is a method.
# Small hot helpers (is_adjacent, index_of, vertex_label) stay unwrapped:
# their time is part of the caller's self time.
TRACED = [
    ("cli", "cli_main"),
    ("bitgraph", "build_G"),
    ("bitgraph", "build_H"),
    ("bitgraph", "BitGraph.adjacency_matrix"),
    ("hadamard", "find_hadamard"),
    ("geometry", "ortho_rep_G"),
    ("geometry", "ortho_rep_H"),
    ("geometry", "OrthoRep.verify"),
    ("geometry", "clique_from_hadamard_G"),
    ("geometry", "clique_from_hadamard_H"),
    ("geometry", "pack_cliques"),
    ("geometry", "restricted_independent_set"),
    ("entcert", "cert_from_packing"),
    ("entcert", "verify"),
    ("entcert", "cert_from_json"),
    ("entcert", "EntCert.to_json"),
    ("algebra_fp", "build_ST"),
    ("algebra_fp", "haemers_matrix"),
    ("algebra_fp", "rank_fp"),
    ("alpha", "max_independent_set"),
    ("channel", "canonical_channel"),
    ("channel", "confusability_graph"),
    ("channel", "protocol_from_cert"),
    ("channel", "Protocol.completeness_report"),
    ("channel", "Protocol.zero_error_report"),
    ("channel", "simulate_transmission"),
    ("report", "capacity_report"),
]

SPAN_NAMES = [f"{mod}.{path}" for mod, path in TRACED]


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


# Work counts read at the span boundary: name -> [(count, fn(args, result))].
COUNTERS = {
    "geometry.OrthoRep.verify":
        [("geometry.verify_pairs", lambda a, r: a[0].graph.vertex_count ** 2)],
    "geometry.pack_cliques": [("geometry.packing_count", lambda a, r: r.count)],
    "entcert.cert_from_packing": [("entcert.ops", lambda a, r: len(r.ops))],
    "entcert.verify": [("entcert.pairs", lambda a, r: _pairs(len(a[0].ops)))],
    "algebra_fp.rank_fp": [
        ("algebra_fp.rank", lambda a, r: r),
        ("algebra_fp.matrix_cells", lambda a, r: a[0].data.size),
    ],
    "alpha.max_independent_set": [("alpha.nodes", lambda a, r: r.nodes_explored)],
    "channel.canonical_channel": [("channel.outputs", lambda a, r: len(r.outputs))],
    "channel.Protocol.zero_error_report":
        [("channel.zero_error_instances", lambda a, r: r.instances)],
    "channel.simulate_transmission": [
        ("channel.trials", lambda a, r: 1),
        ("channel.failures", lambda a, r: int(not r.correct)),
    ],
}
GRAPH_BUILDERS = ("bitgraph.build_G", "bitgraph.build_H")
COUNT_NAMES = (["bitgraph.vertices", "bitgraph.edges"]
               + [c for spec in COUNTERS.values() for c, _ in spec])


class Tracer:
    """Installs span-recording wrappers into loaded ``capsep`` modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._graphs: list = []
        self._edges: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function still present; a missing one reads 0 calls."""
        modules = [m for name, m in sys.modules.items()
                   if name == "capsep" or name.startswith("capsep.")]
        for mod_name, path in TRACED:
            owner = sys.modules.get(f"capsep.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.add(f"{mod_name}.{path}")
                continue
            wrapped = self._wrap(f"{mod_name}.{path}", original)
            sites = [owner] if cls_path else \
                [m for m in modules if m.__dict__.get(attr) is original]
            for site in sites:
                self._restore.append((site, attr, original))
                setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        keeps_graph = name in GRAPH_BUILDERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            for count, read in counters:
                self.counts[self._op][count] += read(args, result)
            if keeps_graph:
                self._graphs.append(result)
            return result

        return traced

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self.counts[op] = Counter({c: 0 for c in COUNT_NAMES})
        self._graphs = []

    def end_op(self) -> None:
        """Stop recording, then count the vertices and edges of graphs built."""
        op, self._op = self._op, None
        for g in self._graphs:
            ref = g.graph_ref()
            if ref not in self._edges:
                self._edges[ref] = g.edge_count
            self.counts[op]["bitgraph.vertices"] += g.vertex_count
            self.counts[op]["bitgraph.edges"] += self._edges[ref]
        self._graphs = []

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: summed self seconds by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for (name, start, end, _, op), covered in zip(self.spans, child):
            per_op = out.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start - covered)
        return out

    def calls(self) -> dict[int, Counter]:
        out: dict[int, Counter] = {op: Counter() for op in self.counts}
        for name, _, _, _, op in self.spans:
            out[op][name] += 1
        return out

    def layer_metrics(self, scales: list[float]) -> dict[str, float]:
        """Median self seconds, each op's scaled by ``scales[op]``, and calls per op."""
        ops = sorted(self.counts)
        selfs, calls = self.self_times(), self.calls()
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = statistics.median(
                selfs.get(op, {}).get(name, 0.0) * scales[op] for op in ops)
            metrics[f"{name}.calls"] = statistics.median_low(calls[op][name] for op in ops)
        return metrics

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "op": op}
                for name, start, end, parent, op in self.spans]

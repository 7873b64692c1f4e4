import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capsep
from capsep.algebra_fp import HaemersResult
from capsep.alpha import verify_independent
from capsep.bitgraph import graph_from_ref
from capsep.channel import MAX_TRIALS
from capsep.cli import COMMANDS, build_parser, cli_main
from capsep.entcert import PACKING_REPORT
from capsep.errors import CertificateError
from conftest import (cert_from_packing, dense_h3_json, dense_names_in_library, drawn_indices,
                      float_protocol, transmission_by_gram, verify, zero_error_by_loop)


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _flip(row):
    row[1] = -row[1]


# What ``verify-cert`` prints for a file with ``ops``: the dense form it no longer reads
FORM_REFUSED = ("error: malformed certificate: a packing certificate has a G or H graph "
                "and no ops; its fields are graph, M, dim and cliques")

# Edits of the dense H3 certificate file (``dense_h3_json``), with the exit
# code and first stderr line of ``verify-cert`` on the result: whatever its
# content, a file with ``ops`` is refused by its form.
HOSTILE = {
    "repeated entry": (lambda doc: doc["ops"].append(doc["ops"][0]), 1, FORM_REFUSED),
    "ragged matrix": (lambda doc: doc["ops"][0]["matrix"][1].pop(), 1, FORM_REFUSED),
    "wrong-size rho": (lambda doc: doc.update(rho=[r[:-1] for r in doc["rho"][:-1]]),
                       1, FORM_REFUSED),
    "float entry": (lambda doc: doc["ops"][0]["matrix"][0].__setitem__(0, 1.0), 1, FORM_REFUSED),
    "empty ops": (lambda doc: doc.update(ops=[]), 1, FORM_REFUSED),
    "flipped entry": (lambda doc: _flip(doc["ops"][0]["matrix"][0]), 1, FORM_REFUSED),
    "H3xH3 product": (lambda doc: doc.update(graph="H3xH3"), 1, FORM_REFUSED),
    "label +011": (lambda doc: doc["ops"][0].update(vertex="+011"), 1, FORM_REFUSED),
    "no rho": (lambda doc: doc.pop("rho"), 1, FORM_REFUSED),
    "2x2 matrix": (lambda doc: doc["ops"][0].update(matrix=[[1, 0], [0, 1]]), 1, FORM_REFUSED),
    # message labels outside int64 and outside 1..M
    **{f"message {i}": (lambda doc, i=i: doc["ops"][0].update(i=i), 1, FORM_REFUSED)
       for i in (2**63, -(2**63) - 1, 2**63 - 1, -(2**63), 0, 2)},
    "no ops field": (lambda doc: doc.pop("ops"),  # neither form: named by cert's form
                     1, "error: certificate is missing field 'cliques'"),
}


def _unused_non_neighbour(doc):
    """The first vertex of the file's G11 that no clique uses and that is not
    adjacent to clique 0's second member (distance 6 is G11's adjacency)."""
    used = {int(u, 2) for c in doc["cliques"] for u in c}
    other = int(doc["cliques"][0][1], 2)
    return next(capsep.bitgraph.word_label(w, 11) for w in capsep.build_G(11).bits_array.tolist()
                if w not in used and (w ^ other).bit_count() != 6)


# Edits of the packing certificate ``cert --family G --n 11`` writes (M = 4,
# cliques of 11), with the exit code of ``verify-cert`` and a phrase of its
# first stderr line; exit 2 prints nothing to stdout.
PACKING_HOSTILE = {
    "unknown label": (lambda doc: doc["cliques"][0].__setitem__(0, "+" + doc["cliques"][0][0]),
                      1, "error: unknown vertex '+"),
    "label of H": (lambda doc: doc["cliques"][0].__setitem__(0, "0" * 11),
                   1, "error: unknown vertex '00000000000' in G11"),
    "integer label": (lambda doc: doc["cliques"][0].__setitem__(0, 5),
                      1, "error: unknown vertex 5 in G11"),
    "no cliques field": (lambda doc: doc.pop("cliques"),
                         1, "error: certificate is missing field 'cliques'"),
    "no graph field": (lambda doc: doc.pop("graph"),
                       1, "error: certificate is missing field 'graph'"),
    "cliques and ops": (lambda doc: doc.update(ops=[]),
                        1, "error: malformed certificate: a packing certificate has a G or H "
                           "graph and no ops"),
    "cliques not lists": (lambda doc: doc.update(cliques=[5]),
                          1, "error: malformed certificate: cliques must be a list of lists"),
    "labels not in lists": (lambda doc: doc.update(cliques=["0" * 11]),
                            1, "error: malformed certificate: cliques must be a list of lists"),
    "cliques as objects": (lambda doc: doc.update(cliques=[dict.fromkeys(c, 0)
                                                           for c in doc["cliques"]]),
                           1, "error: malformed certificate: cliques must be a list of lists"),
    "cliques an object": (lambda doc: doc.update(cliques=dict(enumerate(doc["cliques"]))),
                          1, "error: malformed certificate: cliques must be a list of lists"),
    "product graph": (lambda doc: doc.update(graph="C5xC5"),
                      1, "error: malformed certificate: a packing certificate has a G or H"),
    "complete graph": (lambda doc: doc.update(graph="K3"),
                       1, "error: malformed certificate: a packing certificate has a G or H"),
    "no clique": (lambda doc: doc.update(cliques=[]), 1, "error: packing has no cliques"),
    "reused vertex": (lambda doc: doc["cliques"][1].__setitem__(0, doc["cliques"][0][0]),
                      2, "verification failure: packing certificate failed verification: "
                         "clique 1 reuses vertex 00010110111"),
    "non-adjacent pair": (lambda doc: doc["cliques"][0].__setitem__(0, _unused_non_neighbour(doc)),
                          2, "are not adjacent"),
    "unequal cliques": (lambda doc: doc["cliques"][1].pop(),
                        2, "clique 1 has size 10, want 11"),
    "one short of the span": (lambda doc: [c.pop() for c in doc["cliques"]],
                              2, "cliques of size 10 do not span the rows' dimension 11"),
    "M above": (lambda doc: doc.update(M=5),
                2, "the file claims (M, dim) = (5, 12), its packing proves (4, 12)"),
    "dim above": (lambda doc: doc.update(dim=13),
                  2, "the file claims (M, dim) = (4, 13), its packing proves (4, 12)"),
    "float M": (lambda doc: doc.update(M=4.0),
                1, "error: malformed certificate: 4.0 is not an integer"),
}


def write_hostile(cert_path: Path, edits=HOSTILE) -> dict[str, Path]:
    """Each edit of the certificate at cert_path, in a file beside it."""
    paths = {}
    for name, (edit, _, _) in edits.items():
        doc = json.loads(cert_path.read_text())
        edit(doc)
        paths[name] = cert_path.with_name(name.replace(" ", "-") + ".json")
        paths[name].write_text(json.dumps(doc, indent=2) + "\n")
    return paths


def write_dense_h3(target: Path) -> Path:
    """The dense H3 certificate file, indented as the CLI's encoder writes."""
    target.write_text(json.dumps(dense_h3_json(), indent=2) + "\n")
    return target


class TestAlphaCommand:
    def test_pentagon_power_two(self, capsys):
        code, out, _ = run(capsys, "alpha", "--graph", "C5xC5")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 5
        assert payload["upper"] == 5
        assert payload["exact"] is True

    @pytest.mark.parametrize("argv, expect", [
        (["--graph", "G11", "--node-budget", "2000"], (37, 37, True, 1119)),
        (["--graph", "H11"], (67, 67, True, 5322)),
    ])
    def test_n11_is_exact(self, capsys, argv, expect):
        code, out, _ = run(capsys, "alpha", *argv)
        assert code == 0
        payload = json.loads(out)
        assert (payload["lower"], payload["upper"], payload["exact"], payload["nodes"]) == expect
        g = graph_from_ref(payload["graph"])
        witness = g.indices_of_labels(payload["witness"])
        assert len(witness) == expect[0] and verify_independent(g, witness) == (True, None)

    def test_product_reference_is_case_blind(self, capsys):
        code, out, _ = run(capsys, "alpha", "--graph", "c5xc5")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"] == "C5xC5"
        assert payload["lower"] == 5


class TestReportCommand:
    def test_p41_separates(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "G", "--p", "41")
        assert code == 0
        payload = json.loads(out)
        assert payload["separation"] is True

    def test_p3_does_not(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "H", "--p", "3")
        assert code == 0
        assert json.loads(out)["separation"] is False

    def test_formula_only_past_the_covered_hadamard_sizes(self, capsys):
        code, out, _ = run(capsys, "report", "--family", "H", "--p", "2503")
        assert code == 0
        assert json.loads(out)["evidence"]["lower_bound"]["level"] == "formula-only"

    def test_bad_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "report", "--family", "G", "--p", "9")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("p", ["3511", "1000000000000000003"])
    def test_p_over_the_cap_exits_at_once(self, capsys, p):
        start = time.perf_counter()
        code, out, err = run(capsys, "report", "--family", "G", "--p", p)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "exceeds the cap 3500" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["G", "H"])
    @pytest.mark.parametrize("p", [3, 17, 41])
    def test_clique_size_by_identity(self, capsys, monkeypatch, family, p):
        want = len(capsep.hadamard_clique(capsep.find_hadamard(4 * p), family))
        assert want == 4 * p - (family == "G")

        def refuse(*args):
            raise AssertionError("a clique was built")
        monkeypatch.setattr(capsep.geometry, "hadamard_clique", refuse)
        monkeypatch.setattr(capsep.report, "hadamard_clique", refuse, raising=False)
        code, out, _ = run(capsys, "report", "--family", family, "--p", str(p))
        assert code == 0
        assert json.loads(out)["evidence"]["clique"]["size"] == want


class TestGraphCommands:
    def test_gen_graph_json(self, capsys):
        code, out, _ = run(capsys, "gen-graph", "--family", "G", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex_count"] == 462

    def test_gen_graph_format_refused(self, capsys):
        # every document is JSON: there is no DIMACS export to choose
        code, out, err = run(capsys, "gen-graph", "--family", "C", "--n", "5",
                             "--format", "dimacs")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments: --format dimacs" in err
        assert "Traceback" not in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run(capsys, "gen-graph", "--family", "G", "--n", "3",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["vertex_count"] == 3


    def test_huge_cycle_refused_before_any_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen-graph", "--family", "C", "--n", "100000000")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cap" in err
        assert time.perf_counter() - start < 1.0

    def test_vertex_cap_exits_at_once(self, capsys):
        # H27 would have 2^26 vertices: refused before any word is formed
        start = time.perf_counter()
        code, out, err = run(capsys, "gen-graph", "--family", "H", "--n", "27")
        assert code == 1 and out == ""
        assert err.startswith("error: 2^26 vertices exceed cap 10000000")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("ref", ["G\u00b2", "G\u0663", "G" + "1" * 5000, "C" + "0" * 21 + "5"],
                             ids=["superscript", "arabic-indic", "5000-digits", "22-digits"])
    def test_graph_reference_needs_few_ascii_digits(self, capsys, ref):
        code, out, err = run(capsys, "alpha", "--graph", ref)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot build a graph from")
        assert "Traceback" not in err


class TestHadamardCommand:
    def test_auto_paley(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--size", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 12
        assert payload["construction"] == "paley(11)"
        assert len(payload["rows"]) == 12

    def test_uncovered_size_reports_not_found(self, capsys):
        code, out, _ = run(capsys, "hadamard", "--size", "28")
        assert code == 0
        assert json.loads(out) == {"size": 28, "found": False}


class TestCertCommands:
    def test_cert_and_verify_round_trip(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _, _ = run(capsys, "cert", "--family", "H", "--n", "11",
                         "--output", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["M"] == 8
        assert payload["verification"]["passed"] is True
        assert set(payload) == {"graph", "M", "dim", "cliques", "verification"}

        code, out, _ = run(capsys, "verify-cert", "--input", str(target))
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert json.loads(out)["mode"] == "packing"

    def test_verify_cert_detects_corruption(self, capsys, tmp_path):
        # two coordinates of one label swapped: still a vertex, no longer in the clique
        target, payload = self._packing_cert(capsys, tmp_path, "G", 11)
        label = list(payload["cliques"][0][0])
        a, b = label.index("0"), label.index("1")
        label[a], label[b] = label[b], label[a]
        payload["cliques"][0][0] = "".join(label)
        target.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify-cert", "--input", str(target))
        assert code == 2 and out == ""
        assert err.startswith("verification failure: packing certificate failed verification")

    @staticmethod
    def _h3_cert(capsys, tmp_path):
        """The dense H3 certificate file and its parsed document."""
        target = write_dense_h3(tmp_path / "cert.json")
        return target, json.loads(target.read_text())

    @staticmethod
    def _packing_cert(capsys, tmp_path, family="H", n=3):
        """The file ``cert`` writes and its parsed document."""
        target = tmp_path / "cert.json"
        code, _, _ = run(capsys, "cert", "--family", family, "--n", str(n),
                         "--output", str(target))
        assert code == 0
        return target, json.loads(target.read_text())

    def _assert_rejected(self, capsys, target, phrase):
        code, out, err = run(capsys, "verify-cert", "--input", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and phrase in err
        assert "Traceback" not in err

    def _assert_failed(self, capsys, target, phrase):
        code, out, err = run(capsys, "verify-cert", "--input", str(target))
        assert code == 2 and out == ""
        assert err.startswith("verification failure: ") and phrase in err
        assert "Traceback" not in err

    def test_verify_cert_unknown_vertex(self, capsys, tmp_path):
        target, payload = self._packing_cert(capsys, tmp_path)
        payload["cliques"][0][0] = "999"
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "'999'")

    @pytest.mark.parametrize("form", ["dense", "packing"])
    def test_other_forms_refused(self, capsys, tmp_path, form):
        # the dense H3 file, and G11's packing file with an ops field added
        if form == "dense":
            target, _ = self._h3_cert(capsys, tmp_path)
        else:
            target, payload = self._packing_cert(capsys, tmp_path, "G", 11)
            target.write_text(json.dumps({**payload, "ops": []}))
        code, out, err = run(capsys, "verify-cert", "--input", str(target))
        assert (code, out, err) == (1, "", FORM_REFUSED + "\n")

    @pytest.mark.parametrize("name", ["H3xH3", "C5xC5"])
    def test_verify_cert_product_from_file(self, capsys, tmp_path, name):
        # a product graph has no packing certificate, in either form
        target, payload = self._packing_cert(capsys, tmp_path)
        target.write_text(json.dumps({**payload, "graph": name}))
        self._assert_rejected(capsys, target, "a packing certificate has a G or H graph")
        target.write_text(json.dumps({**dense_h3_json(), "graph": name}))
        self._assert_rejected(capsys, target, FORM_REFUSED)

    @pytest.mark.parametrize("label", ["(0,2", "(0,2,1)", "(00,2)"])
    def test_verify_cert_product_unknown_vertex(self, capsys, tmp_path, label):
        # a label in a product's form names no vertex of a G or H graph
        target, payload = self._packing_cert(capsys, tmp_path)
        payload["cliques"][0][1] = label
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "unknown vertex")

    def test_verify_cert_truncated_file(self, capsys, tmp_path):
        target, _ = self._packing_cert(capsys, tmp_path)
        target.write_text(target.read_text()[:100])
        self._assert_rejected(capsys, target, "malformed certificate")

    def test_verify_cert_deep_nesting(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        self._assert_rejected(capsys, target, "malformed certificate")

    def test_verify_cert_repeated_entry(self, capsys, tmp_path):
        target, payload = self._packing_cert(capsys, tmp_path)
        payload["cliques"][0][1] = payload["cliques"][0][0]
        target.write_text(json.dumps(payload))
        self._assert_failed(capsys, target, f"clique 0 reuses vertex {payload['cliques'][0][0]}")

    @pytest.mark.parametrize("name", list(HOSTILE))
    def test_verify_cert_hostile_file(self, capsys, tmp_path, name):
        target, _ = self._h3_cert(capsys, tmp_path)
        code, out, err = run(capsys, "verify-cert", "--input", str(write_hostile(target)[name]))
        _, want_code, want_line = HOSTILE[name]
        assert (code, (err.splitlines() or [""])[0]) == (want_code, want_line)
        assert "Traceback" not in err and (out == "") == (code == 1)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=st.one_of(st.booleans(), st.floats()))
    def test_verify_cert_non_integer_value(self, capsys, tmp_path, data, value):
        # M and dim are the integers of a packing file
        target, payload = self._packing_cert(capsys, tmp_path)
        payload[data.draw(st.sampled_from(["M", "dim"]))] = value
        target.write_text(json.dumps(payload))
        self._assert_rejected(capsys, target, "malformed certificate")

    def test_verify_cert_untrusted_message_count(self, capsys, tmp_path):
        target, payload = self._packing_cert(capsys, tmp_path)
        payload["M"] = 100000
        target.write_text(json.dumps(payload))
        start = time.perf_counter()
        self._assert_failed(capsys, target, "the file claims (M, dim) = (100000, 4)")
        assert time.perf_counter() - start < 0.1

    def test_verify_cert_huge_values(self, capsys, tmp_path):
        target, payload = self._packing_cert(capsys, tmp_path)
        for field, value in [("M", 10**30), ("dim", 2**62)]:
            target.write_text(json.dumps({**payload, field: value}))
            self._assert_failed(capsys, target, f"{value}")

    @pytest.mark.parametrize("command", ["cert", "pipeline", "channel-sim"])
    def test_packing_proved_without_the_generic_check(self, capsys, command):
        # each prints M, dim and the verdict from the packing: the library has no
        # operator stack or K x K check to run
        code, out, _ = run(capsys, command, "--family", "H", "--n", "7")
        assert code == 0 and not dense_names_in_library()
        doc = json.loads(out)
        if command == "cert":
            assert doc["verification"] == PACKING_REPORT
        if command == "pipeline":
            assert doc["cert"] == {"M": 1, "dim": 8, "verified": True, "mode": "packing"}

    @pytest.mark.parametrize("command", ["cert", "pipeline"])
    def test_failed_verification_exits_2(self, capsys, monkeypatch, command):
        # cliques one short of the span: a packing the packing proof refuses
        clique = capsep.geometry.hadamard_clique
        monkeypatch.setattr(capsep.geometry, "hadamard_clique", lambda h, f: clique(h, f)[:-1])
        code, out, err = run(capsys, command, "--family", "H", "--n", "7")
        assert code == 2 and out == ""
        assert err.startswith("verification failure: packing certificate failed")
        assert "size 7 do not span the rows' dimension 8" in err


class TestPackingFile:
    """``cert`` writes a packing by its cliques; ``verify-cert`` proves it again."""

    @pytest.mark.parametrize("family, n, seed",
                             [(f, n, s) for f in "GH" for n in (3, 7, 11) for s in range(3)]
                             + [("G", 15, 0)])
    def test_agrees_with_the_dense_oracle(self, capsys, tmp_path, family, n, seed):
        target = tmp_path / "cert.json"
        argv = ["cert", "--family", family, "--n", str(n), "--seed", str(seed)]
        assert run(capsys, *argv, "--output", str(target))[0] == 0
        code, out, err = run(capsys, "verify-cert", "--input", str(target))
        assert (code, err) == (0, "")
        assert json.loads(out) == json.loads(target.read_text())["verification"]
        assert json.loads(out)["mode"] == "packing" and json.loads(out)["passed"] is True
        # the same cliques, expanded to the operator stack, pass the generic check
        doc = json.loads(target.read_text())
        g = capsep.bitgraph.graph_from_ref(doc["graph"])
        cliques = tuple(tuple(g.bits_array[g.indices_of_labels(c)].tolist())
                        for c in doc["cliques"])
        dense = cert_from_packing(capsep.CliquePacking(g, len(cliques[0]), cliques))
        assert (dense.M, dense.dim) == (doc["M"], doc["dim"])
        assert verify(dense).passed

    def test_small_file(self, capsys, tmp_path):
        target = tmp_path / "g15.json"
        assert run(capsys, "cert", "--family", "G", "--n", "15", "--output", str(target))[0] == 0
        assert target.stat().st_size < 100_000
        assert json.loads(target.read_text())["M"] == 29

    @pytest.mark.parametrize("name", list(PACKING_HOSTILE))
    def test_hostile_file(self, capsys, tmp_path, name):
        target = tmp_path / "cert.json"
        assert run(capsys, "cert", "--family", "G", "--n", "11", "--output", str(target))[0] == 0
        path = write_hostile(target, PACKING_HOSTILE)[name]
        code, out, err = run(capsys, "verify-cert", "--input", str(path))
        _, want_code, phrase = PACKING_HOSTILE[name]
        first = (err.splitlines() or [""])[0]
        assert code == want_code and out == "" and "Traceback" not in err
        assert first.startswith("error: " if code == 1 else "verification failure: ")
        assert phrase in first


class TestPackCommand:
    def test_pack_h11(self, capsys):
        code, out, _ = run(capsys, "pack", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] >= 8
        assert payload["target_met"] is True


class TestGeometryCommands:
    def test_orthorep(self, capsys):
        code, out, _ = run(capsys, "orthorep", "--family", "G", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["normalizer"] == 4
        assert payload["vectors"]["011"] == [1, -1, -1, 1]

    def test_clique(self, capsys):
        code, out, _ = run(capsys, "clique", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 12
        assert "0" * 11 in payload["vertices"]

    def test_clique_unavailable_hadamard(self, capsys):
        # no covered construction of size 28 exists
        code, _, err = run(capsys, "clique", "--family", "G", "--n", "27")
        assert code == 1
        assert "28" in err


class TestHaemersCommand:
    def test_g11(self, capsys):
        code, out, _ = run(capsys, "haemers", "--family", "G", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 3 and payload["fits"] is True
        assert payload["rank"] == 55 and payload["source"] == "slice"
        assert payload["rank"] <= payload["bound"] == 67

    @pytest.mark.parametrize("family, rank, source",
                             [("G", 3876, "slice"), ("H", 5036, "identity")])
    def test_n19_ranks_by_identity(self, capsys, family, rank, source):
        # no T is formed: 92378 x 5036 (G) and 262144 x 5036 (H) cells
        start = time.perf_counter()
        code, out, _ = run(capsys, "haemers", "--family", family, "--n", "19")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        assert (payload["p"], payload["rank"], payload["source"]) == (5, rank, source)
        assert payload["bound"] == 5036 and payload["fits"] is True


class TestChannelSimCommand:
    def test_h3_trials(self, capsys):
        code, out, _ = run(capsys, "channel-sim", "--family", "H", "--n", "3",
                           "--trials", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == 0
        assert payload["zero_error"]["passed"] is True

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_negative_value_rejected_before_any_work(self, capsys, monkeypatch, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built")
        monkeypatch.setattr(capsep.bitgraph, "build_H", refuse)
        code, out, err = run(capsys, "channel-sim", "--family", "H", "--n", "3",
                             flag, "-5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must be non-negative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 99999999999999999999])
    def test_trials_over_the_cap_refused_before_any_work(self, capsys, monkeypatch, trials):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built")
        monkeypatch.setattr(capsep.bitgraph, "build_H", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "channel-sim", "--family", "H", "--n", "3",
                             "--trials", str(trials))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == f"error: --trials {trials} is over the cap {MAX_TRIALS}\n"

    def test_trials_at_the_cap_accepted(self, capsys, monkeypatch):
        asked = []
        monkeypatch.setattr(capsep.cli.channel, "simulate",
                            lambda proto, trials, rngs: asked.append(trials) or (0, []))
        code, out, _ = run(capsys, "channel-sim", "--family", "H", "--n", "3",
                           "--trials", str(MAX_TRIALS))
        assert code == 0 and asked == [MAX_TRIALS]
        assert json.loads(out)["trials"] == MAX_TRIALS

    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewest_trials(self, capsys, trials):
        code, out, _ = run(capsys, "channel-sim", "--family", "H", "--n", "7",
                           "--trials", str(trials))
        payload = json.loads(out)
        assert code == 0 and (payload["trials"], payload["failures"]) == (trials, 0)
        assert len(payload["transcripts"]) == trials
        if not trials:
            assert out.endswith('"transcripts": []\n}\n')

    def test_printed_transcripts_do_not_depend_on_the_trial_count(self, capsys):
        argv = ["channel-sim", "--family", "G", "--n", "11", "--seed", "4", "--trials"]
        docs = [json.loads(run(capsys, *argv, trials)[1]) for trials in ("20", "5000")]
        assert docs[0]["transcripts"] == docs[1]["transcripts"]
        assert len(docs[0]["transcripts"]) == 20

    def test_channel_over_the_cap_refused_before_the_certificate(self, capsys, monkeypatch):
        # H15: 2^14 vertices and 2^14 * C(15, 8) / 2 = 52.7M edges
        def refuse(*args, **kwargs):
            raise AssertionError("the packing proof was started")
        # the binding protocol_from_packing calls, after the output cap
        monkeypatch.setattr(capsep.channel, "packing_proof", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "channel-sim", "--family", "H", "--n", "15")
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "52731904 outputs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ["G", "H"])
    def test_no_edge_is_listed(self, capsys, monkeypatch, family):
        def refuse(self):
            raise AssertionError("the edges were listed")
        # edges are listed only from the all-pairs blocks
        monkeypatch.setattr(capsep.bitgraph.BitGraph, "adjacency_blocks", refuse)
        code, out, _ = run(capsys, "channel-sim", "--family", family, "--n", "11",
                           "--trials", "100")
        assert code == 0 and json.loads(out)["failures"] == 0

    @pytest.mark.parametrize("family", ["G", "H"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_oracles(self, capsys, family, seed):
        code, out, _ = run(capsys, "channel-sim", "--family", family, "--n", "11",
                           "--trials", "1000", "--seed", str(seed))
        payload = json.loads(out)
        assert code == 0 and payload["failures"] == 0
        _, g, packing = capsep.cli._packing(family, 11, seed)
        fp = float_protocol(cert_from_packing(packing), g)
        instances, worst, _ = zero_error_by_loop(fp)
        assert payload["zero_error"] == {"passed": True, "instances": instances}
        assert worst <= 1e-9
        assert len(payload["transcripts"]) == 20
        for trial, transcript in enumerate(payload["transcripts"]):
            message = trial % fp.M + 1
            s, t = drawn_indices(g, transcript["sender_outcome"],
                                 transcript["channel_output"])
            want = transmission_by_gram(fp, message, s, t)
            dist = transcript["distribution"]
            assert (transcript["message"], transcript["decoded"], transcript["correct"]) == \
                (message, message, True)
            assert dist == [float(j == message) for j in range(1, fp.M + 1)]
            assert np.abs(np.subtract(dist, want)).max() <= 1e-12

    @pytest.mark.parametrize("seed, digest", [
        (0, "70547b001110c5dc080fd2f46823422f1092376cfa014292295c67bf67f7db50"),
        (5, "41f80e8ef16eccc83bfea9139f4938a4c345fa9d01fdb4a28f1b85332805be8a"),
    ])
    def test_g11_documents_are_pinned(self, capsys, seed, digest):
        # the whole document, pinned by its sha256: a check that reads no test oracle
        code, out, _ = run(capsys, "channel-sim", "--family", "G", "--n", "11",
                           "--trials", "1000", "--seed", str(seed))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_seed_one_stream(self, capsys):
        argv = ["channel-sim", "--family", "H", "--n", "11", "--trials", "200", "--seed"]
        outs = []
        for seed in ("5", "5", "6"):
            code, out, _ = run(capsys, *argv, seed)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        same, other = json.loads(outs[0]), json.loads(outs[2])
        assert same.pop("transcripts") != other.pop("transcripts")
        assert same == other  # the H packing does not follow the seed

    def test_protocol_failure_is_a_verification_failure(self, capsys, monkeypatch):
        def fail(packing):
            raise CertificateError("cliques of size 3 do not span the rows' dimension 4")
        monkeypatch.setattr(capsep.channel, "packing_proof", fail)
        code, out, err = run(capsys, "channel-sim", "--family", "H", "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("verification failure: cliques of size 3 do not span")

    @pytest.mark.parametrize("family", ["G", "H"])
    def test_no_certificate_is_formed(self, capsys, family):
        # the protocol is proved by its packing: the library has no dense certificate
        code, out, _ = run(capsys, "channel-sim", "--family", family, "--n", "11",
                           "--trials", "100")
        assert code == 0 and json.loads(out)["failures"] == 0
        assert not dense_names_in_library()

    @pytest.mark.parametrize("family, cert_dim, local_dim", [("G", 12, 11), ("H", 12, 12)])
    def test_dim_is_the_matrix_order_or_the_clique_size(self, capsys, family, cert_dim,
                                                        local_dim):
        # pipeline's cert.dim is the certificate's matrix order, n + 1; channel-sim's
        # dim is the protocol's local dimension, the clique size (n for G)
        _, out, _ = run(capsys, "pipeline", "--family", family, "--n", "11")
        assert json.loads(out)["cert"]["dim"] == cert_dim
        _, out, _ = run(capsys, "channel-sim", "--family", family, "--n", "11", "--trials", "20")
        assert json.loads(out)["dim"] == local_dim


class TestGraphBuiltOnce:
    @pytest.mark.parametrize("argv", [
        ["pack", "--family", "G", "--n", "11"],
        ["cert", "--family", "H", "--n", "7"],
        ["channel-sim", "--family", "G", "--n", "7", "--trials", "2"],
        ["channel-sim", "--family", "H", "--n", "7", "--trials", "2"],
        ["pipeline", "--family", "G", "--n", "11"],
        ["pipeline", "--family", "H", "--n", "11"],
    ])
    def test_one_build(self, capsys, monkeypatch, argv):
        built = []

        def counting(build):
            return lambda n: built.append(n) or build(n)
        for name in ("build_G", "build_H"):
            # bitgraph is the one binding site: every command builds through graph_from_ref
            monkeypatch.setattr(capsep.bitgraph, name, counting(getattr(capsep.bitgraph, name)))
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert built == [int(argv[4])]

    @pytest.mark.parametrize("family", ["G", "H"])
    @pytest.mark.parametrize("n", [7, 11])
    def test_pipeline_finds_one_hadamard_matrix(self, capsys, monkeypatch, family, n):
        found, find = [], capsep.hadamard.find_hadamard
        for module in (capsep.cli, capsep.report):  # every binding site
            monkeypatch.setattr(module, "find_hadamard", lambda m: found.append(m) or find(m))
        code, _, _ = run(capsys, "pipeline", "--family", family, "--n", str(n))
        assert code == 0
        assert found == [n + 1]

    @pytest.mark.parametrize("command", ["pack", "cert", "channel-sim", "pipeline"])
    def test_bad_n_named_by_the_graph(self, capsys, command):
        # a Hadamard matrix of size n + 1 = 2 exists; the graph, built before
        # the clique, names the rule n breaks
        code, out, err = run(capsys, command, "--family", "G", "--n", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: n must be odd")


class TestPipelineCommand:
    def test_h11_consolidated(self, capsys):
        code, out, _ = run(capsys, "pipeline", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["cert"]["M"] == 8
        assert payload["cert"]["verified"] is True
        assert payload["haemers"]["rank"] <= 67
        assert payload["haemers"]["fits"] is True
        assert payload["packing"]["target_met"] is True
        assert payload["report"]["separation"] is False
        assert payload["separation_certified_here"] is False  # M = 8 <= rank 67

    @pytest.mark.parametrize("family, M, upper, source",
                             [("G", 256, 3876, "slice"), ("H", 656, 5036, "identity")])
    def test_n19_reports_the_upper_bound(self, capsys, family, M, upper, source):
        start = time.perf_counter()
        code, out, _ = run(capsys, "pipeline", "--family", family, "--n", "19")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        assert payload["haemers"] == {"p": 5, "rank": upper, "source": source,
                                      "bound": 5036, "fits": True}
        assert payload["alpha"] == {"lower": 1001, "upper": upper}
        assert payload["cert"]["M"] == M and payload["cert"]["verified"] is True
        assert payload["restricted_set"]["verified"] is True
        assert payload["separation_certified_here"] is False  # M <= upper

    @pytest.mark.parametrize("rank, separated", [(7, True), (8, False)])
    def test_separation_needs_m_above_the_rank(self, capsys, monkeypatch, rank,
                                               separated):
        monkeypatch.setattr(capsep.cli.algebra_fp, "haemers_matrix",
                            lambda g: HaemersResult(3, g.n, rank, "identity"))
        code, out, _ = run(capsys, "pipeline", "--family", "H", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["cert"]["M"] == 8 and payload["alpha"]["upper"] == rank
        assert payload["separation_certified_here"] is separated

    @pytest.mark.parametrize("family", ["G", "H"])
    def test_embedded_report_is_the_report_command(self, capsys, family):
        code, out, _ = run(capsys, "pipeline", "--family", family, "--n", "11")
        assert code == 0
        code, report_out, _ = run(capsys, "report", "--family", family, "--p", "3")
        assert code == 0
        assert json.loads(out)["report"] == json.loads(report_out)

    def test_g7_skips_rank_section(self, capsys):
        # (7+1)/4 = 2 is not an odd prime, so the mod-p machinery is skipped
        code, out, _ = run(capsys, "pipeline", "--family", "G", "--n", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["cert"]["verified"] is True
        assert "skipped" in payload["haemers"]
        assert payload["report"] is None


class TestPackingShortfall:
    """G packings try at most ``geometry.PACK_BUDGET`` permutations; here one."""

    @pytest.fixture(autouse=True)
    def one_permutation(self, monkeypatch):
        monkeypatch.setattr(capsep.geometry, "PACK_BUDGET", 1)

    def test_pack_reports_target_missed(self, capsys):
        code, out, _ = run(capsys, "pack", "--family", "G", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert (payload["count"], payload["target"], payload["target_met"]) == (1, 4, False)

    def test_cert_verifies_short_packing(self, capsys):
        code, out, _ = run(capsys, "cert", "--family", "G", "--n", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["M"] == 1 and payload["verification"]["passed"] is True


def _subcommand_actions() -> dict[str, list[argparse.Action]]:
    """{subcommand: its options but --help}, read from the full parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


def _usage_argvs() -> list[list[str]]:
    """No argument, --help and an unknown command; per subcommand its --help,
    no option, an unrecognized option and, where it has one, a bad choice and
    a non-integer value."""
    argvs = [[], ["--help"], ["nonsense"]]
    for name, actions in _subcommand_actions().items():
        valid = [name] + [x for a in actions if a.required
                          for x in (a.option_strings[-1], a.choices[0] if a.choices else "3")]
        argvs += [[name, "--help"], [name], valid + ["--nope"]]
        argvs += [valid + [a.option_strings[-1], bad] for bad, a in
                  [("Z", next((a for a in actions if a.choices), None)),
                   ("1.5", next((a for a in actions if a.type is int), None))] if a]
    return argvs


class TestLazyParser:
    """A call builds only its own subcommand's parser and prints what the full one does."""

    @pytest.mark.parametrize("argv", _usage_argvs(), ids=lambda argv: " ".join(argv) or "none")
    def test_prints_what_the_full_parser_prints(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        want = (int(exc.value.code or 0), *capsys.readouterr())
        assert run(capsys, *argv) == want

    @pytest.mark.parametrize("argv, parsers", [(["alpha", "--graph", "C5"], 2),
                                               (["--help"], 1 + len(COMMANDS))],
                             ids=["alpha", "help"])
    def test_parsers_built(self, capsys, monkeypatch, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
        assert run(capsys, *argv)[0] == 0
        assert len(built) == parsers


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "nonsense")
        assert code == 1 and out == ""
        assert "\nerror: argument command: invalid choice: 'nonsense' (choose from" in err

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "gen-graph", "--family", "G")[0] == 1

    def test_bad_flag_value(self, capsys):
        assert run(capsys, "gen-graph", "--family", "Z", "--n", "5")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv", [
        "pack --family G --n 3 --budget 5",
        "cert --family H --n 3 --budget 5",
        "channel-sim --family H --n 3 --budget 5",
        "pipeline --family H --n 3 --budget 5",
        "alpha --graph C5 --budget-ms 5",
        "haemers --family G --n 11 --p 3",
        "hadamard --size 2 --format text",
    ])
    def test_removed_option(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert f"error: unrecognized arguments: {' '.join(argv.split()[-2:])}" in err


@pytest.mark.parametrize("argv", [
    "pipeline --family G --n 11",
    "channel-sim --family H --n 7",
    "channel-sim --family H --n 11 --trials 10",
])
def test_cli_run_does_not_import_numpy_ma(argv):
    # numpy loads numpy.ma lazily, e.g. on a bare np.unique of an integer array
    script = ("import contextlib, io, sys\n"
              "from capsep.cli import cli_main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli_main({argv.split()!r})\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(capsep.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.split() == ["0", "False"], out.stderr


def test_closed_pipe_keeps_the_verdict():
    # orthorep H11 prints ~140 kB, more than a pipe holds, so the write
    # after the reader closes the pipe fails with EPIPE
    src = str(Path(capsep.__file__).resolve().parent.parent)
    with subprocess.Popen([sys.executable, "-m", "capsep.cli", "orthorep", "--family", "H",
                           "--n", "11"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (first, code, err) == (b"{\n", 0, b"")


# -- argv fuzz -----------------------------------------------------------------

_JUNK = ["", "junk", "1.5", "-", "--", "1e3", "--nope", "--budget", "0x1f", "G11"]
_GRAPHS = ["C5", "K3", "H3", "G7", "C5xC5", "g7xk3", "junk", "G\u00b2", "G" + "1" * 5000]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert cli_main(["cert", "--family", "G", "--n", "11", "--output", str(tmp / "cert.json")]) == 0
    write_dense_h3(tmp / "dense.json")
    (tmp / "junk.json").write_text("{")
    # the first of each list works; the others are the dense H3 file, a
    # malformed file, a missing file or directory, a directory and the
    # hostile certificates of both forms
    hostile = {**write_hostile(tmp / "dense.json"),
               **write_hostile(tmp / "cert.json", PACKING_HOSTILE)}
    return {"cwd": tmp,
            "--input": [str(tmp / name) for name in ("cert.json", "dense.json", "junk.json",
                                                     "none.json")]
            + [str(tmp)] + [str(p) for p in hostile.values()],
            "--output": [str(tmp / "out.json"), str(tmp / "none" / "out.json"), str(tmp)]}


def _option_values(paths):
    """Values for every option of every subcommand, valid ones often, all small
    enough that any mix of them runs in well under a second."""
    return {"--family": st.sampled_from("GH") | st.sampled_from("GHOCKZ"),
            "--n": st.sampled_from([3, 7, 11]) | st.integers(-3, 11),
            "--size": st.integers(-4, 64),
            "--seed": st.integers(-3, 10**6),
            "--input": st.just(paths["--input"][0]) | st.sampled_from(paths["--input"]),
            "--output": st.just(paths["--output"][0]) | st.sampled_from(paths["--output"]),
            "--graph": st.sampled_from(_GRAPHS),
            "--node-budget": st.integers(-3, 500),
            "--trials": st.integers(-3, 20) | st.sampled_from([MAX_TRIALS + 1, 10**20]),
            "--p": st.sampled_from([3, 5, 41]) | st.integers(-3, 43)}


def _subcommand_options() -> dict[str, dict[str, bool]]:
    """{subcommand: {flag: required}}, read from the full parser."""
    return {name: {a.option_strings[-1]: a.required for a in actions}
            for name, actions in _subcommand_actions().items()}


@st.composite
def _argvs(draw, values):
    commands = _subcommand_options()
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for flag, required in draw(st.permutations(sorted(commands[command].items()))):
        if draw(st.integers(0, 9)) < (9 if required else 5):
            kind = draw(st.integers(0, 9))  # 0: value missing, 1: junk value
            argv += [flag] if kind == 0 else \
                [flag, draw(st.sampled_from(_JUNK) if kind == 1 else values[flag].map(str))]
    if draw(st.integers(0, 4)) == 0:  # a stray token: junk, or a flag of any subcommand
        token = draw(st.sampled_from(_JUNK + sorted(values)))
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


def test_fuzz_covers_every_option(fuzz_paths):
    flags = {f for options in _subcommand_options().values() for f in options}
    assert flags == set(_option_values(fuzz_paths))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_fuzz(capsys, monkeypatch, fuzz_paths, data):
    monkeypatch.chdir(fuzz_paths["cwd"])  # a junk --output value names a file here
    argv = data.draw(_argvs(_option_values(fuzz_paths)), label="argv")
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("graph", _GRAPHS, ids=lambda v: v if len(v) < 20 else f"{v[:2]}...")
def test_every_graph_value(capsys, graph):
    code, _, err = run(capsys, "alpha", "--graph", graph)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_every_input_file(capsys, fuzz_paths):
    for path in fuzz_paths["--input"]:
        code, _, err = run(capsys, "verify-cert", "--input", path)
        assert code in (0, 1, 2), path
        assert "Traceback" not in err, path

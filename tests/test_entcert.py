import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.bitgraph import build_complete, build_cycle
from capsep.entcert import (WITNESS_CAP, EntCert, cert_from_json, classical_embedding,
                            rank_one_row, tensor, verify)
from capsep.errors import ConstructionError, InvalidParameterError, ResourceLimitError
from conftest import dense_adjacency, flatten, verify_by_pairs


def h3_cert():
    rep = capsep.OrthoRep(capsep.build_H(3))
    rep.verify()
    seed = capsep.hadamard_clique(capsep.sylvester(2), "H")
    packing = capsep.pack_cliques(rep.graph, seed)
    return capsep.cert_from_packing(packing)


class TestCertFromPacking:
    def test_h3_single_clique_rho_is_quarter_identity(self):
        cert = h3_cert()
        assert cert.M == 1
        assert cert.dim == 4
        rho = [[Fraction(int(x), cert.denominator) for x in row]
               for row in cert.rho_num]
        for i in range(4):
            for j in range(4):
                assert rho[i][j] == (Fraction(1, 4) if i == j else 0)
        assert cert.verification.passed

    def test_h11_certifies_m8(self, h11_cert):
        assert h11_cert.M == 8
        assert h11_cert.dim == 12
        assert h11_cert.verification.passed
        assert h11_cert.verification.to_json()["mode"] == "full"
        # denominator is d*(n+1) and the trace is exactly one
        assert h11_cert.denominator == 12 * 12
        assert int(np.trace(h11_cert.rho_num)) == h11_cert.denominator

    def test_g11_rho_is_scaled_hyperplane_projector(self, g11_cert):
        assert g11_cert.M == 4
        assert g11_cert.denominator == 11 * 12
        n_plus_1 = 12
        expected = n_plus_1 * np.eye(12, dtype=np.int64) - np.ones((12, 12),
                                                                   dtype=np.int64)
        assert np.array_equal(g11_cert.rho_num, expected)
        assert int(np.trace(g11_cert.rho_num)) == g11_cert.denominator
        assert g11_cert.verification.passed

    def test_empty_packing_rejected(self, g11):
        empty = capsep.CliquePacking(g11, 11, ())
        with pytest.raises(InvalidParameterError, match="no cliques"):
            capsep.cert_from_packing(empty)

    def test_ops_are_outer_products_of_the_rows(self, g11_cert):
        rep = capsep.OrthoRep(g11_cert.graph)
        for (u, _), num in g11_cert.ops.items():
            w = rep.rows([u])[0].astype(np.int64)
            assert np.array_equal(num, np.outer(w, w))

    @pytest.mark.parametrize("g, cliques", [(build_cycle(5), ((0, 1), (2, 3))),
                                            (build_complete(4), ((0, 1, 2, 3),))])
    def test_packing_off_the_distance_graphs_rejected(self, g, cliques):
        packing = capsep.CliquePacking(g, len(cliques[0]), cliques)
        packing.verify()  # a valid packing, but no sign-vector representation
        with pytest.raises(ConstructionError, match="not the distance-\\(n\\+1\\)/2 graph"):
            capsep.cert_from_packing(packing)

    def test_forms_rows_of_the_packed_vertices_only(self, h11, paley12, monkeypatch):
        packing = capsep.pack_cliques(h11, capsep.hadamard_clique(paley12, "H"))
        formed = []
        rows = capsep.OrthoRep.rows
        monkeypatch.setattr(capsep.OrthoRep, "rows",
                            lambda self, idx: formed.append(len(idx)) or rows(self, idx))
        capsep.cert_from_packing(packing)
        assert formed == [packing.count * packing.clique_size] == [96]


class TestVerify:
    def test_builder_output_passes(self, h11_cert):
        report = verify(h11_cert)
        assert report.passed
        assert all(report.conditions.values())

    def test_missing_op_breaks_condition_one(self, h11_cert):
        ops = dict(h11_cert.ops)
        removed_key = sorted(ops)[0]
        del ops[removed_key]
        broken = EntCert(h11_cert.graph, h11_cert.M, h11_cert.dim,
                         h11_cert.denominator, h11_cert.rho_num, ops)
        report = verify(broken)
        assert not report.passed
        assert not report.conditions["sum_to_rho"]
        assert any(w.get("condition") == 1 and w.get("i") == removed_key[1]
                   for w in report.witnesses)

    def test_wrong_graph_breaks_condition_three(self):
        c5 = capsep.build_cycle(5)
        cert = classical_embedding(c5, [0, 2])
        assert cert.verification.passed
        report = verify(dataclasses.replace(cert, graph=build_complete(5)))
        assert not report.passed
        assert not report.conditions["adjacent"]
        assert any(w.get("condition") == 3 for w in report.witnesses)

    def test_same_vertex_two_messages_breaks_condition_two(self):
        c5 = capsep.build_cycle(5)
        one = np.array([[1]], dtype=np.int64)
        ops = {(0, 1): one, (0, 2): one, (2, 2): one}
        broken = EntCert(c5, 2, 1, 1, one, ops)
        report = verify(broken)
        assert not report.conditions["same_vertex"]

    def test_psd_check_rejects_negative(self):
        c5 = capsep.build_cycle(5)
        neg = np.array([[-1]], dtype=np.int64)
        broken = EntCert(c5, 1, 1, 1, np.array([[1]], dtype=np.int64),
                         {(0, 1): neg})
        report = verify(broken)
        assert not report.conditions["psd"]


class TestClassicalEmbedding:
    def test_c5_two_messages(self):
        c5 = capsep.build_cycle(5)
        cert = classical_embedding(c5, [0, 2])
        assert cert.M == 2
        assert cert.dim == 1
        assert cert.verification.passed

    def test_restricted_set_gives_m28(self, g11):
        rs = capsep.restricted_independent_set(11)
        idx = g11.indices_of(rs.vertices)
        cert = classical_embedding(g11, idx)
        assert cert.M == 28
        assert cert.verification.passed

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            classical_embedding(capsep.build_cycle(5), [])

    def test_rejects_dependent_set_with_witness(self):
        c5 = capsep.build_cycle(5)
        with pytest.raises(InvalidParameterError, match=r"edge \(0, 1\)"):
            classical_embedding(c5, [0, 1])

    def test_verifies_iff_independent(self):
        # bypass the builder to exercise the verify direction
        c5 = capsep.build_cycle(5)
        one = np.array([[1]], dtype=np.int64)
        dependent = EntCert(c5, 2, 1, 1, one.copy(),
                            {(0, 1): one.copy(), (1, 2): one.copy()})
        assert not verify(dependent).passed
        independent = EntCert(c5, 2, 1, 1, one.copy(),
                              {(0, 1): one.copy(), (2, 2): one.copy()})
        assert verify(independent).passed


class TestTensor:
    def test_h3_squared_fully_verified(self):
        cert = h3_cert()
        squared = tensor(cert, cert)
        assert squared.M == 1
        assert squared.dim == 16
        assert squared.verification.to_json()["mode"] == "full"
        assert squared.verification.passed
        assert squared.graph.vertex_count == 16

    def test_identity_factor_preserves_ops(self):
        cert = h3_cert()
        k1 = build_complete(1)
        trivial = classical_embedding(k1, [0])
        merged = tensor(cert, trivial)
        assert merged.M == cert.M
        assert merged.dim == cert.dim
        for (u, i), num in cert.ops.items():
            assert np.array_equal(merged.ops[(u, i)], num)

    def test_messages_multiply_on_product(self):
        c5 = capsep.build_cycle(5)
        base = classical_embedding(c5, [0, 2])
        squared = tensor(base, base)
        assert squared.M == 4
        assert squared.graph.vertex_count == 25
        assert squared.verification.passed

    def test_large_product_fully_verified(self, g11):
        rs = capsep.restricted_independent_set(11)
        idx = g11.indices_of(rs.vertices)
        base = classical_embedding(g11, idx)
        squared = tensor(base, base)
        assert squared.graph.vertex_count == 462 * 462
        assert squared.M == 28 * 28
        assert squared.verification.to_json()["mode"] == "full"
        assert squared.verification.passed
        # Move one message's operator next to another message's vertex: the
        # sums still equal rho, so only the exhaustive edge check can see it.
        (u, i), (z, _) = sorted(squared.ops)[:2]
        za, zb = squared.graph.parts(z)
        ya = int(np.argmax(dense_adjacency(g11)[za]))
        y = flatten(squared.graph, (ya, zb))
        assert (y, i) not in squared.ops and squared.graph.is_adjacent(y, z)
        ops = dict(squared.ops)
        ops[(y, i)] = ops.pop((u, i))
        moved = EntCert(squared.graph, squared.M, 1, 1, squared.rho_num, ops)
        report = verify(moved)
        assert not report.passed
        assert report.conditions["sum_to_rho"] and not report.conditions["adjacent"]
        touching = [v for v, j in ops if j != i and squared.graph.is_adjacent(v, y)]
        assert z in touching
        assert report.violations["adjacent"] == len(touching)
        edges = [w["edge"] for w in report.witnesses if w["condition"] == 3]
        assert edges and all(y in e for e in edges)

    def test_entry_cap(self, h11_cert):
        with pytest.raises(ResourceLimitError):
            tensor(h11_cert, h11_cert)


class TestCertJson:
    def test_round_trip(self, g11_cert):
        text = json.dumps(g11_cert.to_json(), indent=2)
        loaded = cert_from_json(text)
        assert loaded.M == g11_cert.M
        assert loaded.denominator == g11_cert.denominator
        assert np.array_equal(loaded.rho_num, g11_cert.rho_num)
        assert set(loaded.ops) == set(g11_cert.ops)
        assert verify(loaded).passed

    @pytest.mark.parametrize("family,label", [
        ("H3", "+011"), ("H3", " 011"), ("H3", "0_11"), ("H3", "11"), ("H3", "0011"),
        ("H3", "001"), ("H3", "-0"), ("H3", 3), ("H3", None), ("H3", ["011"]),
        ("C5", "02"), ("C5", "5"), ("C5", "1" * 5000)])
    def test_only_exact_vertex_labels_load(self, family, label):
        cert = h3_cert() if family == "H3" else \
            classical_embedding(capsep.build_cycle(5), [0, 2])
        payload = cert.to_json()
        payload["ops"][0]["vertex"] = label
        with pytest.raises(InvalidParameterError, match="unknown vertex"):
            cert_from_json(payload)
        payload["ops"][0]["vertex"] = cert.to_json()["ops"][0]["vertex"]
        assert verify(cert_from_json(payload)).passed

    def test_repeated_entry_rejected(self):
        payload = h3_cert().to_json()
        first = payload["ops"][0]
        payload["ops"].insert(0, {**first, "matrix": [[7] * 4] * 4})
        with pytest.raises(InvalidParameterError,
                           match=f"repeated operator at vertex '{first['vertex']}', "
                                 f"i = {first['i']}"):
            cert_from_json(payload)

    @pytest.mark.parametrize("name", ["H3", "G7", "H11", "C5", "C5xC5", "H3xH3"])
    def test_load_is_the_inverse_of_to_json(self, name, h11_cert):
        c5 = classical_embedding(capsep.build_cycle(5), [0, 2])
        cert = {"H3": h3_cert, "G7": lambda: _packing_cert("G", 7),
                "H11": lambda: h11_cert, "C5": lambda: c5,
                "C5xC5": lambda: tensor(c5, c5),
                "H3xH3": lambda: tensor(h3_cert(), h3_cert())}[name]()
        doc = cert.to_json()
        loaded = cert_from_json(json.dumps(doc))
        assert loaded.verification is None
        again = loaded.to_json()
        assert again.pop("verification") is None
        assert json.dumps(again) == json.dumps({k: v for k, v in doc.items()
                                                if k != "verification"})
        assert verify(loaded).to_json() == cert.verification.to_json()

    def test_schema_fields(self, h11_cert):
        payload = h11_cert.to_json()
        assert payload["graph"] == "H11"
        assert payload["M"] == 8
        assert payload["denominator"] == 144
        assert len(payload["ops"]) == 8 * 12
        entry = payload["ops"][0]
        assert set(entry) == {"vertex", "i", "matrix"}
        assert payload["verification"]["mode"] == "full"


# -- exhaustive verification against the pairwise oracle ------------------------


def _packing_cert(family, n):
    rep = capsep.OrthoRep(capsep.build_G(n) if family == "G" else capsep.build_H(n))
    rep.verify()
    clique = capsep.hadamard_clique(capsep.find_hadamard(n + 1), family)
    return capsep.cert_from_packing(capsep.pack_cliques(rep.graph, clique))


def _classical_squared(g, idx):
    base = classical_embedding(g, idx)
    return tensor(base, base)


@pytest.fixture(scope="module")
def oracle_certs(g11, g11_cert, h11_cert):
    h3 = h3_cert()
    rs = capsep.restricted_independent_set(11)
    return {
        "G11": g11_cert,
        "H11": h11_cert,
        "G15": _packing_cert("G", 15),
        "H3xH3": tensor(h3, h3),
        "C5xC5": _classical_squared(capsep.build_cycle(5), [0, 2]),
        "G11xG11": _classical_squared(g11, g11.indices_of(rs.vertices)),
    }


def _with(cert, ops=None, rho=None, M=None):
    return EntCert(cert.graph, cert.M if M is None else M, cert.dim,
                   cert.denominator, cert.rho_num if rho is None else rho,
                   cert.ops if ops is None else ops)


def _tampered(cert):
    """One-change variants of a valid certificate, by name."""
    keys = sorted(cert.ops)
    (u, i), z = keys[0], keys[-1][0]
    j = i % cert.M + 1 if cert.M > 1 else 2  # another label, out of range if M = 1
    d = cert.dim
    entry = cert.ops[(u, i)].copy()
    entry[0, d - 1] += 1
    entry[d - 1, 0] = entry[0, d - 1]
    op_vertices = {v for v, _ in keys}
    near = np.flatnonzero(cert.graph.adjacency_among(
        [z], np.arange(cert.graph.vertex_count))[0])
    y = next((v for v in near.tolist() if v not in op_vertices), None)
    rho = cert.rho_num.copy()
    rho[0, 0] += 1

    def edit(drop=(), add=(), **fields):
        ops = {k: m for k, m in cert.ops.items() if k not in drop}
        return _with(cert, ops | dict(add), **fields)

    variants = {
        "entry": edit(add={(u, i): entry}),
        "dropped": edit(drop=[(u, i)]),
        "relabelled": edit(drop=[(u, i)], add={(u, j): cert.ops[(u, i)]}),
        "doubled": edit(add={(u, j): cert.ops[(u, i)]}),
        "rho": edit(rho=rho),
        "extra_message": edit(M=cert.M + 1),
    }
    if y is not None:  # a free vertex next to another operator's vertex
        variants["moved"] = edit(drop=[(u, i)], add={(y, i): cert.ops[(u, i)]})
    return variants


def _assert_agrees(cert):
    passed, conditions, _ = verify_by_pairs(cert)
    report = verify(cert)
    assert report.to_json()["mode"] == "full"
    assert report.passed == passed
    if conditions["psd"]:
        assert report.conditions == conditions
    assert report.passed or report.witnesses
    assert report.passed == (sum(report.violations.values()) == 0)
    return report


class TestAgainstPairwiseOracle:
    @pytest.mark.parametrize("name", ["G11", "H11", "G15", "H3xH3", "C5xC5",
                                      "G11xG11"])
    def test_valid_and_tampered(self, oracle_certs, name):
        cert = oracle_certs[name]
        assert _assert_agrees(cert).passed
        variants = _tampered(cert)
        if name == "G11xG11":  # the pairwise oracle takes ~1 s per call here
            variants = {k: variants[k] for k in ("entry", "moved")}
        assert name == "H3xH3" or "moved" in variants
        for variant, broken in variants.items():
            assert not _assert_agrees(broken).passed, variant

    def test_wrong_graph(self, oracle_certs):
        cert = oracle_certs["C5xC5"]
        k5_squared = capsep.strong_product(build_complete(5), build_complete(5))
        report = verify(dataclasses.replace(cert, graph=k5_squared))
        assert not report.passed and not report.conditions["adjacent"]
        passed, conditions, _ = verify_by_pairs(cert, k5_squared)
        assert (passed, conditions) == (False, report.conditions)


class TestOneEntryTamper:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["H3", "G11", "H11"]))
    def test_symmetric_entry_change_is_rejected(self, g11_cert, h11_cert, data, name):
        cert = {"H3": h3_cert, "G11": lambda: g11_cert, "H11": lambda: h11_cert}[name]()
        keys = sorted(cert.ops)
        target = data.draw(st.integers(-1, len(keys) - 1), label="operator (-1: rho)")
        a = data.draw(st.integers(0, cert.dim - 1), label="row")
        b = data.draw(st.integers(0, cert.dim - 1), label="column")
        num = (cert.rho_num if target < 0 else cert.ops[keys[target]]).copy()
        value = data.draw(st.integers(-3, 3).filter(lambda v: v != num[a, b]),
                          label="value")
        num[a, b] = num[b, a] = value
        if target < 0:
            broken = _with(cert, rho=num)
        else:
            broken = _with(cert, {**cert.ops, keys[target]: num})
        report = verify(broken)
        assert not report.passed
        assert report.witnesses


class TestVerifyLimits:
    def test_untrusted_message_count(self):
        report = verify(_with(h3_cert(), M=10**6))
        assert not report.conditions["sum_to_rho"]
        assert report.violations["sum_to_rho"] == 10**6 - 1
        assert report.witnesses == [{"condition": 1, "count": 10**6 - 1,
                                     "error": "messages without operators",
                                     "first": list(range(2, 12))}]

    def test_message_count_below_one(self):
        report = verify(_with(h3_cert(), M=0))
        assert not report.passed
        assert {"condition": 1, "error": "M must be at least 1", "M": 0} \
            in report.witnesses

    def test_witnesses_capped_and_counted(self, h11_cert):
        # every operator of H11 on the complete graph of its messages' vertices
        complete = build_complete(h11_cert.graph.vertex_count)
        report = verify(dataclasses.replace(h11_cert, graph=complete))
        assert not report.conditions["adjacent"]
        listed = [w for w in report.witnesses if w["condition"] == 3]
        assert len(listed) == WITNESS_CAP
        assert report.violations["adjacent"] > WITNESS_CAP

    def test_huge_entries_refused(self):
        cert = h3_cert()
        ops = dict(cert.ops)
        key = sorted(ops)[0]
        ops[key] = ops[key] * (1 << 40)
        report = verify(_with(cert, ops))
        assert not report.passed and not report.conditions["psd"]
        assert "too large" in report.witnesses[0]["error"]

    def test_wrong_shape_raises(self):
        cert = h3_cert()
        ops = {**cert.ops, sorted(cert.ops)[0]: np.eye(2, dtype=np.int64)}
        with pytest.raises(InvalidParameterError, match="shape"):
            verify(_with(cert, ops))


class TestRankOneRow:
    def test_row_at_largest_diagonal(self):
        w = np.array([1, -2, 3])
        num = 2 * np.outer(w, w)
        assert rank_one_row(num).tolist() == (2 * 3 * w).tolist()

    def test_batched_matches_single(self, h11_cert):
        stack = np.array([h11_cert.ops[k] for k in sorted(h11_cert.ops)])
        rows = rank_one_row(stack)
        for num, row in zip(stack, rows):
            assert np.array_equal(rank_one_row(num), row)
            # r r^T = N[j, j] N: the row determines the operator
            j = int(np.argmax(np.diagonal(num)))
            assert num[j, j] > 0 and np.array_equal(np.outer(row, row), num[j, j] * num)

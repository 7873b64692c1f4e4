import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.bitgraph import (build_complete, build_cycle, graph_from_ref, sign_rows,
                             words_from_signs)
from capsep.cli import _packing, cli_main
from capsep.entcert import PACKING_REPORT, packing_proof, verify_json
from capsep.errors import (CertificateError, ConstructionError, InvalidParameterError,
                           ResourceLimitError)
from conftest import (WITNESS_CAP, EntCert, VerificationReport, cert_from_packing, cert_with,
                      classical_embedding, dense_adjacency, flatten, is_adjacent, ops_by_pair,
                      rank_one_row, tensor, tensor_by_loop, verify, verify_by_pairs)


def h3_cert():
    rep = capsep.OrthoRep(capsep.build_H(3))
    rep.verify()
    seed = capsep.hadamard_clique(capsep.sylvester(2), "H")
    packing = capsep.pack_cliques(rep.graph, seed)
    return cert_from_packing(packing)


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
        assert h11_cert.verification.to_json()["mode"] == "packing"
        assert verify(h11_cert).passed  # the generic check agrees
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
            cert_from_packing(empty)

    def test_ops_are_outer_products_of_the_rows(self, g11_cert):
        rep = capsep.OrthoRep(g11_cert.graph)
        for u, num in zip(g11_cert.verts.tolist(), g11_cert.ops):
            w = rep.rows([u])[0].astype(np.int64)
            assert np.array_equal(num, np.outer(w, w))

    @pytest.mark.parametrize("g, cliques", [(build_cycle(5), ((0, 1), (2, 3))),
                                            (build_complete(4), ((0, 1, 2, 3),))])
    def test_packing_off_the_distance_graphs_rejected(self, g, cliques):
        # a valid packing (its constructor checks it), but no sign-vector representation
        packing = capsep.CliquePacking(g, len(cliques[0]), cliques)
        with pytest.raises(ConstructionError, match="not the distance-\\(n\\+1\\)/2 graph"):
            cert_from_packing(packing)

    def test_forms_rows_of_the_packed_vertices_only(self, h11, paley12, monkeypatch):
        packing = capsep.pack_cliques(h11, capsep.hadamard_clique(paley12, "H"))
        formed = []
        rows = capsep.OrthoRep.rows
        monkeypatch.setattr(capsep.OrthoRep, "rows",
                            lambda self, idx: formed.append(len(idx)) or rows(self, idx))
        cert_from_packing(packing)
        assert formed == [packing.count * packing.clique_size] == [96]


def _short_packing(family, n):
    """Disjoint images of a Hadamard clique less one vertex, under coordinate
    permutations (and translations, for H): a packing its constructor
    accepts, of cliques one short of the span of the rows."""
    g = capsep.build_G(n) if family == "G" else capsep.build_H(n)
    seed = capsep.hadamard_clique(capsep.find_hadamard(n + 1), family)[:-1]
    signs = sign_rows(np.array(seed, dtype=np.uint64), n)
    rng, cliques, used = random.Random(0), [], set()
    for _ in range(200):
        shift = rng.choice(g.bits_array.tolist()) if family == "H" else 0
        image = {b ^ shift for b in words_from_signs(signs[:, rng.sample(range(n), n)])}
        if not used & image:
            used |= image
            cliques.append(tuple(sorted(image)))
    return capsep.CliquePacking(g, len(seed), tuple(cliques))


def _dense_cert(packing):
    """The operators w w^T of a packing as ``cert_from_packing`` forms them,
    with no proof attached."""
    g, size, d = packing.graph, packing.clique_size, packing.graph.n + 1
    verts = g.indices_of(packing.cliques).ravel()
    w = capsep.OrthoRep(g).rows(verts).astype(np.int64)
    ops = w[:, :, None] * w[:, None, :]
    msgs = np.repeat(np.arange(1, packing.count + 1), size)
    return EntCert(g, packing.count, d, size * d, ops[:size].sum(axis=0), verts, msgs, ops)


class TestPackingProof:
    @pytest.mark.parametrize("family, n, seed",
                             [(f, n, s) for f in "GH" for n in (3, 7, 11) for s in range(3)]
                             + [("G", 15, 0)])
    def test_generic_verify_agrees(self, family, n, seed):
        cert = _packing_cert(family, n, seed)
        proof, report = cert.verification, verify(cert)
        assert (proof.mode, report.mode) == ("packing", "full")
        assert proof.passed and report.passed and report.witnesses == []
        # the same conditions, witnesses and violations; only the mode differs
        assert dataclasses.replace(proof, mode="full") == report
        assert proof.to_json() == PACKING_REPORT  # what cert and verify-cert print

    @pytest.mark.parametrize("family, n", [("G", 7), ("H", 7), ("H", 11)])
    def test_cliques_short_of_the_span_rejected(self, family, n):
        packing = _short_packing(family, n)
        span = n + (family == "H")
        assert packing.count >= 2 and packing.clique_size == span - 1
        for prove in (cert_from_packing, packing_proof):
            with pytest.raises(CertificateError,
                               match=f"size {span - 1} do not span the rows' dimension {span}"):
                prove(packing)
        # a real failure: the messages do not sum to one rho
        report = verify(_dense_cert(packing))
        assert not report.passed and not report.conditions["sum_to_rho"]

    def test_ones_hyperplane_cliques_on_h_rejected(self):
        # G7's Hadamard clique is a size-n clique of H7 too (weight 4 is even).
        # Its rows do lie in the ones-hyperplane, but only family G's weight
        # check proves that of every row, so on H size n is refused.
        h7 = capsep.build_H(7)
        clique = tuple(sorted(capsep.hadamard_clique(capsep.find_hadamard(8), "G")))
        packing = capsep.CliquePacking(h7, 7, (clique,))
        with pytest.raises(CertificateError, match="size 7 do not span the rows' dimension 8"):
            cert_from_packing(packing)
        assert verify(_dense_cert(packing)).passed


class TestVerify:
    def test_builder_output_passes(self, h11_cert):
        report = verify(h11_cert)
        assert report.passed
        assert all(report.conditions.values())

    def test_missing_op_breaks_condition_one(self, h11_cert):
        ops = ops_by_pair(h11_cert)
        removed_key = sorted(ops)[0]
        del ops[removed_key]
        broken = cert_with(h11_cert, ops)
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
        broken = EntCert(c5, 2, 1, 1, one, [0, 0, 2], [1, 2, 2], [one, one, one])
        report = verify(broken)
        assert not report.conditions["same_vertex"]

    def test_psd_check_rejects_negative(self):
        c5 = capsep.build_cycle(5)
        neg = np.array([[-1]], dtype=np.int64)
        broken = EntCert(c5, 1, 1, 1, np.array([[1]], dtype=np.int64), [0], [1], [neg])
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
        dependent = EntCert(c5, 2, 1, 1, one, [0, 1], [1, 2], [one, one])
        assert not verify(dependent).passed
        independent = EntCert(c5, 2, 1, 1, one, [0, 2], [1, 2], [one, one])
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
        assert merged.verts.tolist() == cert.verts.tolist()
        assert merged.msgs.tolist() == cert.msgs.tolist()
        assert np.array_equal(merged.ops, cert.ops)

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
        ops = ops_by_pair(squared)
        (u, i), (z, _) = sorted(ops)[:2]
        za, zb = squared.graph.parts(z)
        ya = int(np.argmax(dense_adjacency(g11)[za]))
        y = flatten(squared.graph, (ya, zb))
        assert (y, i) not in ops and is_adjacent(squared.graph, y, z)
        ops[(y, i)] = ops.pop((u, i))
        moved = cert_with(squared, ops)
        report = verify(moved)
        assert not report.passed
        assert report.conditions["sum_to_rho"] and not report.conditions["adjacent"]
        touching = [v for v, j in ops if j != i and is_adjacent(squared.graph, v, y)]
        assert z in touching
        assert report.violations["adjacent"] == len(touching)
        edges = [w["edge"] for w in report.witnesses if w["condition"] == 3]
        assert edges and all(y in e for e in edges)

    def test_entry_cap(self, h11_cert):
        with pytest.raises(ResourceLimitError):
            tensor(h11_cert, h11_cert)

    @pytest.mark.parametrize("name", ["H3xH3", "H3xG7", "C5xC5", "C5xH3"])
    def test_matches_the_kron_loop(self, name):
        c5 = classical_embedding(capsep.build_cycle(5), [0, 2])
        factors = {"H3": h3_cert, "G7": lambda: _packing_cert("G", 7), "C5": lambda: c5}
        a, b = (factors[part]() for part in name.split("x"))
        got, want = tensor(a, b), tensor_by_loop(a, b)
        assert got.verification.passed and want.graph.graph_ref() == name
        for field in ("M", "dim", "denominator"):
            assert getattr(got, field) == getattr(want, field)
        for field in ("rho_num", "verts", "msgs", "ops"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestConstructor:
    """The constructor is the one place that checks an operator system's form."""

    def test_sorted_and_read_only(self):
        cert = h3_cert()
        shuffled = cert_with(cert, dict(reversed(ops_by_pair(cert).items())))
        for name in ("rho_num", "verts", "msgs", "ops"):
            array = getattr(shuffled, name)
            assert np.array_equal(array, getattr(cert, name))
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 5
        assert shuffled.ops.shape == (4, 4, 4) and shuffled.ops.dtype == np.int64

    @pytest.mark.parametrize("case, phrase", [
        ("ragged operator", "malformed certificate: setting an array element"),
        ("wrong-size operator", r"operator \(0, 1\) has shape \(3, 3\), not \(4, 4\)"),
        ("wrong-size rho", r"rho has shape \(4, 3\), not \(4, 4\)"),
        ("repeated pair", "repeated operator at vertex '000', i = 1"),
        ("unequal lengths", "differ in length"),
        ("vertex outside the graph", "a vertex index is outside H3")])
    def test_rejects(self, case, phrase):
        cert = h3_cert()
        ops = [m.tolist() for m in cert.ops]
        verts, msgs, rho = cert.verts.tolist(), cert.msgs.tolist(), cert.rho_num
        if case == "ragged operator":
            ops[0][1].pop()
        elif case == "wrong-size operator":
            ops[0] = np.eye(3, dtype=np.int64)
        elif case == "wrong-size rho":
            rho = rho[:, :-1]
        elif case == "repeated pair":
            verts, msgs, ops = verts + verts[:1], msgs + msgs[:1], ops + ops[:1]
        elif case == "unequal lengths":
            msgs = msgs[:-1]
        else:
            verts[-1] = cert.graph.vertex_count
        with pytest.raises(InvalidParameterError, match=phrase):
            dataclasses.replace(cert, rho_num=rho, verts=verts, msgs=msgs, ops=ops)

    def test_no_operators(self):
        cert = cert_with(h3_cert(), {})
        assert cert.ops.shape == (0, 4, 4) and cert.verts.shape == cert.msgs.shape == (0,)
        assert not verify(cert).conditions["sum_to_rho"]


def _cert_file(tmp_path, family, n, seed=0) -> str:
    """The file ``cert --family family --n n --seed seed`` writes."""
    target = tmp_path / f"{family}{n}-{seed}.json"
    argv = ["cert", "--family", family, "--n", str(n), "--seed", str(seed), "--output", str(target)]
    assert cli_main(argv) == 0
    return target.read_text()


def _read_cliques(doc) -> tuple:
    """The cliques of a packing file as vertex words, looked up by label."""
    g = graph_from_ref(doc["graph"])
    return tuple(tuple(g.bits_array[g.indices_of_labels(c)].tolist()) for c in doc["cliques"])


class TestCertJson:
    """A certificate file holds its packing's cliques; ``verify_json`` proves it again."""

    def test_round_trip(self, tmp_path, g11_cert):
        text = _cert_file(tmp_path, "G", 11)
        doc = json.loads(text)
        assert _read_cliques(doc) == _packing("G", 11, 0)[2].cliques
        assert (doc["M"], doc["dim"]) == (g11_cert.M, g11_cert.dim)
        assert verify_json(text) is None  # a failed proof raises

    @pytest.mark.parametrize("family,label", [
        ("H3", "+011"), ("H3", " 011"), ("H3", "0_11"), ("H3", "11"), ("H3", "0011"),
        ("H3", "001"), ("H3", "-0"), ("H3", 3), ("H3", None), ("H3", ["011"]),
        ("C5", "02"), ("C5", "5"), ("C5", "1" * 5000)])
    def test_only_exact_vertex_labels_load(self, tmp_path, family, label):
        # each label is near a label of its family's graph but names no vertex of
        # it, nor of the H3 file it is written into
        if family == "C5":
            with pytest.raises(InvalidParameterError, match="unknown vertex"):
                build_cycle(5).indices_of_labels([label])
        doc = json.loads(_cert_file(tmp_path, "H", 3))
        original, doc["cliques"][0][0] = doc["cliques"][0][0], label
        with pytest.raises(InvalidParameterError, match="unknown vertex"):
            verify_json(json.dumps(doc))
        doc["cliques"][0][0] = original
        verify_json(json.dumps(doc))

    def test_repeated_entry_rejected(self, tmp_path):
        doc = json.loads(_cert_file(tmp_path, "H", 3))
        doc["cliques"][0][1] = doc["cliques"][0][0]
        with pytest.raises(CertificateError,
                           match=f"clique 0 reuses vertex {doc['cliques'][0][0]}"):
            verify_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["H3", "G7", "H11"])
    def test_load_is_the_inverse_of_to_json(self, tmp_path, name):
        # the file's cliques are ``CliquePacking.to_json``'s, and read back to the packing
        family, n = name[0], int(name[1:])
        packing = _packing(family, n, 0)[2]
        doc = json.loads(_cert_file(tmp_path, family, n))
        assert doc["cliques"] == packing.to_json()["cliques"]
        assert _read_cliques(doc) == packing.cliques

    def test_schema_fields(self, tmp_path):
        doc = json.loads(_cert_file(tmp_path, "H", 11))
        assert set(doc) == {"graph", "M", "dim", "cliques", "verification"}
        assert (doc["graph"], doc["M"], doc["dim"]) == ("H11", 8, 12)
        assert [len(c) for c in doc["cliques"]] == [12] * 8
        assert doc["verification"] == PACKING_REPORT


# -- exhaustive verification against the pairwise oracle ------------------------


def _packing_cert(family, n, seed=0):
    """The certificate ``cert --family family --n n --seed seed`` builds."""
    rep = capsep.OrthoRep(capsep.build_G(n) if family == "G" else capsep.build_H(n))
    rep.verify()
    clique = capsep.hadamard_clique(capsep.find_hadamard(n + 1), family)
    return cert_from_packing(capsep.pack_cliques(rep.graph, clique, rng_seed=seed))


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


def _tampered(cert):
    """One-change variants of a valid certificate, by name."""
    ops = ops_by_pair(cert)
    keys = sorted(ops)
    (u, i), z = keys[0], keys[-1][0]
    j = i % cert.M + 1 if cert.M > 1 else 2  # another label, out of range if M = 1
    d = cert.dim
    entry = ops[(u, i)].copy()
    entry[0, d - 1] += 1
    entry[d - 1, 0] = entry[0, d - 1]
    op_vertices = {v for v, _ in keys}
    near = np.flatnonzero(cert.graph.adjacency_among(
        [z], np.arange(cert.graph.vertex_count))[0])
    y = next((v for v in near.tolist() if v not in op_vertices), None)
    rho = cert.rho_num.copy()
    rho[0, 0] += 1

    def edit(drop=(), add=(), **fields):
        kept = {k: m for k, m in ops.items() if k not in drop}
        return cert_with(cert, kept | dict(add), **fields)

    variants = {
        "entry": edit(add={(u, i): entry}),
        "dropped": edit(drop=[(u, i)]),
        "relabelled": edit(drop=[(u, i)], add={(u, j): ops[(u, i)]}),
        "doubled": edit(add={(u, j): ops[(u, i)]}),
        "rho": edit(rho_num=rho),
        "extra_message": edit(M=cert.M + 1),
    }
    if y is not None:  # a free vertex next to another operator's vertex
        variants["moved"] = edit(drop=[(u, i)], add={(y, i): ops[(u, i)]})
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
        k5_squared = capsep.ProductGraph([build_complete(5), build_complete(5)])
        report = verify(dataclasses.replace(cert, graph=k5_squared))
        assert not report.passed and not report.conditions["adjacent"]
        passed, conditions, _ = verify_by_pairs(cert, k5_squared)
        assert (passed, conditions) == (False, report.conditions)


class TestOneEntryTamper:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["H3", "G11", "H11"]))
    def test_symmetric_entry_change_is_rejected(self, g11_cert, h11_cert, data, name):
        cert = {"H3": h3_cert, "G11": lambda: g11_cert, "H11": lambda: h11_cert}[name]()
        ops = ops_by_pair(cert)
        keys = sorted(ops)
        target = data.draw(st.integers(-1, len(keys) - 1), label="operator (-1: rho)")
        a = data.draw(st.integers(0, cert.dim - 1), label="row")
        b = data.draw(st.integers(0, cert.dim - 1), label="column")
        num = (cert.rho_num if target < 0 else ops[keys[target]]).copy()
        value = data.draw(st.integers(-3, 3).filter(lambda v: v != num[a, b]),
                          label="value")
        num[a, b] = num[b, a] = value
        if target < 0:
            broken = cert_with(cert, rho_num=num)
        else:
            broken = cert_with(cert, {**ops, keys[target]: num})
        report = verify(broken)
        assert not report.passed
        assert report.witnesses


class TestVerifyNeverRaises:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["H3", "G11", "C5xC5"]))
    def test_any_entry_change_is_a_failing_report(self, g11_cert, data, name):
        c5 = classical_embedding(capsep.build_cycle(5), [0, 2])
        cert = {"H3": h3_cert, "G11": lambda: g11_cert, "C5xC5": lambda: tensor(c5, c5)}[name]()
        ops = ops_by_pair(cert)
        keys = sorted(ops)
        target = data.draw(st.integers(-1, len(keys) - 1), label="operator (-1: rho)")
        num = (cert.rho_num if target < 0 else ops[keys[target]]).copy()
        a = data.draw(st.integers(0, cert.dim - 1), label="row")
        b = data.draw(st.integers(0, cert.dim - 1), label="column")
        num[a, b] = data.draw(st.integers(-(1 << 63), (1 << 63) - 1)
                              .filter(lambda v: v != num[a, b]), label="value")
        report = verify(cert_with(cert, rho_num=num) if target < 0
                        else cert_with(cert, {**ops, keys[target]: num}))
        assert isinstance(report, VerificationReport)
        assert not report.passed and report.witnesses


class TestVerifyLimits:
    def test_untrusted_message_count(self):
        report = verify(cert_with(h3_cert(), M=10**6))
        assert not report.conditions["sum_to_rho"]
        assert report.violations["sum_to_rho"] == 10**6 - 1
        assert report.witnesses == [{"condition": 1, "count": 10**6 - 1,
                                     "error": "messages without operators",
                                     "first": list(range(2, 12))}]

    def test_message_count_below_one(self):
        report = verify(cert_with(h3_cert(), M=0))
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
        ops = ops_by_pair(cert)
        key = sorted(ops)[0]
        ops[key] = ops[key] * (1 << 40)
        report = verify(cert_with(cert, ops))
        assert not report.passed and not report.conditions["psd"]
        assert "too large" in report.witnesses[0]["error"]

    def test_wrong_shape_raises(self):
        cert = h3_cert()
        ops = ops_by_pair(cert)
        ops[sorted(ops)[0]] = np.eye(2, dtype=np.int64)
        with pytest.raises(InvalidParameterError, match="shape"):
            cert_with(cert, ops)  # at construction: verify never meets it


class TestRankOneRow:
    def test_row_at_largest_diagonal(self):
        w = np.array([1, -2, 3])
        num = 2 * np.outer(w, w)
        assert rank_one_row(num).tolist() == (2 * 3 * w).tolist()

    def test_batched_matches_single(self, h11_cert):
        stack = h11_cert.ops
        rows = rank_one_row(stack)
        for num, row in zip(stack, rows):
            assert np.array_equal(rank_one_row(num), row)
            # r r^T = N[j, j] N: the row determines the operator
            j = int(np.argmax(np.diagonal(num)))
            assert num[j, j] > 0 and np.array_equal(np.outer(row, row), num[j, j] * num)

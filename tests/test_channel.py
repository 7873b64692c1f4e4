import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.channel import (Protocol, canonical_channel, check_zero_error_code,
                            protocol_from_cert, simulate_transmission)
from conftest import (canonical_output_labels, cert_with, confusable_pairs_by_loop,
                      explicit_state_transmission, maximally_entangled_state,
                      me_pair_trace, ops_by_pair, output_members_by_dict, partial_trace,
                      random_explicit_graph, receiver_measurement,
                      sender_measurement, simulate_transmission_by_choice,
                      support, zero_error_by_loop, zero_error_code_by_loop)
from capsep.entcert import EntCert, classical_embedding
from capsep.errors import InvalidParameterError, ProtocolError, ResourceLimitError


def h3_cert():
    return capsep.cert_from_packing(capsep.pack_cliques(
        capsep.build_H(3), capsep.hadamard_clique(capsep.sylvester(2), "H")))


def h3_protocol():
    cert = h3_cert()
    chan = canonical_channel(cert.graph)
    return protocol_from_cert(cert, chan), chan


def c5_channel():
    """Outputs 0..4 private; 5..9 the edges (0,1), (0,4), (1,2), (2,3), (3,4)."""
    return canonical_channel(capsep.build_cycle(5))


def assert_realizes(chan, g):
    """The oracle for the channel: rows are distributions and share outputs on edges."""
    for x in range(g.vertex_count):
        idx, probs = chan.row(x)
        assert idx[0] == x and (np.diff(idx) > 0).all()
        assert (probs == 1.0 / idx.size).all() and abs(probs.sum() - 1.0) <= 1e-12
    assert confusable_pairs_by_loop(chan) == [tuple(e) for e in g.edge_array().tolist()]


class TestPentagonChannel:
    def test_confusability_is_c5(self):
        assert confusable_pairs_by_loop(c5_channel()) == \
            sorted(map(tuple, capsep.build_cycle(5).edge_array().tolist()))

    def test_neighbors_share_an_output(self):
        c = c5_channel()
        assert support(c, 0) & support(c, 1) == {5}
        assert c.outputs[5] == "0|1"

    def test_non_neighbors_disjoint(self):
        c = c5_channel()
        assert not support(c, 0) & support(c, 2)

    def test_rows_are_uniform(self):
        idx, probs = c5_channel().row(3)
        assert idx.tolist() == [3, 8, 9]
        assert probs.tolist() == [1 / 3] * 3


class TestConfusabilityGraph:
    def test_noiseless_channel_is_edgeless(self):
        chan = canonical_channel(random_explicit_graph(4, 0.0, 0))
        assert [chan.row(x)[1].tolist() for x in range(4)] == [[1.0]] * 4
        assert confusable_pairs_by_loop(chan) == []

    def test_complete_graph_channel_is_complete(self):
        chan = canonical_channel(capsep.bitgraph.build_complete(4))
        assert len(confusable_pairs_by_loop(chan)) == 6


@st.composite
def explicit_graphs(draw, max_vertices=12):
    """Random explicit graphs, from edgeless to complete."""
    return random_explicit_graph(draw(st.integers(1, max_vertices)),
                                 draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])),
                                 draw(st.integers(0, 2**16)))


class TestArrayRoutines:
    @settings(max_examples=200, deadline=None)
    @given(explicit_graphs())
    def test_members_and_pairs_match_loop(self, g):
        chan = canonical_channel(g)
        indptr, members = chan.members_by_output()
        oracle = output_members_by_dict(chan)
        assert len(indptr) == len(chan.outputs) + 1
        for t in range(len(chan.outputs)):
            assert members[indptr[t]:indptr[t + 1]].tolist() == oracle.get(t, [])
        assert_realizes(chan, g)

    @pytest.mark.parametrize("name", ["C5", "K4", "H3", "G7", "H7", "G11", "H11"])
    def test_canonical_channel_confusability_is_g(self, name, g11, h11):
        g = {"G11": g11, "H11": h11}.get(name) or capsep.bitgraph.graph_from_ref(name)
        chan = canonical_channel(g)
        assert len(chan.outputs) == g.vertex_count + g.edge_count
        assert_realizes(chan, g)


class TestCsrRows:
    def test_row_bounds_checked(self):
        for name in ("C5", "H3", "G7"):
            g = capsep.bitgraph.graph_from_ref(name)
            indptr, targets = canonical_channel(g).rows()
            assert len(indptr) == g.vertex_count + 1 and indptr[0] == 0, name
            assert indptr[-1] == len(targets) == g.vertex_count + 2 * g.edge_count, name
            assert (np.diff(indptr) >= 1).all(), name

    def test_rows_read_back(self):
        c = c5_channel()
        indptr, targets = c.rows()
        assert [c.row(x)[0].tolist() for x in (0, 4)] == [[0, 5, 6], [4, 6, 9]]
        assert [targets[indptr[x]:indptr[x + 1]].tolist() for x in range(5)] == \
            [c.row(x)[0].tolist() for x in range(5)]


class TestOutputLabels:
    @pytest.mark.parametrize("name", ["C5", "H7", "G11"])
    def test_matches_eager_labels(self, name, g11):
        g = {"C5": capsep.build_cycle(5), "H7": capsep.build_H(7), "G11": g11}[name]
        outputs = canonical_channel(g).outputs
        eager = canonical_output_labels(g)
        assert len(outputs) == len(eager) == g.vertex_count + g.edge_count
        assert list(outputs) == eager
        for t in (0, g.vertex_count - 1, g.vertex_count, len(eager) - 1):
            assert outputs[np.int64(t)] == eager[t]
        for t in (-1, -g.edge_count, -len(eager)):
            assert outputs[t] == eager[t]
        for t in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                outputs[t]


class TestCanonicalChannel:
    @pytest.mark.parametrize("name", ["C5", "K4", "O4", "H3", "G7", "H7", "G11"])
    def test_cap_counts_exactly_the_outputs(self, name, g11, monkeypatch):
        g = g11 if name == "G11" else capsep.bitgraph.graph_from_ref(name)
        outputs = len(canonical_channel(g).outputs)
        monkeypatch.setattr(capsep.channel, "MAX_VERTICES", outputs - 1)
        with pytest.raises(ResourceLimitError, match=f"{outputs} outputs, over the cap"):
            canonical_channel(g)

    def test_over_the_cap_refused_before_any_edge_is_listed(self, monkeypatch):
        # H15: 2^14 vertices and 2^14 * C(15, 8) / 2 = 52.7M edges
        h15 = capsep.build_H(15)
        monkeypatch.setattr(h15, "edge_array", lambda: pytest.fail("edges were listed"))
        with pytest.raises(ResourceLimitError, match="52731904 outputs"):
            canonical_channel(h15)

    def test_c5_round_trip(self):
        c5 = capsep.build_cycle(5)
        chan = canonical_channel(c5)
        assert len(chan.outputs) == 5 + 5
        assert set(confusable_pairs_by_loop(chan)) == set(map(tuple, c5.edge_array().tolist()))

    def test_h3_round_trip_complete(self):
        chan = canonical_channel(capsep.build_H(3))
        assert len(confusable_pairs_by_loop(chan)) == 6

    def test_g11_round_trip(self, g11):
        got = confusable_pairs_by_loop(canonical_channel(g11))
        assert len(got) == g11.edge_count
        assert all(g11.is_adjacent(i, j) for i, j in got)


class TestZeroErrorCode:
    def test_caption_code_passes(self):
        words = [(0, 2), (1, 4), (2, 1), (3, 3), (4, 0)]
        ok, witness = check_zero_error_code(c5_channel(), words)
        assert ok and witness is None

    def test_confusable_pair_fails_with_witness(self):
        ok, witness = check_zero_error_code(c5_channel(), [(0,), (1,)])
        assert not ok
        assert witness["shared_outputs"] == ["0|1"]

    def test_single_word(self):
        assert check_zero_error_code(c5_channel(), [(0, 0)]) == (True, None)

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            check_zero_error_code(c5_channel(), [(0, 1), (2,)])


@st.composite
def channels_and_codes(draw):
    """The channel of a random graph and up to 8 words of length <= 3, duplicates likely."""
    g = draw(explicit_graphs(max_vertices=7))
    n_in = g.vertex_count
    k = draw(st.integers(0, 3))
    word = st.tuples(*[st.integers(0, n_in - 1)] * k)
    words = draw(st.lists(word, max_size=8))
    if words and draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(words)))
    return canonical_channel(g), words


class TestZeroErrorCodeAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(channels_and_codes())
    def test_matches_pair_loop_with_witness(self, case):
        chan, words = case
        assert check_zero_error_code(chan, words) == zero_error_code_by_loop(chan, words)

    def test_long_words_beyond_the_product_cap(self):
        # C5 has 5^11 > 10^7 words of length 11, more than a product graph holds
        words = [tuple(range(5)) * 2 + (0,), tuple(range(5)) * 2 + (2,)]
        assert check_zero_error_code(c5_channel(), words) == (True, None)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError, match="input index 5"):
            check_zero_error_code(c5_channel(), [(0, 1), (2, 5)])


class TestQuantumHelpers:
    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(7)
        for dx, dy in ((2, 3), (3, 3), (4, 2)):
            m = rng.normal(size=(dx * dy, dx * dy))
            assert abs(np.trace(partial_trace(m, dx, dy, "x")) - np.trace(m)) < 1e-12
            assert abs(np.trace(partial_trace(m, dx, dy, "y")) - np.trace(m)) < 1e-12

    def test_partial_trace_of_kron(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4))
        got = partial_trace(np.kron(a, b), 3, 4, "x")
        assert np.abs(got - np.trace(a) * b).max() < 1e-12
        got_y = partial_trace(np.kron(a, b), 3, 4, "y")
        assert np.abs(got_y - np.trace(b) * a).max() < 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_me_trace_identity_two_ways(self, d):
        rng = np.random.default_rng(d)
        rho = maximally_entangled_state(d)
        for _ in range(20):
            a = rng.normal(size=(d, d))
            a = a + a.T
            b = rng.normal(size=(d, d))
            b = b + b.T
            explicit = float(np.trace(np.kron(a, b) @ rho))
            assert abs(explicit - me_pair_trace(a, b, d)) < 1e-10


class TestProtocol:
    def test_h3_trivial_message(self):
        proto, _ = h3_protocol()
        assert proto.M == 1
        report = proto.zero_error_report()
        assert report.passed and report.instances == 0  # condition is vacuous
        tr = simulate_transmission(proto, 1, seed=0)
        assert tr.decoded == 1

    def test_h3_sender_distribution_sums_to_one(self):
        proto, chan = h3_protocol()
        total = 0.0
        rho = maximally_entangled_state(proto.dim)
        for s, a in sender_measurement(proto, 1).items():
            total += float(np.trace(np.kron(a, np.eye(proto.dim)) @ rho))
        assert abs(total - 1.0) < 1e-10

    def test_h3_completeness(self):
        proto, _ = h3_protocol()
        report = proto.completeness_report()
        assert report["passed"]

    def test_receiver_measurement_sums_to_identity(self):
        proto, chan = h3_protocol()
        for t in range(len(chan.outputs)):
            total = sum(receiver_measurement(proto, t))
            assert np.abs(total - np.eye(proto.dim)).max() < 1e-12

    def test_merged_cliques_rejected(self, h11_cert):
        ops = {(u, 1 if i == 2 else i): num
               for (u, i), num in ops_by_pair(h11_cert).items()}
        merged = cert_with(h11_cert, ops)
        chan = canonical_channel(h11_cert.graph)
        with pytest.raises(ProtocolError):
            protocol_from_cert(merged, chan)

    def test_dependent_dim1_cert_rejected(self):
        c5 = capsep.build_cycle(5)
        one = np.array([[1]], dtype=np.int64)
        bad = EntCert(c5, 2, 1, 1, one, [0, 1], [1, 2], [one, one])
        chan = canonical_channel(c5)
        with pytest.raises(ProtocolError):
            protocol_from_cert(bad, chan)

    def test_operator_not_dim_by_dim_rejected(self):
        cert = h3_cert()
        ops = ops_by_pair(cert)
        key = min(ops)
        ops[key] = ops[key][:, :-1]
        # refused when the certificate is built, so no protocol can meet it
        with pytest.raises(InvalidParameterError, match=r"has shape \(4, 3\), not \(4, 4\)"):
            cert_with(cert, ops)

    def test_vertex_with_two_messages_rejected(self):
        cert = h3_cert()
        ops = ops_by_pair(cert)
        u, i = min(ops)
        ops[u, i + 1] = ops[u, i]
        cert = cert_with(cert, ops)
        with pytest.raises(ProtocolError, match=f"vertex {u} carries two messages "
                                                f"\\({i} and {i + 1}\\)"):
            protocol_from_cert(cert, canonical_channel(cert.graph))

    def test_wrong_channel_rejected(self, h11_cert):
        chan = c5_channel()
        with pytest.raises(InvalidParameterError):
            protocol_from_cert(h11_cert, chan)

    def test_classical_protocol_decodes_by_lookup(self, g11):
        rs = capsep.restricted_independent_set(11)
        idx = g11.indices_of(rs.vertices)
        cert = classical_embedding(g11, idx)
        chan = canonical_channel(g11)
        proto = protocol_from_cert(cert, chan)
        assert proto.dim == 1
        for message in (1, 14, 28):
            tr = simulate_transmission(proto, message, seed=message)
            assert tr.decoded == message

    def test_transcript_json(self):
        proto, _ = h3_protocol()
        tr = simulate_transmission(proto, 1, seed=5)
        payload = tr.to_json()
        assert payload["decoded"] == 1
        assert payload["correct"] is True
        assert len(payload["distribution"]) == proto.M
        assert abs(sum(payload["distribution"]) - 1.0) < 1e-9


def classical_g11_protocol(g11):
    rs = capsep.restricted_independent_set(11)
    cert = classical_embedding(g11, g11.indices_of(rs.vertices))
    chan = canonical_channel(g11)
    return protocol_from_cert(cert, chan), chan


class TestAgainstOracles:
    @pytest.mark.parametrize("which", ["H3", "G11 classical", "G11"])
    def test_gram_row_distribution_matches_explicit_state(self, which, g11,
                                                          g11_cert):
        if which == "H3":
            proto, chan = h3_protocol()
        elif which == "G11 classical":
            proto, chan = classical_g11_protocol(g11)
        else:
            chan = canonical_channel(g11_cert.graph)
            proto = protocol_from_cert(g11_cert, chan)
        for message in sorted({1, 2, proto.M // 2, proto.M} & set(range(1, proto.M + 1))):
            for seed in range(3):
                tr = simulate_transmission(proto, message, seed=seed)
                s, t, dist = explicit_state_transmission(proto, chan, message, seed)
                assert tr.sender_outcome == chan.inputs[s]
                assert tr.channel_output == chan.outputs[t]
                assert np.abs(np.array(tr.distribution) - dist).max() <= 1e-12
                assert tr.decoded == int(np.argmax(dist)) + 1

    @pytest.mark.parametrize("which", ["H11", "G11", "G11 classical", "H3"])
    def test_same_stream_as_generator_choice(self, which, g11, h11_cert, g11_cert):
        if which == "H3":
            proto, _ = h3_protocol()
        elif which == "G11 classical":
            proto, _ = classical_g11_protocol(g11)
        else:
            cert = h11_cert if which == "H11" else g11_cert
            proto = protocol_from_cert(cert, canonical_channel(cert.graph))
        for message in range(1, proto.M + 1):
            for seed in range(50):
                assert simulate_transmission(proto, message, seed) == \
                    simulate_transmission_by_choice(proto, message, seed)

    def test_sender_probabilities_must_be_a_distribution(self):
        with np.errstate(invalid="ignore"), pytest.raises(ProtocolError):
            Protocol(c5_channel(), 1, np.array([0]), np.array([1]),
                     np.zeros((1, 1)))

    def test_zero_error_matches_loop(self, g11, h11_cert, g11_cert):
        protos = [protocol_from_cert(c, canonical_channel(c.graph))
                  for c in (h11_cert, g11_cert)]
        protos.append(classical_g11_protocol(g11)[0])
        # Adjacent vertices have orthogonal vectors, so only tampered vectors
        # can break the zero-error condition: perturb all, or copy one.
        p = protos[0]
        noisy = p.vectors + 0.01 * np.random.default_rng(3).normal(size=p.vectors.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        copied = p.vectors.copy()
        copied[5] = copied[np.flatnonzero(p.messages != p.messages[5])[0]]
        for vectors in (noisy, copied):
            protos.append(Protocol(p.channel, p.M, p.inputs, p.messages,
                                   vectors))
        for proto in protos:
            report = proto.zero_error_report()
            instances, worst, witness = zero_error_by_loop(proto)
            assert report.instances == instances
            assert abs(report.max_violation - worst) <= 1e-15
            assert report.witness == (None if report.passed else witness)
        assert [p.zero_error_report().passed for p in protos] == \
            [True, True, True, False, False]

    def test_receiver_check_covers_every_output(self):
        # Two equal vectors with different messages meet at one output only,
        # the edge between them on a path, among more outputs than any sample
        # of a few hundred would cover.
        path = capsep.BitGraph(11, range(2000), ("explicit", [(u, u + 1) for u in range(1999)]))
        chan = canonical_channel(path)
        assert len(chan.outputs) == 3999
        one = np.ones((1, 1))
        proto = Protocol(chan, 2, np.array([1000, 1001]), np.array([1, 2]),
                         np.vstack([one, one]))
        report = proto.completeness_report()
        assert not report["passed"]
        assert abs(report["receiver_excess"] - 1.0) < 1e-12


class TestG11Protocol:
    def test_reduced_dimension_and_zero_error(self, g11_cert):
        chan = canonical_channel(g11_cert.graph)
        proto = protocol_from_cert(g11_cert, chan)
        assert proto.dim == 11  # hyperplane rank, one below ambient
        report = proto.zero_error_report()
        assert report.passed
        for message in range(1, proto.M + 1):
            tr = simulate_transmission(proto, message, seed=message)
            assert tr.decoded == message
            assert tr.distribution[message - 1] >= 1.0 - 1e-9

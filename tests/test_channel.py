import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.channel import (Channel, Protocol, canonical_channel,
                            check_zero_error_code, confusability_graph,
                            confusable_pairs, protocol_from_cert,
                            simulate_transmission)
from conftest import (channel_from_dense, confusable_pairs_by_loop,
                      explicit_state_transmission, maximally_entangled_state,
                      me_pair_trace, output_members_by_dict, partial_trace,
                      pentagon_channel, receiver_measurement,
                      sender_measurement, support, zero_error_by_loop,
                      zero_error_code_by_loop)
from capsep.entcert import EntCert, classical_embedding
from capsep.errors import InvalidParameterError, ProtocolError


def h3_protocol():
    rep = capsep.ortho_rep_H(3)
    packing = capsep.pack_cliques(
        rep.graph, capsep.clique_from_hadamard_H(capsep.sylvester(2)))
    cert = capsep.cert_from_packing(rep, packing)
    chan = canonical_channel(cert.graph)
    return protocol_from_cert(cert, chan), chan


class TestPentagonChannel:
    def test_confusability_is_c5(self):
        got = confusability_graph(pentagon_channel())
        assert set(got.edges()) == set(capsep.build_cycle(5).edges())

    def test_neighbors_share_an_output(self):
        c = pentagon_channel()
        assert support(c, 0) & support(c, 1) == {1}

    def test_non_neighbors_disjoint(self):
        c = pentagon_channel()
        assert not support(c, 0) & support(c, 2)

    def test_rows_are_half_half(self):
        c = pentagon_channel()
        idx, probs = c.row(3)
        assert idx.tolist() == [3, 4]
        assert probs.tolist() == [0.5, 0.5]


class TestConfusabilityGraph:
    def test_noiseless_channel_is_edgeless(self):
        c = channel_from_dense([str(i) for i in range(4)],
                               [str(i) for i in range(4)], np.eye(4))
        assert confusability_graph(c).edge_count == 0

    def test_constant_channel_is_complete(self):
        mat = np.zeros((4, 2))
        mat[:, 0] = 1.0
        c = channel_from_dense([str(i) for i in range(4)], ["a", "b"], mat)
        assert confusability_graph(c).edge_count == 6

    def test_row_sum_validation(self):
        with pytest.raises(InvalidParameterError):
            channel_from_dense(["0"], ["a", "b"], [[0.5, 0.6]])


@st.composite
def sparse_channels(draw):
    """Random channels with a few outputs per input and random weights."""
    n_in = draw(st.integers(1, 12))
    n_out = draw(st.integers(1, 15))
    rows = []
    for _ in range(n_in):
        idx = draw(st.lists(st.integers(0, n_out - 1), min_size=1, max_size=4,
                            unique=True))
        weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(idx),
                                         max_size=len(idx))), dtype=float)
        rows.append((np.array(idx), weights / weights.sum()))
    return Channel([str(i) for i in range(n_in)],
                   [str(t) for t in range(n_out)], rows)


class TestArrayRoutines:
    @settings(max_examples=200, deadline=None)
    @given(sparse_channels())
    def test_members_and_pairs_match_loop(self, chan):
        indptr, members = chan.members_by_output()
        oracle = output_members_by_dict(chan)
        for t in range(len(chan.outputs)):
            assert members[indptr[t]:indptr[t + 1]].tolist() == oracle.get(t, [])
        pairs = confusable_pairs(chan)
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        assert [tuple(p) for p in pairs.tolist()] == confusable_pairs_by_loop(chan)
        assert sorted(confusability_graph(chan).edges()) == \
            confusable_pairs_by_loop(chan)

    @pytest.mark.parametrize("name", ["C5", "H3", "G11", "H11"])
    def test_canonical_channel_confusability_is_g(self, name, g11, h11):
        g = {"C5": capsep.build_cycle(5), "H3": capsep.build_H(3),
             "G11": g11, "H11": h11}[name]
        chan = canonical_channel(g)
        assert len(chan.outputs) == g.vertex_count + g.edge_count
        got = confusability_graph(chan)
        assert np.array_equal(got.edge_array(), g.edge_array())

    def test_negative_dense_entry_reported(self):
        with pytest.raises(InvalidParameterError, match="negative probability"):
            channel_from_dense(["0"], ["a", "b"], [[1.5, -0.5]])

    def test_duplicate_output_in_row_rejected(self):
        with pytest.raises(InvalidParameterError):
            Channel(["0"], ["a", "b"], [(np.array([1, 1]), np.array([0.5, 0.5]))])


class TestCanonicalChannel:
    def test_c5_round_trip(self):
        c5 = capsep.build_cycle(5)
        chan = canonical_channel(c5)
        assert len(chan.outputs) == 5 + 5
        got = confusability_graph(chan)
        assert set(got.edges()) == set(c5.edges())

    def test_h3_round_trip_complete(self):
        h3 = capsep.build_H(3)
        chan = canonical_channel(h3)
        got = confusability_graph(chan)
        assert got.edge_count == 6

    def test_g11_round_trip(self, g11):
        chan = canonical_channel(g11)
        got = confusability_graph(chan)
        assert got.edge_count == g11.edge_count
        assert all(g11.is_adjacent(i, j) for i, j in got.edges())


class TestZeroErrorCode:
    def test_caption_code_passes(self):
        c = pentagon_channel()
        words = [(0, 2), (1, 4), (2, 1), (3, 3), (4, 0)]
        ok, witness = check_zero_error_code(c, words)
        assert ok and witness is None

    def test_confusable_pair_fails_with_witness(self):
        c = pentagon_channel()
        ok, witness = check_zero_error_code(c, [(0,), (1,)])
        assert not ok
        assert witness["shared_outputs"] == ["b"]

    def test_single_word(self):
        assert check_zero_error_code(pentagon_channel(), [(0, 0)]) == (True, None)

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            check_zero_error_code(pentagon_channel(), [(0, 1), (2,)])


@st.composite
def channels_and_codes(draw):
    """A random small channel and up to 8 words of length <= 3, duplicates likely."""
    n_in = draw(st.integers(1, 7))
    n_out = draw(st.integers(1, 6))
    rows = []
    for _ in range(n_in):
        idx = draw(st.lists(st.integers(0, n_out - 1), min_size=1, max_size=3,
                            unique=True))
        rows.append((np.array(idx), np.full(len(idx), 1.0 / len(idx))))
    chan = Channel([str(i) for i in range(n_in)], [f"o{t}" for t in range(n_out)], rows)
    k = draw(st.integers(0, 3))
    word = st.tuples(*[st.integers(0, n_in - 1)] * k)
    words = draw(st.lists(word, max_size=8))
    if words and draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(words)))
    return chan, words


class TestZeroErrorCodeAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(channels_and_codes())
    def test_matches_pair_loop_with_witness(self, case):
        chan, words = case
        assert check_zero_error_code(chan, words) == zero_error_code_by_loop(chan, words)

    def test_long_words_beyond_the_product_cap(self):
        # C5 has 5^11 > 10^7 words of length 11, more than a product graph holds
        words = [tuple(range(5)) * 2 + (0,), tuple(range(5)) * 2 + (2,)]
        assert check_zero_error_code(pentagon_channel(), words) == (True, None)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError, match="input index 5"):
            check_zero_error_code(pentagon_channel(), [(0, 1), (2, 5)])


def test_confusability_graph_is_unnamed():
    h7 = capsep.build_H(7)
    got = confusability_graph(canonical_channel(h7))
    assert got.family is None
    assert np.array_equal(got.edge_array(), h7.edge_array())
    assert got.edge_count == 1120
    with pytest.raises(InvalidParameterError):
        capsep.bitgraph.graph_from_ref(got.graph_ref())


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
               for (u, i), num in h11_cert.ops.items()}
        merged = EntCert(h11_cert.graph, h11_cert.M, h11_cert.dim,
                         h11_cert.denominator, h11_cert.rho_num, ops)
        chan = canonical_channel(h11_cert.graph)
        with pytest.raises(ProtocolError):
            protocol_from_cert(merged, chan)

    def test_dependent_dim1_cert_rejected(self):
        c5 = capsep.build_cycle(5)
        one = np.array([[1]], dtype=np.int64)
        bad = EntCert(c5, 2, 1, 1, one.copy(),
                      {(0, 1): one.copy(), (1, 2): one.copy()})
        chan = canonical_channel(c5)
        with pytest.raises(ProtocolError):
            protocol_from_cert(bad, chan)

    def test_wrong_channel_rejected(self, h11_cert):
        chan = pentagon_channel()
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
            protos.append(Protocol(p.channel, p.dim, p.M, p.inputs, p.messages,
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
        # among more outputs than any sample of a few hundred would cover.
        n_out = 2001
        rows = [(np.arange(1000), np.full(1000, 1e-3)),
                (np.array([1000, 2000]), np.array([0.5, 0.5])),
                (np.arange(1001, 2001), np.full(1000, 1e-3))]
        chan = Channel(["a", "b", "c"], [str(t) for t in range(n_out)], rows)
        one = np.ones((1, 1))
        proto = Protocol(chan, 1, 2, np.array([1, 2]), np.array([1, 2]),
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

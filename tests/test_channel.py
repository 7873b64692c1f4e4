import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.channel import Protocol, protocol_from_packing, simulate
from capsep.geometry import CliquePacking
from conftest import (EntCert, ProtocolError, RecordingGenerator, ScriptedGenerator,
                      canonical_output_labels, cert_from_packing, cert_with, channel_row,
                      channel_rows, check_zero_error_code, classical_embedding,
                      confusable_pairs_by_loop, drawn_indices, edge_array,
                      explicit_state_transmission, float_protocol, is_adjacent,
                      maximally_entangled_state, me_pair_trace, members_by_output, ops_by_pair,
                      output_members_by_dict, partial_trace, protocol_from_cert,
                      random_explicit_graph, receiver_excess_by_outputs, receiver_measurement,
                      sender_measurement, simulate_by_loop, support, tensor, transmission_by_gram,
                      verify, zero_error_by_loop, zero_error_code_by_loop)
from capsep.errors import InvalidParameterError, ResourceLimitError


def h3_cert():
    return cert_from_packing(capsep.pack_cliques(
        capsep.build_H(3), capsep.hadamard_clique(capsep.sylvester(2), "H")))


def protocol_and_floats(cert):
    """The protocol of a certificate over its graph's canonical channel, and its float form."""
    return protocol_from_cert(cert, cert.graph), float_protocol(cert, cert.graph)


def h3_protocol():
    return protocol_and_floats(h3_cert())


def one_hot(message: int, M: int) -> list[float]:
    return [float(j == message) for j in range(1, M + 1)]


def transcripts(proto, trials: int, seed: int = 0) -> list:
    """Every transcript of a run of ``trials`` from ``default_rng(seed)``'s two
    spawned generators, which decodes every trial."""
    out = simulate(proto, trials, np.random.default_rng(seed).spawn(2))
    assert len(out) == trials and all(tr["correct"] for tr in out)
    return out


def c5():
    """Its channel's outputs: 0..4 private; 5..9 the edges (0,1), (0,4), (1,2), (2,3), (3,4)."""
    return capsep.build_cycle(5)


def every_input_protocol(g) -> Protocol:
    """A protocol of one message, whose one row is every vertex of g."""
    return Protocol(g, np.arange(g.vertex_count)[None])


def singleton_packing(g) -> CliquePacking:
    """One clique, g's first vertex: a packing of any graph."""
    return CliquePacking(g, 1, ((int(g.bits_array[0]),),))


def sender_deviation(proto) -> float:
    """Worst entry of |sum_s A_i^s - I| over the messages, from the POVM oracle."""
    eye = np.eye(proto.dim)
    return max(float(np.abs(sum(sender_measurement(proto, i).values()) - eye).max())
               for i in range(1, proto.M + 1))


def verified(cert: EntCert) -> EntCert:
    """The certificate with its (passing) verification attached."""
    cert.verification = verify(cert)
    assert cert.verification.passed, cert.verification.witnesses
    return cert


def assert_realizes(g):
    """The oracle for g's channel: rows are distributions and share outputs on edges."""
    for x in range(g.vertex_count):
        idx, probs = channel_row(g, x)
        assert idx[0] == x and (np.diff(idx) > 0).all()
        assert (probs == 1.0 / idx.size).all() and abs(probs.sum() - 1.0) <= 1e-12
    assert confusable_pairs_by_loop(g) == [tuple(e) for e in edge_array(g).tolist()]


class TestPentagonChannel:
    def test_confusability_is_c5(self):
        assert confusable_pairs_by_loop(c5()) == \
            sorted(map(tuple, edge_array(capsep.build_cycle(5)).tolist()))

    def test_freed_without_the_cycle_collector(self):
        proto = every_input_protocol(c5())
        assert proto.transcript(1, 0, 1)["channel_output"] == "0|1"
        ref = weakref.ref(proto)
        gc.disable()
        try:
            del proto
            assert ref() is None
        finally:
            gc.enable()

    def test_neighbors_share_an_output(self):
        g = c5()
        assert support(g, 0) & support(g, 1) == {5}
        assert canonical_output_labels(g)[5] == "0|1"

    def test_non_neighbors_disjoint(self):
        g = c5()
        assert not support(g, 0) & support(g, 2)

    def test_rows_are_uniform(self):
        idx, probs = channel_row(c5(), 3)
        assert idx.tolist() == [3, 8, 9]
        assert probs.tolist() == [1 / 3] * 3


class TestConfusabilityGraph:
    def test_noiseless_channel_is_edgeless(self):
        g = random_explicit_graph(4, 0.0, 0)
        assert [channel_row(g, x)[1].tolist() for x in range(4)] == [[1.0]] * 4
        assert confusable_pairs_by_loop(g) == []

    def test_complete_graph_channel_is_complete(self):
        assert len(confusable_pairs_by_loop(capsep.bitgraph.build_complete(4))) == 6


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
        indptr, members = members_by_output(g)
        oracle = output_members_by_dict(g)
        outputs = g.vertex_count + g.edge_count
        assert len(indptr) == outputs + 1
        for t in range(outputs):
            assert members[indptr[t]:indptr[t + 1]].tolist() == oracle.get(t, [])
        assert_realizes(g)

    @pytest.mark.parametrize("name", ["C5", "K4", "H3", "G7", "H7", "G11", "H11"])
    def test_canonical_channel_confusability_is_g(self, name, g11, h11):
        g = {"G11": g11, "H11": h11}.get(name) or capsep.bitgraph.graph_from_ref(name)
        assert len(canonical_output_labels(g)) == g.vertex_count + g.edge_count
        assert_realizes(g)


class TestCsrRows:
    def test_row_bounds_checked(self):
        for name in ("C5", "H3", "G7"):
            g = capsep.bitgraph.graph_from_ref(name)
            indptr, targets = channel_rows(g)
            assert len(indptr) == g.vertex_count + 1 and indptr[0] == 0, name
            assert indptr[-1] == len(targets) == g.vertex_count + 2 * g.edge_count, name
            assert (np.diff(indptr) >= 1).all(), name

    def test_rows_read_back(self):
        c = c5()
        indptr, targets = channel_rows(c)
        assert [channel_row(c, x)[0].tolist() for x in (0, 4)] == [[0, 5, 6], [4, 6, 9]]
        assert [targets[indptr[x]:indptr[x + 1]].tolist() for x in range(5)] == \
            [channel_row(c, x)[0].tolist() for x in range(5)]


class TestOutputLabels:
    @pytest.mark.parametrize("name", ["C5", "H7", "G11"])
    def test_matches_eager_labels(self, name, g11):
        # every output of every row, as a transcript names it
        g = {"C5": capsep.build_cycle(5), "H7": capsep.build_H(7), "G11": g11}[name]
        proto, eager = every_input_protocol(g), canonical_output_labels(g)
        indptr, targets = channel_rows(g)
        for k in range(g.vertex_count):
            row = targets[indptr[k]:indptr[k + 1]].tolist()
            assert [proto.transcript(1, k, pos)["channel_output"] for pos in range(len(row))] \
                == [eager[t] for t in row]


class TestInputLabels:
    @pytest.mark.parametrize("name", ["C5", "H7", "G11", "C5xC5"])
    def test_matches_vertex_labels(self, name, g11):
        g = g11 if name == "G11" else capsep.bitgraph.graph_from_ref(name)
        proto = every_input_protocol(g)
        eager = [g.vertex_label(i) for i in range(g.vertex_count)]
        printed = [proto.transcript(1, k, 0) for k in range(g.vertex_count)]
        assert [tr["sender_outcome"] for tr in printed] == eager
        assert [tr["channel_output"] for tr in printed] == eager

    def test_no_label_formed_by_the_constructor(self, monkeypatch):
        packing = packing_of("G11", 0)
        monkeypatch.setattr(packing.graph, "vertex_label",
                            lambda i: pytest.fail("a label was formed"))
        assert len(protocol_from_packing(packing).inputs) == packing.count * packing.clique_size

    def test_simulation_forms_only_the_printed_labels(self, h11_cert, monkeypatch):
        g, formed = h11_cert.graph, []
        label = g.vertex_label
        monkeypatch.setattr(g, "vertex_label", lambda i: formed.append(i) or label(i))
        proto = protocol_from_cert(h11_cert, g)
        printed = simulate(proto, 20, np.random.default_rng(0).spawn(2))
        assert len(printed) == 20
        # the sender's label, and the other end's for an edge output
        assert len(formed) == sum(1 + ("|" in tr["channel_output"]) for tr in printed)
        named = {name for tr in printed for name in (tr["sender_outcome"],
                                                       *tr["channel_output"].split("|"))}
        assert set(g.indices_of_labels(sorted(named)).tolist()) == set(formed)

    def test_channel_of_an_equal_graph_accepted(self, h11_cert):
        proto = protocol_from_cert(h11_cert, capsep.build_H(11))
        assert proto.M == h11_cert.M


class TestCanonicalChannel:
    @pytest.mark.parametrize("name", ["C5", "K4", "O4", "H3", "G7", "H7", "G11"])
    def test_cap_counts_exactly_the_outputs(self, name, g11, monkeypatch):
        # protocol_from_packing refuses |V| + |E| outputs over the cap before any work
        g = g11 if name == "G11" else capsep.bitgraph.graph_from_ref(name)
        packing, outputs = singleton_packing(g), g.vertex_count + g.edge_count

        def refuse(*args, **kwargs):
            raise AssertionError("work began")
        monkeypatch.setattr(capsep.bitgraph.BitGraph, "edge_count", g.edge_count)
        monkeypatch.setattr(capsep.bitgraph.BitGraph, "adjacency_among", refuse)
        monkeypatch.setattr(capsep.channel, "packing_proof", refuse)
        monkeypatch.setattr(capsep.channel, "MAX_VERTICES", outputs - 1)
        with pytest.raises(ResourceLimitError,
                           match=f"{outputs} outputs, over the cap {outputs - 1}$"):
            protocol_from_packing(packing)
        monkeypatch.setattr(capsep.channel, "MAX_VERTICES", outputs)
        with pytest.raises(AssertionError, match="work began"):
            protocol_from_packing(packing)

    def test_over_the_cap_refused_before_any_edge_is_listed(self, monkeypatch):
        # H15: 2^14 vertices and 2^14 * C(15, 8) / 2 = 52.7M edges
        h15 = capsep.build_H(15)  # edges are listed only from the all-pairs blocks
        monkeypatch.setattr(h15, "adjacency_blocks", lambda: pytest.fail("edges were listed"))
        monkeypatch.setattr(capsep.channel, "packing_proof",
                            lambda packing: pytest.fail("the proof ran"))
        with pytest.raises(ResourceLimitError, match="H15 would have 52731904 outputs"):
            protocol_from_packing(singleton_packing(h15))

    def test_c5_round_trip(self):
        g = c5()
        assert len(canonical_output_labels(g)) == 5 + 5
        assert set(confusable_pairs_by_loop(g)) == set(map(tuple, edge_array(g).tolist()))

    def test_h3_round_trip_complete(self):
        assert len(confusable_pairs_by_loop(capsep.build_H(3))) == 6

    def test_g11_round_trip(self, g11):
        got = confusable_pairs_by_loop(g11)
        assert len(got) == g11.edge_count
        assert all(is_adjacent(g11, i, j) for i, j in got)


class TestZeroErrorCode:
    def test_caption_code_passes(self):
        words = [(0, 2), (1, 4), (2, 1), (3, 3), (4, 0)]
        ok, witness = check_zero_error_code(c5(), words)
        assert ok and witness is None

    def test_confusable_pair_fails_with_witness(self):
        ok, witness = check_zero_error_code(c5(), [(0,), (1,)])
        assert not ok
        assert witness["shared_outputs"] == ["0|1"]

    def test_single_word(self):
        assert check_zero_error_code(c5(), [(0, 0)]) == (True, None)

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            check_zero_error_code(c5(), [(0, 1), (2,)])


@st.composite
def channels_and_codes(draw):
    """A random graph and up to 8 words of length <= 3, duplicates likely."""
    g = draw(explicit_graphs(max_vertices=7))
    n_in = g.vertex_count
    k = draw(st.integers(0, 3))
    word = st.tuples(*[st.integers(0, n_in - 1)] * k)
    words = draw(st.lists(word, max_size=8))
    if words and draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(words)))
    return g, words


class TestZeroErrorCodeAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(channels_and_codes())
    def test_matches_pair_loop_with_witness(self, case):
        g, words = case
        assert check_zero_error_code(g, words) == zero_error_code_by_loop(g, words)

    def test_long_words_beyond_the_product_cap(self):
        # C5 has 5^11 > 10^7 words of length 11, more than a product graph holds
        words = [tuple(range(5)) * 2 + (0,), tuple(range(5)) * 2 + (2,)]
        assert check_zero_error_code(c5(), words) == (True, None)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError, match="input index 5"):
            check_zero_error_code(c5(), [(0, 1), (2, 5)])


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
        proto, fp = h3_protocol()
        assert proto.M == 1
        # the condition is vacuous
        assert proto.zero_error_instances == 0 and zero_error_by_loop(fp) == (0, 0.0, None)
        [tr] = transcripts(proto, 1)
        assert tr["decoded"] == 1

    def test_h3_sender_distribution_sums_to_one(self):
        proto, fp = h3_protocol()
        assert proto.dim == fp.dim == 4
        total = 0.0
        rho = maximally_entangled_state(fp.dim)
        for s, a in sender_measurement(fp, 1).items():
            total += float(np.trace(np.kron(a, np.eye(fp.dim)) @ rho))
        assert abs(total - 1.0) < 1e-10

    def test_h3_completeness(self):
        _, fp = h3_protocol()
        assert sender_deviation(fp) <= 1e-10
        assert receiver_excess_by_outputs(fp) <= 1e-10

    def test_receiver_measurement_sums_to_identity(self):
        _, fp = h3_protocol()
        for t in range(fp.graph.vertex_count + fp.graph.edge_count):
            total = sum(receiver_measurement(fp, t))
            assert np.abs(total - np.eye(fp.dim)).max() < 1e-12

    def test_merged_cliques_rejected(self, h11_cert):
        ops = {(u, 1 if i == 2 else i): num
               for (u, i), num in ops_by_pair(h11_cert).items()}
        merged = cert_with(h11_cert, ops)
        with pytest.raises(ProtocolError):
            protocol_from_cert(merged, h11_cert.graph)

    def test_dependent_dim1_cert_rejected(self):
        c5 = capsep.build_cycle(5)
        one = np.array([[1]], dtype=np.int64)
        bad = EntCert(c5, 2, 1, 1, one, [0, 1], [1, 2], [one, one])
        with pytest.raises(ProtocolError):
            protocol_from_cert(bad, c5)

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
            protocol_from_cert(cert, cert.graph)

    def test_tight_frame_rejected(self):
        # Four plane vectors 45 degrees apart, two on each axis and two
        # diagonal, sum to 4I: condition 1 holds, and all four carry message 1,
        # so verify passes, but message 1 is a frame, not a basis.
        c5 = capsep.build_cycle(5)
        ops = [[[2, 0], [0, 0]], [[0, 0], [0, 2]], [[1, 1], [1, 1]], [[1, -1], [-1, 1]]]
        cert = verified(EntCert(c5, 1, 2, 8, 4 * np.eye(2, dtype=np.int64),
                                [0, 1, 2, 3], [1] * 4, ops))
        with pytest.raises(ProtocolError, match="do not annihilate pairwise"):
            protocol_from_cert(cert, c5)

    def test_unequal_traces_rejected(self):
        # An orthogonal basis of unequal lengths: rho = diag(2, 1) / 3 is no
        # scaled projector, and the sender would draw e_1 twice as often.
        c5 = capsep.build_cycle(5)
        cert = verified(EntCert(c5, 1, 2, 3, np.diag([2, 1]), [0, 1], [1, 1],
                                [[[2, 0], [0, 0]], [[0, 0], [0, 1]]]))
        with pytest.raises(ProtocolError, match=r"unequal traces \(2 at vertex 0, 1 at vertex 1\)"):
            protocol_from_cert(cert, c5)

    @pytest.mark.parametrize("failed", [False, True])
    def test_unverified_cert_rejected(self, failed):
        cert = cert_with(h3_cert())
        if failed:  # merge nothing, but claim a second message
            cert = cert_with(cert, M=2)
            cert.verification = verify(cert)
            assert not cert.verification.passed
        with pytest.raises(ProtocolError, match="no passing verification"):
            protocol_from_cert(cert, cert.graph)

    @pytest.mark.parametrize("name", ["H3", "H7", "G7", "C5"])
    def test_verified_certs_accepted(self, name):
        if name == "C5":
            cert = classical_embedding(capsep.build_cycle(5), [0, 2])
        else:
            g = capsep.bitgraph.graph_from_ref(name)
            cert = cert_from_packing(capsep.pack_cliques(
                g, capsep.hadamard_clique(capsep.find_hadamard(g.n + 1), name[0])))
        proto, fp = protocol_and_floats(cert)
        assert proto.dim == fp.dim
        instances, worst, _ = zero_error_by_loop(fp)
        assert proto.zero_error_instances == instances and worst <= 1e-9
        assert sender_deviation(fp) <= 1e-10
        assert receiver_excess_by_outputs(fp) <= 1e-10

    @pytest.mark.parametrize("name", ["H3xH3", "C5xC5", "C5xH3"])
    def test_verified_product_certs_accepted(self, name):
        # a product graph lists no edges, which the loop oracles read: decode instead
        factors = {"H3": h3_cert(), "C5": classical_embedding(capsep.build_cycle(5), [0, 2])}
        a, b = name.split("x")
        cert = tensor(factors[a], factors[b])
        proto = protocol_from_cert(cert, cert.graph)
        for tr in transcripts(proto, 5 * proto.M):
            assert tr["distribution"] == one_hot(tr["message"], proto.M)

    def test_wrong_channel_rejected(self, h11_cert):
        with pytest.raises(InvalidParameterError, match="inputs do not match"):
            protocol_from_cert(h11_cert, c5())

    def test_classical_protocol_decodes_by_lookup(self, g11):
        _, idx = capsep.restricted_independent_set(g11)
        cert = classical_embedding(g11, idx)
        proto = protocol_from_cert(cert, g11)
        assert proto.dim == 1
        for message, tr in enumerate(transcripts(proto, proto.M), 1):
            assert tr["message"] == tr["decoded"] == message

    def test_transcript_json(self):
        proto, _ = h3_protocol()
        [tr] = transcripts(proto, 1, seed=5)
        # the keys in the order channel-sim prints them
        assert list(tr) == ["message", "sender_outcome", "channel_output", "distribution",
                            "decoded", "correct"]
        assert (tr["message"], tr["decoded"], tr["correct"]) == (1, 1, True)
        assert tr["distribution"] == [1.0] * proto.M


def packing_of(name: str, seed: int):
    g = capsep.bitgraph.graph_from_ref(name)
    clique = capsep.hadamard_clique(capsep.find_hadamard(g.n + 1), name[0])
    return capsep.pack_cliques(g, clique, rng_seed=seed)


class TestPackingProtocol:
    @pytest.mark.parametrize("name, seed", [(name, seed)
                                            for name in ("H3", "H7", "G7", "H11", "G11")
                                            for seed in range(3)] + [("G15", 0)])
    def test_matches_the_certificate_oracle(self, name, seed):
        packing = packing_of(name, seed)
        proto = protocol_from_packing(packing)
        oracle = protocol_from_cert(cert_from_packing(packing),
                                    packing.graph)
        assert (proto.M, proto.dim) == (oracle.M, oracle.dim) == (packing.count,
                                                                   packing.clique_size)
        assert np.array_equal(proto.rows, oracle.rows)  # so inputs and messages too
        assert proto.zero_error_instances == oracle.zero_error_instances

    @pytest.mark.parametrize("name", ["G11", "H11"])
    def test_rows_are_the_cliques(self, name):
        # message i's inputs are row i - 1: clique i - 1's vertices, in its order
        packing = packing_of(name, 0)
        proto, g = protocol_from_packing(packing), packing.graph
        assert proto.rows.shape == (packing.count, packing.clique_size)
        assert np.array_equal(proto.rows, g.indices_of(packing.cliques))
        for row, clique in zip(proto.rows.tolist(), packing.cliques):
            assert g.bits_array[row].tolist() == list(clique)
        # trial i - 1 sends message i, from an input of row i - 1
        printed = simulate(proto, proto.M, np.random.default_rng(0).spawn(2))
        for row, tr in zip(proto.rows.tolist(), printed):
            assert tr["sender_outcome"] in [g.vertex_label(u) for u in row]

    def test_g15_protocol_memory(self):
        # one (M dim, |V|) bool matrix, 2.8 MB at G15, and the 22 MB int64 XOR
        # that adjacency_among forms it from
        packing = packing_of("G15", 0)
        tracemalloc.start()
        try:
            instances = protocol_from_packing(packing).zero_error_instances
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert instances == 1096402
        assert peak < 32 * 2**20, peak


def classical_g11_protocol(g11):
    _, idx = capsep.restricted_independent_set(g11)
    return protocol_and_floats(classical_embedding(g11, idx))


class TestAgainstOracles:
    @pytest.mark.parametrize("which", ["H3", "G11 classical", "G11"])
    def test_gram_row_distribution_matches_explicit_state(self, which, g11,
                                                          g11_cert):
        if which == "H3":
            proto, fp = h3_protocol()
        elif which == "G11 classical":
            proto, fp = classical_g11_protocol(g11)
        else:
            proto, fp = protocol_and_floats(g11_cert)
        for tr in transcripts(proto, 3 * proto.M):
            if tr["message"] not in {1, 2, proto.M // 2, proto.M}:
                continue
            s, t = drawn_indices(proto.graph, tr["sender_outcome"], tr["channel_output"])
            dist = explicit_state_transmission(fp, tr["message"], s, t)
            assert np.abs(np.array(tr["distribution"]) - dist).max() <= 1e-12
            assert tr["decoded"] == int(np.argmax(dist)) + 1

    @pytest.mark.parametrize("which", ["H11", "G11", "G11 classical", "H3"])
    def test_draws_agree_with_the_gram_oracle(self, which, g11, h11_cert, g11_cert):
        if which == "H3":
            proto, fp = h3_protocol()
        elif which == "G11 classical":
            proto, fp = classical_g11_protocol(g11)
        else:
            proto, fp = protocol_and_floats(h11_cert if which == "H11" else g11_cert)
        for trial, tr in enumerate(transcripts(proto, 50 * proto.M)):
            message = trial % proto.M + 1
            s, t = drawn_indices(proto.graph, tr["sender_outcome"], tr["channel_output"])
            dist = transmission_by_gram(fp, message, s, t)
            assert (tr["message"], tr["decoded"]) == (message, message)
            assert tr["distribution"] == one_hot(message, proto.M)
            assert np.abs(dist - tr["distribution"]).max() <= 1e-12

    def test_exact_without_float_linear_algebra(self, g11, h11_cert, g11_cert, monkeypatch):
        c5 = classical_embedding(capsep.build_cycle(5), [0, 2])
        _, idx = capsep.restricted_independent_set(g11)
        certs = [h11_cert, g11_cert, classical_embedding(g11, idx),
                 tensor(c5, h3_cert())]

        def refuse(*args, **kwargs):
            raise AssertionError("float linear algebra was used")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        for cert in certs:
            proto = protocol_from_cert(cert, cert.graph)
            for tr in transcripts(proto, 50 * proto.M):
                assert tr["distribution"] == one_hot(tr["message"], proto.M)
                assert tr["decoded"] == tr["message"]

    def test_zero_error_matches_loop(self, g11, h11_cert, g11_cert):
        pairs = [protocol_and_floats(c) for c in (h11_cert, g11_cert)]
        pairs.append(classical_g11_protocol(g11))
        # Adjacent vertices have orthogonal vectors, so only tampered vectors
        # can break the zero-error condition: perturb all, or copy one.
        p, fp = pairs[0]
        noisy = fp.vectors + 0.01 * np.random.default_rng(3).normal(size=fp.vectors.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        copied = fp.vectors.copy()
        copied[5] = copied[np.flatnonzero(fp.messages != fp.messages[5])[0]]
        for vectors in (noisy, copied):
            pairs.append((p, float_protocol(h11_cert, p.graph, vectors)))
        passed = []
        for proto, fp in pairs:
            instances, worst, _ = zero_error_by_loop(fp)
            assert proto.zero_error_instances == instances
            passed.append((worst <= 1e-9, sender_deviation(fp) <= 1e-10,
                           receiver_excess_by_outputs(fp) <= 1e-10))
        assert passed == [(True,) * 3] * 3 + [(False,) * 3] * 2

    @pytest.mark.parametrize("which", ["H11", "G11"])
    def test_receiver_excess_matches_every_output(self, which, h11_cert, g11_cert):
        cert = h11_cert if which == "H11" else g11_cert
        _, fp = protocol_and_floats(cert)
        # Adjacent inputs carry orthogonal vectors; tilted, every pair overlaps.
        noisy = fp.vectors + 0.05 * np.random.default_rng(4).normal(size=fp.vectors.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        assert receiver_excess_by_outputs(fp) <= 1e-10
        assert receiver_excess_by_outputs(float_protocol(cert, fp.graph, noisy)) > 1e-3

    def test_receiver_check_covers_every_output(self):
        # Two equal vectors with different messages meet at one output only,
        # the edge between them on a path, among more outputs than any sample
        # of a few hundred would cover.
        path = capsep.BitGraph(11, range(2000), ("explicit", [(u, u + 1) for u in range(1999)]))
        assert path.vertex_count + path.edge_count == 3999
        one = np.ones((1, 1), dtype=np.int64)
        cert = EntCert(path, 2, 1, 1, one, [1000, 1001], [1, 2], [one, one])
        assert abs(receiver_excess_by_outputs(float_protocol(cert, path)) - 1.0) < 1e-12


class TestG11Protocol:
    def test_reduced_dimension_and_zero_error(self, g11_cert):
        proto, fp = protocol_and_floats(g11_cert)
        assert proto.dim == fp.dim == 11  # hyperplane rank, one below ambient
        assert zero_error_by_loop(fp)[1] <= 1e-9
        for message, tr in enumerate(transcripts(proto, proto.M), 1):
            assert tr["decoded"] == message
            assert tr["distribution"] == one_hot(message, proto.M)


def draw_cases(which, g11, h11_cert, g11_cert):
    if which == "G11 classical":
        _, idx = capsep.restricted_independent_set(g11)
        return classical_embedding(g11, idx)
    if which == "C5xH3":
        return tensor(classical_embedding(capsep.build_cycle(5), [0, 2]), h3_cert())
    return h11_cert if which == "H11" else g11_cert


class TestDrawRanges:
    @pytest.mark.parametrize("which", ["H11", "G11", "G11 classical", "C5xH3"])
    def test_two_draws_over_inputs_then_row(self, which, g11, h11_cert, g11_cert):
        cert = draw_cases(which, g11, h11_cert, g11_cert)
        proto = protocol_from_cert(cert, cert.graph)
        g, everyone = cert.graph, np.arange(cert.graph.vertex_count)
        index = {g.vertex_label(u): u for u in everyone.tolist()}  # a product's labels too
        assert (np.bincount(proto.messages)[1:] == proto.dim).all()  # a basis of range(rho)
        trials = 3 * proto.M + 1
        for seed in range(3):
            rngs = RecordingGenerator(seed), RecordingGenerator(seed + 10)
            printed = simulate(proto, trials, rngs)
            s = [index[tr["sender_outcome"]] for tr in printed]
            degrees = np.count_nonzero(g.adjacency_among(s, everyone), axis=1)
            assert rngs[0].bounds == [proto.dim] * trials
            assert rngs[1].bounds == (degrees + 1).tolist()

    def test_no_trial_draws_nothing(self, h11_cert):
        proto = protocol_from_cert(h11_cert, h11_cert.graph)
        rngs = RecordingGenerator(0), RecordingGenerator(1)
        assert simulate(proto, 0, rngs) == []
        assert rngs[0].bounds == rngs[1].bounds == []

    @pytest.mark.parametrize("which", ["H11", "G11", "G11 classical"])
    def test_each_value_draws_its_own_outcome(self, which, g11, h11_cert, g11_cert):
        # so uniform values give uniform senders and uniform outputs of row s
        cert = draw_cases(which, g11, h11_cert, g11_cert)
        proto = protocol_from_cert(cert, cert.graph)
        g, M = proto.graph, proto.M
        for message in (1, M):
            for a, u in enumerate(proto.rows[message - 1].tolist()):
                row = channel_row(g, u)[0].tolist()
                # trial message - 1 + b M sends the message; every trial takes row a
                trials = len(row) * M
                values = [(t - message + 1) // M if t % M == message - 1 else 0
                          for t in range(trials)]
                rngs = ScriptedGenerator(*[a] * trials), ScriptedGenerator(*values)
                printed = simulate(proto, trials, rngs)
                drawn = [drawn_indices(g, tr["sender_outcome"], tr["channel_output"])
                         for tr in printed[message - 1::M]]
                assert drawn == [(u, t) for t in row]


class TestAgainstTheLoop:
    @pytest.mark.parametrize("which", ["H11", "G11", "G11 classical", "C5xH3"])
    def test_same_draws_transcripts_and_failures(self, which, g11, h11_cert, g11_cert):
        # the transcripts name each trial's row and output
        cert = draw_cases(which, g11, h11_cert, g11_cert)
        proto = protocol_from_cert(cert, cert.graph)
        for seed in (0, 1):
            batch = simulate(proto, 5000, np.random.default_rng(seed).spawn(2))
            failures, loop = simulate_by_loop(proto, 5000, np.random.default_rng(seed).spawn(2),
                                              shown=5000)
            assert batch == loop and failures == 0
            # a short run is the long run's prefix: channel-sim draws only what it prints
            assert simulate(proto, 20, np.random.default_rng(seed).spawn(2)) == loop[:20]

    def test_printed_transcripts_do_not_depend_on_the_trial_count(self, g11_cert):
        proto = protocol_from_cert(g11_cert, g11_cert.graph)
        runs = [simulate(proto, trials, np.random.default_rng(9).spawn(2))
                for trials in (20, 5000)]
        assert runs[0] == runs[1][:20] and len(runs[0]) == 20
        assert simulate(proto, 1, np.random.default_rng(9).spawn(2)) == runs[0][:1]

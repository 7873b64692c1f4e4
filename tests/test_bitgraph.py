import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep import bitgraph
from capsep.bitgraph import (MAX_VERTICES, BitGraph, build_complete, pack_words, sign_rows,
                             weight_w_bits)
from capsep.errors import InvalidParameterError, ResourceLimitError
from conftest import (adjacency_by_rule, degree, dense_adjacency, edge_array, flatten,
                      hamming_distance, is_adjacent, weight_w_bits_by_combinations, word_of_signs)


def brute_weight_strings(n, w):
    return sorted(b for b in range(2**n) if bin(b).count("1") == w)


@pytest.mark.parametrize("n", [1, 5, 8, 12])
def test_weight_w_bits_is_every_weight_w_word_ascending(n):
    for w in range(n + 1):
        assert weight_w_bits(n, w) == brute_weight_strings(n, w)


@pytest.mark.parametrize("n", [*range(20), 63])
def test_weight_w_bits_agrees_with_the_combinations(n):
    # every weight up to n = 19; at n = 63 weights up to 2, which set the top
    # bit of the uint64 words: no overflow into a negative int
    for w in range(n + 1 if n < 20 else 3):
        assert weight_w_bits(n, w) == weight_w_bits_by_combinations(n, w)


class TestBuildG:
    def test_g3_is_triangle_on_enumerated_vertices(self):
        g = capsep.build_G(3)
        assert g.bits_array.tolist() == brute_weight_strings(3, 2)
        assert [g.vertex_label(i) for i in range(3)] == ["011", "101", "110"]
        # all pairwise distances are 2 = (n+1)/2, so G_3 is complete
        assert g.edge_count == 3
        for i in range(3):
            for j in range(3):
                assert is_adjacent(g, i, j) == (i != j)

    def test_g11_vertex_count_by_direct_count(self):
        g = capsep.build_G(11)
        direct = sum(1 for b in range(2**11) if bin(b).count("1") == 6)
        assert g.vertex_count == direct == 462

    @pytest.mark.parametrize("bad", [1, 2, 4, 65, -3])
    def test_rejects_degenerate_n(self, bad):
        with pytest.raises(InvalidParameterError):
            capsep.build_G(bad)


class TestBuildH:
    def test_h3_is_k4(self):
        h = capsep.build_H(3)
        assert h.bits_array.tolist() == [0b000, 0b011, 0b101, 0b110]
        assert h.edge_count == 6  # complete on 4 vertices

    def test_h11_count_by_direct_count(self):
        h = capsep.build_H(11)
        direct = sum(1 for b in range(2**11) if bin(b).count("1") % 2 == 0)
        assert h.vertex_count == direct == 2**10

    def test_g_is_induced_subgraph_of_h(self, g11, h11):
        picked = [i for i, b in enumerate(h11.bits_array.tolist())
                  if b.bit_count() == 6]
        assert h11.bits_array[picked].tolist() == g11.bits_array.tolist()
        sub = dense_adjacency(h11)[np.ix_(picked, picked)]
        assert np.array_equal(sub, dense_adjacency(g11))

    def test_rejects_even_n(self):
        with pytest.raises(InvalidParameterError):
            capsep.build_H(10)


class TestOrthogonalityGraph:
    def test_n2_four_cycle_by_brute_force(self):
        g = capsep.build_orthogonality_graph(2)
        assert g.vertex_count == 4
        expected = {(i, j) for i in range(4) for j in range(i + 1, 4)
                    if bin(i ^ j).count("1") == 1}
        assert set(map(tuple, edge_array(g).tolist())) == expected
        assert all(degree(g, i) == 2 for i in range(4))  # a 4-cycle

    def test_n4_degrees(self):
        g = capsep.build_orthogonality_graph(4)
        assert g.vertex_count == 16
        assert all(degree(g, i) == math.comb(4, 2) for i in range(16))

    def test_rejects_odd_n(self):
        with pytest.raises(InvalidParameterError):
            capsep.build_orthogonality_graph(5)

    def test_h11_embeds_in_o12(self, h11):
        # even-weight 12-bit strings with leading coordinate 0 induce H_11
        o12 = capsep.build_orthogonality_graph(12)
        picked = o12.indices_of(h11.bits_array)
        sub = dense_adjacency(o12)[np.ix_(picked, picked)]
        assert np.array_equal(sub, dense_adjacency(h11))


class TestCycle:
    def test_c5(self):
        c5 = capsep.build_cycle(5)
        assert c5.vertex_count == 5
        assert set(map(tuple, edge_array(c5).tolist())) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    def test_c3_is_triangle(self):
        assert capsep.build_cycle(3).edge_count == 3

    def test_c4_bipartite(self):
        c4 = capsep.build_cycle(4)
        evens, odds = {0, 2}, {1, 3}
        for i, j in edge_array(c4).tolist():
            assert (i in evens) != (j in evens)

    def test_rejects_small(self):
        with pytest.raises(InvalidParameterError):
            capsep.build_cycle(2)


class TestStrongProduct:
    def test_c5_squared_degree(self):
        c5 = capsep.build_cycle(5)
        p = capsep.ProductGraph([c5, c5])
        assert p.vertex_count == 25
        origin = flatten(p, (0, 0))
        brute = 0
        for i in range(25):
            if i == origin:
                continue
            a, b = p.parts(i)
            if (a == 0 or is_adjacent(c5, 0, a)) and (b == 0 or is_adjacent(c5, 0, b)):
                brute += 1
        assert degree(p, origin) == brute == 8

    def test_k1_identity(self):
        k1 = build_complete(1)
        c5 = capsep.build_cycle(5)
        p = capsep.ProductGraph([k1, c5])
        assert p.vertex_count == 5
        for i in range(5):
            for j in range(5):
                assert is_adjacent(p, i, j) == is_adjacent(c5, i, j)

    def test_cross_edges_form_4_clique(self):
        c5 = capsep.build_cycle(5)
        p = capsep.ProductGraph([c5, c5])
        # edge {0,1} in each factor
        corners = [flatten(p, (u, v)) for u in (0, 1) for v in (0, 1)]
        for a in corners:
            for b in corners:
                assert is_adjacent(p, a, b) == (a != b)

    def test_matches_brute_force_rule_on_random_pairs(self, h11):
        g3 = capsep.build_G(3)
        p = capsep.ProductGraph([g3, capsep.build_H(5)])
        rng = random.Random(1)
        for _ in range(10**4):
            i, j = rng.randrange(p.vertex_count), rng.randrange(p.vertex_count)
            parts_i, parts_j = p.parts(i), p.parts(j)
            want = i != j and all(
                a == b or is_adjacent(f, a, b)
                for f, a, b in zip(p.factors, parts_i, parts_j))
            assert is_adjacent(p, i, j) == want

    def test_product_size_cap(self, h11):
        with pytest.raises(ResourceLimitError):
            capsep.ProductGraph([h11] * 3)  # 1024^3 > 10^7


class TestHamming:
    def test_examples(self):
        assert hamming_distance(0b011, 0b101) == 2
        assert hamming_distance(0b1010, 0b1010) == 0
        assert hamming_distance(0, 0b11111111111) == 11

    def test_matches_xor_popcount_oracle(self):
        rng = random.Random(2)
        for _ in range(500):
            a, b = rng.randrange(2**13), rng.randrange(2**13)
            assert hamming_distance(a, b) == bin(a ^ b).count("1")


class TestInvariants:
    @pytest.mark.parametrize("g", [
        capsep.build_G(5), capsep.build_H(5), capsep.build_cycle(7),
        capsep.build_orthogonality_graph(6), capsep.build_G(7),
    ])
    def test_symmetric_zero_diagonal(self, g):
        mat = dense_adjacency(g)
        assert np.array_equal(mat, mat.T)
        assert not np.diagonal(mat).any()

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_vertex_count_formulas(self, n):
        assert capsep.build_G(n).vertex_count == math.comb(n, (n + 1) // 2)
        assert capsep.build_H(n).vertex_count == 2 ** (n - 1)

    def test_vertices_sorted_and_unique(self, g11):
        bits = g11.bits_array.tolist()
        assert bits == sorted(set(bits))

    @pytest.mark.parametrize("g", [
        capsep.build_cycle(5), capsep.build_cycle(9), build_complete(6),
        capsep.build_G(7), capsep.build_H(5), capsep.build_orthogonality_graph(4),
        capsep.BitGraph(3, range(6), ("explicit", [(4, 1), (0, 5), (2, 3)])),
        capsep.BitGraph(2, range(3), ("explicit", [])),
    ])
    def test_edge_array_is_row_major_edge_list(self, g):
        rule = adjacency_by_rule(g)
        pairs = [(i, j) for i in range(g.vertex_count)
                 for j in range(i + 1, g.vertex_count) if rule(i, j)]
        assert all(is_adjacent(g, i, j) == rule(i, j) for i in range(g.vertex_count)
                   for j in range(g.vertex_count))
        arr = edge_array(g)
        assert arr.dtype == np.int64 and arr.shape == (len(pairs), 2)
        assert [tuple(e) for e in arr.tolist()] == pairs


class TestExplicitEdges:
    def test_duplicates_and_orientation_collapse(self):
        g = capsep.BitGraph(2, range(4), ("explicit", [(1, 0), (0, 1), (3, 2), (2, 3)]))
        assert g.edge_count == 2
        assert edge_array(g).tolist() == [[0, 1], [2, 3]]
        assert is_adjacent(g, 1, 0) and not is_adjacent(g, 1, 2)

    @pytest.mark.parametrize("edges, phrase", [([(0, 1), (2, 2)], "self-loop"),
                                               ([(0, 4)], "out of range"),
                                               ([(-1, 2)], "out of range")])
    def test_rejects_bad_edges(self, edges, phrase):
        with pytest.raises(InvalidParameterError, match=phrase):
            capsep.BitGraph(2, range(4), ("explicit", edges))

    def test_accepts_array_and_iterator(self):
        pairs = [(0, 2), (1, 3)]
        a = capsep.BitGraph(2, range(4), ("explicit", np.array(pairs)))
        b = capsep.BitGraph(2, range(4), ("explicit", iter(pairs)))
        assert edge_array(a).tolist() == edge_array(b).tolist() == [[0, 2], [1, 3]]


class TestAdjacencyAmong:
    @pytest.mark.parametrize("g", [
        capsep.build_cycle(7), build_complete(5), capsep.build_G(7), capsep.build_H(5),
        capsep.BitGraph(2, range(3), ("explicit", [])),
        capsep.ProductGraph([capsep.build_cycle(5), capsep.build_H(3)]),
        capsep.ProductGraph([capsep.build_cycle(4)] * 3),
    ])
    def test_matches_rule_and_dense_matrix(self, g):
        rng = random.Random(g.vertex_count)
        nv = g.vertex_count
        rows = [rng.randrange(nv) for _ in range(9)]
        cols = [rng.randrange(nv) for _ in range(11)] + rows[:2]
        rule = adjacency_by_rule(g)
        got = g.adjacency_among(rows, cols)
        assert got.tolist() == [[rule(i, j) for j in cols] for i in rows]
        assert np.array_equal(g.adjacency_among(rows),
                              dense_adjacency(g)[np.ix_(rows, rows)])


class TestExport:
    def test_descriptor(self, g11):
        d = g11.descriptor()
        assert d == {"family": "G", "n": 11, "vertex_count": 462,
                     "edge_count": g11.edge_count}

    @pytest.mark.parametrize("ref", [f"{f}{n}" for f in "GH" for n in (3, 5, 7, 9, 11)]
                             + [f"O{n}" for n in (4, 6, 8, 10)])
    def test_edge_count_matches_the_dense_count(self, ref, monkeypatch):
        g = capsep.bitgraph.graph_from_ref(ref)
        dense = int(np.count_nonzero(dense_adjacency(g))) // 2
        rows, among = [], g.adjacency_among
        monkeypatch.setattr(g, "adjacency_among",
                            lambda r, c=None: rows.append(len(r)) or among(r, c))
        assert g.edge_count == dense
        assert rows == [1]  # one row of the pair rule, no all-pairs count

    def test_edge_count_at_n19_without_a_dense_matrix(self):
        # |V| deg / 2: G19 meets C(10,5) C(9,5) words at distance 10, H19 all of weight 10
        g19, h19 = capsep.build_G(19), capsep.build_H(19)
        assert g19.edge_count == math.comb(19, 10) * math.comb(10, 5) * math.comb(9, 5) // 2
        assert h19.edge_count == 2**18 * math.comb(19, 10) // 2
        assert (g19.edge_count, h19.edge_count) == (1_466_593_128, 12_108_169_216)
        assert g19.descriptor()["edge_count"] == 1_466_593_128

    @pytest.mark.parametrize("ref", ["C5xH3", "C4xC4xC4", "C7xK5", "H3xH3"])
    def test_product_edge_count_matches_the_dense_count(self, ref, monkeypatch):
        g = bitgraph.graph_from_ref(ref)
        dense = int(np.count_nonzero(dense_adjacency(g))) // 2
        monkeypatch.setattr(g, "adjacency_among", lambda *a: pytest.fail("pairwise count"))
        assert g.edge_count == dense

    def test_product_edge_count_past_the_all_pairs_cap(self):
        # 2|E| = 15^7 - 5^7: each C5 vertex has a closed neighbourhood of 3
        g = bitgraph.graph_from_ref("C5xC5xC5xC5xC5xC5xC5")
        assert g.vertex_count == 78_125 > bitgraph.DENSE_ADJACENCY_CAP
        assert g.edge_count == (15**7 - 5**7) // 2 == 85_390_625
        assert g.descriptor() == {"family": "product", "n": 21, "vertex_count": 78_125,
                                  "edge_count": 85_390_625}


class TestEdgeArray:
    @pytest.mark.parametrize("g", [
        capsep.build_G(11), capsep.build_H(11), capsep.build_orthogonality_graph(10),
        BitGraph(12, range(4096), ("distance", 1)),  # unnamed: four row blocks
        BitGraph(10, random.Random(3).sample(range(1024), 300), ("distance", 4)),
        # family G on part of its words: not vertex-transitive, so no |V| deg(0) / 2
        BitGraph(7, weight_w_bits(7, 4)[:20], ("distance", 4), family="G"),
    ], ids=lambda g: f"{g.graph_ref()}-{g.vertex_count}")
    def test_matches_the_dense_oracle_in_order(self, g):
        want = np.argwhere(np.triu(dense_adjacency(g), 1))
        got = edge_array(g)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert g.edge_count == len(want)

    def test_unnamed_graph_over_the_all_pairs_cap_is_refused(self):
        g = BitGraph(15, range(2**15), ("distance", 1))
        with pytest.raises(ResourceLimitError, match="all-pairs adjacency for 32768"):
            g.edge_count
        with pytest.raises(ResourceLimitError, match="all-pairs adjacency for 32768"):
            edge_array(g)
        assert g.descriptor()["edge_count"] is None


CODEC_GRAPHS = [capsep.build_G(7), capsep.build_H(7), capsep.build_orthogonality_graph(6),
                capsep.build_cycle(7), build_complete(5)]


class TestLabelCodec:
    @pytest.mark.parametrize("g", CODEC_GRAPHS, ids=lambda g: g.graph_ref())
    def test_index_of_label_inverts_vertex_label(self, g):
        every = range(g.vertex_count)
        labels = [g.vertex_label(i) for i in every]
        assert g.indices_of_labels(labels).tolist() == list(every)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(CODEC_GRAPHS), st.data())
    def test_one_character_edit_is_exact_or_unknown(self, g, data):
        label = g.vertex_label(data.draw(st.integers(0, g.vertex_count - 1)))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        pos = data.draw(st.integers(0, len(label) - (kind != "insert")))
        char = data.draw(st.sampled_from("0123456789(),x+-_ \t٠１"))
        edited = (label[:pos] + ("" if kind == "delete" else char)
                  + label[pos + (kind != "insert"):])
        try:
            i = g.indices_of_labels([edited])[0]
        except InvalidParameterError as exc:
            assert "unknown vertex" in str(exc)
        else:
            assert g.vertex_label(i) == edited


class TestGraphFromRef:
    @pytest.mark.parametrize("g", CODEC_GRAPHS + [
        capsep.ProductGraph([capsep.build_cycle(7), build_complete(5)]),
        capsep.ProductGraph([capsep.build_H(3)] * 3)], ids=lambda g: g.graph_ref())
    def test_rebuilds_every_reference(self, g):
        again = bitgraph.graph_from_ref(g.graph_ref())
        assert type(again) is type(g) and again.graph_ref() == g.graph_ref()
        assert np.array_equal(dense_adjacency(again), dense_adjacency(g))

    def test_factors_built_once_and_only_under_the_cap(self, monkeypatch):
        built = []
        real = bitgraph.build_H
        monkeypatch.setattr(bitgraph, "build_H", lambda n: built.append(n) or real(n))
        assert bitgraph.graph_from_ref("H3xH3xH5").vertex_count == 4 * 4 * 16
        assert built == [3, 5]
        built.clear()
        with pytest.raises(ResourceLimitError):
            bitgraph.graph_from_ref("H13xH15xH13xH17")  # 4096 * 16384 > 10^7
        assert built == [13, 15]

    @pytest.mark.parametrize("ref", ["", "x", "C5x", "xC5", "C5xQ3", "C5xxC5", "C5X5", "G",
                                     "H03", "G011", "C05xC5"])
    def test_rejects_malformed_references(self, ref):
        with pytest.raises(InvalidParameterError, match="cannot build"):
            bitgraph.graph_from_ref(ref)


@st.composite
def graphs_and_queries(draw):
    """A graph on a random set of n-bit words, and words to look up in it."""
    n = draw(st.integers(1, 12))
    words = draw(st.lists(st.integers(0, 2**n - 1), max_size=40, unique=True))
    queries = draw(st.lists(st.integers(0, 2**n - 1), max_size=20))
    return n, words, queries


class TestVertexLookup:
    @settings(max_examples=200, deadline=None)
    @given(graphs_and_queries())
    def test_indices_of_matches_dict_oracle(self, case):
        n, words, queries = case
        g = BitGraph(n, words, ("distance", 1))
        oracle = {b: i for i, b in enumerate(sorted(words))}
        present = [q for q in queries if q in oracle]
        got = g.indices_of(present)
        assert got.dtype == np.int64
        assert got.tolist() == [oracle[q] for q in present]
        assert [g.index_of(q) for q in present] == got.tolist()
        assert [q in g for q in queries] == [q in oracle for q in queries]
        absent = [q for q in queries if q not in oracle]
        if absent:
            with pytest.raises(InvalidParameterError, match=f"{absent[0]:#b}"):
                g.indices_of(present + absent)

    @pytest.mark.parametrize("word", [-1, 2**7, 2**63, 2**64, 2**163 - 1])
    def test_words_outside_the_graph_raise(self, word):
        h7 = capsep.build_H(7)
        with pytest.raises(InvalidParameterError):
            h7.indices_of([0, word])
        with pytest.raises(InvalidParameterError):
            h7.index_of(word)
        assert word not in h7

    @pytest.mark.parametrize("bits, phrase", [([1, 1], "duplicate"),
                                              ([-1, 2], "negative"),
                                              ([2**70], "wider"),
                                              ([8], "does not fit")])
    def test_init_rejects_bad_words(self, bits, phrase):
        with pytest.raises(InvalidParameterError, match=phrase):
            BitGraph(3, bits, ("distance", 1))


class TestSizeCaps:
    def test_checked_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            capsep.build_cycle(10**8)
        with pytest.raises(ResourceLimitError):
            build_complete(4473)  # 10,001,628 edges
        with pytest.raises(ResourceLimitError):
            BitGraph(30, range(MAX_VERTICES + 1), ("distance", 1))
        assert time.perf_counter() - start < 1.0


class TestWordsFromSigns:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 63).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), max_size=20))))
    def test_inverse_of_sign_rows(self, case):
        n, words = case
        assert pack_words(sign_rows(np.array(words, dtype=np.uint64), n) < 0) == words

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**163 - 1), min_size=1, max_size=6))
    def test_round_trip_at_163_bits(self, words):
        signs = np.array([[1 - 2 * ((w >> (162 - j)) & 1) for j in range(163)]
                          for w in words], dtype=np.int64)
        assert pack_words(signs < 0) == words
        assert [word_of_signs(row) for row in signs.tolist()] == words

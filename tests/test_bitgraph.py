import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.bitgraph import (MAX_VERTICES, BitGraph, BitVertex, build_complete,
                             sign_rows, weight_w_bits, words_from_signs)
from capsep.errors import InvalidParameterError, ResourceLimitError
from conftest import adjacency_by_rule, degree, flatten, word_of_signs


def brute_weight_strings(n, w):
    return sorted(b for b in range(2**n) if bin(b).count("1") == w)


@pytest.mark.parametrize("n", [1, 5, 8, 12])
def test_weight_w_bits_is_every_weight_w_word_ascending(n):
    for w in range(n + 1):
        assert weight_w_bits(n, w) == brute_weight_strings(n, w)


class TestBuildG:
    def test_g3_is_triangle_on_enumerated_vertices(self):
        g = capsep.build_G(3)
        assert [v.bits for v in g.vertices] == brute_weight_strings(3, 2)
        assert [str(v) for v in g.vertices] == ["011", "101", "110"]
        # all pairwise distances are 2 = (n+1)/2, so G_3 is complete
        assert g.edge_count == 3
        for i in range(3):
            for j in range(3):
                assert g.is_adjacent(i, j) == (i != j)

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
        assert [v.bits for v in h.vertices] == [0b000, 0b011, 0b101, 0b110]
        assert h.edge_count == 6  # complete on 4 vertices

    def test_h11_count_by_direct_count(self):
        h = capsep.build_H(11)
        direct = sum(1 for b in range(2**11) if bin(b).count("1") % 2 == 0)
        assert h.vertex_count == direct == 2**10

    def test_g_is_induced_subgraph_of_h(self, g11, h11):
        picked = [i for i in range(h11.vertex_count)
                  if h11.vertex(i).weight == 6]
        assert [h11.vertex(i).bits for i in picked] == \
            [v.bits for v in g11.vertices]
        sub = h11.adjacency_matrix()[np.ix_(picked, picked)]
        assert np.array_equal(sub, g11.adjacency_matrix())

    def test_rejects_even_n(self):
        with pytest.raises(InvalidParameterError):
            capsep.build_H(10)


class TestOrthogonalityGraph:
    def test_n2_four_cycle_by_brute_force(self):
        g = capsep.build_orthogonality_graph(2)
        assert g.vertex_count == 4
        expected = {(i, j) for i in range(4) for j in range(i + 1, 4)
                    if bin(i ^ j).count("1") == 1}
        assert set(g.edges()) == expected
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
        picked = [o12.index_of(v.bits) for v in h11.vertices]
        sub = o12.adjacency_matrix()[np.ix_(picked, picked)]
        assert np.array_equal(sub, h11.adjacency_matrix())


class TestCycle:
    def test_c5(self):
        c5 = capsep.build_cycle(5)
        assert c5.vertex_count == 5
        assert set(c5.edges()) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    def test_c3_is_triangle(self):
        assert capsep.build_cycle(3).edge_count == 3

    def test_c4_bipartite(self):
        c4 = capsep.build_cycle(4)
        evens, odds = {0, 2}, {1, 3}
        for i, j in c4.edges():
            assert (i in evens) != (j in evens)

    def test_rejects_small(self):
        with pytest.raises(InvalidParameterError):
            capsep.build_cycle(2)


class TestStrongProduct:
    def test_c5_squared_degree(self):
        c5 = capsep.build_cycle(5)
        p = capsep.strong_product(c5, c5)
        assert p.vertex_count == 25
        origin = flatten(p, (0, 0))
        brute = 0
        for i in range(25):
            if i == origin:
                continue
            a, b = p.parts(i)
            if (a == 0 or c5.is_adjacent(0, a)) and (b == 0 or c5.is_adjacent(0, b)):
                brute += 1
        assert degree(p, origin) == brute == 8

    def test_k1_identity(self):
        k1 = build_complete(1)
        c5 = capsep.build_cycle(5)
        p = capsep.strong_product(k1, c5)
        assert p.vertex_count == 5
        for i in range(5):
            for j in range(5):
                assert p.is_adjacent(i, j) == c5.is_adjacent(i, j)

    def test_cross_edges_form_4_clique(self):
        c5 = capsep.build_cycle(5)
        p = capsep.strong_product(c5, c5)
        # edge {0,1} in each factor
        corners = [flatten(p, (u, v)) for u in (0, 1) for v in (0, 1)]
        for a in corners:
            for b in corners:
                assert p.is_adjacent(a, b) == (a != b)

    def test_matches_brute_force_rule_on_random_pairs(self, h11):
        g3 = capsep.build_G(3)
        p = capsep.strong_product(g3, capsep.build_H(5))
        rng = random.Random(1)
        for _ in range(10**4):
            i, j = rng.randrange(p.vertex_count), rng.randrange(p.vertex_count)
            parts_i, parts_j = p.parts(i), p.parts(j)
            want = i != j and all(
                a == b or f.is_adjacent(a, b)
                for f, a, b in zip(p.factors, parts_i, parts_j))
            assert p.is_adjacent(i, j) == want

    def test_product_size_cap(self, h11):
        with pytest.raises(ResourceLimitError):
            capsep.strong_power(h11, 3)  # 1024^3 > 10^7


class TestHamming:
    def test_examples(self):
        assert capsep.hamming_distance(BitVertex(0b011, 3), BitVertex(0b101, 3)) == 2
        x = BitVertex(0b1010, 4)
        assert capsep.hamming_distance(x, x) == 0
        assert capsep.hamming_distance(
            BitVertex(0, 11), BitVertex(0b11111111111, 11)) == 11

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            capsep.hamming_distance(BitVertex(1, 3), BitVertex(1, 4))

    def test_matches_xor_popcount_oracle(self):
        rng = random.Random(2)
        for _ in range(500):
            a, b = rng.randrange(2**13), rng.randrange(2**13)
            assert capsep.hamming_distance(BitVertex(a, 13), BitVertex(b, 13)) == \
                bin(a ^ b).count("1")


class TestInvariants:
    @pytest.mark.parametrize("g", [
        capsep.build_G(5), capsep.build_H(5), capsep.build_cycle(7),
        capsep.build_orthogonality_graph(6), capsep.build_G(7),
    ])
    def test_symmetric_zero_diagonal(self, g):
        mat = g.adjacency_matrix()
        assert np.array_equal(mat, mat.T)
        assert not np.diagonal(mat).any()

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_vertex_count_formulas(self, n):
        assert capsep.build_G(n).vertex_count == math.comb(n, (n + 1) // 2)
        assert capsep.build_H(n).vertex_count == 2 ** (n - 1)

    def test_vertices_sorted_and_unique(self, g11):
        bits = [v.bits for v in g11.vertices]
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
        assert all(g.is_adjacent(i, j) == rule(i, j) for i in range(g.vertex_count)
                   for j in range(g.vertex_count))
        arr = g.edge_array()
        assert arr.dtype == np.int64 and arr.shape == (len(pairs), 2)
        assert [tuple(e) for e in arr.tolist()] == pairs == list(g.edges())


class TestExplicitEdges:
    def test_duplicates_and_orientation_collapse(self):
        g = capsep.BitGraph(2, range(4), ("explicit", [(1, 0), (0, 1), (3, 2), (2, 3)]))
        assert g.edge_count == 2
        assert g.edge_array().tolist() == [[0, 1], [2, 3]]
        assert g.is_adjacent(1, 0) and not g.is_adjacent(1, 2)

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
        assert a.edge_array().tolist() == b.edge_array().tolist() == [[0, 2], [1, 3]]


class TestAdjacencyAmong:
    @pytest.mark.parametrize("g", [
        capsep.build_cycle(7), build_complete(5), capsep.build_G(7), capsep.build_H(5),
        capsep.BitGraph(2, range(3), ("explicit", [])),
        capsep.strong_product(capsep.build_cycle(5), capsep.build_H(3)),
        capsep.strong_power(capsep.build_cycle(4), 3),
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
                              g.adjacency_matrix()[np.ix_(rows, rows)])


class TestExport:
    def test_dimacs_format(self):
        text = capsep.build_cycle(5).to_dimacs()
        lines = text.strip().split("\n")
        assert lines[0] == "p edge 5 5"
        assert sum(1 for l in lines if l.startswith("c v ")) == 5
        edge_lines = [l for l in lines if l.startswith("e ")]
        assert len(edge_lines) == 5
        assert all(1 <= int(t) <= 5 for l in edge_lines for t in l.split()[1:])

    def test_descriptor(self, g11):
        d = g11.descriptor()
        assert d == {"family": "G", "n": 11, "vertex_count": 462,
                     "edge_count": g11.edge_count}

    def test_bitvertex_validation(self):
        with pytest.raises(InvalidParameterError):
            BitVertex(0b100, 2)  # bit above length
        with pytest.raises(InvalidParameterError):
            BitVertex(1, 0)


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
        assert [g.index_of(BitVertex(q, n)) for q in present] == got.tolist()
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
        assert words_from_signs(sign_rows(np.array(words, dtype=np.uint64), n)) == words

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**163 - 1), min_size=1, max_size=6))
    def test_round_trip_at_163_bits(self, words):
        signs = np.array([[1 - 2 * ((w >> (162 - j)) & 1) for j in range(163)]
                          for w in words], dtype=np.int64)
        assert words_from_signs(signs) == words
        assert [word_of_signs(row) for row in signs.tolist()] == words

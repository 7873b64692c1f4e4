import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.algebra_fp import _fits_check, haemers_matrix, instance_prime
from capsep.bitgraph import BitGraph, weight_w_bits
from capsep.errors import InternalCheckError, InvalidParameterError
from conftest import (FpMatrix, assert_fits, build_ST, dense_adjacency, fitting_matrix,
                      fitting_matrix_by_polynomials, frankl_wilson_Q, gram_rank, hamming_distance,
                      inner_product_identity_check, monomial_basis, monomial_basis_by_filter,
                      monomial_values, multilinearize, rank_by_row_reduction, rank_fp, sign_vector)


def random_sign_point(n, rng):
    """A +-1 point of the cube as F_p-ready integers."""
    return np.array([rng.choice((1, -1)) for _ in range(n)], dtype=np.int64)


class TestInnerProductIdentity:
    def test_self_inner_product_is_minus_one(self):
        x = 0b11111100000
        assert inner_product_identity_check(x, x, 11, 3) == 2  # -1 mod 3

    def test_distance_six(self):
        x = 0b11111100000
        y = 0b00000011111 | (1 << 10)
        assert hamming_distance(x, y) == 10
        y6 = 0b11100000111
        assert hamming_distance(x, y6) == 6
        assert inner_product_identity_check(x, y6, 11, 3) == (-13) % 3 == 2

    def test_distance_four(self):
        x = 0b11111100000
        y = 0b11110011000
        assert hamming_distance(x, y) == 4
        assert inner_product_identity_check(x, y, 11, 3) == (-9) % 3 == 0

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            inner_product_identity_check(0b1010, 0b1010, 4, 3)

    def test_random_pairs_match_distance_formula(self):
        rng = random.Random(11)
        for p in (3, 5):
            n = 4 * p - 1
            for _ in range(300):
                x = rng.randrange(2**n)
                y = rng.randrange(2**n)
                d = hamming_distance(x, y)
                assert inner_product_identity_check(x, y, n, p) == (-2 * d - 1) % p


class TestFranklWilsonQ:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_q_at_own_vector_is_minus_one(self, p):
        rng = random.Random(p)
        n = 4 * p - 1
        for _ in range(20):
            u = sign_vector(rng.randrange(2**n), n, p)
            q = frankl_wilson_Q(u, p)
            assert q.evaluate(u) == (-1) % p  # Wilson's theorem

    def test_p3_value_by_hand(self):
        # <u,u> = -1, so the product is (-1)(-2) = 2 = -1 mod 3
        u = sign_vector(0b01101100011, 11, 3)
        assert frankl_wilson_Q(u, 3).evaluate(u) == 2

    def test_vanishes_off_minus_one(self):
        rng = random.Random(17)
        p, n = 3, 11
        hits = 0
        while hits < 200:
            u = sign_vector(rng.randrange(2**n), n, p)
            v = sign_vector(rng.randrange(2**n), n, p)
            ip = int(u @ v) % p
            if ip != p - 1:
                assert frankl_wilson_Q(u, p).evaluate(v) == 0
                hits += 1

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidParameterError):
            frankl_wilson_Q(np.ones(10, dtype=np.int64), 3)


class TestMultilinearize:
    def test_agrees_with_product_form_oracle(self):
        rng = random.Random(23)
        p, n = 3, 11
        for _ in range(30):
            u = sign_vector(rng.randrange(2**n), n, p)
            q = frankl_wilson_Q(u, p)
            poly = multilinearize(q)
            assert poly.degree <= p - 1
            for _ in range(40):
                v = random_sign_point(n, rng)
                assert poly.evaluate(v) == q.evaluate(v)

    def test_square_terms_collapse_to_constants(self):
        # For u = all-plus-ones, Q = t(t-1); t^2 contributes the constant n mod p.
        u = np.ones(11, dtype=np.int64)
        poly = multilinearize(frankl_wilson_Q(u, 3))
        assert poly.terms.get(0, 0) == 11 % 3 == 2

    @pytest.mark.parametrize("p", [3, 5])
    def test_degree_bound(self, p):
        n = 4 * p - 1
        rng = random.Random(p + 100)
        for _ in range(10):
            u = sign_vector(rng.randrange(2**n), n, p)
            assert multilinearize(frankl_wilson_Q(u, p)).degree <= p - 1


class TestBuildST:
    def test_monomial_count_n11_p3(self):
        basis = monomial_basis(11, 3)
        assert len(basis) == 1 + 11 + 55 == 67
        assert len(basis) == sum(math.comb(11, i) for i in range(3))
        assert basis == sorted(basis, key=lambda m: (bin(m).count("1"), m))

    @pytest.mark.parametrize("n,p", [(3, 2), (11, 3), (12, 5), (15, 7), (19, 5)])
    def test_monomial_order_matches_filter(self, n, p):
        assert monomial_basis(n, p) == monomial_basis_by_filter(n, p)

    def test_constant_monomial_column_is_ones(self, g11):
        s, t = build_ST(g11, 3)
        assert (t.data[:, 0] == 1).all()
        assert s.data.shape == t.data.shape == (462, 67)

    def test_diagonal_nonzero_everywhere(self, g11):
        s, t = build_ST(g11, 3)
        a = (s.data.astype(np.int64) @ t.data.astype(np.int64).T) % 3
        assert (np.diagonal(a) != 0).all()

    def test_rejects_wrong_n(self):
        with pytest.raises(InvalidParameterError):
            build_ST(capsep.build_G(9), 3)


class TestHaemers:
    def test_g11_fits_and_rank(self, g11):
        result = haemers_matrix(g11)
        a = fitting_matrix(g11, 3)
        assert_fits(g11, a)
        assert result.to_json()["fits"] is True
        assert result.bound == 67
        rank = rank_fp(a)
        assert rank <= 67
        assert result.rank == rank == 55
        assert result.source == "slice"

    def test_h11_fits(self, h11):
        result = haemers_matrix(h11)
        a = fitting_matrix(h11, 3)
        assert_fits(h11, a)
        assert result.rank == rank_fp(a) == 67
        assert result.source == "identity"

    def test_diagonal_value(self, g11):
        # Q_u(u) = (-1)^p = -1 survives multilinearization onto the diagonal
        assert set(np.diagonal(fitting_matrix(g11, 3).data).tolist()) == {(-1) % 3}

    def test_entries_match_direct_polynomial_evaluation(self, g11):
        a = fitting_matrix(g11, 3).data
        rng = random.Random(29)
        for _ in range(10**3):
            i, j = rng.randrange(462), rng.randrange(462)
            words = g11.bits_array
            poly = multilinearize(frankl_wilson_Q(sign_vector(int(words[i]), 11, 3), 3))
            assert int(a[i, j]) == poly.evaluate(sign_vector(int(words[j]), 11, 3))

    def test_independent_set_below_rank(self, g11):
        rs = capsep.restricted_independent_set(11)
        assert rs.verified
        assert len(rs) <= haemers_matrix(g11).rank

    @pytest.mark.parametrize("name,rank", [("g11", 55), ("h11", 67)])
    def test_matches_polynomial_oracle(self, request, name, rank):
        g = request.getfixturevalue(name)
        oracle = fitting_matrix_by_polynomials(g, 3)
        assert np.array_equal(fitting_matrix(g, 3).data, oracle)
        assert rank_fp(FpMatrix(3, oracle)) == haemers_matrix(g).rank == rank

    def test_wrong_edge_distance_fails_by_distance_class(self):
        # n = 4p-1 = 11 at p = 3, but edges at distance 4 leave distance
        # class 6, where f(6) = 2, non-adjacent
        _fits_check(11, 3, 6)
        with pytest.raises(InternalCheckError, match="distance class 6"):
            _fits_check(11, 3, 4)

    def test_rejects_wrong_n(self):
        with pytest.raises(InvalidParameterError):
            haemers_matrix(capsep.build_G(9))

    @pytest.mark.parametrize("graph, quarter", [("G7", "2"), ("H13", "3.5"), ("G15", "4")])
    def test_prime_is_derived_from_n(self, graph, quarter):
        g = capsep.bitgraph.graph_from_ref(graph)
        with pytest.raises(InvalidParameterError,
                           match=rf"^\(n\+1\)/4 = {quarter} is not an odd prime$"):
            haemers_matrix(g)

    def test_instance_prime_by_search(self):
        odd_primes = [p for p in range(3, 60) if all(p % q for q in range(2, p))]
        for n in range(-8, 240):
            assert instance_prime(n) == next((p for p in odd_primes if 4 * p - 1 == n), None)

    @pytest.mark.parametrize("graph, ref", [
        pytest.param(BitGraph(11, range(8), ("distance", 6)), "X11", id="mixed-parity"),
        pytest.param(BitGraph(11, weight_w_bits(11, 6), ("distance", 4)), "X11",
                     id="wrong-edge"),
        pytest.param(BitGraph(11, [0, 3], ("explicit", [(0, 1)])), "X11", id="explicit"),
        pytest.param(capsep.bitgraph.graph_from_ref("O12"), "O12", id="O12"),
        pytest.param(capsep.bitgraph.graph_from_ref("C5xC5"), "C5xC5", id="C5xC5"),
    ])
    def test_rejects_graphs_other_than_g_and_h(self, graph, ref):
        with pytest.raises(InvalidParameterError, match=f"G and H only, not {ref}$"):
            haemers_matrix(graph)

    @pytest.mark.parametrize("n, p", [(11, 3), (19, 5), (43, 11)])
    def test_ranks_by_family(self, n, p):
        # one vertex each: the rank is read from the family, no T is formed
        g, h = (BitGraph(n, [0], ("distance", (n + 1) // 2), family=f) for f in "GH")
        assert haemers_matrix(g).rank == math.comb(n, p - 1)
        assert haemers_matrix(h).rank == haemers_matrix(h).bound == \
            sum(math.comb(n, k) for k in range(p))


class TestRankIdentities:
    """The elimination oracle against the identities ``haemers_matrix`` uses."""

    def test_h11_gram_is_scalar_over_the_integers(self, h11):
        t = monomial_values(h11, 3)
        signs = np.where(t == 1, 1, -1)  # back from F_3 to the integer +-1 values
        assert np.array_equal(signs.T @ signs, 2**10 * np.eye(67, dtype=np.int64))
        assert gram_rank(t, 3) == 67 == haemers_matrix(h11).rank

    @pytest.mark.parametrize("n, w, p", [(11, 6, 3), (15, 8, 3)])
    def test_slice_bound(self, n, w, p):
        g = BitGraph(n, weight_w_bits(n, w), ("distance", w))
        assert gram_rank(monomial_values(g, p), p) == math.comb(n, p - 1)


def theta(g) -> Fraction:
    """Lovasz theta in closed form: 2^(n-1)/(n+1) for H, |V|/n for G."""
    n = g.n
    return Fraction(2 ** (n - 1), n + 1) if g.family == "H" else Fraction(g.vertex_count, n)


class TestThetaCeiling:
    """theta bounds alpha* from above (Beigi 2010), so no packing may exceed it."""

    @pytest.mark.parametrize("name", ["g11", "h11"])
    def test_closed_form_matches_eigenvalues(self, request, name):
        # an edge-transitive graph has theta = -|V| l_min / (l_max - l_min) (Lovasz 1979)
        g = request.getfixturevalue(name)
        eig = np.linalg.eigvalsh(dense_adjacency(g).astype(np.float64))
        oracle = -g.vertex_count * eig[0] / (eig[-1] - eig[0])
        assert abs(oracle - float(theta(g))) < 1e-9

    @pytest.mark.parametrize("graph", ["G11", "H11", "G15"])
    def test_packing_below_theta(self, graph):
        g = capsep.bitgraph.graph_from_ref(graph)
        clique = capsep.hadamard_clique(capsep.find_hadamard(g.n + 1), g.family)
        packing = capsep.pack_cliques(g, clique)
        assert 0 < packing.count <= theta(g)


class TestRank:
    def test_identity(self):
        assert rank_fp(FpMatrix(3, np.eye(5, dtype=np.uint8))) == 5

    def test_zero(self):
        assert rank_fp(FpMatrix(3, np.zeros((4, 6), dtype=np.uint8))) == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_row_reduction_oracle(self, p):
        rng = np.random.default_rng(p)
        for _ in range(25):
            rows, cols = rng.integers(1, 21, size=2)
            m = rng.integers(0, p, size=(rows, cols)).astype(np.uint8)
            assert rank_fp(FpMatrix(p, m)) == rank_by_row_reduction(m, p)

    def test_kron_rank_multiplicative(self):
        rng = np.random.default_rng(31)
        for p in (3, 5):
            for _ in range(10):
                a = rng.integers(0, p, size=(rng.integers(2, 13),
                                             rng.integers(2, 13)))
                b = rng.integers(0, p, size=(rng.integers(2, 13),
                                             rng.integers(2, 13)))
                assert rank_fp(FpMatrix(p, np.kron(a, b) % p)) == \
                    rank_fp(FpMatrix(p, a % p)) * rank_fp(FpMatrix(p, b % p))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=st.sampled_from([3, 5]),
           rows=st.integers(0, 30), cols=st.integers(1, 20))
    def test_gram_rank_equals_rank_of_gram(self, data, p, rows, cols):
        t = np.array(data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, cols)
        assert gram_rank(t, p) == rank_fp(FpMatrix(p, t @ t.T % p))

    def test_product_rank_bounded_by_factors(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            s = rng.integers(0, 3, size=(12, 7))
            t = rng.integers(0, 3, size=(12, 7))
            prod = (s @ t.T) % 3
            assert rank_fp(FpMatrix(3, prod)) <= min(rank_fp(FpMatrix(3, s)),
                                                     rank_fp(FpMatrix(3, t)))


class TestFpMatrixIO:
    def test_rejects_unreduced_entries(self):
        with pytest.raises(InvalidParameterError):
            FpMatrix(3, np.full((2, 2), 3, dtype=np.uint8))

    def test_rejects_composite_modulus(self):
        with pytest.raises(InvalidParameterError):
            FpMatrix(6, np.zeros((2, 2), dtype=np.uint8))

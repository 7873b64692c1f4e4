import math
import random

import numpy as np
import pytest

import capsep
from capsep.errors import ConstructionError, InvalidParameterError
from capsep.geometry import CliquePacking, OrthoRep, restricted_independent_set
from conftest import (_check_clique_bits, ortho_rep_verify_by_pairs,
                      restricted_set_by_pairs, word_of_signs)


class TestOrthoRepH:
    def test_n3_all_zeros_vector(self):
        rep = capsep.ortho_rep_H(3)
        zero_idx = rep.graph.index_of(0)
        assert rep.matrix[zero_idx].tolist() == [1, 1, 1, 1]
        # integer squared norm is the normalizer, so the unit norm is exact
        assert rep.matrix[zero_idx] @ rep.matrix[zero_idx] == rep.normalizer == 4

    def test_n3_edge_orthogonality_by_hand(self):
        rep = capsep.ortho_rep_H(3)
        a = rep.matrix[rep.graph.index_of(0b000)]
        b = rep.matrix[rep.graph.index_of(0b011)]
        # signs of 011 are (+1,-1,-1); appended ones give dot 1-1-1+1 = 0
        assert b.tolist() == [1, -1, -1, 1]
        assert int(a.astype(np.int64) @ b.astype(np.int64)) == 0

    def test_n11_exhaustive(self):
        rep = capsep.ortho_rep_H(11)
        rep.verify()  # raises on any norm or edge failure
        assert rep.dim == 12

    def test_rejects_even(self):
        with pytest.raises(InvalidParameterError):
            capsep.ortho_rep_H(4)


@pytest.fixture(scope="module")
def reps():
    return {"G11": capsep.ortho_rep_G(11), "H11": capsep.ortho_rep_H(11),
            "G15": capsep.ortho_rep_G(15)}


class TestOrthoRepVerify:
    @pytest.mark.parametrize("name", ["G11", "H11", "G15"])
    def test_valid_agrees_with_pairwise_oracle(self, reps, name):
        reps[name].verify()
        ortho_rep_verify_by_pairs(reps[name])

    @pytest.mark.parametrize("name", ["G11", "H11", "G15"])
    def test_flipped_sign_names_the_vertex(self, reps, name):
        rep = reps[name]
        for u, col in [(0, 0), (rep.graph.vertex_count // 3, 5),
                       (rep.graph.vertex_count - 1, rep.dim - 1)]:
            mat = rep.matrix.copy()
            mat[u, col] *= -1
            tampered = OrthoRep(rep.graph, rep.dim, rep.normalizer, mat)
            with pytest.raises(ConstructionError, match=f"vertex {u} "):
                tampered.verify()
            with pytest.raises(ConstructionError):
                ortho_rep_verify_by_pairs(tampered)

    def test_wrong_normalizer_names_a_vertex(self, reps):
        rep = reps["H11"]
        tampered = OrthoRep(rep.graph, rep.dim, rep.normalizer + 1, rep.matrix)
        with pytest.raises(ConstructionError, match="vertex 0 "):
            tampered.verify()
        with pytest.raises(ConstructionError, match="vertex 0 "):
            ortho_rep_verify_by_pairs(tampered)

    def test_rejects_other_graphs_and_shapes(self, reps):
        rep = reps["G11"]
        with pytest.raises(ConstructionError, match="distance"):
            OrthoRep(capsep.build_cycle(5), 4, 4, rep.matrix[:5, :4]).verify()
        with pytest.raises(ConstructionError, match="shape"):
            OrthoRep(rep.graph, rep.dim, rep.normalizer, rep.matrix[:, :-1]).verify()


class TestOrthoRepG:
    def test_hyperplane_membership(self):
        rep = capsep.ortho_rep_G(11)
        # every u[x] has weight 6, so u[x].1 = -1 and the appended 1 cancels it
        sums = rep.matrix.astype(np.int64).sum(axis=1)
        assert not sums.any()
        assert rep.hyperplane_certified

    def test_n3_sign_vector(self):
        rep = capsep.ortho_rep_G(3)
        v = rep.matrix[rep.graph.index_of(0b011)]
        assert v.tolist() == [1, -1, -1, 1]
        assert int(v[:3].astype(np.int64).sum()) == -1

    def test_rep_json_export(self):
        rep = capsep.ortho_rep_G(3)
        payload = rep.to_json()
        assert payload["graph"] == "G3"
        assert payload["normalizer"] == 4
        assert payload["vectors"]["011"] == [1, -1, -1, 1]


class TestCliqueFromHadamard:
    def test_sylvester4_gives_all_of_g3(self):
        clique = capsep.clique_from_hadamard_G(capsep.sylvester(2))
        assert sorted(v.bits for v in clique) == [0b011, 0b101, 0b110]

    def test_paley12_gives_11_clique(self):
        clique = capsep.clique_from_hadamard_G(capsep.paley_one(11))
        assert len(clique) == 11
        for i in range(11):
            assert clique[i].weight == 6
            for j in range(i + 1, 11):
                assert capsep.hamming_distance(clique[i], clique[j]) == 6

    def test_paley164_gives_163_clique_without_graph(self):
        clique = capsep.clique_from_hadamard_G(capsep.paley_one(163))
        assert len(clique) == 163
        bits = [v.bits for v in clique]
        for i in range(163):
            assert bin(bits[i]).count("1") == 82
            for j in range(i + 1, 163):
                assert bin(bits[i] ^ bits[j]).count("1") == 82

    def test_h_clique_includes_zero(self):
        clique = capsep.clique_from_hadamard_H(capsep.sylvester(2))
        assert sorted(v.bits for v in clique) == [0b000, 0b011, 0b101, 0b110]

    def test_h_clique_zero_vertex_distances(self):
        clique = capsep.clique_from_hadamard_H(capsep.paley_one(11))
        assert len(clique) == 12
        zero = clique[0]
        assert zero.bits == 0
        # each Hadamard row has weight (n+1)/2, hence that distance from zero
        for v in clique[1:]:
            assert capsep.hamming_distance(zero, v) == 6

    def test_rejects_tiny_matrix(self):
        with pytest.raises(InvalidParameterError):
            capsep.clique_from_hadamard_G(capsep.sylvester(1))


class TestPackCliques:
    def test_h11_reaches_lemma_target(self, h11, paley12):
        seed = capsep.clique_from_hadamard_H(paley12)
        packing = capsep.pack_cliques(h11, seed)
        assert packing.target == math.ceil(1024 / 144) == 8
        assert packing.count >= 8
        assert packing.target_met
        packing.verify()

    def test_g11_reaches_lemma_target(self, g11, paley12):
        seed = capsep.clique_from_hadamard_G(paley12)
        packing = capsep.pack_cliques(g11, seed)
        assert packing.target == math.ceil(462 / 121) == 4
        assert packing.count >= 4
        assert packing.target_met

    def test_g3_single_clique(self):
        g3 = capsep.build_G(3)
        seed = capsep.clique_from_hadamard_G(capsep.sylvester(2))
        packing = capsep.pack_cliques(g3, seed)
        assert packing.count == 1 >= math.ceil(3 / 9)
        assert packing.target_met

    def test_deterministic(self, g11, paley12):
        seed = capsep.clique_from_hadamard_G(paley12)
        a = capsep.pack_cliques(g11, seed, rng_seed=7)
        b = capsep.pack_cliques(g11, seed, rng_seed=7)
        assert a.cliques == b.cliques

    def test_rejects_non_clique_seed(self, g11):
        verts = [g11.vertex(0), g11.vertex(1), g11.vertex(2)]
        if capsep.hamming_distance(verts[0], verts[1]) == 6:
            verts = [g11.vertex(0), g11.vertex(3), g11.vertex(5)]
        with pytest.raises((ConstructionError, InvalidParameterError)):
            capsep.pack_cliques(g11, verts)

    def test_rejects_wrong_family(self):
        c5 = capsep.build_cycle(5)
        with pytest.raises(InvalidParameterError):
            capsep.pack_cliques(c5, [c5.vertex(0)])

    def test_reverification_catches_overlap(self, h11, paley12):
        seed = capsep.clique_from_hadamard_H(paley12)
        packing = capsep.pack_cliques(h11, seed)
        tampered = CliquePacking(h11, packing.clique_size,
                                 (packing.cliques[0], packing.cliques[0]),
                                 packing.target, False)
        with pytest.raises(ConstructionError):
            tampered.verify()

    def test_translations_preserve_h11_adjacency(self, h11):
        rng = random.Random(5)
        rows = h11.adjacency_matrix()
        bits = [v.bits for v in h11.vertices]
        for _ in range(5000):
            i = rng.randrange(1024)
            j = rng.randrange(1024)
            z = bits[rng.randrange(1024)]
            ti, tj = h11.index_of(bits[i] ^ z), h11.index_of(bits[j] ^ z)
            assert rows[i, j] == rows[ti, tj]

    def test_permutations_preserve_g11_adjacency(self, g11):
        from conftest import _permute_bits
        rng = random.Random(6)
        rows = g11.adjacency_matrix()
        for _ in range(5000):
            i = rng.randrange(462)
            j = rng.randrange(462)
            perm = list(range(11))
            rng.shuffle(perm)
            pi = g11.index_of(_permute_bits(g11.vertex(i).bits, perm, 11))
            pj = g11.index_of(_permute_bits(g11.vertex(j).bits, perm, 11))
            assert rows[i, j] == rows[pi, pj]

    def test_packing_json(self, g11, paley12):
        packing = capsep.pack_cliques(g11, capsep.clique_from_hadamard_G(paley12))
        payload = packing.to_json()
        assert payload["graph"] == "G11"
        assert payload["clique_size"] == 11
        assert payload["target_met"] is True
        assert all(len(c) == 11 for c in payload["cliques"])
        assert all(len(s) == 11 and set(s) <= {"0", "1"}
                   for c in payload["cliques"] for s in c)


class TestRestrictedIndependentSet:
    def test_n11_default_k3_size_28(self):
        rs = restricted_independent_set(11)
        assert rs.k == 3
        assert len(rs) == math.comb(8, 6) == 28
        assert rs.verified and rs.witness is None
        # independent means no pair at distance 6; re-check exhaustively
        bits = [v.bits for v in rs.vertices]
        for i in range(len(bits)):
            assert bits[i] % 8 == 0  # zeros on the last three coordinates
            for j in range(i + 1, len(bits)):
                assert bin(bits[i] ^ bits[j]).count("1") != 6

    def test_k0_full_set_not_independent(self):
        rs = restricted_independent_set(11, k=0)
        assert len(rs) == 462
        assert not rs.verified
        a, b = rs.witness
        assert capsep.hamming_distance(a, b) == 6

    def test_n3_default_is_provably_safe(self):
        rs = restricted_independent_set(3)
        assert rs.k == 1
        assert [v.bits for v in rs.vertices] == [0b110]
        assert rs.verified

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            restricted_independent_set(11, k=11)


class TestVertexSetChecks:
    @pytest.mark.parametrize("size", [4, 8, 12, 164])
    def test_hadamard_cliques_pass_pair_oracle(self, size):
        h = capsep.find_hadamard(size)
        n = size - 1
        g_clique = [v.bits for v in capsep.clique_from_hadamard_G(h)]
        h_clique = [v.bits for v in capsep.clique_from_hadamard_H(h)]
        rows = capsep.normalize(h).entries[1:, 1:].tolist()
        assert g_clique == [word_of_signs(row) for row in rows]
        assert h_clique == [0] + g_clique
        _check_clique_bits(g_clique, n, expect_weight=(n + 1) // 2)
        _check_clique_bits(h_clique, n, expect_weight=None)
        assert all(b.bit_count() % 2 == 0 for b in h_clique)

    @pytest.mark.parametrize("n", [7, 11])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_restricted_set_matches_pair_oracle(self, n, k):
        rs = restricted_independent_set(n, k)
        words, edge = restricted_set_by_pairs(n, k)
        assert [v.bits for v in rs.vertices] == words
        assert all(v.len == n for v in rs.vertices)
        assert rs.verified == (edge is None)
        assert (rs.witness and tuple(v.bits for v in rs.witness)) == edge

    def test_bad_packings_name_their_clique(self, g11, paley12):
        packing = capsep.pack_cliques(g11, capsep.clique_from_hadamard_G(paley12))
        c0, c1 = packing.cliques[:2]
        used = set(c0) | set(c1)
        stranger = next(b for b in g11.bits_array.tolist() if b not in used
                        and (b ^ c1[1]).bit_count() != 6)
        cases = {"wrong size": (c1[:-1], "has size 10"),
                 "foreign vertex": ((0b1,) + c1[1:], "0b1 not in graph"),
                 "reused vertex": ((c0[3],) + c1[1:], f"reuses vertex {c0[3]:#b}"),
                 "non-clique": ((stranger,) + c1[1:], "not adjacent")}
        for bad, phrase in cases.values():
            tampered = CliquePacking(g11, 11, (c0, bad), 2, True)
            with pytest.raises(ConstructionError, match=f"clique 1.*{phrase}"):
                tampered.verify()

    def test_pack_cliques_checks_seed_and_budget(self, g11, paley12):
        seed = capsep.clique_from_hadamard_G(paley12)
        with pytest.raises(InvalidParameterError, match="budget"):
            capsep.pack_cliques(g11, seed, budget=0)
        with pytest.raises(ConstructionError, match="clique 0.*reuses"):
            capsep.pack_cliques(g11, seed[:2] + seed[:1])
        with pytest.raises(InvalidParameterError):
            capsep.pack_cliques(g11, [])

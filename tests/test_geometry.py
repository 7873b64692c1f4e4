import json
import math
import random

import numpy as np
import pytest

import capsep
from capsep.errors import ConstructionError, InvalidParameterError
from capsep.bitgraph import BitGraph, build_complete
from capsep.cli import cli_main
from capsep.geometry import CliquePacking, OrthoRep, restricted_independent_set
from conftest import (_check_clique_bits, dense_adjacency, hamming_distance, normalize_by_loop,
                      ortho_rep_verify_by_pairs, restricted_set_by_pairs, word_of_signs)


class TestOrthoRepH:
    def test_n3_all_zeros_vector(self):
        rep = capsep.OrthoRep(capsep.build_H(3))
        rep.verify()
        row = rep.rows([rep.graph.index_of(0)])[0]
        assert row.tolist() == [1, 1, 1, 1]
        # integer squared norm is the normalizer, so the unit norm is exact
        assert row @ row == rep.normalizer == 4

    def test_n3_edge_orthogonality_by_hand(self):
        rep = capsep.OrthoRep(capsep.build_H(3))
        rep.verify()
        a, b = rep.rows(rep.graph.indices_of([0b000, 0b011]))
        # signs of 011 are (+1,-1,-1); appended ones give dot 1-1-1+1 = 0
        assert b.tolist() == [1, -1, -1, 1]
        assert int(a.astype(np.int64) @ b.astype(np.int64)) == 0

    def test_n11_exhaustive(self):
        rep = capsep.OrthoRep(capsep.build_H(11))
        rep.verify()
        rep.verify()  # raises on any norm or edge failure
        assert rep.dim == 12

    def test_rejects_even(self):
        with pytest.raises(InvalidParameterError):
            OrthoRep(capsep.build_H(4)).verify()


@pytest.fixture(scope="module")
def reps():
    reps = {"G11": OrthoRep(capsep.build_G(11)), "H11": OrthoRep(capsep.build_H(11)),
            "G15": OrthoRep(capsep.build_G(15))}
    for rep in reps.values():
        rep.verify()
    return reps


class TestOrthoRepVerify:
    @pytest.mark.parametrize("name", ["G11", "H11", "G15"])
    def test_valid_agrees_with_pairwise_oracle(self, reps, name):
        reps[name].verify()
        ortho_rep_verify_by_pairs(reps[name])

    @pytest.mark.parametrize("name", ["G11", "G15"])
    def test_flipped_sign_names_the_vertex(self, reps, name):
        """A row is formed from its word, so a flipped sign is a flipped bit:
        the word leaves weight (n+1)/2 and its row the ones-hyperplane."""
        g = reps[name].graph
        for u, col in [(0, 0), (g.vertex_count // 3, 5), (g.vertex_count - 1, g.n - 1)]:
            words = g.bits_array.copy()
            words[u] ^= np.uint64(1 << col)
            tampered = OrthoRep(BitGraph(g.n, words, ("distance", g.distance), family="G"))
            v = tampered.graph.index_of(int(words[u]))
            with pytest.raises(ConstructionError, match=f"vertex {v} .*weight"):
                tampered.verify()
            assert tampered.rows([v]).astype(np.int64).sum() != 0

    def test_rejects_a_wrong_weight_word_in_family_g(self):
        words = capsep.build_G(7).bits_array.tolist() + [0b0000111]
        g = BitGraph(7, words, ("distance", 4), family="G")
        with pytest.raises(ConstructionError, match="vertex 0 \\(0000111\\) has weight"):
            OrthoRep(g).verify()
        OrthoRep(BitGraph(7, words, ("distance", 4))).verify()  # no weight claimed

    def test_rejects_other_graphs(self):
        for g in (capsep.build_cycle(5), build_complete(4),
                  capsep.build_orthogonality_graph(4)):
            with pytest.raises(ConstructionError, match="distance"):
                OrthoRep(g).verify()

    @pytest.mark.parametrize("name", ["G11", "H11"])
    def test_rows_are_the_sign_vectors(self, reps, name):
        rep = reps[name]
        n, words = rep.graph.n, rep.graph.bits_array.tolist()
        idx = [0, 7, rep.graph.vertex_count - 1]
        for i, row in zip(idx, rep.rows(idx).tolist()):
            assert row == [(-1) ** (words[i] >> (n - 1 - j) & 1) for j in range(n)] + [1]
        assert rep.rows().shape == (rep.graph.vertex_count, rep.dim)


class TestOrthoRepG:
    def test_hyperplane_membership(self):
        rep = capsep.OrthoRep(capsep.build_G(11))
        rep.verify()
        # every u[x] has weight 6, so u[x].1 = -1 and the appended 1 cancels it
        sums = rep.rows().astype(np.int64).sum(axis=1)
        assert not sums.any()

    def test_n3_sign_vector(self):
        rep = capsep.OrthoRep(capsep.build_G(3))
        rep.verify()
        v = rep.rows([rep.graph.index_of(0b011)])[0]
        assert v.tolist() == [1, -1, -1, 1]
        assert int(v[:3].astype(np.int64).sum()) == -1

    def test_rep_json_export(self):
        rep = capsep.OrthoRep(capsep.build_G(3))
        rep.verify()
        payload = rep.to_json()
        assert payload["graph"] == "G3"
        assert payload["normalizer"] == 4
        assert payload["vectors"]["011"] == [1, -1, -1, 1]


class TestCliqueFromHadamard:
    def test_sylvester4_gives_all_of_g3(self):
        clique = capsep.hadamard_clique(capsep.sylvester(2), "G")
        assert sorted(clique) == [0b011, 0b101, 0b110]

    def test_paley12_gives_11_clique(self, paley12):
        clique = capsep.hadamard_clique(paley12, "G")
        assert len(clique) == 11
        for i in range(11):
            assert clique[i].bit_count() == 6
            for j in range(i + 1, 11):
                assert hamming_distance(clique[i], clique[j]) == 6

    def test_paley164_gives_163_clique_without_graph(self):
        h = capsep.find_hadamard(164)
        assert h.construction == "paley(163)"
        clique = capsep.hadamard_clique(h, "G")
        assert len(clique) == 163
        for i in range(163):
            assert bin(clique[i]).count("1") == 82
            for j in range(i + 1, 163):
                assert bin(clique[i] ^ clique[j]).count("1") == 82

    def test_h_clique_includes_zero(self):
        clique = capsep.hadamard_clique(capsep.sylvester(2), "H")
        assert sorted(clique) == [0b000, 0b011, 0b101, 0b110]

    def test_h_clique_zero_vertex_distances(self, paley12):
        clique = capsep.hadamard_clique(paley12, "H")
        assert len(clique) == 12
        zero = clique[0]
        assert zero == 0
        # each Hadamard row has weight (n+1)/2, hence that distance from zero
        for v in clique[1:]:
            assert hamming_distance(zero, v) == 6

    def test_rejects_tiny_matrix(self):
        with pytest.raises(InvalidParameterError):
            capsep.hadamard_clique(capsep.sylvester(1), "G")


class TestPackCliques:
    def test_h11_reaches_lemma_target(self, h11, paley12):
        seed = capsep.hadamard_clique(paley12, "H")
        packing = capsep.pack_cliques(h11, seed)
        assert packing.target == math.ceil(1024 / 144) == 8
        assert packing.count >= 8
        assert packing.target_met

    def test_g11_reaches_lemma_target(self, g11, paley12):
        seed = capsep.hadamard_clique(paley12, "G")
        packing = capsep.pack_cliques(g11, seed)
        assert packing.target == math.ceil(462 / 121) == 4
        assert packing.count >= 4
        assert packing.target_met

    def test_g3_single_clique(self):
        g3 = capsep.build_G(3)
        seed = capsep.hadamard_clique(capsep.sylvester(2), "G")
        packing = capsep.pack_cliques(g3, seed)
        assert packing.count == 1 >= math.ceil(3 / 9)
        assert packing.target_met

    def test_deterministic(self, g11, paley12):
        seed = capsep.hadamard_clique(paley12, "G")
        a = capsep.pack_cliques(g11, seed, rng_seed=7)
        b = capsep.pack_cliques(g11, seed, rng_seed=7)
        assert a.cliques == b.cliques

    def test_rejects_non_clique_seed(self, g11):
        words = g11.bits_array.tolist()
        verts = [words[0], words[1], words[2]]
        if hamming_distance(verts[0], verts[1]) == 6:
            verts = [words[0], words[3], words[5]]
        with pytest.raises((ConstructionError, InvalidParameterError)):
            capsep.pack_cliques(g11, verts)

    def test_rejects_wrong_family(self):
        c5 = capsep.build_cycle(5)
        with pytest.raises(InvalidParameterError):
            capsep.pack_cliques(c5, [0])

    def test_reverification_catches_overlap(self, h11, paley12):
        seed = capsep.hadamard_clique(paley12, "H")
        packing = capsep.pack_cliques(h11, seed)
        with pytest.raises(ConstructionError, match="clique 1 reuses vertex"):
            CliquePacking(h11, packing.clique_size, (packing.cliques[0], packing.cliques[0]))

    def test_cert_checks_the_cliques_once_per_packing(self, monkeypatch, tmp_path):
        """``cert --family G --n 15``: once for the seed, once for the packing."""
        calls = []
        check = capsep.geometry._check_cliques
        monkeypatch.setattr(capsep.geometry, "_check_cliques",
                            lambda g, cliques, size: calls.append(len(cliques))
                            or check(g, cliques, size))
        target = tmp_path / "cert.json"
        assert cli_main(["cert", "--family", "G", "--n", "15", "--output", str(target)]) == 0
        assert calls == [1, json.loads(target.read_text())["M"]]

    def test_translations_preserve_h11_adjacency(self, h11):
        rng = random.Random(5)
        rows = dense_adjacency(h11)
        bits = h11.bits_array.tolist()
        for _ in range(5000):
            i = rng.randrange(1024)
            j = rng.randrange(1024)
            z = bits[rng.randrange(1024)]
            ti, tj = h11.index_of(bits[i] ^ z), h11.index_of(bits[j] ^ z)
            assert rows[i, j] == rows[ti, tj]

    def test_permutations_preserve_g11_adjacency(self, g11):
        from conftest import _permute_bits
        rng = random.Random(6)
        rows = dense_adjacency(g11)
        for _ in range(5000):
            i = rng.randrange(462)
            j = rng.randrange(462)
            perm = list(range(11))
            rng.shuffle(perm)
            pi = g11.index_of(_permute_bits(int(g11.bits_array[i]), perm, 11))
            pj = g11.index_of(_permute_bits(int(g11.bits_array[j]), perm, 11))
            assert rows[i, j] == rows[pi, pj]

    def test_packing_json(self, g11, paley12):
        packing = capsep.pack_cliques(g11, capsep.hadamard_clique(paley12, "G"))
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
        bits = rs.vertices
        for i in range(len(bits)):
            assert bits[i] % 8 == 0  # zeros on the last three coordinates
            for j in range(i + 1, len(bits)):
                assert bin(bits[i] ^ bits[j]).count("1") != 6

    def test_k0_full_set_not_independent(self):
        rs = restricted_independent_set(11, k=0)
        assert len(rs) == 462
        assert not rs.verified
        a, b = rs.witness
        assert hamming_distance(a, b) == 6

    def test_n3_default_is_provably_safe(self):
        rs = restricted_independent_set(3)
        assert rs.k == 1
        assert list(rs.vertices) == [0b110]
        assert rs.verified

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            restricted_independent_set(11, k=11)


class TestVertexSetChecks:
    @pytest.mark.parametrize("size", [4, 8, 12, 164])
    def test_hadamard_cliques_pass_pair_oracle(self, size):
        h = capsep.find_hadamard(size)
        n = size - 1
        g_clique = capsep.hadamard_clique(h, "G")
        h_clique = capsep.hadamard_clique(h, "H")
        rows = normalize_by_loop(h)[1:, 1:].tolist()
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
        assert list(rs.vertices) == words
        assert all(b >> n == 0 for b in rs.vertices)
        assert rs.verified == (edge is None)
        assert rs.witness == edge

    def test_bad_packings_name_their_clique(self, g11, paley12):
        packing = capsep.pack_cliques(g11, capsep.hadamard_clique(paley12, "G"))
        c0, c1 = packing.cliques[:2]
        used = set(c0) | set(c1)
        stranger = next(b for b in g11.bits_array.tolist() if b not in used
                        and (b ^ c1[1]).bit_count() != 6)
        cases = {"wrong size": (c1[:-1], "has size 10"),
                 "foreign vertex": ((0b1,) + c1[1:], "0b1 not in graph"),
                 "reused vertex": ((c0[3],) + c1[1:], f"reuses vertex {c0[3]:011b}"),
                 "non-clique": ((stranger,) + c1[1:], "not adjacent")}
        for bad, phrase in cases.values():
            with pytest.raises(ConstructionError, match=f"clique 1.*{phrase}"):
                CliquePacking(g11, 11, (c0, bad))

    def test_pack_cliques_checks_seed_and_budget(self, g11, paley12, monkeypatch):
        seed = capsep.hadamard_clique(paley12, "G")
        monkeypatch.setattr(capsep.geometry, "PACK_BUDGET", 1)
        short = capsep.pack_cliques(g11, seed)
        assert (short.count, short.target, short.target_met) == (1, 4, False)
        assert short.cliques == (tuple(sorted(seed)),)  # the identity permutation
        with pytest.raises(ConstructionError, match="clique 0.*reuses"):
            capsep.pack_cliques(g11, seed[:2] + seed[:1])
        with pytest.raises(InvalidParameterError):
            capsep.pack_cliques(g11, [])
        with pytest.raises(InvalidParameterError, match="at most n bits"):
            capsep.pack_cliques(g11, seed[:-1] + [seed[-1] | 1 << 11])

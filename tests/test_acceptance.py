"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is self-contained (it builds its own objects so the measured
runtime covers the whole advertised chain) and enforces its runtime limit.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

import numpy as np

import capsep
from capsep.algebra_fp import haemers_matrix
from capsep.bitgraph import graph_from_ref
from capsep.channel import protocol_from_packing, simulate
from conftest import (FpMatrix, adjacency_rows, alpha_by_enumeration, assert_fits,
                      cert_from_packing, check_zero_error_code, fitting_matrix, float_protocol,
                      frankl_wilson_Q, hamming_distance, inner_product_identity_check,
                      monomial_basis, multilinearize, normalize_by_loop, normalized,
                      random_explicit_graph, rank_by_row_reduction, rank_fp, sign_vector, tensor,
                      verify, zero_error_by_loop)


def criterion(number: int, description: str, limit_s: float):
    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
            except Exception:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[PASS] criterion {number}: {description} "
                  f"({elapsed:.2f}s < {limit_s:.0f}s)")
            assert elapsed < limit_s, (
                f"criterion {number} took {elapsed:.2f}s, limit {limit_s}s")
        return run
    return wrap


def test_criterion_1_hadamard_suite():
    @criterion(1, "Hadamard constructions, normalization, sign counts", 1.0)
    def check():
        matrices = [capsep.sylvester(k) for k in range(9)]
        matrices += [capsep.find_hadamard(q + 1) for q in (11, 19, 43, 163)]
        assert [h.construction for h in matrices[9:]] == \
            [f"paley({q})" for q in (11, 19, 43, 163)]
        for h in matrices:
            m = h.size
            assert (h.entries @ h.entries.T == m * np.eye(m, dtype=np.int64)).all()
            norm = capsep.HadamardMatrix(normalized(h))
            assert np.array_equal(norm.entries, normalize_by_loop(h))
            assert np.array_equal(norm.entries, normalized(norm))
            if m >= 4:
                e = norm.entries
                assert ((e[1:] == -1).sum(axis=1) == m // 2).all()
                for i in range(1, m):
                    diffs = (e[i + 1:] != e[i]).sum(axis=1)
                    assert (diffs == m // 2).all()
    check()


def test_criterion_2_pentagon_reproduction():
    @criterion(2, "alpha(C5)=2, alpha(C5 boxtimes C5)=5, 5-word code", 5.0)
    def check():
        c5 = capsep.build_cycle(5)
        res = capsep.max_independent_set(c5)
        assert res.exact and res.lower == 2
        power = capsep.max_independent_set(capsep.ProductGraph([c5] * 2))
        assert power.exact and power.lower == 5
        ok, _ = check_zero_error_code(
            c5, [(0, 2), (1, 4), (2, 1), (3, 3), (4, 0)])
        assert ok
    check()


def test_criterion_3_n11_entangled_side():
    @criterion(3, "n=11 cliques, packings, exact certificates (M=4, M=8)", 60.0)
    def check():
        h12 = capsep.find_hadamard(12)
        assert h12 is not None and "paley" in h12.construction

        clique_g = capsep.hadamard_clique(h12, "G")
        assert len(clique_g) == 11
        rep_g = capsep.OrthoRep(capsep.build_G(11))
        rep_g.verify()
        pack_g = capsep.pack_cliques(rep_g.graph, clique_g)
        assert pack_g.target == math.ceil(462 / 121) == 4
        assert pack_g.count >= 4 and pack_g.target_met
        cert_g = cert_from_packing(pack_g)
        assert cert_g.M >= 4
        assert cert_g.verification.passed and cert_g.verification.to_json()["mode"] == "packing"
        assert verify(cert_g).passed  # the generic check agrees

        clique_h = capsep.hadamard_clique(h12, "H")
        assert len(clique_h) == 12
        rep_h = capsep.OrthoRep(capsep.build_H(11))
        rep_h.verify()
        pack_h = capsep.pack_cliques(rep_h.graph, clique_h)
        assert pack_h.target == math.ceil(1024 / 144) == 8
        assert pack_h.count >= 8 and pack_h.target_met
        cert_h = cert_from_packing(pack_h)
        assert cert_h.M >= 8
        assert cert_h.verification.passed and cert_h.verification.to_json()["mode"] == "packing"
        assert verify(cert_h).passed  # the generic check agrees
    check()


def test_criterion_4_n11_classical_side():
    @criterion(4, "Haemers fits-checks, rank <= 67, sandwich 28 <= alpha <= 67", 120.0)
    def check():
        bound = sum(math.comb(11, i) for i in range(3))
        assert bound == 67 == len(monomial_basis(11, 3))

        g11 = capsep.build_G(11)
        fit_g = haemers_matrix(g11)  # fits-check is exhaustive inside
        assert_fits(g11, fitting_matrix(g11, 3))
        rank_g = fit_g.rank
        assert rank_g <= 67

        h11 = capsep.build_H(11)
        fit_h = haemers_matrix(h11)
        assert_fits(h11, fitting_matrix(h11, 3))
        assert fit_h.rank <= 67

        k, idx = capsep.restricted_independent_set(g11)
        assert (k, len(idx)) == (3, 28)
        ok, _ = capsep.verify_independent(g11, idx)
        assert ok
        # sandwich: 28 <= alpha(G_11) <= rank <= 67
        assert 28 <= rank_g <= 67
    check()


def test_criterion_5_theorem_arithmetic():
    @criterion(5, "separation false at p in {3,5,11}, true at p=41, certified evidence", 10.0)
    def check():
        for family in ("G", "H"):
            for p in (3, 5, 11):
                assert capsep.capacity_report(family, p).separation is False
            rep = capsep.capacity_report(family, 41)
            assert rep.separation is True
            assert rep.evidence["hadamard"]["verified"] is True
            assert rep.evidence["hadamard"]["size"] == 164
            assert rep.evidence["clique"]["verified"] is True
            assert rep.evidence["clique"]["size"] == {"G": 163, "H": 164}[family]
    check()


def test_criterion_6_frankl_wilson_properties():
    @criterion(6, "Frankl-Wilson polynomials: nonzero at self, degree, agreement, identity", 10.0)
    def check():
        g11 = capsep.build_G(11)
        p = 3
        rng = random.Random(6)
        words = g11.bits_array.tolist()
        vertices = [words[rng.randrange(462)] for _ in range(10**3)]
        polys = {}
        for x in vertices:
            u = sign_vector(x, 11, p)
            poly = multilinearize(frankl_wilson_Q(u, p))
            polys[x] = poly
            assert poly.degree <= 2
            assert poly.evaluate(u) != 0
        keys = list(polys)
        for _ in range(10**3):
            x_bits = rng.choice(keys)
            point = np.array([rng.choice((1, p - 1)) for _ in range(11)],
                             dtype=np.int64)
            q = frankl_wilson_Q(sign_vector(x_bits, 11, p), p)
            assert polys[x_bits].evaluate(point) == q.evaluate(point)
        for _ in range(10**4):
            x = words[rng.randrange(462)]
            y = words[rng.randrange(462)]
            d = hamming_distance(x, y)
            assert inner_product_identity_check(x, y, 11, p) == (-2 * d - 1) % p
    check()


def test_criterion_7_protocol_simulation():
    @criterion(7, "H_11 M=8 protocol: zero-error within 1e-9, 1000 perfect decodes", 60.0)
    def check():
        rep = capsep.OrthoRep(capsep.build_H(11))
        rep.verify()
        h12 = capsep.find_hadamard(12)
        packing = capsep.pack_cliques(rep.graph, capsep.hadamard_clique(h12, "H"))
        proto = protocol_from_packing(packing)  # a failed proof raises
        assert proto.M == 8
        cert = cert_from_packing(packing)
        _, worst, witness = zero_error_by_loop(float_protocol(cert, proto.graph))
        assert worst <= 1e-9, f"zero-error violation {worst} at {witness}"
        transcripts = simulate(proto, 10**3, np.random.default_rng(0).spawn(2))
        assert len(transcripts) == 10**3
        for trial, tr in enumerate(transcripts):
            message = trial % proto.M + 1
            assert tr["message"] == tr["decoded"] == message
            assert tr["distribution"][message - 1] >= 1.0 - 1e-9
    check()


def test_criterion_8_oracle_equivalence():
    @criterion(8, "alpha and rank match oracles; tensor certificates verify fully", 60.0)
    def check():
        rng = random.Random(8)
        for trial in range(50):
            n = rng.randrange(2, 21)
            g = random_explicit_graph(n, rng.uniform(0.2, 0.8), seed=1000 + trial)
            res = capsep.max_independent_set(g)
            assert res.exact
            assert res.lower == alpha_by_enumeration(adjacency_rows(g))

        np_rng = np.random.default_rng(8)
        for p in (3, 5):
            for _ in range(50):
                rows, cols = np_rng.integers(1, 21, size=2)
                m = np_rng.integers(0, p, size=(rows, cols)).astype(np.uint8)
                assert rank_fp(FpMatrix(p, m)) == rank_by_row_reduction(m, p)

        # tensor certificates on products small enough to sweep exactly
        rep3 = capsep.OrthoRep(capsep.build_H(3))
        rep3.verify()
        pack3 = capsep.pack_cliques(
            rep3.graph, capsep.hadamard_clique(capsep.sylvester(2), "H"))
        cert3 = cert_from_packing(pack3)
        squared = tensor(cert3, cert3)  # 16 vertices
        assert squared.verification.to_json()["mode"] == "full"
        assert squared.verification.passed

        rep11 = capsep.OrthoRep(capsep.build_H(11))
        rep11.verify()
        pack11 = capsep.pack_cliques(
            rep11.graph, capsep.hadamard_clique(capsep.find_hadamard(12), "H"))
        cert11 = cert_from_packing(pack11)
        mixed = tensor(cert3, cert11)  # 4096 vertices
        assert mixed.graph.vertex_count == 4096 <= 10**4
        assert mixed.M == 8
        assert mixed.verification.to_json()["mode"] == "full"
        assert mixed.verification.passed
    check()


def test_criterion_9_exact_alpha_at_n11():
    # vertex-transitive, so the search expands only its first root branch
    for ref, alpha in (("G11", 37), ("H11", 67)):
        @criterion(9, f"alpha({ref}) = {alpha} exact, witness re-verified", 2.0)
        def check():
            g = graph_from_ref(ref)
            res = capsep.max_independent_set(g)
            assert (res.lower, res.upper, res.exact) == (alpha, alpha, True)
            assert capsep.verify_independent(g, res.witness) == (True, None)
        check()
    # H_11 meets its Haemers rank bound: the sandwich alpha <= Theta <= rank is tight
    assert haemers_matrix(capsep.build_H(11)).rank == 67

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capsep
from capsep.alpha import max_independent_set, verify_independent
from capsep.bitgraph import graph_from_ref, weight_w_bits
from capsep.errors import InternalCheckError, ResourceLimitError
from conftest import (adjacency_rows, alpha_by_enumeration, alpha_by_vertex_coloring, flatten,
                      is_adjacent, random_explicit_graph)


class TestMaxIndependentSet:
    def test_pentagon(self):
        res = max_independent_set(capsep.build_cycle(5))
        assert res.lower == res.upper == 2
        assert res.exact
        ok, _ = verify_independent(capsep.build_cycle(5), res.witness)
        assert ok

    def test_pentagon_squared_is_five(self):
        c5 = capsep.build_cycle(5)
        p = capsep.ProductGraph([c5, c5])
        res = max_independent_set(p)
        assert res.exact and res.lower == 5
        ok, _ = verify_independent(p, res.witness)
        assert ok

    def test_triangle(self):
        res = max_independent_set(capsep.build_G(3))
        assert res.exact and res.lower == 1

    def test_matches_enumeration_oracle(self):
        rng = random.Random(41)
        for trial in range(20):
            n = rng.randrange(4, 15)
            g = random_explicit_graph(n, rng.uniform(0.2, 0.7), seed=trial)
            res = max_independent_set(g)
            assert res.exact
            assert res.lower == alpha_by_enumeration(adjacency_rows(g))

    def test_budget_exhaustion_keeps_honest_bounds(self):
        g = random_explicit_graph(40, 0.15, seed=99)
        res = max_independent_set(g, node_budget=5)
        assert not res.exact
        assert res.lower <= res.upper
        ok, _ = verify_independent(g, res.witness)
        assert ok
        exact = max_independent_set(g, node_budget=10**7)
        assert exact.exact
        assert res.lower <= exact.lower <= res.upper

    def test_result_json(self):
        c5 = capsep.build_cycle(5)
        res = max_independent_set(c5)
        payload = res.to_json(c5)
        assert payload["graph"] == "C5"
        assert payload["lower"] == payload["upper"] == 2
        assert payload["exact"] is True
        assert len(payload["witness"]) == 2


class TestMatchesVertexColoringOracle:
    """Class-by-class coloring over ranks searches the same tree as
    vertex-by-vertex coloring over indices, so every reported field agrees."""

    @staticmethod
    def fields(res):
        return res.lower, res.upper, res.exact, res.witness, res.nodes_explored

    @settings(max_examples=200, deadline=None)
    # n = 8, 63, 64, 65: the byte pad and the 64-bit boundary of the top-bit layout
    @example(n=8, density=0.4, seed=0, budget=1_000_000)
    @example(n=63, density=0.6, seed=1, budget=1_000_000)
    @example(n=64, density=0.6, seed=2, budget=1_000_000)
    @example(n=65, density=0.8, seed=3, budget=1_000_000)
    @given(n=st.integers(1, 70), density=st.sampled_from([0.05, 0.2, 0.4, 0.6, 0.8, 0.95]),
           seed=st.integers(0, 2**32 - 1),
           budget=st.one_of(st.integers(1, 60), st.just(1_000_000)))
    def test_random_explicit_graphs(self, n, density, seed, budget):
        g = random_explicit_graph(n, density, seed)
        res = max_independent_set(g, node_budget=budget)
        assert self.fields(res) == alpha_by_vertex_coloring(g, budget)
        assert verify_independent(g, res.witness) == (True, None)

    @pytest.mark.parametrize("ref, budget, expect", [
        ("G11", 2000, (37, 37, True, 1119)),
        ("H11", 2000, (67, 256, False, 2001)),
        ("C5xC5", 1_000_000, (5, 5, True, 11)),
        ("G11", 20000, (37, 37, True, 1119)),
        ("H11", 1_000_000, (67, 67, True, 5322)),
    ])
    def test_fixed_cases(self, ref, budget, expect):
        g = graph_from_ref(ref)
        res = max_independent_set(g, node_budget=budget)
        assert (res.lower, res.upper, res.exact, res.nodes_explored) == expect
        assert self.fields(res) == alpha_by_vertex_coloring(g, budget)

    @pytest.mark.parametrize("ref", ["C5xH3", "C4xC4xC4", "C7xK5", "H3xH3", "G3xC5xC4"])
    def test_products(self, ref):
        g = graph_from_ref(ref)
        res = max_independent_set(g, node_budget=3000)
        assert self.fields(res) == alpha_by_vertex_coloring(g, 3000)


# A pentagon 0-4-2-3-1 with vertex 5 joined to both ends of its edge 0-1: alpha = 3
# ({3, 4, 5}), but the greedy incumbent is {2, 5} and the root's first branch,
# on vertex 2, finds no third vertex.
ROOFED_PENTAGON = [(0, 1), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)]


class TestVertexTransitiveRestart:
    """On a vertex-transitive graph alpha(G) = 1 + alpha(G - N[v]), so the search
    expands only the root's first branch; every other graph keeps the full search."""

    @pytest.mark.parametrize("ref", ["G11", "H11", "O4", "C5", "K3", "C5xH3", "G3xC5xC4"])
    def test_builders_claim_transitivity(self, ref):
        assert graph_from_ref(ref).vertex_transitive is True

    def test_other_graphs_do_not(self):
        g7_part = capsep.BitGraph(7, weight_w_bits(7, 4)[:20], ("distance", 4), family="G")
        for g in (random_explicit_graph(10, 0.4, seed=0), g7_part,
                  capsep.ProductGraph([capsep.build_cycle(5), g7_part]),
                  capsep.ProductGraph([random_explicit_graph(4, 0.5, seed=1), capsep.build_G(3)])):
            assert g.vertex_transitive is False

    @pytest.mark.parametrize("ref", [f"{f}{n}" for f in "GH" for n in (3, 5, 7, 9)]
                             + [f"O{n}" for n in (2, 4, 6)] + [f"C{n}" for n in range(3, 13)]
                             + [f"K{n}" for n in range(1, 7)]
                             + ["C5xC5", "C7xC7", "H3xH3", "C5xH3", "C4xC4xC4", "C7xK5",
                                "G3xC5xC4"])
    def test_restart_matches_enumeration(self, ref):
        g = graph_from_ref(ref)
        res = max_independent_set(g)
        assert res.exact and res.lower == res.upper
        assert res.lower == alpha_by_enumeration(adjacency_rows(g))

    def test_restart_matches_the_full_search_on_o8(self):
        # 256 vertices: past the enumeration oracle; the same graph unflagged is searched whole
        res = max_independent_set(graph_from_ref("O8"))
        full = max_independent_set(capsep.BitGraph(8, range(256), ("distance", 4)))
        assert res.exact and full.exact and res.lower == full.lower == 32

    def test_full_search_off_transitive_graphs(self):
        g = capsep.BitGraph(3, range(6), ("explicit", ROOFED_PENTAGON))
        assert alpha_by_enumeration(adjacency_rows(g)) == 3
        assert max_independent_set(g).lower == 3
        # the same graph falsely flagged: the first root branch alone misses alpha
        wrong = capsep.BitGraph(3, range(6), ("explicit", ROOFED_PENTAGON), vertex_transitive=True)
        assert max_independent_set(wrong).lower == 2


class TestAlphaViaPower:
    """alpha of a strong power, searched as ``capsep alpha --graph C5xC5`` does."""

    def test_power_one_is_alpha(self):
        res = max_independent_set(capsep.ProductGraph([capsep.build_cycle(5)]))
        assert res.exact and res.lower == 2

    def test_complete_graph_powers_stay_one(self):
        # K_3 boxtimes K_3 = K_9
        res = max_independent_set(capsep.ProductGraph([capsep.build_G(3)] * 2))
        assert res.lower == 1 and res.exact

    def test_respects_product_cap(self, h11):
        with pytest.raises(ResourceLimitError):
            capsep.ProductGraph([h11] * 3)

    def test_failed_witness_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(capsep.alpha, "verify_independent",
                            lambda g, idx: (False, (0, 1)))
        with pytest.raises(InternalCheckError, match="internal witness failed"):
            max_independent_set(capsep.build_cycle(5))


class TestVerifyIndependent:
    def test_restricted_set_verifies(self, g11):
        rs = capsep.restricted_independent_set(11)
        idx = g11.indices_of(rs.vertices)
        ok, witness = verify_independent(g11, idx)
        assert ok and witness is None

    def test_clique_fails_with_witness(self):
        g3 = capsep.build_G(3)
        ok, witness = verify_independent(g3, [0, 1, 2])
        assert not ok
        assert is_adjacent(g3, *witness)

    def test_empty_set(self):
        assert verify_independent(capsep.build_cycle(5), []) == (True, None)


class TestSupermultiplicativity:
    def test_tiled_witness_in_square(self):
        for g in (capsep.build_cycle(5), capsep.build_cycle(7),
                  random_explicit_graph(9, 0.4, seed=5)):
            base = max_independent_set(g)
            assert base.exact
            square = capsep.ProductGraph([g, g])
            tile = [flatten(square, (u, v)) for u in base.witness
                    for v in base.witness]
            ok, _ = verify_independent(square, tile)
            assert ok
            res = max_independent_set(square)
            assert res.lower >= base.lower**2

import dataclasses
import json
import math
from fractions import Fraction

import pytest

import capsep
from capsep.errors import InvalidParameterError
from capsep.report import MAX_P, CapacityReport, capacity_report, fraction_log2
from conftest import monomial_basis


class TestCapacityReport:
    def test_g_p3_values(self):
        rep = capacity_report("G", 3)
        assert rep.n == 11
        assert rep.theta_q_lower == Fraction(462, 144)
        assert rep.theta_upper == 67
        assert rep.separation is False
        assert rep.hadamard.construction == "paley(11)"

    def test_h_p3_values(self):
        rep = capacity_report("H", 3)
        assert rep.theta_q_lower == Fraction(1024, 144)
        assert abs(float(rep.theta_q_lower) - 7.11) < 0.01
        assert rep.theta_upper == 67
        assert rep.separation is False

    @pytest.mark.parametrize("family", ["G", "H"])
    @pytest.mark.parametrize("p", [3, 5, 11])
    def test_no_separation_at_small_primes(self, family, p):
        assert capacity_report(family, p).separation is False

    @pytest.mark.parametrize("family", ["G", "H"])
    def test_separation_at_p41(self, family):
        rep = capacity_report(family, 41)
        assert rep.separation is True
        assert rep.to_json()["ratio_log2"] > 0
        assert rep.hadamard.size == 164
        assert rep.evidence["hadamard"]["verified"] is True
        # the H clique is every normalized row, the G clique all but row 0
        assert rep.evidence["clique"] == {"size": {"G": 163, "H": 164}[family],
                                          "verified": True, "level": "certified"}

    def test_exact_comparison_matches_fraction_comparison(self):
        for p in (3, 5, 11, 41):
            rep = capacity_report("G", p)
            assert rep.separation == (rep.theta_q_lower > rep.theta_upper)

    @pytest.mark.parametrize("bad", [2, 9, 1, 0])
    def test_rejects_bad_p(self, bad):
        with pytest.raises(InvalidParameterError):
            capacity_report("G", bad)

    @pytest.mark.parametrize("p", [MAX_P + 1, 10**18 + 3])
    def test_rejects_p_over_the_cap_before_any_work(self, p, monkeypatch):
        def refuse(m):
            raise AssertionError("primality was tested")
        monkeypatch.setattr(capsep.algebra_fp, "is_prime", refuse)
        with pytest.raises(InvalidParameterError, match=f"exceeds the cap {MAX_P}"):
            capacity_report("G", p)

    def test_formula_only_where_no_hadamard_of_size_4p_is_covered(self):
        # 4p - 1 = 10011 is past MAX_PALEY_Q, and 2p - 1 = 1 mod 4 rules out doubling
        rep = capacity_report("G", 2503)
        assert rep.hadamard is None and rep.separation is True
        assert rep.evidence["hadamard"] == rep.evidence["clique"] == "unavailable"
        assert rep.evidence["lower_bound"]["level"] == "formula-only"

    def test_prints_up_to_the_cap(self):
        # |V(H)| = 2^(4p-2) is the largest integer a report prints
        assert json.loads(json.dumps(capacity_report("H", 3499).to_json()))["p"] == 3499

    def test_rejects_bad_family(self):
        with pytest.raises(InvalidParameterError):
            capacity_report("X", 3)

    def test_values_recomputable_from_artifacts(self, g11):
        rep = capacity_report("G", 3)
        assert rep.vertex_count == g11.vertex_count
        assert rep.to_json()["theta_q_lower"] == {"num": 462, "den": 144,
                                                  "log2": 1.682}
        assert rep.theta_upper == len(monomial_basis(11, 3))
        for family in ("G", "H"):
            for p in (3, 17, 41):
                n = 4 * p - 1
                payload = capacity_report(family, p).to_json()
                assert payload["theta_q_lower"]["num"] == (
                    math.comb(n, 2 * p) if family == "G" else 2 ** (n - 1))
                assert payload["theta_q_lower"]["den"] == (n + 1) ** 2 == 16 * p * p
                assert payload["theta_upper"]["value"] == sum(
                    math.comb(n, i) for i in range(p))

    @pytest.mark.parametrize("family", ["G", "H"])
    @pytest.mark.parametrize("p", [3, 17, 41, 2503])
    def test_upper_bound_is_the_binomial_sum(self, family, p):
        n = 4 * p - 1
        assert CapacityReport(family, p, None).theta_upper == \
            sum(math.comb(n, i) for i in range(p))

    def test_stores_only_its_inputs(self):
        assert [f.name for f in dataclasses.fields(CapacityReport)] == [
            "family", "p", "hadamard"]

    def test_json_schema(self):
        payload = capacity_report("G", 41).to_json()
        assert set(payload) == {"family", "n", "p", "hadamard", "theta_q_lower",
                                "theta_upper", "ratio_log2", "separation",
                                "evidence"}
        assert set(payload["hadamard"]) == {"size", "construction"}
        assert set(payload["theta_q_lower"]) == {"num", "den", "log2"}
        assert set(payload["evidence"]) == {"hadamard", "clique", "lower_bound",
                                            "upper_bound"}
        assert payload["separation"] is True


class TestBigIntegerHelpers:
    def test_binomials_match_pascal_recurrence(self):
        row = [1]
        for n in range(1, 201):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for k in (0, 1, n // 2, n - 1, n):
                assert row[k] == math.comb(n, k)

    def test_fraction_log2_handles_huge_values(self):
        x = 2**5000 + 12345
        assert abs(fraction_log2(Fraction(x, 3 * 2**4000)) - 1000.0 + math.log2(3)) < 1e-9

    def test_fraction_log2(self):
        assert abs(fraction_log2(Fraction(8, 2)) - 2.0) < 1e-12
        big = Fraction(math.comb(163, 82), 164**2)
        assert fraction_log2(big) > 0

import math
from fractions import Fraction

import pytest

import capsep.report
from capsep.algebra_fp import monomial_basis
from capsep.errors import InternalCheckError, InvalidParameterError
from capsep.report import (_entropy_log2, binary_entropy, capacity_report,
                           fraction_log2, int_log2)


class TestCapacityReport:
    def test_g_p3_values(self):
        rep = capacity_report("G", 3)
        assert rep.n == 11
        assert rep.theta_q_lower == Fraction(462, 144)
        assert rep.theta_upper == 67
        assert rep.separation is False
        assert rep.hadamard_construction == "paley(11)"

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
        assert rep.ratio_log2 > 0
        assert rep.hadamard_size == 164
        assert rep.evidence["hadamard"]["verified"] is True
        assert rep.evidence["clique"] == {"size": 163, "verified": True,
                                          "level": "certified"}

    def test_exact_comparison_matches_fraction_comparison(self):
        for p in (3, 5, 11, 41):
            rep = capacity_report("G", p)
            assert rep.separation == (rep.theta_q_lower > rep.theta_upper)

    @pytest.mark.parametrize("bad", [2, 9, 1, 0])
    def test_rejects_bad_p(self, bad):
        with pytest.raises(InvalidParameterError):
            capacity_report("G", bad)

    def test_rejects_bad_family(self):
        with pytest.raises(InvalidParameterError):
            capacity_report("X", 3)

    def test_values_recomputable_from_artifacts(self, g11):
        rep = capacity_report("G", 3)
        assert rep.vertex_count == g11.vertex_count
        assert rep.to_json()["theta_q_lower"] == {"num": 462, "den": 144,
                                                  "log2": 1.682}
        assert rep.theta_upper == len(monomial_basis(11, 3))

    def test_upper_bound_below_entropy_envelope(self):
        for p in (3, 5, 11, 41):
            rep = capacity_report("G", p)
            assert int_log2(rep.theta_upper) <= rep.entropy_upper_log2 + 1e-9

    def test_json_schema(self):
        payload = capacity_report("G", 41).to_json()
        assert set(payload) == {"family", "n", "p", "hadamard", "theta_q_lower",
                                "theta_upper", "entropy_upper_log2",
                                "ratio_log2", "separation", "evidence"}
        assert set(payload["hadamard"]) == {"size", "construction"}
        assert set(payload["theta_q_lower"]) == {"num", "den", "log2"}
        assert payload["separation"] is True


class TestEntropyEstimate:
    def test_entropy_of_half_is_one(self):
        assert abs(binary_entropy(0.5) - 1.0) < 1e-15

    def test_dominates_binomial_sum_n11(self):
        assert 2 ** _entropy_log2(11, 3) >= 67

    def test_asymptotic_exponent(self):
        # 4(1 - H(1/4)) is about 0.755, consistent with the stated 0.752
        # up to the polynomial factor the asymptotic bound absorbs
        assert abs(4 * (1 - binary_entropy(0.25)) - 0.7549) < 1e-3

    def test_rejects_domain_violation(self):
        with pytest.raises(InvalidParameterError):
            _entropy_log2(11, 11)
        with pytest.raises(InvalidParameterError):
            _entropy_log2(11, 0)

    def test_failed_dominance_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(capsep.report, "binary_entropy", lambda t: 0.1)
        with pytest.raises(InternalCheckError, match="entropy estimate"):
            capacity_report("G", 3)


class TestBigIntegerHelpers:
    def test_binomials_match_pascal_recurrence(self):
        row = [1]
        for n in range(1, 201):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for k in (0, 1, n // 2, n - 1, n):
                assert row[k] == math.comb(n, k)

    def test_int_log2_handles_huge_values(self):
        x = 2**5000 + 12345
        assert abs(int_log2(x) - 5000.0) < 1e-9

    def test_fraction_log2(self):
        assert abs(fraction_log2(Fraction(8, 2)) - 2.0) < 1e-12
        big = Fraction(math.comb(163, 82), 164**2)
        assert fraction_log2(big) > 0

"""Exact big-integer evaluation of the capacity bounds and their comparison.

For an odd prime p with a Hadamard matrix of size 4p, and n = 4p-1:

  entangled lower bound   |V(G)| / (n+1)^2    (clique-packing bound)
  Shannon upper bound     sum_{i<p} C(n, i)   (fitting-matrix rank bound)

with |V| = C(n, (n+1)/2) for the weight-(n+1)/2 family and 2^(n-1) for the
even-weight family. The comparison is exact rational arithmetic; the binary
entropy estimate 2^(n H(p/n)) is reported alongside as a float-only upper
envelope of the binomial sum. Where the lower bound crosses above the upper
bound is an output of this arithmetic, not an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra_fp import instance_prime
from .errors import InternalCheckError, InvalidParameterError
from .geometry import clique_from_hadamard_G
from .hadamard import find_hadamard

# The largest integer a report prints, |V(H)| = 2^(4p-2), stays within
# Python's default 4300-digit limit on int-to-str conversion up to p = 3571.
# The cap also keeps trial division off huge p. Past MAX_PALEY_Q / 4 no
# Hadamard matrix of size 4p is covered, so reports there are formula-only.
MAX_P = 3500


def fraction_log2(f: Fraction) -> float:
    return math.log2(f.numerator) - math.log2(f.denominator)


def binary_entropy(t: float) -> float:
    if not 0.0 < t < 1.0:
        raise InvalidParameterError(f"entropy argument must be in (0,1), got {t}")
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def _entropy_log2(n: int, p: int, binomial_sum: int) -> float:
    """n H(p/n), the log2 of the entropy estimate of binomial_sum = sum_{i<p} C(n, i).

    For p/n <= 1/2 the estimate dominates the sum (a theorem), so a failed
    dominance check is an implementation bug.
    """
    exponent = n * binary_entropy(p / n)
    if math.log2(binomial_sum) > exponent + 1e-9:
        raise InternalCheckError("entropy estimate fell below the binomial sum")
    return exponent


@dataclass(frozen=True)
class CapacityReport:
    family: str
    n: int
    p: int
    vertex_count: int
    hadamard_size: int
    hadamard_construction: str | None
    theta_q_lower: Fraction
    theta_upper: int
    entropy_upper_log2: float
    ratio_log2: float
    separation: bool
    evidence: dict

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "p": self.p,
            "hadamard": {"size": self.hadamard_size,
                         "construction": self.hadamard_construction},
            # unreduced |V| / (n+1)^2 so the pair stays recomputable from artifacts
            "theta_q_lower": {
                "num": self.vertex_count,
                "den": (self.n + 1) ** 2,
                "log2": round(fraction_log2(self.theta_q_lower), 3),
            },
            "theta_upper": {"value": self.theta_upper,
                            "log2": round(math.log2(self.theta_upper), 3)},
            "entropy_upper_log2": round(self.entropy_upper_log2, 3),
            "ratio_log2": round(self.ratio_log2, 3),
            "separation": self.separation,
            "evidence": self.evidence,
        }


def capacity_report(family: str, p: int) -> CapacityReport:
    """Both capacity bounds at n = 4p-1, compared exactly.

    The lower bound's hypotheses are re-established constructively where
    possible: the size-4p Hadamard matrix is built and verified, and the
    n-clique extracted from it is distance-checked, even at sizes where the
    graph itself is far beyond materialization. Bounds carry an evidence tag
    of "certified" (explicit verified object) or "formula" (theorem-level).
    """
    if family not in ("G", "H"):
        raise InvalidParameterError(f"family must be G or H, got {family!r}")
    if p > MAX_P:
        raise InvalidParameterError(f"p = {p} exceeds the cap {MAX_P}")
    n = 4 * p - 1
    if instance_prime(n) is None:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")

    hadamard = find_hadamard(4 * p)
    evidence: dict = {}
    if hadamard is None:
        construction = None
        evidence["hadamard"] = "unavailable"
        evidence["clique"] = "unavailable"
    else:
        construction = hadamard.construction
        evidence["hadamard"] = {"size": hadamard.size, "verified": True,
                                "level": "certified"}
        clique = clique_from_hadamard_G(hadamard)
        evidence["clique"] = {"size": len(clique), "verified": True,
                              "level": "certified"}

    vertex_count = math.comb(n, (n + 1) // 2) if family == "G" else 2 ** (n - 1)
    theta_q_lower = Fraction(vertex_count, (n + 1) ** 2)
    theta_upper = sum(math.comb(n, i) for i in range(p))
    entropy_log2 = _entropy_log2(n, p, theta_upper)

    separation = vertex_count > theta_upper * (n + 1) ** 2
    ratio_log2 = fraction_log2(theta_q_lower) - math.log2(theta_upper)

    evidence["lower_bound"] = {
        "formula": "|V| / (n+1)^2",
        "level": "certified" if hadamard is not None else "formula-only",
    }
    evidence["upper_bound"] = {
        "formula": "sum_{i<p} C(n,i)",
        "level": "formula",
    }
    # The asymptotic exponent 4(1 - H(1/4)) ~ 0.755 is reported for context
    # only; nothing downstream asserts it.
    evidence["asymptotic_exponent"] = round(4 * (1 - binary_entropy(0.25)), 3)

    return CapacityReport(family, n, p, vertex_count, 4 * p, construction,
                          theta_q_lower, theta_upper, entropy_log2, ratio_log2,
                          separation, evidence)

"""Exact big-integer evaluation of the capacity bounds and their comparison.

For an odd prime p with a Hadamard matrix of size 4p, and n = 4p-1:

  entangled lower bound   |V(G)| / (n+1)^2    (clique-packing bound)
  Shannon upper bound     sum_{i<p} C(n, i)   (fitting-matrix rank bound)

with |V| = C(n, (n+1)/2) for the weight-(n+1)/2 family and 2^(n-1) for the
even-weight family. The comparison is exact integer arithmetic, and every
number a report prints is one of these integers or the log2 rounding of one.
Where the lower bound crosses above the upper bound is an output of this
arithmetic, not an input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .algebra_fp import instance_prime, monomial_count
from .errors import InvalidParameterError, ReadOnly
from .hadamard import HadamardMatrix, find_hadamard

# The largest integer a report prints, |V(H)| = 2^(4p-2), stays within
# Python's default 4300-digit limit on int-to-str conversion up to p = 3571.
# The cap also keeps trial division off huge p. Past MAX_PALEY_Q / 4 no
# Hadamard matrix of size 4p is covered, so reports there are formula-only.
MAX_P = 3500


def fraction_log2(f: Fraction) -> float:
    return math.log2(f.numerator) - math.log2(f.denominator)


class CapacityReport(ReadOnly):
    """Both bounds for one family at n = 4p-1. Holds only its inputs: the
    family, p and the order-4p Hadamard matrix (None where no construction is
    covered); every number it prints is derived from them."""

    def __init__(self, family: str, p: int, hadamard: HadamardMatrix | None):
        self.__dict__.update(family=family, p=p, hadamard=hadamard)

    @property
    def n(self) -> int:
        return 4 * self.p - 1

    @property
    def vertex_count(self) -> int:
        n = self.n
        return math.comb(n, (n + 1) // 2) if self.family == "G" else 2 ** (n - 1)

    @property
    def theta_q_lower(self) -> Fraction:
        return Fraction(self.vertex_count, (self.n + 1) ** 2)

    @cached_property
    def theta_upper(self) -> int:
        return monomial_count(self.n, self.p)

    @property
    def separation(self) -> bool:
        return self.vertex_count > self.theta_upper * (self.n + 1) ** 2

    @property
    def evidence(self) -> dict:
        """Evidence levels: "certified" where the verified matrix and the clique
        read from it back the lower bound, "formula" where only a theorem does.
        The clique is the normalized matrix's m rows for H and all but row 0
        for G (``geometry.hadamard_clique``), so its size is read, not built."""
        h = self.hadamard
        level = {"verified": True, "level": "certified"}
        return {
            "hadamard": "unavailable" if h is None else {"size": h.size, **level},
            "clique": "unavailable" if h is None
            else {"size": h.size - (self.family == "G"), **level},
            "lower_bound": {"formula": "|V| / (n+1)^2",
                            "level": "formula-only" if h is None else "certified"},
            "upper_bound": {"formula": "sum_{i<p} C(n,i)", "level": "formula"},
        }

    def to_json(self) -> dict:
        lower_log2 = fraction_log2(self.theta_q_lower)
        upper_log2 = math.log2(self.theta_upper)
        return {
            "family": self.family,
            "n": self.n,
            "p": self.p,
            "hadamard": {"size": 4 * self.p, "construction":
                         None if self.hadamard is None else self.hadamard.construction},
            # unreduced |V| / (n+1)^2 so the pair stays recomputable from artifacts
            "theta_q_lower": {"num": self.vertex_count, "den": (self.n + 1) ** 2,
                              "log2": round(lower_log2, 3)},
            "theta_upper": {"value": self.theta_upper, "log2": round(upper_log2, 3)},
            "ratio_log2": round(lower_log2 - upper_log2, 3),
            "separation": self.separation,
            "evidence": self.evidence,
        }


def capacity_report(family: str, p: int) -> CapacityReport:
    """Both capacity bounds at n = 4p-1, compared exactly.

    The lower bound's hypotheses are re-established constructively where
    possible: the size-4p Hadamard matrix is built and verified, and with it
    the family's clique, its normalized rows (for G, all but the first), whose
    distances follow from the Hadamard identity, even at sizes where the graph
    itself is far beyond materialization.
    """
    if family not in ("G", "H"):
        raise InvalidParameterError(f"family must be G or H, got {family!r}")
    if p > MAX_P:
        raise InvalidParameterError(f"p = {p} exceeds the cap {MAX_P}")
    if instance_prime(4 * p - 1) is None:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    return CapacityReport(family, p, find_hadamard(4 * p))

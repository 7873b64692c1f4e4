"""Finite-field machinery for the Shannon-capacity upper bound.

For an odd prime p and strings of length n = 4p-1, each vertex's sign vector
u[x] = ((-1)^{x_1}, ..., (-1)^{x_n}) over F_p satisfies

    <u[x], u[y]> = n - 2 d(x,y) = -2 d(x,y) - 1   (mod p).

Fitting matrix. Row x of the |V| x m matrix T holds the values at u[x] of the
m = sum_{k<p} C(n,k) multilinear monomials of degree < p, and the fitting
matrix is A = -T T^T mod p. The degree-k monomials of u[x] and u[y] pair to
the Krawtchouk polynomial K_k(d) at d = d(x,y) (Delsarte 1973), so

    A(x,y) = f(d(x,y)),   f(d) = -sum_{k<p} K_k(d)   (mod p).

f(d) equals prod_{i=1}^{p-1} (n - 2d + 1 - i), the Frankl-Wilson product
polynomial Q_{u[x]}(v) = prod_{i=1}^{p-1} (<u[x],v> + 1 - i) at v = u[y]
(Haemers 1979; Frankl-Wilson 1981); this is checked at every d. A fits the
graph when f(0) != 0 and f vanishes at every non-adjacent distance. When all
vertex weights have one parity every distance is even, so checking f at the
even distance classes, O(n p) exact integer work, is a proof. The capacity is
then at most rank_p(A) <= m.

Rank. rank_p(A) = rank_p(T T^T), and each family gives it by an identity,
so no T is formed:

* H, exact (Haemers 1979). Column (S, S') of T^T T is
  sum_x (-1)^{|x & (S ^ S')|} over the even-weight words, which is 0 unless
  S ^ S' is empty or all of [n]; |S ^ S'| <= 2p-2 < n, so T^T T = 2^(n-1) I
  over the integers, a unit mod p. Then m >= rank_p(A) >= rank_p(T^T A T) = m.
* G, an upper bound (the slice bound; Wilson 1990). On the weight-w slice,
  x_S (w - |S|) = sum_{i not in S} x_{S+i}, so every polynomial of degree < p
  is a combination of the C(n, p-1) monomials of degree p-1 (w = 2p > p-1).
  Each column of T, (-1)^{|x & S|} = prod_{i in S} (1 - 2 x_i), is one of
  degree |S| < p, so T has rational rank at most C(n, p-1). The F_p rank of
  an integer matrix is at most its rational rank: rank_p(A) <= C(n, p-1).
"""

from __future__ import annotations

import math

from .bitgraph import BitGraph
from .errors import InternalCheckError, InvalidParameterError, ReadOnly
from .hadamard import is_prime


def monomial_count(n: int, p: int) -> int:
    """m = sum_{k<p} C(n,k), the multilinear monomials of degree < p, summed in
    one pass with C(n,k+1) = C(n,k) (n-k)/(k+1), exact in integers."""
    total, term = 0, 1
    for k in range(p):
        total += term
        term = term * (n - k) // (k + 1)
    return total


def _fitting_value(n: int, p: int, d: int) -> int:
    """f(d) = -sum_{k<p} K_k(d) mod p, with K_k(d) = sum_j (-1)^j C(d,j) C(n-d,k-j)."""
    return -sum((-1) ** j * math.comb(d, j) * math.comb(n - d, k - j)
                for k in range(p) for j in range(k + 1)) % p


def _fits_check(n: int, p: int, edge: int) -> None:
    """Fits condition on the distance classes of a one-parity distance graph.

    Every distance is even, so f(0) != 0 and f(d) = 0 at each even d in 2..n
    other than ``edge`` prove that A(x,y) = f(d(x,y)) fits the graph. f is also
    checked against the product form at every d in 0..n.
    """
    for d in range(n + 1):
        f = _fitting_value(n, p, d)
        product = math.prod(n - 2 * d + 1 - i for i in range(1, p)) % p
        if f != product:
            raise InternalCheckError(
                f"fits-check: f({d}) = {f}, product form gives {product}")
        if d == 0 and f == 0:
            raise InternalCheckError("fits-check: f(0) = 0, zero diagonal")
        if d and d % 2 == 0 and d != edge and f:
            raise InternalCheckError(
                f"fits-check: f({d}) = {f} at non-adjacent distance class {d}")


class HaemersResult(ReadOnly):
    def __init__(self, p: int, n: int, rank: int, source: str):
        # source: "identity" (H), where rank is rank_p(A) exactly, or "slice" (G), a bound
        self.__dict__.update(p=p, n=n, rank=rank, source=source)

    @property
    def bound(self) -> int:
        return monomial_count(self.n, self.p)

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "matrix": "A", "rank": self.rank,
                "source": self.source, "bound": self.bound, "fits": True}


def instance_prime(n: int) -> int | None:
    """p when n = 4p-1 for an odd prime p, the paper's instances; otherwise None."""
    p = (n + 1) // 4
    return p if n == 4 * p - 1 and p % 2 and is_prime(p) else None


def haemers_matrix(g: BitGraph) -> HaemersResult:
    """Fits check and rank of the fitting matrix A = -T T^T mod p of G or H.

    p is ``instance_prime(g.n)``. The rank comes from the module's identities,
    by family: m for H (exact), C(n, p-1) for G (an upper bound). Both
    families have one vertex-weight parity, which the fits check needs. A
    failing fits check raises: it would indicate an implementation bug, since
    it holds by construction for the graph families.
    """
    if g.family not in ("G", "H"):
        raise InvalidParameterError(
            f"the fitting-matrix rank is known for G and H only, not {g.graph_ref()}")
    n, p = g.n, instance_prime(g.n)
    if p is None:
        raise InvalidParameterError(f"(n+1)/4 = {(n + 1) / 4:g} is not an odd prime")
    _fits_check(n, p, g.distance)
    if g.family == "H":
        return HaemersResult(p, n, monomial_count(n, p), "identity")
    return HaemersResult(p, n, math.comb(n, p - 1), "slice")

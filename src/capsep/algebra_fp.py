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

Rank. If T_I is a row basis of T (r rows), then T = L T_I with L of full
column rank, so A = -L (T_I T_I^T) L^T and rank_p(A) = rank_p(T_I T_I^T), an
r x r matrix (``gram_rank``). No |V| x |V| matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitgraph import BitGraph, weight_w_bits
from .errors import (InternalCheckError, InvalidParameterError,
                     ResourceLimitError)
from .hadamard import is_prime

MEMORY_CAP_BYTES = 2 << 30


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over F_p, entries reduced into [0, p), stored in 8-bit cells."""

    p: int
    data: np.ndarray

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidParameterError(f"modulus {self.p} is not prime")
        if self.p >= 256:
            raise InvalidParameterError("8-bit cells require p < 256")
        d = np.asarray(self.data, dtype=np.uint8)
        if (d >= self.p).any():
            raise InvalidParameterError("entries not reduced mod p")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)


def monomial_basis(n: int, p: int) -> list[int]:
    """All multilinear monomials of degree <= p-1 as bitmasks, (degree, value)-sorted.

    Bit b of a mask is the variable of vertex bit b.
    """
    return [m for k in range(p) for m in weight_w_bits(n, k)]


def monomial_values(g: BitGraph, p: int) -> np.ndarray:
    """T, |V| x m int64: each ``monomial_basis`` monomial at each u[x], -1 as p-1."""
    masks = np.array(monomial_basis(g.n, p), dtype=np.uint64)
    return np.where(np.bitwise_count(g.bits_array[:, None] & masks) & 1, p - 1, 1)


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


def _pivot_columns(a: np.ndarray, p: int) -> list[int]:
    """Row-echelon form of int64 ``a`` (entries in [0, p)) in place; its pivot columns.

    First-nonzero pivoting; the number of pivots is the rank.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.nonzero(a[r + 1:, c])[0]
        if below.size:
            a[below] = (a[below] - a[below, c][:, None] * a[r][None, :]) % p
        pivots.append(c)
    return pivots


def rank_fp(m: FpMatrix) -> int:
    """Exact rank by Gaussian elimination mod p, first-nonzero pivoting."""
    return len(_pivot_columns(m.data.astype(np.int64), m.p))


def gram_rank(t: np.ndarray, p: int) -> int:
    """rank_p(T T^T) from the r x r Gram of a row basis of T.

    Lemma: the pivot columns of an echelon form of T^T index r rows T_I that
    are a basis of the row space of T, so T = L T_I, where L holds the r x r
    identity in the rows I and has full column rank. Then
    T T^T = L (T_I T_I^T) L^T, and as L has a left inverse and L^T a right
    inverse, rank_p(T T^T) = rank_p(T_I T_I^T).
    """
    work = np.array(t.T, dtype=np.int64, order="C")
    work %= p
    t_i = t[_pivot_columns(work, p)].astype(np.int64) % p
    return rank_fp(FpMatrix(p, t_i @ t_i.T % p))


@dataclass(frozen=True)
class HaemersResult:
    p: int
    n: int
    bound: int  # number of monomials = rank bound
    rank: int  # rank_p(A), exact

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "matrix": "A",
                "rank": self.rank, "bound": self.bound, "fits": True}


def haemers_matrix(g: BitGraph, p: int) -> HaemersResult:
    """Fits check and exact rank of the fitting matrix A = -T T^T mod p.

    T (|V| x m) is ``monomial_values``; no |V| x |V| matrix is formed. The
    memory the run needs (the int64 T and its working copy) is checked against
    ``MEMORY_CAP_BYTES`` before any of it is built. A failing fits check raises:
    it would indicate an implementation bug, since it holds by construction
    for the graph families.
    """
    if not is_prime(p) or p % 2 == 0:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    n = g.n
    if n != 4 * p - 1:
        raise InvalidParameterError(f"need n = 4p-1 = {4 * p - 1}, got n = {n}")
    if g.distance is None:
        raise InvalidParameterError("the fitting matrix needs a distance graph")
    odd = np.bitwise_count(g.bits_array) & 1
    if odd.any() and not odd.all():
        raise InvalidParameterError("vertex weights must all have one parity")
    nv, m = g.vertex_count, sum(math.comb(n, k) for k in range(p))
    need = 16 * nv * m
    if need > MEMORY_CAP_BYTES:
        raise ResourceLimitError(
            f"fitting matrix of {g.graph_ref()} at p = {p}: T is {nv} x {m}, "
            f"needing {need / 2**30:.1f} GiB, over the "
            f"{MEMORY_CAP_BYTES / 2**30:.0f} GiB cap")
    _fits_check(n, p, g.distance)
    return HaemersResult(p, n, m, gram_rank(monomial_values(g, p), p))


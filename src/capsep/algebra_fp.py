"""Finite-field machinery for the Shannon-capacity upper bound.

For an odd prime p and strings of length n = 4p-1, each vertex's sign vector
u[x] = ((-1)^{x_1}, ..., (-1)^{x_n}) over F_p satisfies

    <u[x], u[y]> = n - 2 d(x,y) = -2 d(x,y) - 1   (mod p).

The degree-(p-1) product polynomial Q_u(v) = prod_{i=1}^{p-1} (<u,v> + 1 - i)
vanishes whenever <u,v> != -1 and equals (-1)^p at v = u. Reducing squares on
the +-1 cube turns Q_u into a multilinear polynomial of degree <= p-1, whose
coefficient/evaluation vectors factor the fitting matrix A(x,y) = P_x(u[y])
through the monomial basis, bounding the capacity by the number of monomials.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bitgraph import BitGraph, BitVertex, sign_rows
from .errors import (InternalCheckError, InvalidParameterError,
                     ResourceLimitError)
from .hadamard import is_prime

MEMORY_CAP_BYTES = 2 << 30
_MAGIC = b"FPMX"


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

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def to_bytes(self) -> bytes:
        header = struct.pack("<4sIQQ", _MAGIC, self.p, self.rows, self.cols)
        return header + self.data.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FpMatrix":
        magic, p, rows, cols = struct.unpack_from("<4sIQQ", blob)
        if magic != _MAGIC:
            raise InvalidParameterError("bad matrix dump magic")
        body = np.frombuffer(blob, dtype=np.uint8, offset=struct.calcsize("<4sIQQ"))
        return cls(p, body.reshape(rows, cols).copy())


def sign_vector(x: BitVertex, p: int) -> np.ndarray:
    """u[x] over F_p: coordinate i is 1 for a 0-bit, p-1 for a 1-bit."""
    n = x.len
    return np.array([p - 1 if (x.bits >> (n - 1 - j)) & 1 else 1
                     for j in range(n)], dtype=np.int64)


def inner_product_identity_check(x: BitVertex, y: BitVertex, p: int) -> int:
    """<u[x],u[y]> mod p, asserted equal to (-2 d(x,y) - 1) mod p.

    Valid whenever n = -1 mod p; for the graph families n = 4p-1.
    """
    if x.len != y.len:
        raise InvalidParameterError("length mismatch")
    n = x.len
    if n % p != p - 1:
        raise InvalidParameterError(f"need n = -1 mod {p}, got n = {n}")
    d = (x.bits ^ y.bits).bit_count()
    ip = (n - 2 * d) % p
    expected = (-2 * d - 1) % p
    if ip != expected:
        raise InternalCheckError(f"inner-product identity failed at d={d}")
    return ip


class ProductFormPoly:
    """Q_u in product form: evaluates prod_{i=1}^{p-1} (<u,v> + 1 - i) over F_p."""

    def __init__(self, u: np.ndarray, p: int):
        if u.shape[0] % p != p - 1:
            raise InvalidParameterError(
                f"need n = -1 mod {p}, got n = {u.shape[0]}")
        self.u = np.mod(u, p).astype(np.int64)
        self.p = p
        self.n = int(u.shape[0])

    def evaluate(self, v: np.ndarray) -> int:
        t = int(self.u @ np.mod(v, self.p)) % self.p
        out = 1
        for i in range(1, self.p):
            out = out * (t + 1 - i) % self.p
        return out


def frankl_wilson_Q(u: np.ndarray | BitVertex, p: int) -> ProductFormPoly:
    """Product-form polynomial for a sign vector (or the vertex defining it)."""
    if not is_prime(p) or p % 2 == 0:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    if isinstance(u, BitVertex):
        u = sign_vector(u, p)
    return ProductFormPoly(np.asarray(u, dtype=np.int64), p)


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial over F_p, keyed by variable-subset bitmask."""

    p: int
    n: int
    terms: dict  # bitmask -> nonzero coefficient in [1, p)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def evaluate(self, v: np.ndarray) -> int:
        v = np.mod(np.asarray(v, dtype=np.int64), self.p)
        total = 0
        for mask, c in self.terms.items():
            prod = c
            mm = mask
            while mm:
                j = (mm & -mm).bit_length() - 1
                prod = prod * int(v[j]) % self.p
                mm &= mm - 1
            total += prod
        return total % self.p


def _times_linear_form(terms: dict, u: np.ndarray, p: int, n: int) -> dict:
    """Multiply a multilinear poly by sum_j u_j v_j, reducing v_j^2 -> 1."""
    out: dict[int, int] = {}
    for mask, c in terms.items():
        for j in range(n):
            c2 = c * int(u[j]) % p
            if c2 == 0:
                continue
            m2 = mask ^ (1 << j)
            out[m2] = (out.get(m2, 0) + c2) % p
    return {m: c for m, c in out.items() if c}


def multilinearize(q: ProductFormPoly) -> MultilinearPoly:
    """Expand Q_u into the multilinear monomial basis.

    First convolves the p-1 linear factors into coefficients of powers of
    t = <u,v>, then expands each power into monomials with even exponents
    collapsed (v_j^2 = 1 on the +-1 cube). Agrees with the product form on
    every +-1 point and has degree at most p-1.
    """
    p, n, u = q.p, q.n, q.u
    t_coeffs = [1]
    for i in range(1, p):
        c = (1 - i) % p
        nxt = [0] * (len(t_coeffs) + 1)
        for k, a in enumerate(t_coeffs):
            nxt[k] = (nxt[k] + a * c) % p
            nxt[k + 1] = (nxt[k + 1] + a) % p
        t_coeffs = nxt
    result: dict[int, int] = {}
    power: dict[int, int] = {0: 1}  # t^0
    for k, ck in enumerate(t_coeffs):
        if k > 0:
            power = _times_linear_form(power, u, p, n)
        if ck:
            for m, a in power.items():
                result[m] = (result.get(m, 0) + ck * a) % p
    return MultilinearPoly(p, n, {m: c for m, c in result.items() if c})


def monomial_basis(n: int, p: int) -> list[int]:
    """All multilinear monomials of degree <= p-1 as bitmasks, (degree, value)-sorted."""
    masks = [m for m in range(1 << n) if m.bit_count() <= p - 1]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return masks


def build_ST(g: BitGraph, p: int) -> tuple[FpMatrix, FpMatrix]:
    """Coefficient matrix S and evaluation matrix T with S[x].T[y] = P_x(u[y]).

    Row x of S holds the coefficients of the multilinearized polynomial of
    vertex x in the monomial basis; row y of T holds the values of those
    monomials at the sign vector of y.
    """
    if not is_prime(p) or p % 2 == 0:
        raise InvalidParameterError(f"p must be an odd prime, got {p}")
    n = g.n
    if n != 4 * p - 1:
        raise InvalidParameterError(f"need n = 4p-1 = {4 * p - 1}, got n = {n}")
    basis = monomial_basis(n, p)
    nv = g.vertex_count
    if 2 * nv * len(basis) > MEMORY_CAP_BYTES:
        raise ResourceLimitError(
            f"S/T of shape {nv}x{len(basis)} exceed the memory cap")
    col_of = {m: c for c, m in enumerate(basis)}
    signs = sign_rows(g.bits_array, n).astype(np.int64) % p

    s = np.zeros((nv, len(basis)), dtype=np.uint8)
    for ix in range(nv):
        poly = multilinearize(ProductFormPoly(signs[ix], p))
        for m, c in poly.terms.items():
            s[ix, col_of[m]] = c

    t = np.ones((nv, len(basis)), dtype=np.int64)
    for col, mask in enumerate(basis):
        mm = mask
        while mm:
            j = (mm & -mm).bit_length() - 1
            t[:, col] = t[:, col] * signs[:, j] % p
            mm &= mm - 1
    return FpMatrix(p, s), FpMatrix(p, t.astype(np.uint8))


@dataclass(frozen=True)
class HaemersResult:
    matrix: FpMatrix
    p: int
    n: int
    bound: int  # number of monomials = rank bound
    fits: bool
    rank: int | None = None

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "matrix": "A",
                "rank": self.rank, "bound": self.bound, "fits": self.fits}


def haemers_matrix(g: BitGraph, p: int) -> HaemersResult:
    """Fitting matrix A(x,y) = S[x].T[y] with an exhaustive fits-check.

    Fitting means nonzero diagonal and zero on all non-adjacent off-diagonal
    pairs, which bounds the Shannon capacity by rank(A). The check failing
    would indicate an implementation bug, since it holds by construction.
    """
    s, t = build_ST(g, p)
    a = (s.data.astype(np.int64) @ t.data.astype(np.int64).T) % p
    adj = g.adjacency_matrix()
    diag = np.diagonal(a)
    if (diag == 0).any():
        raise InternalCheckError(
            f"fits-check: zero diagonal at vertex {int(np.argmax(diag == 0))}")
    off = ~adj
    np.fill_diagonal(off, False)
    bad = (a != 0) & off
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise InternalCheckError(f"fits-check: nonzero at non-adjacent ({x},{y})")
    return HaemersResult(FpMatrix(p, a.astype(np.uint8)), p, g.n,
                         s.cols, fits=True)


def rank_fp(m: FpMatrix | np.ndarray, p: int | None = None) -> int:
    """Exact rank by Gaussian elimination mod p, first-nonzero pivoting."""
    if isinstance(m, FpMatrix):
        a = m.data.astype(np.int64).copy()
        p = m.p
    else:
        if p is None:
            raise InvalidParameterError("modulus required for a raw array")
        a = np.mod(np.asarray(m, dtype=np.int64), p).copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            f = a[r + 1 + below, c]
            a[r + 1 + below] = (a[r + 1 + below] - f[:, None] * a[r][None, :]) % p
        r += 1
        if r == rows:
            break
    return r


def dump_matrix(m: FpMatrix, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(m.to_bytes())


def load_matrix(path: str) -> FpMatrix:
    with open(path, "rb") as fh:
        return FpMatrix.from_bytes(fh.read())

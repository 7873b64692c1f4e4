"""Hadamard matrix constructions: Sylvester doubling and Paley type I.

Every constructor verifies H.H^T = m.I in exact integer arithmetic before
returning; a matrix that fails the check never escapes this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitgraph import row_blocks
from .errors import ConstructionError, InvalidParameterError

MAX_SYLVESTER_K = 12
MAX_PALEY_Q = 10**4


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class HadamardMatrix:
    """A +-1 square matrix with mutually orthogonal rows."""

    entries: np.ndarray
    construction: str = "unknown"

    def __post_init__(self):
        h = np.asarray(self.entries, dtype=np.int64)
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ConstructionError("entries must be square")
        if not np.isin(h, (-1, 1)).all():
            raise ConstructionError("entries must be +1/-1")
        m = h.shape[0]
        # Float matmul is exact here: every partial sum of +-1 products is an
        # integer bounded by m <= 10^4+1, far below 2^53. This keeps the check
        # exact while letting BLAS carry the m^3 work at large sizes.
        gram = h.astype(np.float64) @ h.astype(np.float64).T
        if not (gram == m * np.eye(m)).all():
            raise ConstructionError(f"rows not orthogonal: H.H^T != {m}I")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def is_normalized(self) -> bool:
        return bool((self.entries[0] == 1).all() and (self.entries[:, 0] == 1).all())

    def to_json(self) -> dict:
        return {"size": self.size,
                "rows": ["".join("+" if e == 1 else "-" for e in row)
                         for row in self.entries]}


def sylvester(k: int) -> HadamardMatrix:
    """Size-2^k Hadamard matrix by the doubling rule, starting from [[+1]]."""
    if not 0 <= k <= MAX_SYLVESTER_K:
        raise InvalidParameterError(f"k must be in [0, {MAX_SYLVESTER_K}], got {k}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(h, construction=f"sylvester({k})")


def _quadratic_character(q: int) -> np.ndarray:
    """chi(a) for a in [0, q): 0 at 0, +1 on squares, -1 otherwise."""
    squares = {(i * i) % q for i in range(1, q)}
    chi = np.empty(q, dtype=np.int64)
    chi[0] = 0
    for a in range(1, q):
        chi[a] = 1 if a in squares else -1
    return chi


def paley_one(q: int) -> HadamardMatrix:
    """Size-(q+1) Hadamard matrix from the Jacobsthal matrix of a prime q = 3 mod 4."""
    if not is_prime(q):
        raise ConstructionError(f"q = {q} is not prime")
    if q % 4 != 3:
        raise ConstructionError(f"q = {q} is not 3 mod 4")
    if q > MAX_PALEY_Q:
        raise ConstructionError(f"q = {q} exceeds cap {MAX_PALEY_Q}")
    chi = _quadratic_character(q)
    idx = np.arange(q)
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    for lo, hi in row_blocks(q, q):  # bound the (j - i) % q scratch matrix
        c[1 + lo:1 + hi, 1:] = chi[(idx[None, :] - idx[lo:hi, None]) % q]
    h = np.eye(q + 1, dtype=np.int64) + c
    return HadamardMatrix(h, construction=f"paley({q})")  # ctor verifies


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows/columns until the first row and column are all +1.

    Column j is negated when e[0, j] e[0, 0] = -1 and row i when
    e[i, 0] e[0, 0] = -1, so entry (i, j) becomes e[i, j] e[0, j] e[i, 0] e[0, 0]:
    a square, 1, in row 0 and in column 0.
    """
    e = h.entries
    return HadamardMatrix(e * e[0, :] * e[:, :1] * e[0, 0], construction=h.construction)


def double(h: HadamardMatrix) -> HadamardMatrix:
    """One Sylvester doubling step applied to an arbitrary Hadamard matrix."""
    e = h.entries
    return HadamardMatrix(np.block([[e, e], [e, -e]]),
                          construction=f"double({h.construction})")


def find_hadamard(m: int) -> HadamardMatrix | None:
    """Dispatch to a covered construction of size m, or None.

    Tries Sylvester (m a power of two), Paley (m = q+1, q prime = 3 mod 4),
    then Sylvester doublings of a Paley matrix. Sylvester wins when both apply.
    """
    if m < 1:
        raise InvalidParameterError(f"size must be >= 1, got {m}")
    if m & (m - 1) == 0 and m.bit_length() - 1 <= MAX_SYLVESTER_K:
        return sylvester(m.bit_length() - 1)
    # Paley core doubled up: m = 2^j * (q+1), fewest doublings first.
    rest, doublings = m, 0
    while True:
        if rest - 1 <= MAX_PALEY_Q and (rest - 1) % 4 == 3 and is_prime(rest - 1):
            h = paley_one(rest - 1)
            for _ in range(doublings):
                h = double(h)
            return h
        if rest % 2:
            return None
        rest //= 2
        doublings += 1

"""Hadamard matrix constructions: Sylvester doubling and Paley type I.

Every constructor verifies H.H^T = m.I in exact integer arithmetic before
returning, once per matrix; a matrix that fails the check never escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitgraph import row_blocks
from .errors import ConstructionError, InvalidParameterError, ResourceLimitError

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
        if h.min(initial=1) < -1 or h.max(initial=1) > 1 or np.count_nonzero(h) != h.size:
            raise ConstructionError("entries must be +1/-1")
        m = h.shape[0]
        # float32 matmul is exact here: every partial sum of +-1 products is an
        # integer bounded by m <= MAX_PALEY_Q + 1 < 2^24, so each one is a
        # float32. This keeps the check exact while letting BLAS carry the m^3
        # work at large sizes. One float32 copy, half the bytes of the int64
        # entries; the Gram is formed a block of rows at a time, less m I.
        f = h.astype(np.float32)
        for lo, hi in row_blocks(m, m):
            gram = f[lo:hi] @ f.T
            gram[np.arange(hi - lo), np.arange(lo, hi)] -= m
            if gram.any():
                raise ConstructionError(f"rows not orthogonal: H.H^T != {m}I")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {"size": self.size,
                "rows": ["".join("+" if e == 1 else "-" for e in row)
                         for row in self.entries]}


def _sylvester_entries(k: int) -> np.ndarray:
    """k doublings [[h, h], [h, -h]] of [[+1]], unchecked."""
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def sylvester(k: int) -> HadamardMatrix:
    """Size-2^k Hadamard matrix by the doubling rule, starting from [[+1]]."""
    if not 0 <= k <= MAX_SYLVESTER_K:
        raise InvalidParameterError(f"k must be in [0, {MAX_SYLVESTER_K}], got {k}")
    return HadamardMatrix(_sylvester_entries(k), construction=f"sylvester({k})")


def _paley_entries(q: int) -> np.ndarray:
    """The bordered I + Jacobsthal matrix of q, unchecked: chi(j - i) at (1+i, 1+j)
    off the diagonal. ``chi`` is +1 on the squares, 0 included: 1 + chi(0) = 1."""
    chi = np.full(q, -1, dtype=np.int64)
    idx = np.arange(q)
    chi[idx * idx % q] = 1
    h = np.empty((q + 1, q + 1), dtype=np.int64)
    h[0] = 1
    h[1:, 0] = -1
    for lo, hi in row_blocks(q, q):  # bound the (j - i) % q scratch matrix
        h[1 + lo:1 + hi, 1:] = chi[(idx[None, :] - idx[lo:hi, None]) % q]
    return h


def find_hadamard(m: int) -> HadamardMatrix | None:
    """Dispatch to a covered construction of size m, or None.

    Tries Sylvester (m a power of two), Paley (m = q+1, q prime = 3 mod 4),
    then Sylvester doublings of a Paley matrix. Sylvester wins when both apply.
    Doubling past MAX_PALEY_Q + 1 is refused before any entry is formed.
    """
    if m < 1:
        raise InvalidParameterError(f"size must be >= 1, got {m}")
    if m & (m - 1) == 0 and m.bit_length() - 1 <= MAX_SYLVESTER_K:
        return sylvester(m.bit_length() - 1)
    # Paley core doubled up: m = 2^j * (q+1), fewest doublings first.
    rest, j = m, 0
    while not (rest - 1 <= MAX_PALEY_Q and (rest - 1) % 4 == 3 and is_prime(rest - 1)):
        if rest % 2:
            return None
        rest, j = rest // 2, j + 1
    q = rest - 1
    if m > MAX_PALEY_Q + 1:
        raise ResourceLimitError(f"Hadamard order {m} = 2^{j} * {q + 1} exceeds "
                                 f"the cap {MAX_PALEY_Q + 1} on one construction")
    # j doublings are one Kronecker product with sylvester(j): kron is associative
    return HadamardMatrix(np.kron(_sylvester_entries(j), _paley_entries(q)),
                          construction="double(" * j + f"paley({q})" + ")" * j)

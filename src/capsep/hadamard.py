"""Hadamard matrix constructions: Sylvester doubling and Paley type I.

A matrix is held as its m row words, the form of a vertex word: bit m-1-j of
row i is set where entry (i, j) is -1. Rows i != j are orthogonal exactly
when 2 popcount(r_i xor r_j) = m, so every constructor proves H.H^T = m.I by
integer popcounts before returning, once per matrix; a matrix that fails the
check never escapes.
"""

from __future__ import annotations

import numpy as np

from .bitgraph import row_blocks, word_label
from .errors import ConstructionError, InvalidParameterError, ReadOnly, ResourceLimitError

MAX_SYLVESTER_K = 12
MAX_PALEY_Q = 10**4
_SIGNS = str.maketrans("01", "+-")


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


class HadamardMatrix(ReadOnly):
    """m row words of m bits, pairwise at Hamming distance m/2."""

    def __init__(self, rows, construction: str = "unknown"):
        rows = tuple(rows)
        m = len(rows)
        for i, r in enumerate(rows):
            if type(r) is not int or r < 0 or r >> m:
                raise ConstructionError(f"row {i} is not a {m}-bit word: {r!r}")
        # One 64-bit limb at a time, widened from bitwise_count's uint8 before
        # the sum; a block of rows against itself and the rows after it, the
        # diagonal masked (m/2 is no integer at odd m).
        limbs = -(-m // 64)
        w = np.frombuffer(b"".join(r.to_bytes(8 * limbs, "little") for r in rows),
                          dtype="<u8").reshape(m, limbs)
        for lo, hi in row_blocks(m, m * limbs):
            dist = np.zeros((hi - lo, m - lo), dtype=np.int32)
            for k in range(limbs):
                dist += np.bitwise_count(w[lo:hi, None, k] ^ w[lo:, k])
            bad = 2 * dist != m
            bad[np.arange(hi - lo), np.arange(hi - lo)] = False
            if bad.any():
                raise ConstructionError(f"rows not orthogonal: H.H^T != {m}I")
        self.__dict__.update(rows=rows, construction=construction)

    @property
    def size(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        m = self.size
        return {"size": m, "rows": [word_label(r, m).translate(_SIGNS) for r in self.rows]}


def _doubled(rows: list[int], k: int) -> list[int]:
    """k doublings [[h, h], [h, -h]] of the rows, unchecked."""
    for _ in range(k):
        m, ones = len(rows), (1 << len(rows)) - 1
        rows = [r << m | r for r in rows] + [r << m | r ^ ones for r in rows]
    return rows


def sylvester(k: int) -> HadamardMatrix:
    """Size-2^k Hadamard matrix by the doubling rule, starting from [[+1]]."""
    if not 0 <= k <= MAX_SYLVESTER_K:
        raise InvalidParameterError(f"k must be in [0, {MAX_SYLVESTER_K}], got {k}")
    return HadamardMatrix(_doubled([0], k), construction=f"sylvester({k})")


def _paley_rows(q: int) -> list[int]:
    """The bordered I + Jacobsthal matrix of q, unchecked: row 0 all +1; row
    1+i is -1 in column 0 (bit q), then chi(j - i) in column 1+j, which is row
    1's q-bit word rotated right by i. ``chi`` is +1 on the squares, 0 included."""
    squares = {j * j % q for j in range(q)}
    word = sum(1 << q - 1 - j for j in range(q) if j not in squares)
    ones = (1 << q) - 1
    return [0] + [1 << q | ((word >> i | word << q - i) & ones) for i in range(q)]


def find_hadamard(m: int) -> HadamardMatrix | None:
    """Dispatch to a covered construction of size m, or None.

    Tries Sylvester (m a power of two), Paley (m = q+1, q prime = 3 mod 4),
    then Sylvester doublings of a Paley matrix. Sylvester wins when both apply.
    Doubling past MAX_PALEY_Q + 1 is refused before any row is formed.
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
    return HadamardMatrix(_doubled(_paley_rows(q), j),
                          construction="double(" * j + f"paley({q})" + ")" * j)

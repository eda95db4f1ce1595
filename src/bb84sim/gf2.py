"""Dense linear algebra over the two-element field.

Vectors and matrices are immutable and bit-packed into Python integers:
bit ``i`` of the backing word is logical index ``i``, so XOR-heavy loops run
at machine-word speed while the interface stays in terms of bit indices.
Row reduction always picks the leftmost pivot, which makes reduced forms
canonical; both protocol parties therefore derive identical coset labels
from the public matrices without communicating.

All indices are zero-based.  `rows_to_words` and `words_to_rows` convert
between packed words and rows of (m, n) uint8 arrays under the same bit
order, for code that works on many vectors at once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionError

__all__ = [
    "BitVector",
    "BitMatrix",
    "mat_vec",
    "row_reduce",
    "solve_membership",
    "rows_to_words",
    "words_to_rows",
]


class BitVector:
    """Immutable vector over GF(2) of fixed length."""

    __slots__ = ("n", "word")

    def __init__(self, n: int, word: int = 0):
        if n < 0:
            raise DimensionError(f"negative length {n}")
        if word < 0 or word >> n:
            raise ValueError(f"word 0x{word:x} has bits beyond length {n}")
        self.n = n
        self.word = word

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVector":
        """Standard basis vector e_i."""
        if not 0 <= i < n:
            raise IndexError(f"unit index {i} out of range for length {n}")
        return cls(n, 1 << i)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        word = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit value {b!r} is not 0 or 1")
            word |= b << n
            n += 1
        return cls(n, word)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Vector of a 0/1 string, character i being bit i; "" is length 0."""
        if s.strip("01"):
            raise ValueError(f"bit string {s!r} has characters outside 0/1")
        return cls(len(s), int(s[::-1], 2) if s else 0)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for length {self.n}")
        return (self.word >> i) & 1

    def __iter__(self) -> Iterator[int]:
        w = self.word
        for _ in range(self.n):
            yield w & 1
            w >>= 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.word ^ other.word)

    # GF(2) addition and subtraction are both XOR.
    __add__ = __xor__
    __sub__ = __xor__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.word == other.word
        )

    def __hash__(self) -> int:
        return hash((self.n, self.word))

    @property
    def weight(self) -> int:
        """Hamming weight."""
        return self.word.bit_count()

    def is_zero(self) -> bool:
        return self.word == 0

    def __str__(self) -> str:
        return format(self.word, f"0{self.n}b")[::-1] if self.n else ""

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


class BitMatrix:
    """Immutable dense matrix over GF(2), stored as one packed word per row."""

    __slots__ = ("rows", "cols", "row_words")

    def __init__(self, rows: int, cols: int, row_words: Iterable[int]):
        words = tuple(row_words)
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape ({rows}, {cols})")
        if len(words) != rows:
            raise DimensionError(f"expected {rows} row words, got {len(words)}")
        for w in words:
            if w < 0 or w >> cols:
                raise ValueError(f"row word 0x{w:x} has bits beyond {cols} columns")
        self.rows = rows
        self.cols = cols
        self.row_words = words

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BitMatrix":
        vecs = [BitVector.from_bits(r) for r in rows]
        if not vecs:
            return cls(0, 0, ())
        cols = vecs[0].n
        for v in vecs:
            if v.n != cols:
                raise DimensionError("ragged rows")
        return cls(len(vecs), cols, (v.word for v in vecs))

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BitMatrix":
        return cls.from_rows([int(c) for c in r] for r in rows)

    @classmethod
    def from_vectors(cls, vectors: Iterable[BitVector]) -> "BitMatrix":
        vecs = list(vectors)
        if not vecs:
            return cls(0, 0, ())
        cols = vecs[0].n
        for v in vecs:
            if v.n != cols:
                raise DimensionError("ragged rows")
        return cls(len(vecs), cols, (v.word for v in vecs))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, (1 << i for i in range(n)))

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_words[i])

    def __getitem__(self, idx) -> int:
        i, j = idx
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return (self.row_words[i] >> j) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_words == other.row_words
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_words))

    def transpose(self) -> "BitMatrix":
        out = []
        for j in range(self.cols):
            w = 0
            for i in range(self.rows):
                w |= ((self.row_words[i] >> j) & 1) << i
            out.append(w)
        return BitMatrix(self.cols, self.rows, out)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.rows))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product; result bit i is the parity of row i AND v."""
    if m.cols != v.n:
        raise DimensionError(f"matrix has {m.cols} columns, vector length {v.n}")
    word = 0
    for i, row in enumerate(m.row_words):
        word |= ((row & v.word).bit_count() & 1) << i
    return BitVector(m.rows, word)


def row_reduce(m: BitMatrix) -> tuple[BitMatrix, int, list[int]]:
    """Reduced row-echelon form with deterministic leftmost-pivot selection.

    Returns:
        (reduced, rank, pivot_columns).  The reduced matrix has the same
        shape as the input (zero rows sink to the bottom), its row space is
        unchanged, and reducing it again returns it unchanged.
    """
    words = list(m.row_words)
    nrows = m.rows
    pivots: list[int] = []
    r = 0
    for col in range(m.cols):
        if r == nrows:
            break
        mask = 1 << col
        pivot_row = next((i for i in range(r, nrows) if words[i] & mask), None)
        if pivot_row is None:
            continue
        words[r], words[pivot_row] = words[pivot_row], words[r]
        for i in range(nrows):
            if i != r and words[i] & mask:
                words[i] ^= words[r]
        pivots.append(col)
        r += 1
    return BitMatrix(nrows, m.cols, words), r, pivots


def solve_membership(m: BitMatrix, v: BitVector) -> Optional[BitVector]:
    """Express v as a combination of the rows of m.

    Returns coefficients c with c . m = v when v lies in the row space of m,
    otherwise None.  When the rows of m are dependent the returned preimage
    is one valid choice (the one using the earliest pivot rows).
    """
    if m.cols != v.n:
        raise DimensionError(f"matrix has {m.cols} columns, vector length {v.n}")
    ncols = m.cols
    # Augment each row with an identity tag in the high bits so the
    # elimination tracks which original rows combine into each reduced row.
    aug = [m.row_words[i] | (1 << (ncols + i)) for i in range(m.rows)]
    col_mask = (1 << ncols) - 1
    pivot_of: list[tuple[int, int]] = []  # (reduced row index, pivot column)
    r = 0
    for col in range(ncols):
        if r == m.rows:
            break
        mask = 1 << col
        pivot_row = next((i for i in range(r, m.rows) if aug[i] & mask), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        for i in range(m.rows):
            if i != r and aug[i] & mask:
                aug[i] ^= aug[r]
        pivot_of.append((r, col))
        r += 1
    residual = v.word
    coeff = 0
    for row_idx, col in pivot_of:
        if (residual >> col) & 1:
            residual ^= aug[row_idx] & col_mask
            coeff ^= aug[row_idx] >> ncols
    if residual:
        return None
    return BitVector(m.rows, coeff)


def rows_to_words(rows: np.ndarray) -> list[int]:
    """Pack each row of an (m, n) 0/1 array into a word, column j as bit j."""
    rows = np.asarray(rows, dtype=np.uint8)
    m, n = rows.shape
    width = (n + 7) // 8
    raw = np.packbits(rows, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(m)]


def words_to_rows(words: Sequence[int], n: int) -> np.ndarray:
    """(len(words), n) uint8 array whose row i holds bits 0..n-1 of words[i]."""
    width = (n + 7) // 8
    raw = b"".join(w.to_bytes(width, "little") for w in words)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")

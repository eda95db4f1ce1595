"""Classical linear codes, nested code pairs, and coset-based key extraction.

A nested pair (outer, inner) with inner contained in outer drives one
concatenation stage: the outer code corrects bit errors by bounded-distance
syndrome decoding, and the quotient outer/inner compresses a corrected
codeword to a short coset label, which is the key material.

Decoding is strict bounded-distance: only error patterns of weight up to
t = floor((d-1)/2) are tabulated, and a syndrome outside the table is
reported as a failure instead of guessing.  An auditable failure beats a
silent miscorrection in a security simulator; the protocol layer decides
policy.

Codes and pairs hold their matrices as dense uint8 arrays (built on first
use and cached on the object), so that callers syndrome, decode and label
many blocks at once: `LinearCode.generator_array`,
`LinearCode.parity_check_t`, `CssPair.check_label_t`,
`CssPair.generator_check_labels` and `CssPair.error_check_labels`, with
`SyndromeTable.lookup_rows` as the table lookup for many syndromes.  The
protocol's stage functions are the only decoder and labeller; the tests keep
a scalar one-block-at-a-time reference of both.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionError, InvalidPairError
from .gf2 import (
    BitMatrix,
    BitVector,
    row_reduce,
    rows_to_words,
    solve_membership,
    words_to_rows,
)

__all__ = [
    "LinearCode",
    "SyndromeTable",
    "CssPair",
    "make_hamming_7_4",
    "make_hamming_dual_7_3",
    "make_golay_23_12",
    "make_golay_dual_23_11",
    "builtin_pair",
    "BUILTIN_PAIR_NAMES",
    "parse_code",
    "format_code",
    "parse_pair",
    "format_pair",
    "load_pair",
]


class LinearCode:
    """An [n, k, d] binary linear code with generator and parity-check matrices.

    The minimum distance d is declared, not derived; `verify_distance` checks
    it by enumeration for codes small enough to enumerate.
    """

    def __init__(self, n: int, k: int, d: int, generator: BitMatrix,
                 parity_check: BitMatrix, name: str = ""):
        if generator.rows != k or generator.cols != n:
            raise DimensionError(f"generator must be {k}x{n}, got {generator.rows}x{generator.cols}")
        if parity_check.rows != n - k or parity_check.cols != n:
            raise DimensionError(
                f"parity check must be {n - k}x{n}, got {parity_check.rows}x{parity_check.cols}")
        if row_reduce(generator)[1] != k:
            raise ValueError(f"generator of {name or 'code'} does not have rank {k}")
        if row_reduce(parity_check)[1] != n - k:
            raise ValueError(f"parity check of {name or 'code'} does not have rank {n - k}")
        self.n = n
        self.k = k
        self.d = d
        self.generator = generator
        self.parity_check = parity_check
        self.name = name
        self._table: Optional[SyndromeTable] = None
        bad = (self.generator_array @ self.parity_check_t & 1).any(axis=1)
        if bad.any():
            raise ValueError(f"generator row {bad.argmax()} has nonzero syndrome")
        if d < 1:
            raise ValueError(f"declared distance {d} < 1")

    @property
    def t(self) -> int:
        """Guaranteed correction radius floor((d-1)/2)."""
        return (self.d - 1) // 2

    def codewords(self) -> Iterator[BitVector]:
        """All 2^k codewords; only sensible for small k (guarded at 20)."""
        if self.k > 20:
            raise ValueError(f"refusing to enumerate 2^{self.k} codewords")
        rows = self.generator.row_words
        for coeff in range(1 << self.k):
            w = 0
            c = coeff
            i = 0
            while c:
                if c & 1:
                    w ^= rows[i]
                c >>= 1
                i += 1
            yield BitVector(self.n, w)

    def verify_distance(self) -> bool:
        """Check by enumeration that every nonzero codeword has weight >= d."""
        return all(cw.weight >= self.d for cw in self.codewords() if not cw.is_zero())

    def syndrome_table(self) -> "SyndromeTable":
        if self._table is None:
            self._table = SyndromeTable.build(self)
        return self._table

    @cached_property
    def generator_array(self) -> np.ndarray:
        """G as a (k, n) uint8 array: coefficient rows @ G & 1 are codewords."""
        return words_to_rows(self.generator.row_words, self.n)

    @cached_property
    def parity_check_t(self) -> np.ndarray:
        """H transposed, an (n, n-k) uint8 array: words @ H^T & 1 are their
        syndromes."""
        return np.ascontiguousarray(words_to_rows(self.parity_check.row_words, self.n).T)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"LinearCode([{self.n},{self.k},{self.d}]{label})"


class SyndromeTable:
    """Map from syndrome to minimum-weight error, for weights up to t.

    A syndrome is keyed by its little-endian packed bytes (syndrome bit i is
    bit i of the key), so that `lookup_rows` makes the keys of many syndromes
    in one step.  The errors are held as the rows of a uint8 array, with one
    zero row after them.
    """

    __slots__ = ("t", "n", "_index", "_rows")

    def __init__(self, t: int, n: int, index: dict[bytes, int], rows: np.ndarray):
        self.t = t
        self.n = n
        self._index = index
        self._rows = np.concatenate([rows, np.zeros((1, n), dtype=np.uint8)])

    @classmethod
    def build(cls, code: LinearCode) -> "SyndromeTable":
        """Tabulate the errors of weight 0..t in order of weight, then of
        `itertools.combinations` order, keeping the first error met for
        each syndrome.  Each weight is enumerated in slices of at most
        _BUILD_SLICE_BYTES of error rows."""
        n, width = code.n, (code.n - code.k + 7) // 8
        index = {bytes(width): 0}
        rows = [np.zeros((1, n), dtype=np.uint8)]
        per_slice = max(1, _BUILD_SLICE_BYTES // n)
        for weight in range(1, code.t + 1):
            combos = itertools.combinations(range(n), weight)
            while True:
                picks = np.array(list(itertools.islice(combos, per_slice)), dtype=np.intp)
                if not len(picks):
                    break
                errors = np.zeros((len(picks), n), dtype=np.uint8)
                errors[np.arange(len(picks))[:, None], picks] = 1
                fresh = []
                for i, key in enumerate(_syndrome_keys(errors @ code.parity_check_t & 1)):
                    if key not in index:
                        index[key] = len(index)
                        fresh.append(i)
                rows.append(errors[fresh])
        return cls(code.t, n, index, np.concatenate(rows))

    @property
    def errors(self) -> np.ndarray:
        """The tabulated errors as the rows of a uint8 array, with one zero
        row after them."""
        return self._rows

    def lookup_rows(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look up each row of a (B, n-k) 0/1 array of syndromes.

        Returns:
            (rows, failed): the (B,) row indices into `errors` of each
            syndrome's error, and a (B,) bool mask of syndromes outside the
            table, which index the zero row.
        """
        miss = len(self._index)
        get = self._index.get
        rows = np.array([get(key, miss) for key in _syndrome_keys(syndromes)], dtype=np.intp)
        return rows, rows == miss

    def __len__(self) -> int:
        return len(self._index)

    def items(self):
        """(syndrome word, error word) pairs, in the order they were tabulated."""
        words = rows_to_words(self._rows[:-1])
        return ((int.from_bytes(key, "little"), words[i]) for key, i in self._index.items())


# bound on the error rows `SyndromeTable.build` holds at once
_BUILD_SLICE_BYTES = 1 << 20


def _syndrome_keys(syndromes: np.ndarray) -> list[bytes]:
    """The little-endian packed bytes of each row of a (B, r) 0/1 array."""
    packed = np.packbits(syndromes, axis=1, bitorder="little")
    if not packed.shape[1]:  # a code without parity checks
        return [b""] * len(packed)
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


class CssPair:
    """A nested pair inner < outer of equal-length codes, one stage of keying.

    key_width = dim(outer) - dim(inner) bits of key per corrected block.
    The coset label is computed against a canonical basis: a row-reduced
    basis of the inner code extended, in row-reduced order, to a basis of
    the outer code.  Coefficients on the extension rows are the label, so
    both parties agree on labels with zero communication.
    """

    def __init__(self, outer: LinearCode, inner: LinearCode):
        if outer.n != inner.n:
            raise DimensionError(f"block length mismatch: {outer.n} vs {inner.n}")
        bad = (inner.generator_array @ outer.parity_check_t & 1).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise InvalidPairError(
                f"inner generator row {i} ({inner.generator.row(i)}) is not in the outer code")
        self.outer = outer
        self.inner = inner
        self.key_width = outer.k - inner.k
        if self.key_width < 1:
            raise InvalidPairError(
                f"key_width = {self.key_width} < 1: pair carries no key material")
        self._label_matrix = _build_label_matrix(outer, inner)

    @property
    def n(self) -> int:
        return self.outer.n

    @cached_property
    def check_label_t(self) -> np.ndarray:
        """[H^T | L^T], an (n, n-k + key_width) uint8 array for the outer
        code's H and the label matrix L: the first n-k columns of
        words @ check_label_t & 1 are the words' outer syndromes, the rest
        their projected labels."""
        label_t = words_to_rows(self._label_matrix.row_words, self.n).T
        return np.ascontiguousarray(np.hstack([self.outer.parity_check_t, label_t]))

    @cached_property
    def generator_check_labels(self) -> np.ndarray:
        """[G | G @ check_label_t & 1] for the outer code's G: coefficient
        rows @ generator_check_labels & 1 are codewords followed by their
        syndromes and projected labels."""
        g = self.outer.generator_array
        return np.ascontiguousarray(np.hstack([g, g @ self.check_label_t & 1]))

    @cached_property
    def error_check_labels(self) -> np.ndarray:
        """`check_label_t` applied to each row of the outer code's syndrome
        table `errors`: by linearity, adding row i to a word's syndrome and
        projected label gives those of the word corrected by error i."""
        return self.outer.syndrome_table().errors @ self.check_label_t & 1

    def __repr__(self) -> str:
        return (f"CssPair(outer=[{self.outer.n},{self.outer.k},{self.outer.d}], "
                f"inner=[{self.inner.n},{self.inner.k},{self.inner.d}], "
                f"key_width={self.key_width})")


def _build_label_matrix(outer: LinearCode, inner: LinearCode) -> BitMatrix:
    """key_width x n matrix L with L.w = canonical coset label for w in outer."""
    n = outer.n
    reduced_inner, r2, _ = row_reduce(inner.generator)
    basis = [reduced_inner.row_words[i] for i in range(r2)]
    reduced_outer, k1, _ = row_reduce(outer.generator)
    extension: list[int] = []
    for i in range(k1):
        candidate = reduced_outer.row_words[i]
        span = BitMatrix(len(basis) + len(extension), n, basis + extension)
        if solve_membership(span, BitVector(n, candidate)) is None:
            extension.append(candidate)
    if len(extension) != k1 - r2:
        raise InvalidPairError("could not extend inner basis to outer basis")

    # A word w of the outer code is the sum of the rows of rref(M), for the
    # stacked basis M (k1 x n), at w's pivot bits; so its coefficients over
    # M, whose last key_width are its label, sum those of each such row.
    stacked = BitMatrix(k1, n, basis + extension)
    reduced, rank, pivots = row_reduce(stacked)
    if rank != k1:
        raise InvalidPairError("stacked basis is rank deficient")
    key_width = k1 - r2
    label_rows = [0] * key_width
    for l, col in enumerate(pivots):
        coeff = solve_membership(stacked, reduced.row(l)).word
        for j in range(key_width):
            if (coeff >> (r2 + j)) & 1:
                label_rows[j] |= 1 << col
    return BitMatrix(key_width, n, label_rows)


# ---------------------------------------------------------------------------
# Built-in code catalog

def make_hamming_7_4() -> LinearCode:
    """The [7,4,3] Hamming code; parity-check column j is the numeral j+1
    (row i holds bit i, so the packed syndrome of a single error at position
    j is the integer j+1)."""
    h = BitMatrix.from_strings(["1010101", "0110011", "0001111"])
    g = BitMatrix.from_strings(["1110000", "1001100", "0101010", "1101001"])
    return LinearCode(7, 4, 3, g, h, name="hamming[7,4]")


def make_hamming_dual_7_3() -> LinearCode:
    """The [7,3,4] dual (simplex) code, contained in the Hamming code."""
    hamming = make_hamming_7_4()
    return LinearCode(7, 3, 4, hamming.parity_check, hamming.generator,
                      name="simplex[7,3]")


# 12x12 circulant-style block of the extended-Golay generator [I | B]; the
# perfect [23,12,7] code is the puncture in the last coordinate.
_GOLAY_B = [
    "110111000101",
    "101110001011",
    "011100010111",
    "111000101101",
    "110001011011",
    "100010110111",
    "000101101111",
    "001011011101",
    "010110111001",
    "101101110001",
    "011011100011",
    "111111111110",
]


def _golay_matrices() -> tuple[BitMatrix, BitMatrix]:
    a_rows = [row[:-1] for row in _GOLAY_B]
    gen = []
    for i in range(12):
        word = 1 << i
        for j, c in enumerate(a_rows[i]):
            if c == "1":
                word |= 1 << (12 + j)
        gen.append(word)
    chk = []
    for j in range(11):
        word = 1 << (12 + j)
        for i in range(12):
            if a_rows[i][j] == "1":
                word |= 1 << i
        chk.append(word)
    return BitMatrix(12, 23, gen), BitMatrix(11, 23, chk)


def make_golay_23_12() -> LinearCode:
    """The perfect [23,12,7] binary Golay code in standard form."""
    g, h = _golay_matrices()
    return LinearCode(23, 12, 7, g, h, name="golay[23,12]")


def make_golay_dual_23_11() -> LinearCode:
    """The [23,11,8] dual of the Golay code, contained in it."""
    golay = make_golay_23_12()
    return LinearCode(23, 11, 8, golay.parity_check, golay.generator,
                      name="golay-dual[23,11]")


def builtin_pair(name: str) -> CssPair:
    """Shipped pairs: 'steane' (Hamming/dual) and 'golay' (Golay/dual)."""
    key = name.strip().lower()
    if key == "steane":
        return CssPair(make_hamming_7_4(), make_hamming_dual_7_3())
    if key == "golay":
        return CssPair(make_golay_23_12(), make_golay_dual_23_11())
    raise InvalidPairError(f"unknown built-in pair {name!r} (have: steane, golay)")


BUILTIN_PAIR_NAMES = ("steane", "golay")


# ---------------------------------------------------------------------------
# Code and pair file format: header line "n k d", then k generator rows as
# 0/1 strings, then n-k parity-check rows.  Pair files hold two code blocks
# separated by a line containing only '%'.  Blank lines and '#' comments are
# skipped.

def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_code(text: str, name: str = "") -> LinearCode:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty code description")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'n k d', got {lines[0]!r}")
    n, k, d = (int(x) for x in header)
    expected = 1 + k + (n - k)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines for [{n},{k}] code, got {len(lines)}")
    for row in lines[1:]:
        if len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"bad matrix row {row!r} (need {n} characters of 0/1)")
    # sized by the header, so that an empty matrix (k = 0 or k = n) has n columns
    gen = BitMatrix(k, n, (BitVector.from_string(r).word for r in lines[1:1 + k]))
    chk = BitMatrix(n - k, n, (BitVector.from_string(r).word for r in lines[1 + k:]))
    return LinearCode(n, k, d, gen, chk, name=name)


def format_code(code: LinearCode) -> str:
    lines = [f"{code.n} {code.k} {code.d}"]
    lines += [str(code.generator.row(i)) for i in range(code.k)]
    lines += [str(code.parity_check.row(i)) for i in range(code.n - code.k)]
    return "\n".join(lines) + "\n"


def parse_pair(text: str, name: str = "") -> CssPair:
    parts = []
    current: list[str] = []
    for raw in text.splitlines():
        if raw.strip() == "%":
            parts.append("\n".join(current))
            current = []
        else:
            current.append(raw)
    parts.append("\n".join(current))
    if len(parts) != 2:
        raise ValueError(f"pair file must contain exactly one '%' separator, got {len(parts) - 1}")
    outer = parse_code(parts[0], name=f"{name}:outer" if name else "outer")
    inner = parse_code(parts[1], name=f"{name}:inner" if name else "inner")
    return CssPair(outer, inner)


def format_pair(pair: CssPair) -> str:
    return format_code(pair.outer) + "%\n" + format_code(pair.inner)


def load_pair(spec: str) -> CssPair:
    """Resolve a pair reference: a built-in name or 'file:PATH'."""
    if spec.startswith("file:"):
        path = spec[5:]
        with open(path, "r", encoding="ascii") as fh:
            return parse_pair(fh.read(), name=path)
    return builtin_pair(spec)

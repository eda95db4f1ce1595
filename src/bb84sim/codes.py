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

A code's generator and parity-check matrices are (k, n) and (n-k, n) uint8
arrays of 0/1 entries (see gf2.py), read-only once the code is built.  Codes
and pairs also cache the derived arrays with which callers syndrome, decode
and label many blocks at once: `LinearCode.parity_check_t`,
`CssPair.check_label_t`, `CssPair.generator_check_labels` and
`CssPair.error_check_labels`, with `SyndromeTable.lookup_rows` as the table
lookup for many syndromes.  The two matrices the stages multiply by are
also cached as float32 (`check_label_f32`, `generator_check_labels_f32`),
the form `gf2.matmul` multiplies in.  Code files hold the matrices as 0/1
text.  The protocol's stage functions are the only decoder and labeller;
the tests keep a scalar one-block-at-a-time reference of both.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, InvalidPairError
from .gf2 import format_bits, matmul, parse_bits, parse_decimal, read_ascii, row_reduce

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

    n and k are read from the shapes of the (k, n) generator and the
    (n-k, n) parity check.  The minimum distance d is declared, not
    derived; `verify_distance` checks it by enumeration for codes small
    enough to enumerate.
    """

    def __init__(self, generator: np.ndarray, parity_check: np.ndarray, d: int,
                 name: str = ""):
        generator = _bit_matrix(generator, "generator")
        parity_check = _bit_matrix(parity_check, "parity check")
        k, n = generator.shape
        if parity_check.shape != (n - k, n):
            raise DimensionError(f"parity check must be {n - k}x{n}, got "
                                 f"{parity_check.shape[0]}x{parity_check.shape[1]}")
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
        bad = matmul(generator, self.parity_check_t).any(axis=1)
        if bad.any():
            raise ValueError(f"generator row {bad.argmax()} has nonzero syndrome")
        if d < 1:
            raise ValueError(f"declared distance {d} < 1")

    @property
    def t(self) -> int:
        """Guaranteed correction radius floor((d-1)/2)."""
        return (self.d - 1) // 2

    def codewords(self) -> np.ndarray:
        """All 2^k codewords as the rows of a (2^k, n) array, row c being
        the sum of the generator rows at the set bits of c; only sensible
        for small k (guarded at 20)."""
        if self.k > 20:
            raise ValueError(f"refusing to enumerate 2^{self.k} codewords")
        words = np.zeros((1, self.n), dtype=np.uint8)
        for row in self.generator:
            words = np.concatenate([words, words ^ row])
        return words

    def verify_distance(self) -> bool:
        """Check by enumeration that every nonzero codeword has weight >= d."""
        return bool(self.codewords()[1:].sum(axis=1).min(initial=self.d) >= self.d)

    def syndrome_table(self) -> "SyndromeTable":
        if self._table is None:
            self._table = SyndromeTable.build(self)
        return self._table

    @cached_property
    def parity_check_t(self) -> np.ndarray:
        """H transposed, an (n, n-k) uint8 array: words @ H^T & 1 are their
        syndromes."""
        return np.ascontiguousarray(self.parity_check.T)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"LinearCode([{self.n},{self.k},{self.d}]{label})"


def _bit_matrix(a, what: str) -> np.ndarray:
    """A read-only uint8 copy of a 2-D array of 0/1 entries."""
    a = np.array(a)
    if a.ndim != 2:
        raise DimensionError(f"{what} must be a 2-D array, got shape {a.shape}")
    if ((a != 0) & (a != 1)).any():
        raise ValueError(f"{what} has entries other than 0 and 1")
    a = a.astype(np.uint8)
    a.flags.writeable = False
    return a


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
                for i, key in enumerate(_syndrome_keys(matmul(errors, code.parity_check_t))):
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
        keys = _syndrome_keys(syndromes)
        miss = len(self._index)
        rows = np.fromiter(map(self._index.get, keys, itertools.repeat(miss)), np.intp, len(keys))
        return rows, rows == miss

    def __len__(self) -> int:
        return len(self._index)


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
        bad = matmul(inner.generator, outer.parity_check_t).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise InvalidPairError(f"inner generator row {i} ({format_bits(inner.generator[i])}) "
                                   f"is not in the outer code")
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
        return np.ascontiguousarray(np.hstack([self.outer.parity_check_t,
                                               self._label_matrix.T]))

    @cached_property
    def generator_check_labels(self) -> np.ndarray:
        """[G | G @ check_label_t & 1] for the outer code's G: coefficient
        rows @ generator_check_labels & 1 are codewords followed by their
        syndromes and projected labels."""
        g = self.outer.generator
        return np.ascontiguousarray(np.hstack([g, matmul(g, self.check_label_t)]))

    @cached_property
    def check_label_f32(self) -> np.ndarray:
        """`check_label_t` as float32, the form `gf2.matmul` multiplies by."""
        return self.check_label_t.astype(np.float32)

    @cached_property
    def generator_check_labels_f32(self) -> np.ndarray:
        """`generator_check_labels` as float32, the form `gf2.matmul`
        multiplies by."""
        return self.generator_check_labels.astype(np.float32)

    @cached_property
    def error_check_labels(self) -> np.ndarray:
        """`check_label_t` applied to each row of the outer code's syndrome
        table `errors`: by linearity, adding row i to a word's syndrome and
        projected label gives those of the word corrected by error i."""
        return matmul(self.outer.syndrome_table().errors, self.check_label_f32)

    def __repr__(self) -> str:
        return (f"CssPair(outer=[{self.outer.n},{self.outer.k},{self.outer.d}], "
                f"inner=[{self.inner.n},{self.inner.k},{self.inner.d}], "
                f"key_width={self.key_width})")


def _build_label_matrix(outer: LinearCode, inner: LinearCode) -> np.ndarray:
    """(key_width, n) matrix L with L @ w & 1 = canonical coset label for w
    in outer."""
    n = outer.n
    reduced_inner, r2, _ = row_reduce(inner.generator)
    reduced_outer, k1, _ = row_reduce(outer.generator)
    # The basis M: the reduced inner rows, then each reduced outer row not in
    # the span of the rows before it.  Those are the rows whose columns in the
    # transpose are pivots.
    candidates = np.vstack([reduced_inner[:r2], reduced_outer[:k1]])
    stacked = candidates[row_reduce(candidates.T)[2]]
    if len(stacked) != k1:
        raise InvalidPairError("could not extend inner basis to outer basis")

    # Reducing [M | I] gives [rref(M) | C] with C @ M = rref(M).  A word w of
    # the outer code is the sum of the rows of rref(M) at w's pivot bits; so
    # its coefficients over M, whose last key_width are its label, sum the
    # rows of C at those bits.
    reduced, _, pivots = row_reduce(np.hstack([stacked, np.eye(k1, dtype=np.uint8)]))
    label = np.zeros((k1 - r2, n), dtype=np.uint8)
    label[:, pivots] = reduced[:, n + r2:].T
    return label


# ---------------------------------------------------------------------------
# Built-in code catalog

def _rows(texts: list[str]) -> np.ndarray:
    """The matrix whose rows are the 0/1 strings `texts`."""
    return np.array([parse_bits(t) for t in texts])


def make_hamming_7_4() -> LinearCode:
    """The [7,4,3] Hamming code; parity-check column j is the numeral j+1
    (row i holds bit i, so the syndrome of a single error at position j is
    the binary numeral j+1, least significant bit first)."""
    h = _rows(["1010101", "0110011", "0001111"])
    g = _rows(["1110000", "1001100", "0101010", "1101001"])
    return LinearCode(g, h, 3, name="hamming[7,4]")


def make_hamming_dual_7_3() -> LinearCode:
    """The [7,3,4] dual (simplex) code, contained in the Hamming code."""
    hamming = make_hamming_7_4()
    return LinearCode(hamming.parity_check, hamming.generator, 4, name="simplex[7,3]")


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


def _golay_matrices() -> tuple[np.ndarray, np.ndarray]:
    """[I | A] and [A^T | I] for A the block B without its last column."""
    a = _rows(_GOLAY_B)[:, :-1]
    return (np.hstack([np.eye(12, dtype=np.uint8), a]),
            np.hstack([a.T, np.eye(11, dtype=np.uint8)]))


def make_golay_23_12() -> LinearCode:
    """The perfect [23,12,7] binary Golay code in standard form."""
    g, h = _golay_matrices()
    return LinearCode(g, h, 7, name="golay[23,12]")


def make_golay_dual_23_11() -> LinearCode:
    """The [23,11,8] dual of the Golay code, contained in it: the Golay
    code's matrices swapped."""
    g, h = _golay_matrices()
    return LinearCode(h, g, 8, name="golay-dual[23,11]")


BUILTIN_PAIR_NAMES = ("steane", "golay")


def builtin_pair(name: str) -> CssPair:
    """Shipped pairs: 'steane' (Hamming/dual) and 'golay' (Golay/dual)."""
    key = name.strip().lower()
    if key == "steane":
        return CssPair(make_hamming_7_4(), make_hamming_dual_7_3())
    if key == "golay":
        return CssPair(make_golay_23_12(), make_golay_dual_23_11())
    raise InvalidPairError(
        f"unknown built-in pair {name!r} (have: {', '.join(BUILTIN_PAIR_NAMES)})")


# ---------------------------------------------------------------------------
# Code and pair file format: header line "n k d" in decimal digits (read by
# gf2.parse_decimal, as transcript numbers are), then k generator rows as
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
    try:
        n, k, d = map(parse_decimal, header)
        valid = n >= 1 and k <= n
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"header {lines[0]!r} needs n >= 1 and 0 <= k <= n, in decimal digits")
    if len(lines) != 1 + n:
        raise ValueError(f"expected {1 + n} lines for [{n},{k}] code, got {len(lines)}")
    for row in lines[1:]:
        if len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"bad matrix row {row!r} (need {n} characters of 0/1)")
    # the k generator rows, then the n-k parity-check rows
    rows = _rows(lines[1:])
    return LinearCode(rows[:k], rows[k:], d, name=name)


def format_code(code: LinearCode) -> str:
    lines = [f"{code.n} {code.k} {code.d}"]
    lines += [format_bits(row) for row in code.generator]
    lines += [format_bits(row) for row in code.parity_check]
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
    """Resolve a pair reference: a built-in name or 'file:PATH'.

    Raises:
        ConfigError: the file holds a byte outside ASCII, named with its line.
    """
    if spec.startswith("file:"):
        path = spec[5:]
        return parse_pair(read_ascii(path, str.splitlines, ConfigError), name=path)
    return builtin_pair(spec)

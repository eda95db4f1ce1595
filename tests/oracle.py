"""Scalar reference for decoding, coset labels and codeword draws, one block
at a time on packed words.

The protocol decodes and labels (blocks x n) arrays against the dense
matrices and the syndrome table each code and pair caches.  This module does
the same work from a code's generator and parity-check matrices alone: its
own syndrome table, built one error at a time; its own coset-label matrix,
built by the canonical-basis construction with its own row reduction; and
its own codeword draw.  A fault in the tables or matrices the protocol uses
therefore shows up as a disagreement with it.  `test_codes.py` checks that
this module stays independent of them.
"""

import functools
import itertools

from bb84sim.errors import DimensionError, NotInCodeError
from bb84sim.gf2 import BitMatrix, BitVector


class DecodeFailure(Exception):
    """Received word lies outside the decoding radius of the syndrome table."""


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product; result bit i is the parity of row i AND v."""
    if m.cols != v.n:
        raise DimensionError(f"matrix has {m.cols} columns, vector length {v.n}")
    word = 0
    for i, row in enumerate(m.row_words):
        word |= ((row & v.word).bit_count() & 1) << i
    return BitVector(m.rows, word)


def syndrome(code, v: BitVector) -> BitVector:
    return mat_vec(code.parity_check, v)


def contains(code, v: BitVector) -> bool:
    return syndrome(code, v).is_zero()


def scalar_table_items(code) -> list[tuple[int, int]]:
    """(syndrome word, error word) pairs of the bounded-distance table, built
    one error at a time: weights 0..t in itertools.combinations order, the
    first error kept for each syndrome."""
    leaders = {0: 0}
    for weight in range(1, code.t + 1):
        for positions in itertools.combinations(range(code.n), weight):
            err = 0
            for p in positions:
                err |= 1 << p
            leaders.setdefault(syndrome(code, BitVector(code.n, err)).word, err)
    return list(leaders.items())


@functools.cache
def _leaders(code) -> dict[int, int]:
    return dict(scalar_table_items(code))


def decode_to_codeword(code, received: BitVector) -> tuple[BitVector, BitVector]:
    """Bounded-distance decode: returns (codeword, corrected_error).

    Raises:
        DecodeFailure: syndrome of `received` is outside the table, i.e. the
            error weight exceeded t and no correction is guaranteed.
    """
    if received.n != code.n:
        raise DimensionError(f"received length {received.n} != block length {code.n}")
    err = _leaders(code).get(syndrome(code, received).word)
    if err is None:
        raise DecodeFailure(f"syndrome outside radius-{code.t} table of {code!r}")
    err = BitVector(code.n, err)
    return received + err, err


def random_codeword(code, rng) -> BitVector:
    """Uniform draw over the 2^k codewords (rng is a numpy Generator); one
    draw of k coefficients, as the protocol draws one block's."""
    coeffs = rng.integers(0, 2, size=code.k)
    w = 0
    for i in range(code.k):
        if coeffs[i]:
            w ^= code.generator.row_words[i]
    return BitVector(code.n, w)


def _reduce(words: list[int], ncols: int) -> list[int]:
    """Leftmost-pivot reduction of the low `ncols` bits of `words`, in
    place, with higher bits riding along; returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(words):
            break
        mask = 1 << col
        pivot_row = next((i for i in range(r, len(words)) if words[i] & mask), None)
        if pivot_row is None:
            continue
        words[r], words[pivot_row] = words[pivot_row], words[r]
        for i in range(len(words)):
            if i != r and words[i] & mask:
                words[i] ^= words[r]
        pivots.append(col)
        r += 1
    return pivots


def _in_span(rows: list[int], word: int, ncols: int) -> bool:
    reduced = list(rows)
    for i, col in enumerate(_reduce(reduced, ncols)):
        if (word >> col) & 1:
            word ^= reduced[i]
    return word == 0


def build_label_matrix(outer, inner) -> BitMatrix:
    """key_width x n matrix L with L.w = canonical coset label for w in outer:
    the row-reduced inner basis, extended by the row-reduced outer rows not
    yet in its span; the label is the coefficients on the extension rows."""
    n = outer.n
    basis = list(inner.generator.row_words)
    r2 = len(_reduce(basis, n))
    basis = basis[:r2]
    outer_rows = list(outer.generator.row_words)
    k1 = len(_reduce(outer_rows, n))
    extension: list[int] = []
    for candidate in outer_rows[:k1]:
        if not _in_span(basis + extension, candidate, n):
            extension.append(candidate)
    assert len(extension) == k1 - r2, "could not extend inner basis to outer basis"
    # reduce [M | I]: the tag rows T satisfy T.M = rref(M), so coefficients
    # of w over M are read off w's bits at the pivot columns
    aug = [w | (1 << (n + i)) for i, w in enumerate(basis + extension)]
    pivots = _reduce(aug, n)
    assert len(pivots) == k1, "stacked basis is rank deficient"
    label_rows = []
    for j in range(k1 - r2):
        mask = 0
        for l in range(k1):
            if (aug[l] >> (n + r2 + j)) & 1:
                mask |= 1 << pivots[l]
        label_rows.append(mask)
    return BitMatrix(k1 - r2, n, label_rows)


@functools.cache
def label_matrix(pair) -> BitMatrix:
    return build_label_matrix(pair.outer, pair.inner)


def coset_label(pair, codeword: BitVector) -> BitVector:
    """Label of the coset codeword + inner, as key_width bits.

    Raises:
        NotInCodeError: the input is not an outer-code codeword.
    """
    if not contains(pair.outer, codeword):
        raise NotInCodeError(f"{codeword} is not in the outer code")
    return mat_vec(label_matrix(pair), codeword)


def project_label(pair, word: BitVector) -> BitVector:
    """Linear extension of coset_label to arbitrary words, the label a block
    gets after a decode failure (the raw block labelled as if error-free)."""
    return mat_vec(label_matrix(pair), word)


def one_error_per_block(rng):
    """Injector flipping one uniformly placed bit in every block, both stages."""

    def inject(stage: int, block_index: int, block_len: int):
        return [int(rng.integers(0, block_len))]

    return inject

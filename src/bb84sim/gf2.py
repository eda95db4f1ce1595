"""Dense linear algebra over the two-element field, and the 0/1 text form of
bits.

Vectors and matrices are uint8 arrays of 0/1 entries: a vector is a 1-D
array, a matrix a 2-D array with one vector per row, and the GF(2) product
of two matrices is ``a @ b & 1``.  Row reduction always picks the leftmost
pivot, which makes reduced forms canonical; both protocol parties therefore
derive identical coset labels from the public matrices without
communicating.  `row_reduce` and `solve_membership` share one elimination
loop.

Outside the program, in transcripts, keys, code files and Bob's record,
bits are 0/1 text with character i holding bit i; `format_bits` and
`parse_bits` are the one conversion between the two forms.  The numbers
in those files (positions, block ids, code-file headers) and in the
`attack_positions` setting are ASCII decimal digits, at most 18 to a
number so that each fits an int64; `parse_decimal` and `parse_decimals`
(a comma-separated list) are their one reader.  All indices are
zero-based.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from .errors import DimensionError

__all__ = ["row_reduce", "solve_membership", "format_bits", "parse_bits", "parse_decimal",
           "parse_decimals"]

_BITS = re.compile("[01]*")
# a number is 1 to 18 ASCII digits: no sign, space or underscore, and nothing
# an int64 cannot hold; a list of them is comma-separated, with no empty entry
_NUMBER = "[0-9]{1,18}"
_DECIMAL = re.compile(_NUMBER)
_DECIMALS = re.compile(f"{_NUMBER}(?:,{_NUMBER})*")


def format_bits(bits: np.ndarray) -> str:
    """The 0/1 text of a 1-D array of bits, character i being bit i."""
    return (np.asarray(bits, dtype=np.uint8) + 48).tobytes().decode("ascii")


def parse_bits(text: str) -> np.ndarray:
    """The uint8 bits of a 0/1 string, character i being bit i; "" gives an
    empty array.

    Raises:
        ValueError: the string has a character other than 0 and 1.
    """
    if _BITS.fullmatch(text) is None:
        raise ValueError(f"bit string {text!r} has characters outside 0/1")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - 48


def parse_decimal(text: str) -> int:
    """The number an ASCII decimal of at most 18 digits spells.

    Raises:
        ValueError: the text is not such a number.
    """
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"bad decimal {text!r}")
    return int(text)


def parse_decimals(text: str) -> np.ndarray:
    """The int64 numbers of a comma-separated list of ASCII decimal numbers
    of at most 18 digits each; "" gives an empty array.

    The pattern check comes first, and the conversion is one C call.

    Raises:
        ValueError: the text is not such a list.
    """
    if text == "":
        return np.zeros(0, dtype=np.int64)
    if _DECIMALS.fullmatch(text) is None:
        raise ValueError(f"bad decimal list {text!r}")
    return np.fromstring(text, dtype=np.int64, sep=",")


def _eliminate(a: np.ndarray, ncols: int) -> list[int]:
    """Reduce the first `ncols` columns of the 0/1 array `a`, in place, to
    reduced row-echelon form, taking the leftmost pivot each time; columns
    after them ride along with their rows.  Returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(a):
            break
        hits = a[r:, col].nonzero()[0]
        if not hits.size:
            continue
        p = r + hits[0]
        a[[r, p]] = a[[p, r]]
        others = a[:, col].nonzero()[0]
        a[others[others != r]] ^= a[r]
        pivots.append(col)
        r += 1
    return pivots


def row_reduce(a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row-echelon form of a 2-D 0/1 array, with deterministic
    leftmost-pivot selection.

    Returns:
        (reduced, rank, pivot_columns).  The reduced array has the same
        shape as the input (zero rows sink to the bottom), its row space is
        unchanged, and reducing it again returns it unchanged.
    """
    reduced = np.array(a, dtype=np.uint8)
    pivots = _eliminate(reduced, reduced.shape[1])
    return reduced, len(pivots), pivots


def solve_membership(a: np.ndarray, v: np.ndarray) -> Optional[np.ndarray]:
    """Express the vector v as a combination of the rows of a.

    Returns the coefficients c, a uint8 vector with c @ a & 1 == v, when v
    lies in the row space of a, otherwise None.  When the rows of a are
    dependent the returned preimage is one valid choice (the one using the
    earliest pivot rows).
    """
    a = np.asarray(a, dtype=np.uint8)
    m, n = a.shape
    if np.shape(v) != (n,):
        raise DimensionError(f"matrix has {n} columns, vector shape {np.shape(v)}")
    # Tag each row with its index in the columns after a's, so the
    # elimination tracks which original rows combine into each reduced row;
    # clearing v's pivot bits then leaves its coefficients in the tag columns.
    aug = np.hstack([a, np.eye(m, dtype=np.uint8)])
    word = np.concatenate([np.asarray(v, dtype=np.uint8), np.zeros(m, dtype=np.uint8)])
    for i, col in enumerate(_eliminate(aug, n)):
        if word[col]:
            word ^= aug[i]
    if word[:n].any():
        return None
    return word[n:]

"""Dense linear algebra over the two-element field, and the 0/1 text form of
bits.

Vectors and matrices are uint8 arrays of 0/1 entries: a vector is a 1-D
array, a matrix a 2-D array with one vector per row, and the GF(2) product
of two matrices, ``a @ b & 1``, is `matmul`, which multiplies in float32.
Row reduction always picks the leftmost pivot, which makes reduced forms
canonical; both protocol parties therefore derive identical coset labels
from the public matrices without communicating.  `row_reduce` and
`solve_membership` share one elimination loop.

Outside the program, in transcripts, keys, code files and Bob's record,
bits are 0/1 text with character i holding bit i; `format_bits` and
`parse_bits` are the one conversion between the two forms.  The numbers
in those files (positions, block ids, code-file headers) and in the
`attack_positions` setting are ASCII decimal digits, at most 18 to a
number so that each fits an int64; `parse_decimal` and `parse_decimals`
(a comma-separated list) are their one reader.  The float settings are
ASCII digits with an optional fraction and exponent, read by
`parse_float`.  All indices are zero-based.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from .errors import DimensionError

__all__ = ["matmul", "row_reduce", "solve_membership", "format_bits", "parse_bits",
           "parse_decimal", "parse_decimals", "parse_float"]

# the bytes of a decimal list by class: each digit reads as b"9", the comma
# as itself and every other byte as b"x", so that searches decide the list
_DECIMAL_CLASSES = bytes(ord("9" if chr(c) in "0123456789" else "," if chr(c) == "," else "x")
                         for c in range(256))
_TOO_LONG = b"9" * 19
# a float is digits, then an optional fraction and an optional exponent: no
# sign, space, underscore, inf or nan
_FLOAT = re.compile("[0-9]+(?:[.][0-9]+)?(?:[eE][+-]?[0-9]+)?")


def format_bits(bits: np.ndarray) -> str:
    """The 0/1 text of a 1-D array of bits, character i being bit i."""
    return (np.asarray(bits, dtype=np.uint8) + 48).tobytes().decode("ascii")


def parse_bits(text: str) -> np.ndarray:
    """The uint8 bits of a 0/1 string, character i being bit i; "" gives an
    empty array.

    Raises:
        ValueError: the string has a character other than 0 and 1.
    """
    raw = text.encode("ascii", "replace")
    if raw.translate(None, b"01"):
        raise ValueError(f"bit string {text!r} has characters outside 0/1")
    return np.frombuffer(raw, dtype=np.uint8) - 48


def parse_decimal(text: str) -> int:
    """The number an ASCII decimal of at most 18 digits spells.

    Raises:
        ValueError: the text is not such a number.
    """
    # an ASCII string's only digits are 0-9, which int() then reads alone
    if not (len(text) <= 18 and text.isascii() and text.isdigit()):
        raise ValueError(f"bad decimal {text!r}")
    return int(text)


def parse_decimals(text: str) -> np.ndarray:
    """The int64 numbers of a comma-separated list of ASCII decimal numbers
    of at most 18 digits each; "" gives an empty array.

    The text is checked by bytes passes, each one C call: one translation
    to digit and comma classes, then searches for any other byte, an empty
    entry and a run of 19 digits; the conversion is one C call too.

    Raises:
        ValueError: the text is not such a list.
    """
    if text == "":
        return np.zeros(0, dtype=np.int64)
    classes = text.encode("ascii", "replace").translate(_DECIMAL_CLASSES)
    if (b"x" in classes or b",," in classes or classes.startswith(b",")
            or classes.endswith(b",") or _TOO_LONG in classes):
        raise ValueError(f"bad decimal list {text!r}")
    return np.fromstring(text, dtype=np.int64, sep=",")


def parse_float(text: str) -> float:
    """The float that ASCII digits with an optional fraction and an optional
    exponent spell, such as ``0.124`` or ``1e-05``.  An exponent past the
    float range reads as inf, as Python's `float` reads it.

    Raises:
        ValueError: the text is not such a number.
    """
    if _FLOAT.fullmatch(text) is None:
        raise ValueError(f"bad decimal {text!r}")
    return float(text)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The GF(2) product ``a @ b & 1`` of two 0/1 arrays, as uint8.

    The product runs in float32, which numpy multiplies through BLAS (its
    integer matmul has no such path); pass b as float32 to skip its copy.
    Each entry is a count of at most a.shape[-1] ones, which float32 holds
    exactly while that is below 2**24.  The parity is taken after a cast to
    int32, since a cast of a float above 255 to uint8 is undefined.
    """
    return (np.matmul(a, b, dtype=np.float32).astype(np.int32) & 1).astype(np.uint8)


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

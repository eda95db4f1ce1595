"""Dense linear algebra over the two-element field, and the 0/1 text form of
bits.

Vectors and matrices are uint8 arrays of 0/1 entries: a vector is a 1-D
array, a matrix a 2-D array with one vector per row, and the GF(2) product
of two matrices, ``a @ b & 1``, is `matmul`, which multiplies in float32.
Row reduction always picks the leftmost pivot, which makes reduced forms
canonical; both protocol parties therefore derive identical coset labels
from the public matrices without communicating.  `row_reduce` and
`solve_membership` share one elimination loop, which runs on the rows
packed into Python ints, column j as bit j, so that a row operation is one
int xor; the rows are packed and unpacked once per elimination.

Outside the program, in transcripts, keys, code files and Bob's record,
bits are 0/1 text with character i holding bit i; `format_bits` (and
`format_bit_rows`, the ASCII bytes of each row of an array) and
`parse_bits` are the one conversion between the two forms.  The numbers
in those files (positions, block ids, code-file headers) and in the
`attack_positions` setting are ASCII decimal digits, at most 18 to a
number so that each fits an int64; `parse_decimal` and `parse_decimals`
(a comma-separated list) are their one reader, and `format_decimals`
writes the lists.  The float settings are ASCII digits with an optional
fraction and exponent, read by `parse_float`.  Those files are read by
`read_ascii`, which names the line of a byte outside ASCII.  All indices
are zero-based.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, LineError

__all__ = ["matmul", "row_reduce", "solve_membership", "format_bits", "format_bit_rows",
           "parse_bits", "parse_decimal", "parse_decimals", "format_decimals", "parse_float",
           "read_ascii"]

# the bytes of a decimal list by class: each digit reads as b"9", the comma
# as itself and every other byte as b"x", so that searches decide the list
_DECIMAL_CLASSES = bytes(ord("9" if chr(c) in "0123456789" else "," if chr(c) == "," else "x")
                         for c in range(256))
_TOO_LONG = b"9" * 19
_LARGEST = 10**18 - 1
# a float is digits, then an optional fraction and an optional exponent: no
# sign, space, underscore, inf or nan
_FLOAT = re.compile("[0-9]+(?:[.][0-9]+)?(?:[eE][+-]?[0-9]+)?")


def format_bits(bits: np.ndarray) -> str:
    """The 0/1 text of a 1-D array of bits, character i being bit i."""
    return (np.asarray(bits, dtype=np.uint8) + 48).tobytes().decode("ascii")


def format_bit_rows(bits: np.ndarray) -> list[bytes]:
    """The 0/1 ASCII bytes of each row of a 2-D array of bits, from one
    conversion of the whole array and a slice per row."""
    rows, n = np.shape(bits)
    raw = (np.asarray(bits, dtype=np.uint8) + 48).tobytes()
    return [raw[i:i + n] for i in range(0, rows * n, n)] if n else [b""] * rows


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


def _group_words(comma: bool) -> np.ndarray:
    """The ASCII text of each group of three decimal digits, 0-999, each a
    little-endian uint32 whose four bytes hold its digits, and a comma if
    `comma`, with 0 bytes for the rest: at index g its digits unpadded, the
    text of a number's first group, and at 1000 + g zero-padded to three, the
    text of a group after the first.  A number's units group has the comma;
    unpadded, its 0 is "0", another group's is no text."""
    g = np.arange(1000)[:, None]
    digits = (g // (100, 10, 1) % 10 + ord("0")).astype(np.uint8)
    words = np.zeros((2, 1000, 4), np.uint8)
    columns = slice(0, 3) if comma else slice(1, 4)
    words[0, :, columns] = digits * (g >= (100, 10, 0 if comma else 1))
    words[1, :, columns] = digits
    if comma:
        words[..., 3] = ord(",")
    return words.view("<u4").reshape(-1)


_GROUP_WORDS, _UNITS_WORDS = _group_words(False), _group_words(True)


def format_decimals(numbers: np.ndarray) -> list[bytes]:
    """Each row of an (R, m) array of numbers in [0, 10**18) as the ASCII
    comma-separated list of decimals that `parse_decimals` reads back; a row
    of no numbers is b"".

    All rows are made at once: a divide and a mod by 1000 per group of three
    digits that the largest number has, a table lookup per group for its
    text, in four bytes padded with 0 bytes, and one deletion of those bytes
    from the text of all rows, split at each row's last comma, which was
    made a newline.

    Raises:
        ValueError: a number is outside [0, 10**18).
    """
    numbers = np.asarray(numbers, dtype=np.int64)
    rows, m = numbers.shape
    if not numbers.size:
        return [b""] * rows
    # a negative number reads as one above 2**63 as a uint64
    top = int(numbers.view(np.uint64).max())
    if top > _LARGEST:
        raise ValueError(f"a number outside [0, 10**18) in {numbers!r}")
    groups = -(-len(str(top)) // 3)
    words = np.empty((rows, m, groups), "<u4")
    tables = [_GROUP_WORDS] * (groups - 1) + [_UNITS_WORDS]
    rest = numbers
    for k in range(groups - 1, 0, -1):
        rest, group = np.divmod(rest, 1000)
        # a group is zero-padded when the number has digits above it
        words[..., k] = tables[k].take(group + 1000 * (rest > 0))
    # the first group, which nothing is above
    words[..., 0] = tables[0].take(rest)
    text = words.view(np.uint8).reshape(rows, -1)
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").split(b"\n")[:-1]


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


def read_ascii(path: str, split_lines: Callable[[str], list[str]],
               error: type[LineError]) -> str:
    """The text of the file at `path`, read with universal newlines, whose
    bytes must all be ASCII.

    Raises:
        LineError: of the class `error`, naming the first line, of the lines
            `split_lines` makes of the text, that holds another byte.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        for line_no, line in enumerate(split_lines(text), start=1):
            if not line.isascii():
                # each byte outside ASCII reads as one of U+DC80..U+DCFF
                byte = ord(next(c for c in line if not c.isascii())) - 0xDC00
                raise error(f"byte {byte:#04x} is not ASCII", line=line_no)
    return text


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The GF(2) product ``a @ b & 1`` of two 2-D 0/1 arrays, as uint8.

    The product runs in float32 (or wider, if a is), which numpy multiplies
    through BLAS (its integer products have no such path), by `np.dot`,
    whose call costs about half of `np.matmul`'s on the few-row arrays of a
    small chunk; pass b as float32 to skip its copy.  Each entry is a count
    of at most a.shape[-1] ones, which float32 holds exactly while that is
    below 2**24.  A count of at most 255 casts to uint8 exactly; a cast of a
    float above 255 to uint8 is undefined, so a longer sum is cast through
    int32, whose cast to uint8 keeps the parity.
    """
    product = np.dot(a, b.astype(np.float32, copy=False))
    if a.shape[-1] > 255:
        product = product.astype(np.int32)
    parity = product.astype(np.uint8)
    parity &= 1
    return parity


def _eliminate(a: np.ndarray, ncols: int) -> list[int]:
    """Reduce the first `ncols` columns of the 0/1 array `a`, in place, to
    reduced row-echelon form, taking the leftmost pivot each time; columns
    after them ride along with their rows.  Returns the pivot columns.

    The rows are eliminated as Python ints, column j as bit j, packed by one
    `np.packbits` and written back by one `np.unpackbits`: a row operation
    is one int xor, where it is several numpy calls on a row of an array."""
    m, width = a.shape
    if not m or not ncols:
        return []
    raw = np.packbits(a, axis=1, bitorder="little").tobytes()
    size = len(raw) // m
    rows = [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        bit = 1 << col
        for p in range(r, m):
            if rows[p] & bit:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r]
        # every row with the bit, the pivot's own included, then the pivot back
        rows = [row ^ pivot if row & bit else row for row in rows]
        rows[r] = pivot
        pivots.append(col)
        r += 1
        if r == m:
            break
    packed = b"".join(row.to_bytes(size, "little") for row in rows)
    a[:] = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(m, size), axis=1,
                         count=width, bitorder="little")
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

import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bb84sim.errors import DimensionError
from bb84sim.gf2 import (
    format_bit_rows,
    format_bits,
    format_decimals,
    matmul,
    parse_bits,
    parse_decimal,
    parse_decimals,
    parse_float,
    row_reduce,
    solve_membership,
)
from oracle import (
    mat_vec,
    row_reduce_reference,
    solve_membership_reference,
    to_word,
    word_rows,
)


def bits(*rows):
    """The matrix whose rows are the 0/1 strings `rows`."""
    return np.array([parse_bits(r) for r in rows])


# Canonical parity-check matrix of the [7,4] Hamming code: column j is the
# binary numeral j+1 (used here as a known-answer fixture).
HAMMING_H = bits("0001111", "0110011", "1010101")
HAMMING_G = bits("1110000", "1001100", "0101010", "1101001")
EYE3 = np.eye(3, dtype=np.uint8)


def brute_force_mat_vec(m, v):
    # independent oracle: literal sum-of-products over GF(2)
    out = []
    for i in range(m.shape[0]):
        acc = 0
        for j in range(m.shape[1]):
            acc ^= int(m[i, j]) & int(v[j])
        out.append(acc)
    return out


def random_matrix(rng, rows, cols):
    return word_rows([rng.getrandbits(cols) for _ in range(rows)], cols)


@st.composite
def bit_matrices(draw, max_rows=40, max_cols=130):
    """0/1 matrices of 0..max_rows rows by 0..max_cols columns, the empty
    shapes and widths past 64 included; a row may be masked by another draw,
    so that sparse rows, zero columns and repeated pivots come up."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    row = st.integers(0, 2**cols - 1)
    words = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        words = [w & draw(row) & draw(row) for w in words]
    return word_rows(words, cols)


def arrays(draw, rows, cols):
    return np.array(draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                                  max_size=rows * cols)), dtype=np.uint8).reshape(rows, cols)


class TestBitVector:
    """A bit vector is a 1-D uint8 array inside the program and 0/1 text
    outside it, character i being bit i."""

    def test_construction_and_str(self):
        v = parse_bits("1011")
        assert len(v) == 4 and v.dtype == np.uint8
        assert format_bits(v) == "1011"
        assert v[0] == 1 and v[1] == 0 and v[2] == 1 and v[3] == 1
        assert v.tolist() == [1, 0, 1, 1]

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            parse_bits("10x1")

    @pytest.mark.parametrize("text", ["1 0", "_1", "0b1", "+1", "2"])
    def test_rejects_what_int_would_parse(self, text):
        with pytest.raises(ValueError, match="outside 0/1"):
            parse_bits(text)

    def test_string_round_trip_any_length(self):
        rng = random.Random(3)
        assert parse_bits("").shape == (0,) and format_bits(parse_bits("")) == ""
        for n in range(1, 130):
            text = "".join(rng.choice("01") for _ in range(n))
            v = parse_bits(text)
            assert format_bits(v) == text
            assert v.tolist() == [int(c) for c in text]



class TestDecimals:
    """Numbers outside the program are ASCII decimal digits, at most 18 to a
    number: int() also takes signs, underscores, spaces and other scripts'
    digits, and numpy clips a number that does not fit an int64."""

    def test_numbers_and_lists(self):
        assert parse_decimals("").dtype == np.int64 and parse_decimals("").shape == (0,)
        assert parse_decimals("0,07,42").tolist() == [0, 7, 42]
        assert parse_decimals("9" * 18 + ",1").tolist() == [10**18 - 1, 1]
        assert parse_decimal("007") == 7 and parse_decimal("9" * 18) == 10**18 - 1

    @pytest.mark.parametrize("text", ["", "+3", "-3", "1_0", " 3", "3 ", "\u0663", "0x1",
                                      "1" * 19, "123456789012345678901234567890"])
    def test_rejects_what_is_not_a_number(self, text):
        with pytest.raises(ValueError, match="bad decimal"):
            parse_decimal(text)
        if text:
            with pytest.raises(ValueError, match="bad decimal list"):
                parse_decimals(text)

    @pytest.mark.parametrize("text", ["3,", ",3", "1,,2", "1, 2", "1,-2", "1;2", "1,2," + "4" * 19,
                                      "0" * 18 + "1"])
    def test_rejects_what_is_not_a_list(self, text):
        with pytest.raises(ValueError, match="bad decimal list"):
            parse_decimals(text)

    @pytest.mark.parametrize("text, value", [("0", 0.0), ("0.124", 0.124), ("007.50", 7.5),
                                             ("1e-05", 1e-05), ("25E+1", 250.0),
                                             ("3e0", 3.0), ("1e999", float("inf"))])
    def test_floats(self, text, value):
        assert parse_float(text) == value

    @pytest.mark.parametrize("text", ["", "-1", "+1", "1_0", " 1", "1 ", ".5", "5.", "1e",
                                      "1e+", "1.e5", "inf", "nan", "Infinity", "0x1p3",
                                      "\u0663.5", "1.5.2", "1,5"])
    def test_rejects_what_is_not_a_float(self, text):
        with pytest.raises(ValueError, match="bad decimal"):
            parse_float(text)

# numbers at the edges of a digit count, and of the three-digit groups
EDGE_NUMBERS = [0, 9, 10, 99, 100, 999, 1000, 1001, 999_999, 10**6, 10**17, 10**18 - 1]


class TestFormatDecimals:
    """`format_decimals` writes each row as `parse_decimals` reads it."""

    @given(st.integers(0, 4).flatmap(lambda rows: st.integers(0, 6).flatmap(
        lambda m: st.lists(st.lists(st.one_of(st.sampled_from(EDGE_NUMBERS),
                                              st.integers(0, 10**18 - 1)),
                                    min_size=m, max_size=m),
                           min_size=rows, max_size=rows).map(
            lambda a: np.array(a, dtype=np.int64).reshape(rows, m)))))
    @example(np.array([EDGE_NUMBERS]))
    @example(np.array(EDGE_NUMBERS)[:, None])
    @example(np.zeros((0, 3), dtype=np.int64))
    @example(np.zeros((2, 0), dtype=np.int64))
    def test_round_trip(self, a):
        texts = format_decimals(a)
        assert len(texts) == len(a)
        for i, text in enumerate(texts):
            assert parse_decimals(text.decode("ascii")).tolist() == a[i].tolist()
            assert text == ",".join(map(str, a[i].tolist())).encode("ascii")

    @pytest.mark.parametrize("number", [-1, 10**18, -(2**63), 2**63 - 1])
    def test_rejects_what_parse_decimals_cannot_read(self, number):
        with pytest.raises(ValueError, match="outside"):
            format_decimals(np.array([[5, number]], dtype=np.int64))

    def test_bit_rows(self):
        a = bits("0110", "1001", "0000")
        assert format_bit_rows(a) == [b"0110", b"1001", b"0000"]
        assert format_bit_rows(np.zeros((2, 0), dtype=np.uint8)) == [b"", b""]
        assert format_bit_rows(np.zeros((0, 5), dtype=np.uint8)) == []


class TestMatVec:
    def test_identity(self):
        v = parse_bits("101")
        assert mat_vec(EYE3, v).tolist() == v.tolist()

    def test_zero_vector_annihilates(self):
        rng = random.Random(7)
        for _ in range(10):
            m = random_matrix(rng, rng.randrange(1, 8), 6)
            assert not mat_vec(m, np.zeros(6, dtype=np.uint8)).any()

    def test_unit_vector_selects_column(self):
        # H . e_3 is column 3 of H; verified against the brute-force product.
        e3 = np.eye(7, dtype=np.uint8)[3]
        got = mat_vec(HAMMING_H, e3)
        assert got.tolist() == brute_force_mat_vec(HAMMING_H, e3)
        assert got.tolist() == HAMMING_H[:, 3].tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_vec(HAMMING_H, np.zeros(6, dtype=np.uint8))

    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_brute_force(self, rows, cols, data):
        m = arrays(data.draw, rows, cols)
        v = arrays(data.draw, 1, cols)[0]
        assert mat_vec(m, v).tolist() == brute_force_mat_vec(m, v)

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    def test_linearity(self, rows, cols, data):
        m = arrays(data.draw, rows, cols)
        a, b = arrays(data.draw, 2, cols)
        assert mat_vec(m, a ^ b).tolist() == (mat_vec(m, a) ^ mat_vec(m, b)).tolist()


class TestMatmul:
    # n = 300 gives entry counts above 255, whose float-to-uint8 cast C
    # leaves undefined (x86 happens to wrap it, which keeps the parity; a
    # platform that saturates would not), and 70 or 130 columns span more
    # than one 64-bit word
    @pytest.mark.parametrize("rows", [1, 161])
    @pytest.mark.parametrize("n, cols", [(7, 11), (23, 35), (300, 130), (23, 70)])
    def test_matches_integer_product(self, rows, n, cols):
        rng = np.random.default_rng(rows * 1000 + n)
        a = rng.integers(0, 2, (rows, n), dtype=np.uint8)
        m = rng.integers(0, 2, (n, cols), dtype=np.uint8)
        want = (a.astype(np.int64) @ m) % 2
        for b in (m, m.astype(np.float32)):
            got = matmul(a, b)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)

    def test_counts_above_a_byte(self):
        # every entry counts 300 or 299 ones; a cast saturating at 255 would
        # make both odd
        a = np.ones((2, 300), dtype=np.uint8)
        a[1, 0] = 0
        m = np.ones((300, 3), dtype=np.float32)
        assert matmul(a, m).tolist() == [[0, 0, 0], [1, 1, 1]]


class TestRowReduce:
    def test_identity_fixed_point(self):
        eye = np.eye(4, dtype=np.uint8)
        reduced, rank, pivots = row_reduce(eye)
        assert (reduced == eye).all()
        assert rank == 4
        assert pivots == [0, 1, 2, 3]

    def test_duplicate_rows_collapse(self):
        reduced, rank, _ = row_reduce(bits("1101", "1101"))
        assert rank == 1
        assert reduced[0].any() and not reduced[1].any()

    def test_leaves_its_input_unchanged(self):
        m = bits("0110", "1101")
        reduced, _, _ = row_reduce(m)
        assert m.tolist() == [[0, 1, 1, 0], [1, 1, 0, 1]]
        assert reduced.tolist() == [[1, 0, 1, 1], [0, 1, 1, 0]]

    def test_hamming_generator_rank(self):
        # Rank 4 confirmed by brute-force enumeration: the 2^4 row
        # combinations are pairwise distinct.
        _, rank, _ = row_reduce(HAMMING_G)
        assert rank == 4
        combos = set()
        for c in range(16):
            w = np.zeros(7, dtype=np.uint8)
            for i in range(4):
                if (c >> i) & 1:
                    w ^= HAMMING_G[i]
            combos.add(w.tobytes())
        assert len(combos) == 16

    def test_rank_counts_nonzero_rows(self):
        rng = random.Random(13)
        for _ in range(25):
            m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
            reduced, rank, pivots = row_reduce(m)
            assert rank == len(pivots)
            assert rank == int(reduced.any(axis=1).sum())
            _, rank2, _ = row_reduce(reduced)
            assert rank2 == rank

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    def test_idempotent(self, rows, cols, data):
        m = arrays(data.draw, rows, cols)
        reduced, _, pivots = row_reduce(m)
        again, _, pivots2 = row_reduce(reduced)
        assert (again == reduced).all()
        assert pivots2 == pivots


    @given(bit_matrices(), st.booleans())
    @example(np.zeros((0, 0), np.uint8), False)
    @example(np.zeros((0, 7), np.uint8), True)
    @example(np.zeros((5, 0), np.uint8), True)
    def test_matches_the_reference(self, m, augmented):
        # [M | I] is the shape _build_label_matrix reduces
        if augmented:
            m = np.hstack([m, np.eye(len(m), dtype=np.uint8)])
        reduced, rank, pivots = row_reduce(m)
        want, want_rank, want_pivots = row_reduce_reference(m)
        assert reduced.dtype == np.uint8 and reduced.shape == m.shape
        assert (reduced.tolist(), rank, pivots) == (want.tolist(), want_rank, want_pivots)


class TestSolveMembership:
    def test_identity_matrix(self):
        assert solve_membership(EYE3, parse_bits("110")).tolist() == [1, 1, 0]

    def test_zero_vector(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_matrix(rng, rng.randrange(1, 8), 5)
            coeff = solve_membership(m, np.zeros(5, dtype=np.uint8))
            assert coeff is not None
            assert not mat_vec(m.T, coeff).any() or not coeff.any()

    def test_recovers_known_combination(self):
        # v built as rows 1 and 3 (1-based) of a full-rank 4xn matrix; the
        # unique coefficient vector 1010 must come back.
        rng = random.Random(99)
        found = 0
        while found < 10:
            n = rng.randrange(4, 12)
            m = random_matrix(rng, 4, n)
            if row_reduce(m)[1] != 4:
                continue
            found += 1
            assert format_bits(solve_membership(m, m[0] ^ m[2])) == "1010"

    def test_non_member(self):
        assert solve_membership(bits("1100", "0110"), parse_bits("0001")) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_membership(EYE3, np.zeros(4, dtype=np.uint8))

    @given(st.integers(1, 16), st.integers(1, 8), st.data())
    def test_round_trip(self, cols, rows, data):
        m = arrays(data.draw, rows, cols)
        c = arrays(data.draw, 1, rows)[0]
        v = c @ m & 1
        recovered = solve_membership(m, v)
        assert recovered is not None
        assert (recovered @ m & 1).tolist() == v.tolist()


    @given(bit_matrices(), st.data())
    @example(np.zeros((0, 0), np.uint8), None)
    @example(np.zeros((3, 0), np.uint8), None)
    def test_matches_the_reference(self, m, data):
        # a member (a combination of the rows) or any vector
        rows, cols = m.shape
        if data is None or data.draw(st.booleans()):
            c = word_rows([data.draw(st.integers(0, 2**rows - 1)) if data else 0], rows)[0]
            v = c @ m & 1 if rows else np.zeros(cols, np.uint8)
        else:
            v = word_rows([data.draw(st.integers(0, 2**cols - 1))], cols)[0]
        got, want = solve_membership(m, v), solve_membership_reference(m, v)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 23, 64, 66])
def test_words_rows_round_trip(n):
    # the int words the scalar reference packs rows into, column j as bit j
    rng = random.Random(n)
    words = [rng.getrandbits(n) if n else 0 for _ in range(5)]
    rows = word_rows(words, n)
    assert rows.shape == (5, n) and rows.dtype == np.uint8
    assert [[(w >> j) & 1 for j in range(n)] for w in words] == rows.tolist()
    assert [to_word(row) for row in rows] == words

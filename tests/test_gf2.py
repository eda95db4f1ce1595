import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bb84sim.errors import DimensionError
from bb84sim.gf2 import (
    BitMatrix,
    BitVector,
    mat_vec,
    row_reduce,
    rows_to_words,
    solve_membership,
    words_to_rows,
)

# Canonical parity-check matrix of the [7,4] Hamming code: column j is the
# binary numeral j+1 (used here as a known-answer fixture).
HAMMING_H = BitMatrix.from_strings(["0001111", "0110011", "1010101"])
HAMMING_G = BitMatrix.from_strings(["1110000", "1001100", "0101010", "1101001"])


def brute_force_mat_vec(m, v):
    # independent oracle: literal sum-of-products over GF(2)
    out = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            acc ^= m[i, j] & v[j]
        out.append(acc)
    return BitVector.from_bits(out)


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, (rng.getrandbits(cols) for _ in range(rows)))


class TestBitVector:
    def test_construction_and_str(self):
        v = BitVector.from_string("1011")
        assert len(v) == 4
        assert str(v) == "1011"
        assert v[0] == 1 and v[1] == 0 and v[2] == 1 and v[3] == 1
        assert list(v) == [1, 0, 1, 1]

    def test_add_identity(self):
        assert BitVector.from_string("1011") + BitVector.zeros(4) == BitVector.from_string("1011")

    def test_add_self_inverse(self):
        v = BitVector.from_string("1011")
        assert (v + v).is_zero()

    def test_add_by_hand(self):
        # 1100 + 1010 = 0110, worked bitwise by hand
        assert BitVector.from_string("1100") ^ BitVector.from_string("1010") == BitVector.from_string("0110")

    def test_add_length_mismatch(self):
        with pytest.raises(DimensionError):
            BitVector.zeros(3) ^ BitVector.zeros(4)

    def test_weight(self):
        assert BitVector.from_string("1011").weight == 3
        assert BitVector.zeros(5).weight == 0

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            BitVector.from_string("10x1")

    @pytest.mark.parametrize("text", ["1 0", "_1", "0b1", "+1", "2"])
    def test_rejects_what_int_would_parse(self, text):
        with pytest.raises(ValueError, match="outside 0/1"):
            BitVector.from_string(text)

    def test_string_round_trip_any_length(self):
        rng = random.Random(3)
        assert BitVector.from_string("") == BitVector(0, 0) and str(BitVector(0, 0)) == ""
        for n in range(1, 130):
            text = "".join(rng.choice("01") for _ in range(n))
            v = BitVector.from_string(text)
            assert str(v) == text
            assert list(v) == [int(c) for c in text]


class TestMatVec:
    def test_identity(self):
        v = BitVector.from_string("101")
        assert mat_vec(BitMatrix.identity(3), v) == v

    def test_zero_vector_annihilates(self):
        rng = random.Random(7)
        for _ in range(10):
            m = random_matrix(rng, rng.randrange(1, 8), 6)
            assert mat_vec(m, BitVector.zeros(6)).is_zero()

    def test_unit_vector_selects_column(self):
        # H . e_3 is column 3 of H; verified against the brute-force product.
        e3 = BitVector.unit(7, 3)
        got = mat_vec(HAMMING_H, e3)
        assert got == brute_force_mat_vec(HAMMING_H, e3)
        assert list(got) == [HAMMING_H[i, 3] for i in range(3)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_vec(HAMMING_H, BitVector.zeros(6))

    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_brute_force(self, rows, cols, data):
        words = data.draw(st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows))
        v = BitVector(cols, data.draw(st.integers(0, 2**cols - 1)))
        m = BitMatrix(rows, cols, words)
        assert mat_vec(m, v) == brute_force_mat_vec(m, v)

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    def test_linearity(self, rows, cols, data):
        m = BitMatrix(rows, cols, data.draw(
            st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows)))
        a = BitVector(cols, data.draw(st.integers(0, 2**cols - 1)))
        b = BitVector(cols, data.draw(st.integers(0, 2**cols - 1)))
        assert mat_vec(m, a ^ b) == mat_vec(m, a) ^ mat_vec(m, b)


class TestRowReduce:
    def test_identity_fixed_point(self):
        eye = BitMatrix.identity(4)
        reduced, rank, pivots = row_reduce(eye)
        assert reduced == eye
        assert rank == 4
        assert pivots == [0, 1, 2, 3]

    def test_duplicate_rows_collapse(self):
        m = BitMatrix.from_strings(["1101", "1101"])
        reduced, rank, _ = row_reduce(m)
        assert rank == 1
        assert reduced.row_words[0] != 0 and reduced.row_words[1] == 0

    def test_hamming_generator_rank(self):
        # Rank 4 confirmed by brute-force enumeration: the 2^4 row
        # combinations are pairwise distinct.
        _, rank, _ = row_reduce(HAMMING_G)
        assert rank == 4
        combos = set()
        for c in range(16):
            w = 0
            for i in range(4):
                if (c >> i) & 1:
                    w ^= HAMMING_G.row_words[i]
            combos.add(w)
        assert len(combos) == 16

    def test_rank_counts_nonzero_rows(self):
        rng = random.Random(13)
        for _ in range(25):
            m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
            reduced, rank, pivots = row_reduce(m)
            assert rank == len(pivots)
            assert rank == sum(1 for w in reduced.row_words if w)
            _, rank2, _ = row_reduce(reduced)
            assert rank2 == rank

    @given(st.integers(1, 10), st.integers(1, 10), st.data())
    def test_idempotent(self, rows, cols, data):
        m = BitMatrix(rows, cols, data.draw(
            st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows)))
        reduced, _, pivots = row_reduce(m)
        again, _, pivots2 = row_reduce(reduced)
        assert again == reduced
        assert pivots2 == pivots


class TestSolveMembership:
    def test_identity_matrix(self):
        coeff = solve_membership(BitMatrix.identity(3), BitVector.from_string("110"))
        assert coeff == BitVector.from_string("110")

    def test_zero_vector(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_matrix(rng, rng.randrange(1, 8), 5)
            coeff = solve_membership(m, BitVector.zeros(5))
            assert coeff is not None
            assert mat_vec(m.transpose(), coeff).is_zero() or coeff.is_zero()

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
            v = BitVector(n, m.row_words[0] ^ m.row_words[2])
            assert solve_membership(m, v) == BitVector.from_string("1010")

    def test_non_member(self):
        m = BitMatrix.from_strings(["1100", "0110"])
        assert solve_membership(m, BitVector.from_string("0001")) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_membership(BitMatrix.identity(3), BitVector.zeros(4))

    @given(st.integers(1, 16), st.integers(1, 8), st.data())
    def test_round_trip(self, cols, rows, data):
        m = BitMatrix(rows, cols, data.draw(
            st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows)))
        c = BitVector(rows, data.draw(st.integers(0, 2**rows - 1)))
        v = BitVector.zeros(cols)
        for i in range(rows):
            if c[i]:
                v = v + m.row(i)
        recovered = solve_membership(m, v)
        assert recovered is not None
        rebuilt = BitVector.zeros(cols)
        for i in range(rows):
            if recovered[i]:
                rebuilt = rebuilt + m.row(i)
        assert rebuilt == v


def test_transpose_round_trip():
    rng = random.Random(21)
    for _ in range(10):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        assert m.transpose().transpose() == m


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 23, 64, 66])
def test_words_rows_round_trip(n):
    rng = random.Random(n)
    words = [rng.getrandbits(n) if n else 0 for _ in range(5)]
    rows = words_to_rows(words, n)
    assert rows.shape == (5, n) and rows.dtype == np.uint8
    assert [[(w >> j) & 1 for j in range(n)] for w in words] == rows.tolist()
    assert rows_to_words(rows) == words

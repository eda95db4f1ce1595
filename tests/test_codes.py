import itertools
import math

import numpy as np
import pytest

from bb84sim import codes as codes_module
from bb84sim.codes import (
    CssPair,
    SyndromeTable,
    builtin_pair,
    format_code,
    format_pair,
    make_golay_23_12,
    make_golay_dual_23_11,
    make_hamming_7_4,
    make_hamming_dual_7_3,
    parse_code,
    parse_pair,
)
from bb84sim.errors import InvalidPairError, NotInCodeError
from bb84sim.gf2 import format_bits, parse_bits, row_reduce
from bb84sim.codes import LinearCode
from oracle import (
    DecodeFailure,
    build_label_matrix,
    contains,
    coset_label,
    decode_to_codeword,
    mat_vec,
    project_label,
    random_codeword,
    scalar_table_items,
    syndrome,
)


@pytest.fixture(scope="module")
def hamming():
    return make_hamming_7_4()


@pytest.fixture(scope="module")
def steane():
    return builtin_pair("steane")


@pytest.fixture(scope="module")
def golay_pair():
    return builtin_pair("golay")


def bits(*rows):
    return np.array([parse_bits(r) for r in rows])


def unit(n, j):
    return np.eye(n, dtype=np.uint8)[j]


def nearest_codewords(code, received):
    # brute-force oracle: all codewords at minimum Hamming distance
    best = None
    hits = []
    for cw in code.codewords():
        dist = int((cw ^ received).sum())
        if best is None or dist < best:
            best = dist
            hits = [cw.tolist()]
        elif dist == best:
            hits.append(cw.tolist())
    return best, hits


def min_weight(code):
    return min(int(cw.sum()) for cw in code.codewords() if cw.any())


class TestHamming:
    def test_parameters(self, hamming):
        assert (hamming.n, hamming.k, hamming.d) == (7, 4, 3)
        assert row_reduce(hamming.generator)[1] == 4

    def test_zero_and_ones_are_codewords(self, hamming):
        assert contains(hamming, np.zeros(7, dtype=np.uint8))
        # all-ones has zero syndrome under the numeral parity check
        ones = np.ones(7, dtype=np.uint8)
        assert not mat_vec(hamming.parity_check, ones).any()
        assert contains(hamming, ones)

    def test_parity_check_columns_are_numerals(self, hamming):
        for j in range(7):
            col = sum(int(hamming.parity_check[i, j]) << i for i in range(3))
            assert col == j + 1

    def test_declared_distance(self, hamming):
        assert hamming.verify_distance()
        assert min_weight(hamming) == 3

    def test_dual_contained(self, hamming):
        dual = make_hamming_dual_7_3()
        assert dual.verify_distance()
        for row in dual.generator:
            assert contains(hamming, row)


class TestGolay:
    def test_parameters(self):
        golay = make_golay_23_12()
        assert (golay.n, golay.k, golay.d) == (23, 12, 7)

    def test_distance_by_enumeration(self):
        golay = make_golay_23_12()
        assert golay.codewords().shape == (2 ** 12, 23)
        assert min_weight(golay) == 7

    def test_dual_distance_by_enumeration(self):
        dual = make_golay_dual_23_11()
        assert min_weight(dual) == 8

    def test_pair_valid(self, golay_pair):
        assert golay_pair.key_width == 1

    def test_perfect_code_table_is_total(self):
        golay = make_golay_23_12()
        table = golay.syndrome_table()
        assert len(table) == 2 ** 11

    def test_table_corrects_all_radius_errors(self):
        # exhaustive over the 2047 nonzero patterns of weight <= 3: syndrome
        # lookup must return exactly the injected error, which by linearity
        # proves half-distance correction for every codeword
        golay = make_golay_23_12()
        table = golay.syndrome_table()
        positions = [pos for w in range(1, 4) for pos in itertools.combinations(range(23), w)]
        errors = np.zeros((len(positions), 23), dtype=np.uint8)
        for row, pos in zip(errors, positions):
            row[list(pos)] = 1
        assert len(errors) == 2047
        rows, failed = table.lookup_rows(errors @ golay.parity_check_t & 1)
        assert not failed.any()
        assert (table.errors[rows] == errors).all()


class TestSyndromeTable:
    def test_zero_maps_to_zero(self, hamming):
        table = hamming.syndrome_table()
        rows, failed = table.lookup_rows(np.zeros((1, 3), dtype=np.uint8))
        assert not failed.any() and not table.errors[rows].any()

    def test_entries_within_radius_and_consistent(self, hamming):
        table = hamming.syndrome_table()
        errors = table.errors[:-1]
        assert (errors.sum(axis=1) <= hamming.t).all()
        rows, failed = table.lookup_rows(np.array([syndrome(hamming, e) for e in errors]))
        assert not failed.any() and rows.tolist() == list(range(len(errors)))

    @pytest.mark.parametrize("slice_bytes", [None, 50])
    @pytest.mark.parametrize("name", ["steane", "golay", "simplex", "wide"])
    def test_build_matches_scalar_build(self, name, slice_bytes, monkeypatch):
        # same entries in the same order as the per-error scalar build, also
        # when each weight is enumerated in slices of two error rows
        from test_engine_equivalence import simplex_pair, wide_pair_text

        code = {
            "steane": make_hamming_7_4,
            "golay": make_golay_23_12,
            "simplex": lambda: simplex_pair().outer,
            "wide": lambda: parse_pair(wide_pair_text()).outer,
        }[name]()
        if slice_bytes is not None:
            monkeypatch.setattr(codes_module, "_BUILD_SLICE_BYTES", slice_bytes)
        table = SyndromeTable.build(code)
        items = scalar_table_items(code)
        assert len(table) == len(items)
        rows, failed = table.lookup_rows(np.array([s for s, _ in items]).reshape(len(items), -1))
        assert not failed.any() and rows.tolist() == list(range(len(items)))
        assert table.errors.tolist() == [e.tolist() for _, e in items] + [[0] * code.n]


class TestDecode:
    def test_codeword_unchanged(self, hamming):
        for cw in hamming.codewords():
            out, err = decode_to_codeword(hamming, cw)
            assert (out == cw).all()
            assert not err.any()

    def test_single_error_all_positions_all_codewords(self, hamming):
        # exhaustive half-distance check, confirmed against the brute-force
        # nearest-codeword search
        for cw in hamming.codewords():
            for j in range(7):
                noisy = cw ^ unit(7, j)
                out, err = decode_to_codeword(hamming, noisy)
                assert (out == cw).all()
                assert (err == unit(7, j)).all()
                dist, hits = nearest_codewords(hamming, noisy)
                assert dist == 1 and hits == [cw.tolist()]

    def test_double_error_returns_some_codeword(self, hamming):
        cw = hamming.codewords()[0]
        noisy = cw ^ unit(7, 1) ^ unit(7, 2)
        out, _ = decode_to_codeword(hamming, noisy)
        assert contains(hamming, out)
        assert (out != cw).any()  # weight-2 exceeds t=1, so this miscorrects

    def test_decode_failure_outside_radius(self):
        # simplex [7,3] has d=4, t=1: a weight-2 error can reach a syndrome
        # with no tabulated leader
        simplex = make_hamming_dual_7_3()
        failures = 0
        for pos in itertools.combinations(range(7), 2):
            err = np.array([1 if i in pos else 0 for i in range(7)], dtype=np.uint8)
            try:
                decode_to_codeword(simplex, err)
            except DecodeFailure:
                failures += 1
        assert failures > 0


class TestCssPair:
    def test_steane_valid(self, steane):
        assert steane.key_width == 1
        assert steane.outer.k - steane.inner.k == 1

    def test_degenerate_pair_rejected(self, hamming):
        with pytest.raises(InvalidPairError, match="key_width"):
            CssPair(hamming, hamming)

    def test_containment_violation_names_row(self, hamming):
        # a "code" whose generator includes a non-codeword of the Hamming code
        bad = LinearCode(
            bits("1110000", "1000000"),
            bits("0001000", "0000100", "0000010", "0000001", "0110000"),
            1, name="bad",
        )
        with pytest.raises(InvalidPairError, match=r"row 1 \(1000000\)"):
            CssPair(hamming, bad)

    def test_block_length_mismatch(self, hamming):
        golay = make_golay_23_12()
        with pytest.raises(Exception):
            CssPair(golay, hamming)

    def test_generator_outside_null_space_names_row(self):
        # H checks bits 2..6, so row 0 (bits 0, 1) passes and row 1 (bit 2) fails
        generator = bits("1100000", "0010000")
        parity_check = np.eye(7, dtype=np.uint8)[2:]
        with pytest.raises(ValueError, match="generator row 1 has nonzero syndrome"):
            LinearCode(generator, parity_check, 1)

    @pytest.mark.parametrize("name", ["steane", "golay", "simplex", "wide"])
    def test_label_matrix_matches_reference_construction(self, name):
        # canonical labels depend on the reduced forms bit for bit
        from test_engine_equivalence import simplex_pair, wide_pair_text

        pair = {
            "steane": lambda: builtin_pair("steane"),
            "golay": lambda: builtin_pair("golay"),
            "simplex": simplex_pair,
            "wide": lambda: parse_pair(wide_pair_text()),
        }[name]()
        assert np.array_equal(pair._label_matrix, build_label_matrix(pair.outer, pair.inner))


class TestCosetLabel:
    def test_inner_codewords_label_zero(self, steane):
        for cw in steane.inner.codewords():
            assert not coset_label(steane, cw).any()

    def test_all_ones_labels_one(self, steane):
        # all-ones has odd weight while every simplex codeword has even
        # weight, so it lies outside the inner code
        assert format_bits(coset_label(steane, np.ones(7, dtype=np.uint8))) == "1"

    def test_coset_invariance(self, steane):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_codeword(steane.outer, rng)
            w = random_codeword(steane.inner, rng)
            assert (coset_label(steane, v) == coset_label(steane, v ^ w)).all()

    def test_rejects_non_codeword(self, steane):
        with pytest.raises(NotInCodeError):
            coset_label(steane, unit(7, 0))

    def test_matches_brute_force_partition(self, steane):
        # oracle: partition the 16 outer codewords by membership of their
        # difference in the inner code; must coincide with the label partition
        inner_words = {cw.tobytes() for cw in steane.inner.codewords()}
        by_label: dict[str, list[np.ndarray]] = {}
        for cw in steane.outer.codewords():
            by_label.setdefault(format_bits(coset_label(steane, cw)), []).append(cw)
        assert len(by_label) == 2 ** steane.key_width
        for group in by_label.values():
            for a in group:
                for b in group:
                    assert (a ^ b).tobytes() in inner_words
        labels = sorted(by_label)
        for a in by_label[labels[0]]:
            for b in by_label[labels[1]]:
                assert (a ^ b).tobytes() not in inner_words

    def test_label_linearity(self, steane):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_codeword(steane.outer, rng)
            b = random_codeword(steane.outer, rng)
            assert (coset_label(steane, a ^ b)
                    == coset_label(steane, a) ^ coset_label(steane, b)).all()

    def test_project_label_extends_coset_label(self, steane):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cw = random_codeword(steane.outer, rng)
            assert (project_label(steane, cw) == coset_label(steane, cw)).all()

    def test_count_identity(self, steane):
        n_outer = len(steane.outer.codewords())
        n_inner = len(steane.inner.codewords())
        assert steane.key_width == int(math.log2(n_outer / n_inner))

    def test_golay_labels(self, golay_pair):
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = random_codeword(golay_pair.outer, rng)
            w = random_codeword(golay_pair.inner, rng)
            assert (coset_label(golay_pair, v) == coset_label(golay_pair, v ^ w)).all()


class TestRandomCodeword:
    def test_zero_dimensional_code(self):
        trivial = LinearCode(np.zeros((0, 3), dtype=np.uint8), np.eye(3, dtype=np.uint8), 1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert not random_codeword(trivial, rng).any()

    def test_membership_by_construction(self, hamming):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert contains(hamming, random_codeword(hamming, rng))

    def test_uniformity(self, hamming):
        rng = np.random.default_rng(42)
        draws = 100_000
        counts: dict[bytes, int] = {}
        for _ in range(draws):
            w = random_codeword(hamming, rng).tobytes()
            counts[w] = counts.get(w, 0) + 1
        assert len(counts) == 16
        p = 1 / 16
        sigma = math.sqrt(p * (1 - p) / draws)
        for c in counts.values():
            assert abs(c / draws - p) < 5 * sigma


class TestFileFormat:
    def test_code_round_trip(self, hamming):
        text = format_code(hamming)
        back = parse_code(text, name=hamming.name)
        assert np.array_equal(back.generator, hamming.generator)
        assert np.array_equal(back.parity_check, hamming.parity_check)
        assert (back.n, back.k, back.d) == (7, 4, 3)

    def test_pair_round_trip(self, steane):
        text = format_pair(steane)
        back = parse_pair(text)
        assert back.key_width == 1
        assert np.array_equal(back.outer.generator, steane.outer.generator)
        assert np.array_equal(back.inner.generator, steane.inner.generator)

    def test_zero_inner_code_round_trip(self):
        zero = LinearCode(np.zeros((0, 7), dtype=np.uint8), np.eye(7, dtype=np.uint8), 7,
                          name="zero")
        pair = CssPair(make_hamming_dual_7_3(), zero)
        back = parse_pair(format_pair(pair))
        assert (back.inner.n, back.inner.k, back.key_width) == (7, 0, 3)
        assert np.array_equal(back.inner.generator, zero.generator)
        assert np.array_equal(back.inner.parity_check, zero.parity_check)
        assert np.array_equal(back.outer.generator, pair.outer.generator)

    def test_full_code_round_trip(self):
        full = LinearCode(np.eye(3, dtype=np.uint8), np.zeros((0, 3), dtype=np.uint8), 1,
                          name="full")
        back = parse_code(format_code(full))
        assert (back.n, back.k, back.d) == (3, 3, 1)
        assert np.array_equal(back.generator, full.generator)
        assert np.array_equal(back.parity_check, full.parity_check)

    def test_comments_and_blanks_skipped(self):
        text = "# hamming\n\n" + format_code(make_hamming_7_4())
        assert parse_code(text).n == 7

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_code("7 4\n")

    @pytest.mark.parametrize("text", ["3 5 1\n111\n", "3 -1 1\n111\n", "0 0 1\n",
                                      "-1 0 1\n"])
    def test_header_out_of_range(self, text):
        # n >= 1 and 0 <= k <= n, checked before any row is read
        header = text.splitlines()[0]
        with pytest.raises(ValueError, match=f"header '{header}' needs n >= 1 and 0 <= k <= n"):
            parse_code(text)

    def test_bad_row(self):
        text = "3 1 1\n10x\n100\n010\n"
        with pytest.raises(ValueError, match="row"):
            parse_code(text)

    @pytest.mark.parametrize("row", ["1_0", "+10", "1 0", "0b1"])
    def test_rejects_what_int_would_parse(self, row):
        with pytest.raises(ValueError, match="bad matrix row"):
            parse_code(f"3 1 1\n{row}\n100\n010\n")

    def test_pair_needs_separator(self):
        with pytest.raises(ValueError, match="separator"):
            parse_pair(format_code(make_hamming_7_4()))

    def test_invalid_code_content_rejected(self):
        # rank-deficient generator
        text = "3 2 1\n110\n110\n100\n"
        with pytest.raises(ValueError, match="rank"):
            parse_code(text)

import itertools
import math

import numpy as np
import pytest

from bb84sim import codes as codes_module
from bb84sim.codes import (
    CssPair,
    SyndromeTable,
    builtin_pair,
    decode_to_codeword,
    format_code,
    format_pair,
    make_golay_23_12,
    make_golay_dual_23_11,
    make_hamming_7_4,
    make_hamming_dual_7_3,
    parse_code,
    parse_pair,
    random_codeword,
)
from bb84sim.errors import DecodeFailure, InvalidPairError, NotInCodeError
from bb84sim.gf2 import BitMatrix, BitVector, mat_vec, row_reduce
from bb84sim.codes import LinearCode


@pytest.fixture(scope="module")
def hamming():
    return make_hamming_7_4()


@pytest.fixture(scope="module")
def steane():
    return builtin_pair("steane")


@pytest.fixture(scope="module")
def golay_pair():
    return builtin_pair("golay")


def nearest_codewords(code, received):
    # brute-force oracle: all codewords at minimum Hamming distance
    best = None
    hits = []
    for cw in code.codewords():
        dist = (cw + received).weight
        if best is None or dist < best:
            best = dist
            hits = [cw]
        elif dist == best:
            hits.append(cw)
    return best, hits


class TestHamming:
    def test_parameters(self, hamming):
        assert (hamming.n, hamming.k, hamming.d) == (7, 4, 3)
        assert row_reduce(hamming.generator)[1] == 4

    def test_zero_and_ones_are_codewords(self, hamming):
        assert hamming.contains(BitVector.zeros(7))
        # all-ones has zero syndrome under the numeral parity check
        ones = BitVector.from_string("1111111")
        assert mat_vec(hamming.parity_check, ones).is_zero()
        assert hamming.contains(ones)

    def test_parity_check_columns_are_numerals(self, hamming):
        for j in range(7):
            col = sum(hamming.parity_check[i, j] << i for i in range(3))
            assert col == j + 1

    def test_declared_distance(self, hamming):
        assert hamming.verify_distance()
        assert min(cw.weight for cw in hamming.codewords() if not cw.is_zero()) == 3

    def test_dual_contained(self, hamming):
        dual = make_hamming_dual_7_3()
        assert dual.verify_distance()
        for i in range(dual.k):
            assert hamming.contains(dual.generator.row(i))


class TestGolay:
    def test_parameters(self):
        golay = make_golay_23_12()
        assert (golay.n, golay.k, golay.d) == (23, 12, 7)

    def test_distance_by_enumeration(self):
        golay = make_golay_23_12()
        assert min(cw.weight for cw in golay.codewords() if not cw.is_zero()) == 7

    def test_dual_distance_by_enumeration(self):
        dual = make_golay_dual_23_11()
        assert min(cw.weight for cw in dual.codewords() if not cw.is_zero()) == 8

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
        import itertools
        for w in range(1, 4):
            for pos in itertools.combinations(range(23), w):
                err = BitVector.from_bits([1 if i in pos else 0 for i in range(23)])
                assert table.lookup(golay.syndrome(err)) == err


class TestSyndromeTable:
    def test_zero_maps_to_zero(self, hamming):
        table = hamming.syndrome_table()
        assert table.lookup(BitVector.zeros(3)) == BitVector.zeros(7)

    def test_entries_within_radius_and_consistent(self, hamming):
        table = hamming.syndrome_table()
        for synd_word, err_word in table.items():
            err = BitVector(7, err_word)
            assert err.weight <= hamming.t
            assert hamming.syndrome(err).word == synd_word

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
        assert list(SyndromeTable.build(code).items()) == scalar_table_items(code)


def scalar_table_items(code):
    """The table as built one error at a time: weights 1..t in
    itertools.combinations order, the first error kept for each syndrome."""
    leaders = {0: 0}
    h_rows = code.parity_check.row_words
    for weight in range(1, code.t + 1):
        for positions in itertools.combinations(range(code.n), weight):
            err = 0
            for p in positions:
                err |= 1 << p
            synd = 0
            for i, row in enumerate(h_rows):
                synd |= ((row & err).bit_count() & 1) << i
            leaders.setdefault(synd, err)
    return list(leaders.items())


class TestDecode:
    def test_codeword_unchanged(self, hamming):
        for cw in hamming.codewords():
            out, err = decode_to_codeword(hamming, cw)
            assert out == cw
            assert err.is_zero()

    def test_single_error_all_positions_all_codewords(self, hamming):
        # exhaustive half-distance check, confirmed against the brute-force
        # nearest-codeword search
        for cw in hamming.codewords():
            for j in range(7):
                noisy = cw + BitVector.unit(7, j)
                out, err = decode_to_codeword(hamming, noisy)
                assert out == cw
                assert err == BitVector.unit(7, j)
                dist, hits = nearest_codewords(hamming, noisy)
                assert dist == 1 and hits == [cw]

    def test_double_error_returns_some_codeword(self, hamming):
        cw = next(iter(hamming.codewords()))
        noisy = cw + BitVector.unit(7, 1) + BitVector.unit(7, 2)
        out, _ = decode_to_codeword(hamming, noisy)
        assert hamming.contains(out)
        assert out != cw  # weight-2 exceeds t=1, so this miscorrects

    def test_decode_failure_outside_radius(self):
        # simplex [7,3] has d=4, t=1: a weight-2 error can reach a syndrome
        # with no tabulated leader
        simplex = make_hamming_dual_7_3()
        failures = 0
        import itertools
        for pos in itertools.combinations(range(7), 2):
            err = BitVector.from_bits([1 if i in pos else 0 for i in range(7)])
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
            7, 2, 1,
            BitMatrix.from_strings(["1110000", "1000000"]),
            BitMatrix.from_strings(["0001000", "0000100", "0000010", "0000001",
                                    "0110000"]),
            name="bad",
        )
        with pytest.raises(InvalidPairError, match="row 1"):
            CssPair(hamming, bad)

    def test_block_length_mismatch(self, hamming):
        golay = make_golay_23_12()
        with pytest.raises(Exception):
            CssPair(golay, hamming)


class TestCosetLabel:
    def test_inner_codewords_label_zero(self, steane):
        for cw in steane.inner.codewords():
            assert steane.coset_label(cw).is_zero()

    def test_all_ones_labels_one(self, steane):
        # all-ones has odd weight while every simplex codeword has even
        # weight, so it lies outside the inner code
        assert str(steane.coset_label(BitVector.from_string("1111111"))) == "1"

    def test_coset_invariance(self, steane):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_codeword(steane.outer, rng)
            w = random_codeword(steane.inner, rng)
            assert steane.coset_label(v) == steane.coset_label(v + w)

    def test_rejects_non_codeword(self, steane):
        with pytest.raises(NotInCodeError):
            steane.coset_label(BitVector.from_string("1000000"))

    def test_matches_brute_force_partition(self, steane):
        # oracle: partition the 16 outer codewords by membership of their
        # difference in the inner code; must coincide with the label partition
        inner_words = {cw.word for cw in steane.inner.codewords()}
        outer_words = list(steane.outer.codewords())
        by_label: dict[str, list[BitVector]] = {}
        for cw in outer_words:
            by_label.setdefault(str(steane.coset_label(cw)), []).append(cw)
        assert len(by_label) == 2 ** steane.key_width
        for group in by_label.values():
            for a in group:
                for b in group:
                    assert (a + b).word in inner_words
        for ga, gb in zip(sorted(by_label), sorted(by_label)):
            pass
        labels = sorted(by_label)
        for a in by_label[labels[0]]:
            for b in by_label[labels[1]]:
                assert (a + b).word not in inner_words

    def test_label_linearity(self, steane):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_codeword(steane.outer, rng)
            b = random_codeword(steane.outer, rng)
            assert steane.coset_label(a + b) == steane.coset_label(a) + steane.coset_label(b)

    def test_project_label_extends_coset_label(self, steane):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cw = random_codeword(steane.outer, rng)
            assert steane.project_label(cw) == steane.coset_label(cw)

    def test_count_identity(self, steane):
        n_outer = sum(1 for _ in steane.outer.codewords())
        n_inner = sum(1 for _ in steane.inner.codewords())
        assert steane.key_width == int(math.log2(n_outer / n_inner))

    def test_golay_labels(self, golay_pair):
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = random_codeword(golay_pair.outer, rng)
            w = random_codeword(golay_pair.inner, rng)
            assert golay_pair.coset_label(v) == golay_pair.coset_label(v + w)


class TestRandomCodeword:
    def test_zero_dimensional_code(self):
        trivial = LinearCode(3, 0, 1, BitMatrix(0, 3, ()), BitMatrix.identity(3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert random_codeword(trivial, rng).is_zero()

    def test_membership_by_construction(self, hamming):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert hamming.contains(random_codeword(hamming, rng))

    def test_uniformity(self, hamming):
        rng = np.random.default_rng(42)
        draws = 100_000
        counts: dict[int, int] = {}
        for _ in range(draws):
            w = random_codeword(hamming, rng).word
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
        assert back.generator == hamming.generator
        assert back.parity_check == hamming.parity_check
        assert (back.n, back.k, back.d) == (7, 4, 3)

    def test_pair_round_trip(self, steane):
        text = format_pair(steane)
        back = parse_pair(text)
        assert back.key_width == 1
        assert back.outer.generator == steane.outer.generator
        assert back.inner.generator == steane.inner.generator

    def test_comments_and_blanks_skipped(self):
        text = "# hamming\n\n" + format_code(make_hamming_7_4())
        assert parse_code(text).n == 7

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_code("7 4\n")

    def test_bad_row(self):
        text = "3 1 1\n10x\n100\n010\n"
        with pytest.raises(ValueError, match="row"):
            parse_code(text)

    def test_pair_needs_separator(self):
        with pytest.raises(ValueError, match="separator"):
            parse_pair(format_code(make_hamming_7_4()))

    def test_invalid_code_content_rejected(self):
        # rank-deficient generator
        text = "3 2 1\n110\n110\n100\n"
        with pytest.raises(ValueError, match="rank"):
            parse_code(text)

import itertools
import math

import numpy as np
import pytest

from bb84sim.channel import AttackModel, Basis, _measure, attack_arrays, channel_draws
from bb84sim.errors import ConfigError
from oracle import attack_arrays_reference


def all_states():
    # (prep_basis, prep_bit) arrays over the four prepare-and-measure states
    prep_basis = np.array([Basis.Z, Basis.Z, Basis.X, Basis.X], dtype=np.uint8)
    prep_bit = np.array([0, 1, 0, 1], dtype=np.uint8)
    return prep_basis, prep_bit


def tamper(attack, n, seed):
    """attack_arrays on one transmission of fresh channel words: raw words
    for the uniforms, then fair bits for the interceptor's bases."""
    bit_generator = np.random.PCG64(seed)
    words = bit_generator.random_raw((1, channel_draws(attack, n)[0]))
    bases = np.random.Generator(bit_generator).integers(0, 2, size=(1, n), dtype=np.uint8)
    flip, eve = attack_arrays(attack, n, words, bases)
    return flip[0], None if eve is None else eve[0]


def untouched(n):
    return np.zeros(n, dtype=np.uint8), np.full(n, -1, dtype=np.int8)


def bits(*values):
    return np.array(values, dtype=np.uint8)


def reference_bit(prep_basis, prep_bit, flip, eve_basis, bob_basis, coin):
    # scalar truth table the batch measurement must reproduce
    if eve_basis >= 0 and eve_basis != prep_basis:
        return coin
    if bob_basis == prep_basis:
        return prep_bit ^ flip
    return coin


def intercept_error_probability_oracle():
    # exact enumeration of interceptor basis x collapse coin, receiver
    # measuring in the preparation basis
    total = 0
    errors = 0
    for prep_bit in (0, 1):
        for eve_basis in (0, 1):
            prep_basis = 0
            if eve_basis == prep_basis:
                for _ in (0, 1):  # coin value irrelevant, outcome deterministic
                    total += 1
                    errors += 0
            else:
                for coin in (0, 1):
                    total += 1
                    errors += 1 if coin != prep_bit else 0
    return errors / total


class TestAttackModel:
    def test_kinds_validate(self):
        with pytest.raises(ConfigError):
            AttackModel("jamming")
        with pytest.raises(ConfigError):
            AttackModel.bitflip(1.5)
        with pytest.raises(ConfigError):
            AttackModel("bitflip", probability=0.1, positions=(1,))

    def test_correlated_position_bounds_checked_at_transmit(self):
        attack = AttackModel.correlated_positions([3, 9], 1.0)
        with pytest.raises(ConfigError, match="outside transmission length"):
            tamper(attack, 4, 0)


class TestTransmit:
    def test_none_is_identity(self):
        flip, eve = tamper(AttackModel.none(), 4, 0)
        assert not flip.any()
        assert eve is None

    def test_certain_bitflip(self):
        flip, eve = tamper(AttackModel.bitflip(1.0), 4, 1)
        assert flip.all()
        assert eve is None

    def test_zero_bitflip(self):
        flip, _ = tamper(AttackModel.bitflip(0.0), 4, 2)
        assert not flip.any()

    def test_full_intercept_marks_every_record(self):
        flip, eve = tamper(AttackModel.intercept_resend(1.0), 40, 3)
        assert (eve >= 0).all()
        assert not flip.any()

    def test_correlated_touches_only_listed_positions(self):
        attack = AttackModel.correlated_positions([2, 11, 17], 1.0)
        flip, eve = tamper(attack, 20, 4)
        assert set(np.flatnonzero(flip)) == {2, 11, 17}
        assert eve is None

    @pytest.mark.parametrize("attack", [
        AttackModel.none(), AttackModel.bitflip(0.3), AttackModel.intercept_resend(0.5),
        AttackModel.correlated_positions([0, 7, 7, 30, 49], 0.5)])
    def test_words_give_the_generator_draws(self, attack):
        # the same stream drawn as words and as Generator calls; no
        # interceptor bases stand for the reference's all -1 ones
        for seed in range(20):
            flip, eve = tamper(attack, 50, seed)
            want_flip, want_eve = attack_arrays_reference(attack, 50, np.random.default_rng(seed))
            assert flip.dtype == want_flip.dtype and np.array_equal(flip, want_flip), seed
            if eve is None:
                assert attack.kind != "intercept_resend" and (want_eve == -1).all(), seed
            else:
                assert eve.dtype == want_eve.dtype and np.array_equal(eve, want_eve), seed

    @pytest.mark.parametrize("p", [0.0, 2.0 ** -53, 0.03, 0.5, 1 - 2.0 ** -53, 1.0])
    def test_uniforms_below_p_at_the_word_boundary(self, p):
        # words on both sides of the one that makes p itself, and the
        # extremes, against the uniforms Generator.random makes of them
        c = min(math.ceil(p * 2 ** 53), 2 ** 53 - 1)
        edges = [0, 1, 2 ** 64 - 1] + [max(u, 0) << 11 | low for u in (c - 1, c)
                                        for low in (0, 2047)]
        words = np.array([edges], dtype=np.uint64)
        below = (words >> 11) * 2.0 ** -53 < p
        bases = np.arange(words.size, dtype=np.uint8)[None] % 2
        flip, _ = attack_arrays(AttackModel.bitflip(p), words.size, words, bases)
        assert np.array_equal(flip, below.view(np.uint8))
        _, eve = attack_arrays(AttackModel.intercept_resend(p), words.size, words, bases)
        assert eve.dtype == np.int8
        assert np.array_equal(eve, np.where(below, bases.view(np.int8), -1))

    def test_intercept_error_rate_oracle_and_monte_carlo(self):
        assert intercept_error_probability_oracle() == 0.25
        rng = np.random.default_rng(8)
        n = 1_000_000
        prep_basis = rng.integers(0, 2, n, dtype=np.uint8)
        prep_bit = rng.integers(0, 2, n, dtype=np.uint8)
        flip, eve = tamper(AttackModel.intercept_resend(1.0), n, 80)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        # receiver measures in the preparation basis (the sifted case)
        got = _measure(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        err = float(np.mean(got != prep_bit))
        tol = 3 * math.sqrt(0.25 * 0.75 / n)
        assert abs(err - 0.25) < tol


class TestMeasure:
    @pytest.mark.parametrize("intercepted", [True, False], ids=["int8", "None"])
    def test_exhaustive_truth_table(self, intercepted):
        # every input combination; with no interceptor array, every
        # combination of the positions no one intercepted (-1)
        eve_bases = (-1, 0, 1) if intercepted else (-1,)
        combos = list(itertools.product((0, 1), (0, 1), (0, 1), eve_bases, (0, 1), (0, 1)))
        columns = [np.array(col, dtype=np.int8) for col in zip(*combos)]
        prep_basis, prep_bit, flip, _, bob, coin = (col.view(np.uint8) for col in columns)
        eve = columns[3] if intercepted else None
        got = _measure(prep_basis, prep_bit, flip, eve, bob, coin)
        expected = np.array([reference_bit(*c) for c in combos], dtype=np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, expected)

    def test_matched_basis_clean(self):
        prep_basis = np.array([Basis.Z, Basis.X], dtype=np.uint8)
        prep_bit = np.array([0, 1], dtype=np.uint8)
        flip, eve = untouched(2)
        coin = 1 - prep_bit  # a deterministic outcome ignores the coin
        got = _measure(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        assert list(got) == [0, 1]

    def test_flip_flag_honored(self):
        _, eve = untouched(1)
        got = _measure(bits(Basis.Z), bits(0), bits(1), eve, bits(Basis.Z), bits(0))
        assert list(got) == [1]

    def test_mismatched_basis_is_fair_coin(self):
        rng = np.random.default_rng(9)
        n = 100_000
        zeros, eve = untouched(n)  # state Z,0 measured in X
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = _measure(zeros, zeros, zeros, eve, np.ones(n, dtype=np.uint8), coin)
        assert np.array_equal(got, coin)
        tol = 3 * math.sqrt(0.25 / n)
        assert abs(float(np.mean(got)) - 0.5) < tol

    def test_mismatched_basis_coin_bulk(self):
        # same check at one million samples
        rng = np.random.default_rng(10)
        n = 1_000_000
        zeros = np.zeros(n, dtype=np.uint8)
        eve = np.full(n, -1, dtype=np.int8)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = _measure(zeros, zeros, zeros, eve, np.ones(n, dtype=np.uint8), coin)
        tol = 3 * math.sqrt(0.25 / n)
        assert abs(float(np.mean(got)) - 0.5) < tol

    def test_identity_on_clean_matched_channel(self):
        prep_basis, prep_bit = all_states()
        flip, eve = tamper(AttackModel.none(), 4, 0)
        coin = 1 - prep_bit
        got = _measure(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        assert np.array_equal(got, prep_bit)

    def test_scrambled_record_random_even_in_prep_basis(self):
        # interception in the wrong basis leaves a fair coin even where the
        # receiver measures in the preparation basis
        rng = np.random.default_rng(12)
        n = 50_000
        zeros = np.zeros(n, dtype=np.uint8)  # state Z,0 measured in Z
        eve = np.full(n, Basis.X, dtype=np.int8)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = _measure(zeros, zeros, zeros, eve, zeros, coin)
        assert np.array_equal(got, coin)
        tol = 3 * math.sqrt(0.25 / n)
        assert abs(float(np.mean(got)) - 0.5) < tol


class TestChannelStatistics:
    def test_bitflip_sifted_error_rate(self):
        p = 0.1
        rng = np.random.default_rng(21)
        n = 200_000
        prep_basis = rng.integers(0, 2, n, dtype=np.uint8)
        prep_bit = rng.integers(0, 2, n, dtype=np.uint8)
        flip, eve = tamper(AttackModel.bitflip(p), n, 210)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = _measure(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        err = float(np.mean(got != prep_bit))
        assert abs(err - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_intercept_fraction_scales_error(self):
        f = 0.4
        rng = np.random.default_rng(22)
        n = 400_000
        prep_basis = rng.integers(0, 2, n, dtype=np.uint8)
        prep_bit = rng.integers(0, 2, n, dtype=np.uint8)
        flip, eve = tamper(AttackModel.intercept_resend(f), n, 220)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = _measure(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        err = float(np.mean(got != prep_bit))
        expected = f / 4
        assert abs(err - expected) < 3 * math.sqrt(expected * (1 - expected) / n)

import math

import numpy as np
import pytest

from bb84sim.channel import AttackModel, Basis, attack_arrays, channel_draws, measure_bits
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
    return flip[0], eve[0]


def untouched(n):
    return np.zeros(n, dtype=np.uint8), np.full(n, -1, dtype=np.int8)


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
        assert (eve == -1).all()

    def test_certain_bitflip(self):
        flip, eve = tamper(AttackModel.bitflip(1.0), 4, 1)
        assert flip.all()
        assert (eve == -1).all()

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
        assert (eve == -1).all()

    @pytest.mark.parametrize("attack", [
        AttackModel.none(), AttackModel.bitflip(0.3), AttackModel.intercept_resend(0.5),
        AttackModel.correlated_positions([0, 7, 7, 30, 49], 0.5)])
    def test_words_give_the_generator_draws(self, attack):
        # the same stream drawn as words and as Generator calls
        for seed in range(20):
            reference = attack_arrays_reference(attack, 50, np.random.default_rng(seed))
            for got, want in zip(tamper(attack, 50, seed), reference):
                assert got.dtype == want.dtype and np.array_equal(got, want), seed

    def test_intercept_error_rate_oracle_and_monte_carlo(self):
        assert intercept_error_probability_oracle() == 0.25
        rng = np.random.default_rng(8)
        n = 1_000_000
        prep_basis = rng.integers(0, 2, n, dtype=np.uint8)
        prep_bit = rng.integers(0, 2, n, dtype=np.uint8)
        flip, eve = tamper(AttackModel.intercept_resend(1.0), n, 80)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        # receiver measures in the preparation basis (the sifted case)
        got = measure_bits(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        err = float(np.mean(got != prep_bit))
        tol = 3 * math.sqrt(0.25 * 0.75 / n)
        assert abs(err - 0.25) < tol


class TestMeasure:
    def test_matched_basis_clean(self):
        prep_basis = np.array([Basis.Z, Basis.X], dtype=np.uint8)
        prep_bit = np.array([0, 1], dtype=np.uint8)
        flip, eve = untouched(2)
        coin = 1 - prep_bit  # a deterministic outcome ignores the coin
        got = measure_bits(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        assert list(got) == [0, 1]

    def test_flip_flag_honored(self):
        _, eve = untouched(1)
        got = measure_bits([Basis.Z], [0], [1], eve, [Basis.Z], [0])
        assert list(got) == [1]

    def test_mismatched_basis_is_fair_coin(self):
        rng = np.random.default_rng(9)
        n = 100_000
        zeros, eve = untouched(n)  # state Z,0 measured in X
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = measure_bits(zeros, zeros, zeros, eve, np.ones(n, dtype=np.uint8), coin)
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
        got = measure_bits(zeros, zeros, zeros, eve, np.ones(n, dtype=np.uint8), coin)
        tol = 3 * math.sqrt(0.25 / n)
        assert abs(float(np.mean(got)) - 0.5) < tol

    def test_identity_on_clean_matched_channel(self):
        prep_basis, prep_bit = all_states()
        flip, eve = tamper(AttackModel.none(), 4, 0)
        coin = 1 - prep_bit
        got = measure_bits(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        assert np.array_equal(got, prep_bit)

    def test_scrambled_record_random_even_in_prep_basis(self):
        # interception in the wrong basis leaves a fair coin even where the
        # receiver measures in the preparation basis
        rng = np.random.default_rng(12)
        n = 50_000
        zeros = np.zeros(n, dtype=np.uint8)  # state Z,0 measured in Z
        eve = np.full(n, Basis.X, dtype=np.int8)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        got = measure_bits(zeros, zeros, zeros, eve, zeros, coin)
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
        got = measure_bits(prep_basis, prep_bit, flip, eve, prep_basis, coin)
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
        got = measure_bits(prep_basis, prep_bit, flip, eve, prep_basis, coin)
        err = float(np.mean(got != prep_bit))
        expected = f / 4
        assert abs(err - expected) < 3 * math.sqrt(expected * (1 - expected) / n)

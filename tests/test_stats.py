import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bb84sim.errors import ConfigError
from bb84sim.stats import (
    RecursionModel,
    SamplingModel,
    UNDERFLOW_FLOOR,
    cheat_probability,
    cheat_probability_binomial,
    confidence_threshold,
    iterate_error_rate,
    sigma,
)


class TestSigma:
    def test_reference_point(self):
        # sqrt(0.1 * 0.9 / 1000), about 0.949%
        assert abs(sigma(SamplingModel(0.10, 1000)) - 0.009487) < 1e-6

    def test_degenerate_rates(self):
        assert sigma(SamplingModel(0.0, 50)) == 0.0
        assert sigma(SamplingModel(1.0, 50)) == 0.0

    def test_by_hand(self):
        # sqrt(0.25 / 4)
        assert sigma(SamplingModel(0.5, 4)) == 0.25

    @given(st.floats(0.001, 0.999), st.integers(1, 10**6))
    def test_maximized_at_half(self, r, n):
        assert sigma(SamplingModel(r, n)) <= sigma(SamplingModel(0.5, n)) + 1e-15

    @given(st.floats(0.01, 0.99), st.integers(1, 10**5))
    def test_decreasing_in_n(self, r, n):
        assert sigma(SamplingModel(r, 2 * n)) < sigma(SamplingModel(r, n))

    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplingModel(-0.1, 10)
        with pytest.raises(ConfigError):
            SamplingModel(0.1, 0)


class TestConfidenceThreshold:
    def test_reference_points(self):
        model = SamplingModel(0.10, 1000)
        assert abs(confidence_threshold(model, 2.57) - 0.1244) < 0.0005
        assert abs(confidence_threshold(model, 20.0) - 0.2897) < 0.0005

    def test_zero_multiplier(self):
        assert confidence_threshold(SamplingModel(0.07, 33), 0.0) == 0.07

    def test_clamped(self):
        assert confidence_threshold(SamplingModel(0.5, 2), 10.0) == 1.0

    @given(st.floats(0.01, 0.5), st.integers(10, 10**4),
           st.floats(0, 10), st.floats(0, 5))
    def test_monotone_in_z(self, r, n, z, dz):
        model = SamplingModel(r, n)
        assert confidence_threshold(model, z + dz) >= confidence_threshold(model, z)

    @given(st.floats(0.01, 0.45), st.floats(0.0, 0.05), st.integers(10, 10**4),
           st.floats(0, 10))
    def test_monotone_in_r(self, r, dr, n, z):
        low = confidence_threshold(SamplingModel(r, n), z)
        high = confidence_threshold(SamplingModel(r + dr, n), z)
        assert high >= low - 1e-12


class TestCheatProbability:
    def test_reference_point(self):
        # the worked example: 10% observed on 1000 bits against a 12.4%
        # threshold leaves about a 1% chance the code bits are worse
        got = cheat_probability(SamplingModel(0.10, 1000), 0.124)
        assert abs(got - 0.010) < 0.001

    def test_threshold_equals_rate(self):
        assert cheat_probability(SamplingModel(0.2, 100), 0.2) == pytest.approx(0.5)
        assert cheat_probability(SamplingModel(0.2, 100), 0.2, sigma_at="estimate") == pytest.approx(0.5)

    def test_estimate_direction_smaller_here(self):
        model = SamplingModel(0.10, 1000)
        assert cheat_probability(model, 0.124, sigma_at="estimate") < cheat_probability(model, 0.124)

    def test_binomial_small_case_direct_sum(self):
        # oracle: direct summation of C(10,k) 0.1^k 0.9^(10-k) for k >= 4
        expected = sum(math.comb(10, k) * 0.1**k * 0.9 ** (10 - k) for k in range(4, 11))
        got = cheat_probability_binomial(SamplingModel(0.1, 10), 0.35)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_binomial_log_space_matches_exact(self):
        # the log-space branch against exact rational summation
        from fractions import Fraction

        n, r, thr = 300, 0.1, 0.124
        got = cheat_probability_binomial(SamplingModel(r, n), thr)
        p = Fraction(r)
        k_min = int(math.floor(n * thr)) + 1
        exact = float(sum(math.comb(n, k) * p**k * (1 - p) ** (n - k)
                          for k in range(k_min, n + 1)))
        assert got == pytest.approx(exact, rel=1e-9)
        big = cheat_probability_binomial(SamplingModel(0.1, 100_000), 0.103)
        assert 0.0 < big < 1.0

    def test_binomial_rate_above_threshold_direct_sum(self):
        # full intercept-resend on 49 check bits at threshold 0.124: the tail
        # P[Bin(49, 1/4) >= 7] is the abort probability
        expected = math.fsum(math.comb(49, k) * 0.25**k * 0.75 ** (49 - k) for k in range(7, 50))
        got = cheat_probability_binomial(SamplingModel(0.25, 49), 0.124)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.976988, abs=1e-6)
        # every sample exceeds a negative threshold
        assert cheat_probability_binomial(SamplingModel(0.25, 49), -0.1) == 1.0

    def test_binomial_log_space_rate_above_threshold(self):
        # the log-space branch where the tail holds the bulk of the mass,
        # against exact rational summation, and where the first tail term
        # underflows
        from fractions import Fraction

        n, r, thr = 161, 0.25, 0.124
        got = cheat_probability_binomial(SamplingModel(r, n), thr)
        p = Fraction(r)
        exact = float(sum(math.comb(n, k) * p**k * (1 - p) ** (n - k)
                          for k in range(20, n + 1)))
        assert got == pytest.approx(exact, rel=1e-12)
        assert cheat_probability_binomial(SamplingModel(0.25, 100_000), 0.124) == 1.0

    def test_gaussian_binomial_agreement_band(self):
        # the normal approximation tracks the exact tail within 0.01 absolute
        # for n >= 1000 across the operating band
        for r in (0.05, 0.10, 0.15, 0.25):
            for n in (1000, 5000):
                model = SamplingModel(r, n)
                thr = confidence_threshold(model, 2.0)
                g = cheat_probability(model, thr)
                b = cheat_probability_binomial(model, thr)
                assert abs(g - b) < 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            cheat_probability(SamplingModel(0.3, 10), 0.2)
        with pytest.raises(ConfigError):
            cheat_probability(SamplingModel(0.1, 10), 0.2, sigma_at="elsewhere")


class TestRecursion:
    def test_first_step_value(self):
        seq = iterate_error_rate(RecursionModel(0.3, 0.01), 1)
        assert seq[0] == pytest.approx(math.exp(-9), rel=1e-12)

    def test_super_exponential_collapse(self):
        seq = iterate_error_rate(RecursionModel(0.3, 0.01), 3)
        assert seq[0] == pytest.approx(1.23410e-4, rel=1e-5)
        assert 0.0 < seq[1] < 1e-300
        assert seq[2] == UNDERFLOW_FLOOR
        assert seq[0] > seq[1] > seq[2]

    def test_boundary_towards_one(self):
        # tiny T against large r0: exponent near zero, rate near 1 from below
        seq = iterate_error_rate(RecursionModel(1e-6, 0.999), 1)
        assert 0.99 < seq[0] < 1.0

    def test_floor_is_absorbing(self):
        seq = iterate_error_rate(RecursionModel(0.3, 0.01), 6)
        assert seq[-1] == UNDERFLOW_FLOOR
        assert seq[-2] == UNDERFLOW_FLOOR

    def test_exponent_below_rounding_stays_at_one(self):
        # T^2 / r0 = 2e-20 is below half an ulp of 1.0, so exp gives 1.0 and
        # every later step divides by 1.0
        assert iterate_error_rate(RecursionModel(1e-10, 0.5), 12) == [1.0] * 12

    def test_tiny_start_floors_at_step_one(self):
        # T^2 / r0 is about 1e300, so exp underflows at once; from the floor
        # T^2 / r is inf, and exp(-inf) is 0 again
        seq = iterate_error_rate(RecursionModel(0.999999, 1e-300), 12)
        assert seq == [UNDERFLOW_FLOOR] * 12

    @given(st.floats(0.05, 0.9), st.floats(1e-6, 0.9))
    # converges to the upper fixed point r* = exp(-T^2 / r*) ~ 0.99387770476,
    # where the condition margin (5e-17) lies below rounding
    @example(T=0.078125, r0=0.75)
    def test_decreasing_once_condition_holds(self, T, r0):
        # r * ln(1/r) < T^2 forces the next value below the current one, by
        # about the margin T^2 - r * ln(1/r).  Where that margin is within
        # rounding of zero (at a fixed point) the step is rounding-sized too.
        model = RecursionModel(T, r0)
        seq = [r0] + iterate_error_rate(model, 8)
        rounding = 1e-12 * T * T
        for current, following in zip(seq, seq[1:]):
            if current <= UNDERFLOW_FLOOR:
                break
            margin = T * T - current * math.log(1.0 / current)
            if margin > rounding:
                assert following < current or following == UNDERFLOW_FLOOR
            elif margin > 0:
                assert abs(following - current) <= rounding + 4 * math.ulp(current)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RecursionModel(0.0, 0.1)
        with pytest.raises(ConfigError):
            RecursionModel(0.3, 1.0)
        with pytest.raises(ConfigError):
            iterate_error_rate(RecursionModel(0.3, 0.1), 0)


class TestMonteCarloClosure:
    def test_check_error_dispersion_matches_sampling_model(self):
        # link the sampling formula to the simulator: the spread of observed
        # check error rates over independent flip-noise runs is sigma(p, 49)
        from bb84sim.channel import AttackModel
        from bb84sim.codes import builtin_pair
        from bb84sim.protocol import ProtocolConfig, run_protocol

        steane = builtin_pair("steane")
        p = 0.10
        rates = []
        for seed in range(300):
            cfg = ProtocolConfig(stage1_pair=steane, stage2_pair=steane,
                                 abort_threshold=0.124, rng_seed=seed)
            outcome, _ = run_protocol(cfg, AttackModel.bitflip(p))
            rates.append(outcome.observed_check_error_rate)
        observed = float(np.std(rates, ddof=1))
        predicted = sigma(SamplingModel(p, 49))
        assert abs(observed - predicted) / predicted < 0.20

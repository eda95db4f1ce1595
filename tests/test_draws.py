"""The chunk's word draws against the Generator calls that define the streams.

`protocol._draw_quantum` takes each attempt of the quantum phase as one word
draw per generator and derives every bit and uniform from those words in
array passes (see protocol.py and channel.py).  `oracle.draw_quantum_reference`
takes the same attempt call by call.  Here both run steane/steane at
delta=0.04: n=203 qubits, so a row of bits is ceil(203/4) = 51 words, an odd
count.  The channel's halves then leave a half over after every first
attempt, which the next attempt must start with; 180 restarts in 123 of the
400 trials take that path, and a trial restarting twice or more also draws
an attempt with no half left over.
"""

import functools

import numpy as np
import pytest

from bb84sim.channel import AttackModel
from bb84sim.codes import builtin_pair
from bb84sim.protocol import ProtocolConfig, _draw_quantum
from oracle import draw_quantum_reference

CONFIG = ProtocolConfig(builtin_pair("steane"), builtin_pair("steane"), abort_threshold=0.124,
                        delta=0.04, max_restarts=1000)
SEEDS = 400
ARRAYS = ("bits", "b", "bob_bases", "flip", "eve", "coins", "kept", "check", "code")
ATTACKS = {
    "none": AttackModel.none(),
    "bitflip": AttackModel.bitflip(0.04),
    "intercept_resend": AttackModel.intercept_resend(0.3),
    "correlated_positions": AttackModel.correlated_positions(
        range(0, CONFIG.transmitted_count, 3), 0.05),
}


def next_draws(party):
    """What a party generator draws next: 32-bit words, which show a buffered
    half-word, then uniforms."""
    return party.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), party.random(2).tolist()


@functools.cache
def reference(kind):
    """Per seed: the reference draws and the party generator's next draws."""
    trials = []
    for seed in range(SEEDS):
        draws, party = draw_quantum_reference(CONFIG, ATTACKS[kind], seed)
        trials.append((draws, next_draws(party)))
    return trials


def test_setting_reaches_the_carry():
    assert CONFIG.transmitted_count == 203 and -(-203 // 4) % 2 == 1
    restarts = [draws["restarts"] for draws, _ in reference("bitflip")]
    assert (sum(restarts), np.count_nonzero(restarts), max(restarts)) == (180, 123, 5)


@pytest.mark.parametrize("chunk", [1, 37])
@pytest.mark.parametrize("kind", list(ATTACKS))
def test_chunk_draws_equal_generator_calls(kind, chunk):
    expected = reference(kind)
    for start in range(0, SEEDS, chunk):
        seeds = list(range(start, min(start + chunk, SEEDS)))
        draws, parties = _draw_quantum(CONFIG, ATTACKS[kind], seeds)
        for i, seed in enumerate(seeds):
            want, want_next = expected[seed]
            for key in ARRAYS:
                got = draws[key][i]
                assert got.dtype == want[key].dtype, (seed, key)
                assert np.array_equal(got, want[key]), (seed, key)
            assert int(draws["matched"][i]) == want["matched"], seed
            assert int(draws["restarts"][i]) == want["restarts"], seed
            assert next_draws(parties[i]) == want_next, seed

"""The chunk's word draws against the Generator calls that define the streams.

`protocol._draw_quantum` builds each trial's generators from words hashed
as SeedSequence hashes them (`protocol._stream_states`), takes each attempt
of the quantum phase as one word draw per generator and derives every bit
and uniform from those words in array passes (see protocol.py and
channel.py).  `oracle.draw_quantum_reference` takes the same attempt call by
call from the children of ``SeedSequence(seed).spawn(2)``.  Here both run
steane/steane at two deltas:

- delta=0.04: n=203 qubits, so a row of bits is ceil(203/4) = 51 words, an
  odd count.  The party's three rows, 153 words, then end on a low half, and
  every second attempt starts with the high half PCG64 keeps buffered (so
  the party draws them with the Generator call); the channel's halves leave
  a half over after every first attempt, which the next attempt must start
  with.  180 restarts in 123 of the 400 trials take those paths, and a trial
  restarting twice or more also draws an attempt with no half left over.
- delta=0.1, the default: n=215, 54 words to a row, so the party's 162
  words are 81 raw words with no half to buffer.
"""

import functools

import numpy as np
import pytest

from bb84sim.channel import AttackModel
from bb84sim.codes import builtin_pair
from bb84sim.protocol import ProtocolConfig, _draw_quantum, _stream_states
from oracle import draw_quantum_reference

CONFIGS = {
    delta: ProtocolConfig(builtin_pair("steane"), builtin_pair("steane"), abort_threshold=0.124,
                          delta=delta, max_restarts=1000)
    for delta in (0.04, 0.1)
}
SEEDS = 400
ARRAYS = ("bits", "b", "bob_bases", "flip", "eve", "coins", "kept", "check", "code")
KINDS = ["none", "bitflip", "intercept_resend", "correlated_positions"]


def attack(kind, config):
    """The attack of each kind; correlated_positions takes every third position."""
    return {
        "none": AttackModel.none(),
        "bitflip": AttackModel.bitflip(0.04),
        "intercept_resend": AttackModel.intercept_resend(0.3),
        "correlated_positions": AttackModel.correlated_positions(
            range(0, config.transmitted_count, 3), 0.05),
    }[kind]


def next_draws(party):
    """What a party generator draws next: 32-bit words, which show a buffered
    half-word, then uniforms."""
    return party.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), party.random(2).tolist()


@functools.cache
def reference(delta, kind):
    """Per seed: the reference draws and the party generator's next draws."""
    config = CONFIGS[delta]
    trials = []
    for seed in range(SEEDS):
        draws, party = draw_quantum_reference(config, attack(kind, config), seed)
        trials.append((draws, next_draws(party)))
    return trials


def test_setting_reaches_the_carry():
    odd = CONFIGS[0.04]
    assert odd.transmitted_count == 203 and 3 * -(-203 // 4) == 153
    restarts = [draws["restarts"] for draws, _ in reference(0.04, "bitflip")]
    assert (sum(restarts), np.count_nonzero(restarts), max(restarts)) == (180, 123, 5)


def test_setting_draws_even_words():
    even = CONFIGS[0.1]
    assert even.transmitted_count == 215 and 3 * -(-215 // 4) == 162


def check_chunk_draws(delta, kind, chunk):
    """The chunk's draws at `delta`, in chunks of `chunk` seeds, against the reference."""
    config = CONFIGS[delta]
    expected = reference(delta, kind)
    for start in range(0, SEEDS, chunk):
        seeds = list(range(start, min(start + chunk, SEEDS)))
        draws, parties = _draw_quantum(config, attack(kind, config), seeds)
        for i, seed in enumerate(seeds):
            want, want_next = expected[seed]
            for key in ARRAYS:
                if draws[key] is None:
                    # no interceptor bases: the reference's are all -1
                    assert key == "eve" and (want[key] == -1).all(), (seed, key)
                    continue
                got = draws[key][i]
                assert got.dtype == want[key].dtype, (seed, key)
                assert np.array_equal(got, want[key]), (seed, key)
            assert int(draws["matched"][i]) == want["matched"], seed
            assert int(draws["restarts"][i]) == want["restarts"], seed
            assert next_draws(parties[i]) == want_next, seed


@pytest.mark.parametrize("chunk", [1, 37])
@pytest.mark.parametrize("kind", KINDS)
def test_chunk_draws_equal_generator_calls(kind, chunk):
    check_chunk_draws(0.04, kind, chunk)


@pytest.mark.parametrize("chunk", [1, 37])
@pytest.mark.parametrize("kind", KINDS)
def test_even_word_draws_equal_generator_calls(kind, chunk):
    check_chunk_draws(0.1, kind, chunk)


def seed_sequence_states(seed):
    """The party's and the channel's PCG64 seed words, from SeedSequence."""
    return np.array([np.random.SeedSequence(seed, spawn_key=(j,)).generate_state(4, np.uint64)
                     for j in (0, 1)])


# the word boundaries of SeedSequence's entropy, the pool's four words among them
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 10**18 - 1, 2**128 - 1, 2**128 + 5, 2**200]


def random_seeds(count=2000):
    """Seeds of 0 to 320 bits, so that up to ten words of entropy occur."""
    rng = np.random.default_rng(12)
    return [int.from_bytes(rng.bytes(40), "little") >> int(shift)
            for shift in rng.integers(0, 321, size=count)]


@pytest.mark.parametrize("chunk", [1, 37, 2009])
def test_stream_states_equal_seed_sequence(chunk):
    seeds = EDGE_SEEDS + random_seeds()
    for start in range(0, len(seeds), chunk):
        batch = seeds[start:start + chunk]
        got = _stream_states(batch)
        assert got.dtype == np.uint64 and got.shape == (len(batch), 2, 4)
        for seed, states in zip(batch, got):
            assert np.array_equal(states, seed_sequence_states(seed)), seed


def test_stream_states_take_integer_seeds_only():
    got = _stream_states([np.int64(7), True])
    assert np.array_equal(got, [seed_sequence_states(7), seed_sequence_states(1)])
    with pytest.raises(ValueError):
        _stream_states([3, -1])
    for seed in (1.0, "5", [1, 2], None):
        with pytest.raises(TypeError):
            _stream_states([seed])

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

`protocol._draw_stages` goes on drawing from each party generator after
sifting: per stage it shuffles each trial's row of a preallocated order
array in place and draws float32 uniforms whose top bits are the
coefficients.  `oracle.draw_stages_reference` makes the calls that define
those draws, ``permutation`` of the stage's input and
``integers(0, 2, size=(blocks, k))``, on the reference's party generators.
The two are compared value for value, and in the state each party
generator is left in, for steane/steane, golay/golay, steane/golay and the
simplex pair as both stages (key width 3, so stage 2 permutes 21 key bits),
with and without random assignment, in chunks of 1 and 37, at both deltas.
Sifting's ``choice`` draws leave PCG64 holding a buffered half-word after
some trials and not after others, so both starts are taken; a fault in
either identity the stage draws rest on (a float32 uniform is
``next_uint32 >> 8``, ``permutation`` is a copy and ``shuffle``) fails it.
"""

import functools

import numpy as np
import pytest

from bb84sim.channel import AttackModel
from bb84sim.codes import builtin_pair
from bb84sim.protocol import ProtocolConfig, _draw_quantum, _draw_stages, _stream_states
from oracle import draw_quantum_reference, draw_stages_reference
from test_engine_equivalence import simplex_pair

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


STAGE_PAIRS = {
    "steane": ("steane", "steane"),
    "golay": ("golay", "golay"),
    "steane-golay": ("steane", "golay"),
    "simplex": ("simplex", "simplex"),
}
STAGE_SEEDS = 74


@functools.cache
def stage_config(pairs, delta, random_assignment):
    stage1, stage2 = (simplex_pair() if name == "simplex" else builtin_pair(name)
                      for name in STAGE_PAIRS[pairs])
    return ProtocolConfig(stage1, stage2, abort_threshold=0.124, delta=delta,
                          random_assignment=random_assignment)


@functools.cache
def stage_reference(pairs, delta, random_assignment):
    """Per seed: each stage's reference order and coefficients, and the
    party generator's next draws."""
    config = stage_config(pairs, delta, random_assignment)
    trials = []
    for seed in range(STAGE_SEEDS):
        draws, party = draw_quantum_reference(config, AttackModel.none(), seed)
        stages = draw_stages_reference(config, [party], draws["code"][None])
        trials.append(([(order[0], coeffs[0]) for order, coeffs in stages], next_draws(party)))
    return trials


def test_stage_settings_reach_both_starts():
    """Some trials start their stage draws on a buffered half-word and some
    do not, and the simplex pair's stage 2 permutes its 21 key bits."""
    config = stage_config("simplex", 0.1, True)
    assert config.block_counts == (7, 3) and config.pairs[0].key_width == 3
    for delta in (0.04, 0.1):
        starts = set()
        for seed in range(STAGE_SEEDS):
            _, party = draw_quantum_reference(stage_config("steane", delta, True),
                                              AttackModel.none(), seed)
            starts.add(party.bit_generator.state["has_uint32"])
        assert starts == {0, 1}, delta


@pytest.mark.parametrize("delta", [0.04, 0.1])
@pytest.mark.parametrize("chunk", [1, 37])
@pytest.mark.parametrize("random_assignment", [True, False])
@pytest.mark.parametrize("pairs", list(STAGE_PAIRS))
def test_stage_draws_equal_generator_calls(pairs, random_assignment, chunk, delta):
    config = stage_config(pairs, delta, random_assignment)
    expected = stage_reference(pairs, delta, random_assignment)
    for start in range(0, STAGE_SEEDS, chunk):
        seeds = list(range(start, min(start + chunk, STAGE_SEEDS)))
        draws, parties = _draw_quantum(config, AttackModel.none(), seeds)
        got = _draw_stages(config, parties, draws["code"])
        for i, seed in enumerate(seeds):
            want, want_next = expected[seed]
            for s, ((order, coeffs), (want_order, want_coeffs)) in enumerate(zip(got, want)):
                assert order.dtype == np.int64 and coeffs.dtype == np.float32, (seed, s)
                assert np.array_equal(order[i], want_order), (seed, s)
                assert np.array_equal(coeffs[i], want_coeffs), (seed, s)
            assert next_draws(parties[i]) == want_next, seed


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

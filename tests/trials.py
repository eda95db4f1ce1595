"""Test-side access to a trial: flips to inject into Bob's stage words, and a
trial's transcript and Bob's record read back from its chunk's dumps.

The package keeps a trial only as its chunk's arrays: `TrialChunk.outcome`
reads its outcome and `TrialChunk.dumps` writes its files.  `read_trial`
parses those files as `bb84sim replay` does, so a test inspects or edits the
transcript the run wrote.
"""

from typing import NamedTuple

import numpy as np

from bb84sim.protocol import RunOutcome
from bb84sim.transcript import Transcript, parse_bob, parse_transcript


class Trial(NamedTuple):
    outcome: RunOutcome
    transcript: Transcript
    bob_bases: np.ndarray
    bob_bits: np.ndarray


def _read(chunk, i: int, dumped) -> Trial:
    text, bob = dumped
    bases, bits, _ = parse_bob(bob.decode("ascii"))
    return Trial(chunk.outcome(i), parse_transcript(text.decode("ascii")), bases, bits)


def read_trial(chunk) -> Trial:
    """The trial of a chunk of one, read back from its dumps."""
    return _read(chunk, 0, next(chunk.dumps()))


def read_trials(chunk) -> list:
    """Every trial of the chunk, in order, read back from its dumps."""
    return [_read(chunk, i, dumped) for i, dumped in enumerate(chunk.dumps())]


def stage_flips(config, trials: int = 1) -> list:
    """No flips: one (trials, blocks, n) uint8 zero array per stage, the
    form `run_chunk` takes its `flips` in."""
    return [np.zeros((trials, blocks, pair.n), np.uint8)
            for pair, blocks in zip(config.pairs, config.block_counts)]


def one_error_per_block(rng, config, trials: int = 1) -> list:
    """One uniformly placed flip in every block of both stages, drawn by one
    ``rng.integers(0, n)`` call per block: stage 1's blocks, trial by trial,
    then stage 2's."""
    flips = stage_flips(config, trials)
    for stage in flips:
        n = stage.shape[2]
        for block in stage.reshape(-1, n):
            block[rng.integers(0, n)] = 1
    return flips


def double_error_in_first_block(config, trials: int = 1) -> list:
    """Bits 0 and 1 of each trial's first stage-1 block flipped: beyond the
    radius of a distance-4 outer code."""
    flips = stage_flips(config, trials)
    flips[0][:, 0, :2] = 1
    return flips

"""The concatenated prepare-and-measure protocol as two communicating party
state machines with a public transcript.

One run is strictly sequential (message ordering is part of the security
logic): Alice prepares and sends, Bob measures and acknowledges, Alice
announces bases, both sift, compare check bits, then two correction and
amplification stages run over announced blocks.  Independent runs with
distinct seeds share no mutable state.

Randomness is split into two streams derived from the seed: a party stream
(preparation bits, basis strings, Bob's bases, and all of Alice's random
selections) and a channel stream (attack draws and measurement collapse
coins).  Changing the attack therefore never perturbs the parties' choices,
which makes adversarial experiments reproducible position-by-position.

Too few basis matches is a restart, not a security abort: the attempt is
discarded and the quantum phase repeats with fresh randomness, up to
``max_restarts`` (then InsufficientSiftAbort propagates).

Both correction stages run on (blocks x n) uint8 arrays, one block per row,
against the dense matrices each code pair caches (see codes.py): Alice draws
a stage's masking coefficients in one (blocks x k) draw, which consumes the
party stream exactly as one draw per block does; syndromes, codewords and
labels are one matrix product each over all blocks, and decoding is one
syndrome-table lookup per block.  The stage-1 key is the row-major
flattening of the stage-1 labels.  BitVector appears only at the boundary:
the announced masked words, the check strings and the final keys.  Replay
runs the same receiver stage function as a live run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .channel import AttackModel, attack_arrays, measure_bits
from .codes import CssPair
from .errors import (
    ConfigError,
    InsufficientSiftAbort,
    NotInCodeError,
    ProtocolDesyncError,
    TranscriptError,
)
from .gf2 import BitVector, rows_to_words, words_to_rows
from .transcript import BlockAnnouncement, Transcript

__all__ = [
    "ProtocolConfig",
    "AliceState",
    "SiftSelection",
    "RunOutcome",
    "RunArtifacts",
    "ReplayResult",
    "sift",
    "check_and_decide",
    "stage_correct_and_amplify",
    "run_protocol",
    "run_protocol_full",
    "replay_bob",
    "one_error_per_block",
]

# injector(stage, block_index, block_length) -> positions to flip in Bob's block
ErrorInjector = Callable[[int, int, int], Iterable[int]]


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one concatenated run.

    `random_assignment` is a test hook: when False, Alice's subset, check-bit,
    and block selections are the first positions in ascending order instead of
    random draws, so an adversary knows exactly which transmitted positions
    become code bits.
    """

    stage1_pair: CssPair
    stage2_pair: CssPair
    abort_threshold: float
    delta: float = 0.1
    rng_seed: int = 0
    strict_decode: bool = False
    random_assignment: bool = True
    max_restarts: int = 100

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ConfigError(f"abort threshold {self.abort_threshold} outside [0, 1]")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        # stage-1 output must tile exactly into stage-2 blocks
        if self.stage1_key_bits != self.stage2_block_count * self.n2:
            raise ProtocolDesyncError("stage-1 key bits do not tile into stage-2 blocks")

    @property
    def n1(self) -> int:
        return self.stage1_pair.n

    @property
    def n2(self) -> int:
        return self.stage2_pair.n

    @property
    def key_width1(self) -> int:
        return self.stage1_pair.key_width

    @property
    def key_width2(self) -> int:
        return self.stage2_pair.key_width

    @property
    def transmitted_count(self) -> int:
        """floor(4 * n1 * n2 * (1 + delta)) qubits per attempt."""
        import math

        return int(math.floor(4 * self.n1 * self.n2 * (1 + self.delta) + 1e-9))

    @property
    def kept_target(self) -> int:
        return 2 * self.n1 * self.n2

    @property
    def check_count(self) -> int:
        return self.n1 * self.n2

    @property
    def stage1_block_count(self) -> int:
        return self.n2

    @property
    def stage2_block_count(self) -> int:
        return self.key_width1

    @property
    def stage1_key_bits(self) -> int:
        return self.key_width1 * self.n2

    @property
    def final_key_bits(self) -> int:
        return self.key_width1 * self.key_width2


@dataclass(frozen=True)
class AliceState:
    """Alice's private record of one transmission attempt."""

    bits: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SiftSelection:
    """Alice's announced position choices after sifting."""

    kept: tuple[int, ...]
    check_positions: tuple[int, ...]
    code_positions: tuple[int, ...]
    matched_count: int


@dataclass(frozen=True)
class RunOutcome:
    aborted: bool
    abort_reason: Optional[str]  # None | "security" | "decode_failure"
    observed_check_error_rate: Optional[float]
    alice_final_key: Optional[BitVector]
    bob_final_key: Optional[BitVector]
    stage1_decode_failures: int
    stage2_decode_failures: int
    sifted_count: int
    restarts: int

    @property
    def keys_equal(self) -> Optional[bool]:
        if self.alice_final_key is None or self.bob_final_key is None:
            return None
        return self.alice_final_key == self.bob_final_key


@dataclass(frozen=True)
class RunArtifacts:
    """Run result plus the receiver-side raw data needed to dump and replay."""

    outcome: RunOutcome
    transcript: Transcript
    bob_bases: np.ndarray
    bob_bits: np.ndarray


@dataclass(frozen=True)
class ReplayResult:
    key: Optional[BitVector]
    check_error_rate: float
    aborted: bool
    stage1_decode_failures: int
    stage2_decode_failures: int


def _pack(bits: np.ndarray) -> BitVector:
    return BitVector(len(bits), rows_to_words(bits.reshape(1, -1))[0])


def _draw_preparation(config: ProtocolConfig, rng: np.random.Generator):
    """Preparation draws, in the fixed order the runner consumes them."""
    n = config.transmitted_count
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    b = rng.integers(0, 2, size=n, dtype=np.uint8)
    return bits, b


def sift(alice: AliceState, bob_bases: np.ndarray, config: ProtocolConfig,
         rng: np.random.Generator) -> SiftSelection:
    """Discard mismatched bases and let Alice pick working and check sets.

    Bob's bases must be committed before this is called; the caller enforces
    the announcement ordering by construction.

    Raises:
        InsufficientSiftAbort: fewer than 2*n1*n2 matched positions remain.
    """
    matched = np.flatnonzero(bob_bases == alice.b)
    target = config.kept_target
    if matched.size < target:
        raise InsufficientSiftAbort(
            f"{matched.size} basis-matched positions, need {target}")
    if config.random_assignment:
        kept = np.sort(rng.choice(matched, size=target, replace=False))
        check = np.sort(rng.choice(kept, size=config.check_count, replace=False))
    else:
        kept = matched[:target]
        check = kept[:config.check_count]
    in_check = np.zeros(bob_bases.shape[0], dtype=bool)
    in_check[check] = True
    code = kept[~in_check[kept]]
    return SiftSelection(
        kept=tuple(kept.tolist()),
        check_positions=tuple(check.tolist()),
        code_positions=tuple(code.tolist()),
        matched_count=int(matched.size),
    )


def check_and_decide(alice_check: BitVector, bob_check: BitVector,
                     config: ProtocolConfig) -> tuple[float, bool]:
    """Observed check-bit error rate and the abort decision.

    Raises:
        ProtocolDesyncError: the two check strings differ in length.
    """
    if alice_check.n != bob_check.n:
        raise ProtocolDesyncError(
            f"check strings differ in length: {alice_check.n} vs {bob_check.n}")
    if alice_check.n == 0:
        raise ProtocolDesyncError("empty check string")
    rate = (alice_check + bob_check).weight / alice_check.n
    return rate, rate > config.abort_threshold


def _labels(pair: CssPair, codewords: np.ndarray,
            projected: Optional[np.ndarray] = None) -> np.ndarray:
    """Coset labels of the rows of a (B, n) array of outer codewords.

    Rows flagged in the optional (B,) mask `projected` need not be codewords:
    they get the projected label (`CssPair.project_label`).

    Raises:
        NotInCodeError: an unflagged row is not an outer-code codeword.
    """
    product = codewords @ pair.check_label_t & 1
    r = pair.outer.n - pair.outer.k
    syndromes = product[:, :r] if projected is None else product[~projected, :r]
    if syndromes.any():
        raise NotInCodeError(f"{syndromes.any(axis=1).sum()} stage words are not in the outer code")
    return product[:, r:]


def stage_correct_and_amplify(pair: CssPair, blocks: np.ndarray, announcements: np.ndarray):
    """Receiver side of one stage, over (B, n) 0/1 arrays with one block per
    row: unmask, correct, and extract coset labels.

    For each block the receiver adds the announced u+v to his noisy code bits
    v+e, decodes the result u+e back to a codeword, and keeps the coset label.
    A block whose syndrome falls outside the decoding radius is flagged and
    labeled best-effort (the raw word projected as if error-free).

    Returns:
        (labels, failed): a (B, key_width) uint8 array of labels, and a (B,)
        bool array of decode-failure flags.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    announcements = np.asarray(announcements, dtype=np.uint8)
    if len(blocks) != len(announcements):
        raise ProtocolDesyncError(
            f"{len(blocks)} blocks but {len(announcements)} announcements")
    for arr in (blocks, announcements):
        if arr.ndim != 2 or arr.shape[1] != pair.n:
            raise ProtocolDesyncError(f"blocks of shape {arr.shape}, need (B, {pair.n})")
    unmasked = blocks ^ announcements  # (v+e) + (u+v) = u+e
    error, failed = pair.outer.syndrome_table().lookup_rows(
        unmasked @ pair.outer.parity_check_t & 1)
    # a failed row's error is zero, so it is labelled as the raw word
    return _labels(pair, unmasked ^ error, failed), failed


def _alice_stage(pair: CssPair, values: np.ndarray, rng: np.random.Generator):
    """Sender side of one stage: draw a codeword u per block, announce u+v,
    keep the coset label of u.

    `values` holds Alice's bits v, one block per row of a (B, n) array.  The
    (B, k) coefficient draw consumes the generator exactly as B successive
    `codes.random_codeword` draws of k coefficients do.

    Returns:
        (masked, labels): (B, n) announced words u+v and (B, key_width) labels.
    """
    coeffs = rng.integers(0, 2, size=(len(values), pair.outer.k)).astype(np.uint8)
    u = coeffs @ pair.outer.generator_array & 1
    return u ^ values, _labels(pair, u)


def _announce(stage: int, positions: np.ndarray, masked: np.ndarray):
    """One BlockAnnouncement per row of (B, n) positions and masked words."""
    n = positions.shape[1]
    return tuple(
        BlockAnnouncement(stage, i, tuple(pos), BitVector(n, word))
        for i, (pos, word) in enumerate(zip(positions.tolist(), rows_to_words(masked)))
    )


def _inject(injector: Optional[ErrorInjector], stage: int, words: np.ndarray) -> np.ndarray:
    """Apply the test injector's flips to Bob's (B, n) words, in place."""
    if injector is not None:
        n = words.shape[1]
        for i, row in enumerate(words):
            for j in injector(stage, i, n):
                if not 0 <= j < n:
                    raise IndexError(f"injected flip {j} out of range for block length {n}")
                row[j] ^= 1
    return words


def run_protocol(config: ProtocolConfig, attack: AttackModel = AttackModel.none(),
                 error_injection: Optional[ErrorInjector] = None):
    """Execute one full run; deterministic given (config.rng_seed, attack).

    Returns:
        (RunOutcome, Transcript).
    """
    artifacts = run_protocol_full(config, attack, error_injection)
    return artifacts.outcome, artifacts.transcript


def run_protocol_full(config: ProtocolConfig, attack: AttackModel = AttackModel.none(),
                      error_injection: Optional[ErrorInjector] = None) -> RunArtifacts:
    """Like run_protocol but also returns Bob's raw bases and measured bits
    (the data his replay file is built from)."""
    seed_seq = np.random.SeedSequence(config.rng_seed)
    party_seq, channel_seq = seed_seq.spawn(2)
    party = np.random.default_rng(party_seq)
    channel = np.random.default_rng(channel_seq)

    n = config.transmitted_count
    restarts = 0
    while True:
        # steps 1-2: prepare; step 3: transmit under attack; step 4: Bob
        # measures in random bases; step 5: only then is b announced (Bob's
        # bases are drawn before the channel acts, so ordering holds by
        # construction)
        bits, b = _draw_preparation(config, party)
        bob_bases = party.integers(0, 2, size=n, dtype=np.uint8)
        flip, eve = attack_arrays(attack, n, channel)
        coins = channel.integers(0, 2, size=n, dtype=np.uint8)
        bob_bits = measure_bits(b, bits, flip, eve, bob_bases, coins)
        alice = AliceState(bits=bits, b=b)
        try:
            selection = sift(alice, bob_bases, config, party)
            break
        except InsufficientSiftAbort:
            restarts += 1
            if restarts > config.max_restarts:
                raise

    check_arr = np.asarray(selection.check_positions, dtype=np.int64)
    alice_check = _pack(bits[check_arr])
    bob_check = _pack(bob_bits[check_arr])
    rate, abort = check_and_decide(alice_check, bob_check, config)

    def make_transcript(stage1=(), stage2=()):
        return Transcript(
            b=_pack(b),
            kept_positions=selection.kept,
            check_positions=selection.check_positions,
            alice_check_values=alice_check,
            bob_check_values=bob_check,
            stage1_blocks=tuple(stage1),
            stage2_blocks=tuple(stage2),
        )

    def aborted_outcome(reason):
        return RunOutcome(
            aborted=True,
            abort_reason=reason,
            observed_check_error_rate=rate,
            alice_final_key=None,
            bob_final_key=None,
            stage1_decode_failures=0,
            stage2_decode_failures=0,
            sifted_count=selection.matched_count,
            restarts=restarts,
        )

    if abort:
        return RunArtifacts(aborted_outcome("security"), make_transcript(), bob_bases, bob_bits)

    # stage 1, steps 8-9: Alice assigns code positions to blocks (randomly
    # unless the test hook disabled it) and announces positions and u+v
    code_arr = np.asarray(selection.code_positions, dtype=np.int64)
    order1 = party.permutation(code_arr) if config.random_assignment else code_arr
    pos1 = order1.reshape(config.stage1_block_count, config.n1)
    masked1, alice_labels1 = _alice_stage(config.stage1_pair, bits[pos1], party)
    stage1_blocks = _announce(1, pos1, masked1)

    # steps 10-11, Bob's side
    bob_words1 = _inject(error_injection, 1, bob_bits[pos1])
    bob_labels1, failed1 = stage_correct_and_amplify(config.stage1_pair, bob_words1, masked1)
    s1_failures = int(failed1.sum())
    if config.strict_decode and s1_failures:
        return RunArtifacts(
            aborted_outcome("decode_failure"), make_transcript(stage1_blocks), bob_bases, bob_bits)

    alice_key1 = alice_labels1.reshape(-1)
    bob_key1 = bob_labels1.reshape(-1)

    # stage 2 over the stage-1 key bits, mirrored
    total1 = config.stage1_key_bits
    order2 = party.permutation(total1) if config.random_assignment else np.arange(total1)
    pos2 = order2.reshape(config.stage2_block_count, config.n2)
    masked2, alice_labels2 = _alice_stage(config.stage2_pair, alice_key1[pos2], party)
    stage2_blocks = _announce(2, pos2, masked2)

    bob_words2 = _inject(error_injection, 2, bob_key1[pos2])
    bob_labels2, failed2 = stage_correct_and_amplify(config.stage2_pair, bob_words2, masked2)
    s2_failures = int(failed2.sum())
    if config.strict_decode and s2_failures:
        return RunArtifacts(
            aborted_outcome("decode_failure"),
            make_transcript(stage1_blocks, stage2_blocks), bob_bases, bob_bits)

    alice_key = _pack(alice_labels2.reshape(-1))
    bob_key = _pack(bob_labels2.reshape(-1))
    if alice_key.n != config.final_key_bits:
        raise ProtocolDesyncError(
            f"final key length {alice_key.n} != expected {config.final_key_bits}")

    outcome = RunOutcome(
        aborted=False,
        abort_reason=None,
        observed_check_error_rate=rate,
        alice_final_key=alice_key,
        bob_final_key=bob_key,
        stage1_decode_failures=s1_failures,
        stage2_decode_failures=s2_failures,
        sifted_count=selection.matched_count,
        restarts=restarts,
    )
    return RunArtifacts(outcome, make_transcript(stage1_blocks, stage2_blocks),
                        bob_bases, bob_bits)


def _check_block_geometry(stage: int, blocks: Sequence[BlockAnnouncement],
                          count: int, n: int) -> None:
    """Raise TranscriptError unless a stage announced `count` blocks of n bits."""
    if len(blocks) != count:
        raise TranscriptError(
            f"{len(blocks)} stage-{stage} blocks, but the configured code pairs use {count}")
    for blk in blocks:
        if len(blk.positions) != n:
            raise TranscriptError(
                f"stage-{stage} block {blk.index} has {len(blk.positions)} bits, "
                f"but the configured code pair has n={n}")


def _first_invalid(positions: np.ndarray, n: int, valid: np.ndarray) -> Optional[int]:
    """The first of `positions` that lies outside [0, n) or where the (n,)
    mask `valid` is False; None if there is none."""
    bad = (positions < 0) | (positions >= n)
    inside = ~bad
    bad[inside] = ~valid[positions[inside]]
    return int(positions[np.argmax(bad)]) if bad.any() else None


def replay_bob(transcript: Transcript, bob_bases: np.ndarray, bob_bits: np.ndarray,
               config: ProtocolConfig) -> ReplayResult:
    """Recompute Bob's entire post-processing from his measurement record and
    the public transcript alone.

    Raises:
        TranscriptError: the transcript is inconsistent with the measurement
            record or with the configured code pair geometry.
    """
    n = transcript.b.n
    bob_bases = np.asarray(bob_bases, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    if bob_bases.shape != (n,) or bob_bits.shape != (n,):
        raise TranscriptError(
            f"measurement record length {bob_bases.shape} does not match transmission {n}")
    kept = np.asarray(transcript.kept_positions, dtype=np.int64)
    announced = words_to_rows([transcript.b.word], n)[0]
    p = _first_invalid(kept, n, bob_bases == announced)
    if p is not None:
        if not 0 <= p < n:
            raise TranscriptError(f"kept position {p} outside transmission length {n}")
        raise TranscriptError(f"kept position {p} was not measured in the announced basis")
    if len(transcript.check_positions) != config.check_count:
        raise TranscriptError(
            f"{len(transcript.check_positions)} check positions, but the configured "
            f"code pairs use {config.check_count}")
    check = np.asarray(transcript.check_positions, dtype=np.int64)
    is_kept = np.zeros(n, dtype=bool)
    is_kept[kept] = True
    p = _first_invalid(check, n, is_kept)
    if p is not None:
        if not 0 <= p < n:
            raise TranscriptError(f"check position {p} outside transmission length {n}")
        raise TranscriptError(f"check position {p} is not a kept position")
    bob_check = _pack(bob_bits[check])
    rate, abort = check_and_decide(transcript.alice_check_values, bob_check, config)
    if abort:
        return ReplayResult(None, rate, True, 0, 0)
    _check_block_geometry(1, transcript.stage1_blocks, config.stage1_block_count, config.n1)
    _check_block_geometry(2, transcript.stage2_blocks, config.stage2_block_count, config.n2)

    kept_set = set(transcript.kept_positions)
    check_set = set(transcript.check_positions)
    covered: set[int] = set()
    for blk in transcript.stage1_blocks:
        for p in blk.positions:
            if p not in kept_set or p in check_set or p in covered:
                raise TranscriptError(
                    f"stage-1 block {blk.index} position {p} violates the check/code partition")
            covered.add(p)
    if covered | check_set != kept_set:
        raise TranscriptError("stage-1 blocks and check bits do not partition the kept positions")

    labels1, failed1 = stage_correct_and_amplify(
        config.stage1_pair, bob_bits[_block_positions(transcript.stage1_blocks)],
        _block_words(transcript.stage1_blocks, config.n1))
    bob_key1 = labels1.reshape(-1)

    total1 = bob_key1.size
    seen2: set[int] = set()
    for blk in transcript.stage2_blocks:
        for p in blk.positions:
            if p >= total1 or p in seen2:
                raise TranscriptError(
                    f"stage-2 block {blk.index} position {p} invalid over {total1} key bits")
            seen2.add(p)
    if len(seen2) != total1:
        raise TranscriptError("stage-2 blocks do not consume every stage-1 key bit")

    labels2, failed2 = stage_correct_and_amplify(
        config.stage2_pair, bob_key1[_block_positions(transcript.stage2_blocks)],
        _block_words(transcript.stage2_blocks, config.n2))
    return ReplayResult(_pack(labels2.reshape(-1)), rate, False,
                        int(failed1.sum()), int(failed2.sum()))


def _block_positions(blocks: Sequence[BlockAnnouncement]) -> np.ndarray:
    """(B, n) positions of announced blocks of equal length n."""
    return np.array([blk.positions for blk in blocks], dtype=np.int64)


def _block_words(blocks: Sequence[BlockAnnouncement], n: int) -> np.ndarray:
    """(B, n) masked words of announced blocks of length n."""
    return words_to_rows([blk.masked.word for blk in blocks], n)


def one_error_per_block(rng: np.random.Generator) -> ErrorInjector:
    """Injector flipping one uniformly placed bit in every block, both stages."""

    def inject(stage: int, block_index: int, block_len: int):
        return [int(rng.integers(0, block_len))]

    return inject

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .channel import AttackModel, attack_arrays, measure_bits
from .codes import CssPair, decode_to_codeword, random_codeword
from .errors import (
    ConfigError,
    DecodeFailure,
    InsufficientSiftAbort,
    ProtocolDesyncError,
    TranscriptError,
)
from .gf2 import BitVector
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
    n = int(bits.shape[0])
    if n == 0:
        return BitVector(0, 0)
    word = int.from_bytes(np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little")
    return BitVector(n, word)


def _gather(vec: BitVector, positions: Sequence[int]) -> BitVector:
    word = 0
    for j, p in enumerate(positions):
        word |= vec[p] << j
    return BitVector(len(positions), word)


def _concat(parts: Sequence[BitVector]) -> BitVector:
    word = 0
    offset = 0
    for part in parts:
        word |= part.word << offset
        offset += part.n
    return BitVector(offset, word)


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
    code = np.setdiff1d(kept, check)
    return SiftSelection(
        kept=tuple(int(p) for p in kept),
        check_positions=tuple(int(p) for p in check),
        code_positions=tuple(int(p) for p in code),
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


def stage_correct_and_amplify(pair: CssPair, blocks: Sequence[BitVector],
                              announcements: Sequence[BitVector]):
    """Receiver side of one stage: unmask, correct, and extract coset labels.

    For each block the receiver adds the announced u+v to his noisy code bits
    v+e, decodes the result u+e back to a codeword, and keeps the coset label.
    A block whose syndrome falls outside the decoding radius is flagged and
    labeled best-effort (the raw word projected as if error-free).

    Returns:
        (labels, failed): key_width-bit label per block, and per-block
        decode-failure flags.
    """
    if len(blocks) != len(announcements):
        raise ProtocolDesyncError(
            f"{len(blocks)} blocks but {len(announcements)} announcements")
    labels: list[BitVector] = []
    failed: list[bool] = []
    for block, masked in zip(blocks, announcements):
        if block.n != pair.n:
            raise ProtocolDesyncError(f"block length {block.n} != n {pair.n}")
        unmasked = block + masked  # (v+e) + (u+v) = u+e
        try:
            codeword, _ = decode_to_codeword(pair.outer, unmasked)
            labels.append(pair.coset_label(codeword))
            failed.append(False)
        except DecodeFailure:
            labels.append(pair.project_label(unmasked))
            failed.append(True)
    return labels, failed


def _alice_stage(pair: CssPair, source_bits, positions_per_block, rng):
    """Sender side of one stage: draw u per block, announce u+v, keep labels.

    `source_bits` maps a position to Alice's bit there (callable).
    """
    announcements: list[BitVector] = []
    labels: list[BitVector] = []
    for positions in positions_per_block:
        u = random_codeword(pair.outer, rng)
        v = BitVector.from_bits([source_bits(p) for p in positions])
        announcements.append(u + v)
        labels.append(pair.coset_label(u))
    return announcements, labels


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
    if config.random_assignment:
        order1 = party.permutation(code_arr)
    else:
        order1 = code_arr
    blocks1_pos = [
        tuple(int(p) for p in order1[i * config.n1:(i + 1) * config.n1])
        for i in range(config.stage1_block_count)
    ]
    ann1, alice_labels1 = _alice_stage(
        config.stage1_pair, lambda p: int(bits[p]), blocks1_pos, party)
    stage1_blocks = tuple(
        BlockAnnouncement(1, i, blocks1_pos[i], ann1[i])
        for i in range(config.stage1_block_count)
    )

    # steps 10-11, Bob's side
    bob_blocks1 = []
    for i, positions in enumerate(blocks1_pos):
        w = _pack(bob_bits[np.asarray(positions, dtype=np.int64)])
        if error_injection is not None:
            for j in error_injection(1, i, config.n1):
                w = w + BitVector.unit(config.n1, j)
        bob_blocks1.append(w)
    bob_labels1, failed1 = stage_correct_and_amplify(config.stage1_pair, bob_blocks1, ann1)
    s1_failures = sum(failed1)
    if config.strict_decode and s1_failures:
        return RunArtifacts(
            aborted_outcome("decode_failure"), make_transcript(stage1_blocks), bob_bases, bob_bits)

    alice_key1 = _concat(alice_labels1)
    bob_key1 = _concat(bob_labels1)

    # stage 2 over the stage-1 key bits, mirrored
    total1 = config.stage1_key_bits
    if config.random_assignment:
        order2 = party.permutation(total1)
    else:
        order2 = np.arange(total1)
    blocks2_pos = [
        tuple(int(p) for p in order2[j * config.n2:(j + 1) * config.n2])
        for j in range(config.stage2_block_count)
    ]
    ann2, alice_labels2 = _alice_stage(
        config.stage2_pair, lambda p: alice_key1[p], blocks2_pos, party)
    stage2_blocks = tuple(
        BlockAnnouncement(2, j, blocks2_pos[j], ann2[j])
        for j in range(config.stage2_block_count)
    )

    bob_blocks2 = []
    for j, positions in enumerate(blocks2_pos):
        w = _gather(bob_key1, positions)
        if error_injection is not None:
            for jj in error_injection(2, j, config.n2):
                w = w + BitVector.unit(config.n2, jj)
        bob_blocks2.append(w)
    bob_labels2, failed2 = stage_correct_and_amplify(config.stage2_pair, bob_blocks2, ann2)
    s2_failures = sum(failed2)
    if config.strict_decode and s2_failures:
        return RunArtifacts(
            aborted_outcome("decode_failure"),
            make_transcript(stage1_blocks, stage2_blocks), bob_bases, bob_bits)

    alice_key = _concat(alice_labels2)
    bob_key = _concat(bob_labels2)
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
    for p in transcript.kept_positions:
        if p >= n:
            raise TranscriptError(f"kept position {p} outside transmission length {n}")
        if int(bob_bases[p]) != transcript.b[p]:
            raise TranscriptError(f"kept position {p} was not measured in the announced basis")
    if len(transcript.check_positions) != config.check_count:
        raise TranscriptError(
            f"{len(transcript.check_positions)} check positions, but the configured "
            f"code pairs use {config.check_count}")
    check = np.asarray(transcript.check_positions, dtype=np.int64)
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

    blocks1 = [
        _pack(bob_bits[np.asarray(blk.positions, dtype=np.int64)])
        for blk in transcript.stage1_blocks
    ]
    labels1, failed1 = stage_correct_and_amplify(
        config.stage1_pair, blocks1, [blk.masked for blk in transcript.stage1_blocks])
    bob_key1 = _concat(labels1)

    total1 = bob_key1.n
    seen2: set[int] = set()
    for blk in transcript.stage2_blocks:
        for p in blk.positions:
            if p >= total1 or p in seen2:
                raise TranscriptError(
                    f"stage-2 block {blk.index} position {p} invalid over {total1} key bits")
            seen2.add(p)
    if len(seen2) != total1:
        raise TranscriptError("stage-2 blocks do not consume every stage-1 key bit")

    blocks2 = [_gather(bob_key1, blk.positions) for blk in transcript.stage2_blocks]
    labels2, failed2 = stage_correct_and_amplify(
        config.stage2_pair, blocks2, [blk.masked for blk in transcript.stage2_blocks])
    return ReplayResult(_concat(labels2), rate, False, sum(failed1), sum(failed2))


def one_error_per_block(rng: np.random.Generator) -> ErrorInjector:
    """Injector flipping one uniformly placed bit in every block, both stages."""

    def inject(stage: int, block_index: int, block_len: int):
        return [int(rng.integers(0, block_len))]

    return inject

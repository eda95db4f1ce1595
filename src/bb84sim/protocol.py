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

Trials run in chunks (`run_chunk`); a single run is a chunk of one.  Each
trial draws from its own generators in this order (restarts included):
preparation bits and bases, Bob's bases, the channel's draws and coins, the
two choices of sifting, then, for a trial that passed the check, the
permutation of the code positions, the stage-1 coefficients, the
permutation of the stage-1 key bits and the stage-2 coefficients.

Randomness contract: the quantum phase is word draws, each bit-identical to
the ``Generator`` calls that define the streams.  A party attempt is one
``party.integers(0, 2**32, size=3*ceil(n/4), dtype=np.uint32)`` call; bit 7
of each byte, low byte first, ``ceil(n/4)`` words to a row, gives the
preparation bits, the bases and Bob's bases, which is what three
``integers(0, 2, size=n, dtype=np.uint8)`` calls draw: that sampling never
rejects at range 2, each call starts a fresh four-byte buffer, and numpy
keeps PCG64's buffered half-word between calls, so the choices after it
see the stream as before.  A channel attempt is one ``random_raw`` call on
a bare PCG64; channel.py states how its words map to ``Generator.random``
uniforms and int8/uint8 bits, and how a leftover half-word carries into the
next attempt.  Sifting draws ``choice(matched.size, ...)`` and takes the
matched positions at the sorted indices, which equals sorting
``choice(matched, ...)``.

Only the generator calls run per trial (per attempt, two word draws and, on
success, the two choices); the bits, the tampering and the sifting's
indexing are array passes over the chunk.  Everything after the draws runs
once per chunk over (trials x n) arrays as well: measurement, the check
comparison and the abort decision (`_check_and_abort`, which replay calls
too), and both correction stages, whose blocks are the rows of
(trials*blocks x n) arrays, against the dense matrices each code pair caches
(see codes.py).  A stage's masking coefficients are one (blocks x k) draw,
which consumes the party stream exactly as one draw per block does;
syndromes, codewords and labels are matrix products over all rows, and
decoding is one syndrome-table lookup per row.  The stage-1 key is the
row-major flattening of a trial's stage-1 labels.  The objects of a trial
(transcript, block announcements, sift positions and keys) are built only
when asked for (`TrialChunk.artifacts`); their bits are 0/1 strings
(`gf2.format_bits`), as transcripts are dumped.  Replay parses those strings
back to arrays and runs the same check and receiver stage functions as a
live run, on one row, after checking the transcript's positions with array
passes (see `replay_bob`).  Each protocol step has this one implementation;
the tests hold a scalar per-block reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .channel import AttackModel, attack_arrays, channel_draws, measure_bits
from .codes import CssPair
from .errors import (
    ConfigError,
    InsufficientSiftAbort,
    NotInCodeError,
    ProtocolDesyncError,
    TranscriptError,
)
from .gf2 import format_bits, parse_bits
from .transcript import BlockAnnouncement, Transcript

__all__ = [
    "ProtocolConfig",
    "RunOutcome",
    "RunArtifacts",
    "ReplayResult",
    "stage_correct_and_amplify",
    "TrialChunk",
    "run_chunk",
    "run_protocol",
    "run_protocol_full",
    "replay_bob",
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
class RunOutcome:
    aborted: bool
    abort_reason: Optional[str]  # None | "security" | "decode_failure"
    observed_check_error_rate: Optional[float]
    alice_final_key: Optional[str]
    bob_final_key: Optional[str]
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
    key: Optional[str]
    check_error_rate: float
    aborted: bool
    stage1_decode_failures: int
    stage2_decode_failures: int


def _select(matched: np.ndarray, counts: np.ndarray, config: ProtocolConfig, parties: list):
    """Sifting, one trial per row of the (T, n) bool mask of basis-matched
    positions, given its (T,) row counts, each at least 2*n1*n2.

    Each trial's party generator makes two `choice` draws: the indices of
    Alice's kept positions among its matched ones, and those of her check
    positions among the kept ones.  Since the matched positions ascend,
    taking them at the sorted indices gives the sorted kept positions.

    Returns:
        (kept, check, code): (T, 2*n1*n2) int64 kept positions and (T, n1*n2)
        check and code (not check) positions, each row ascending.
    """
    target, count = config.kept_target, config.check_count
    # the matched positions of all trials as flat indices, row by row, where
    # each row starts among them, and the flat index of each row's start
    flat = matched.ravel().nonzero()[0]
    starts = (counts.cumsum() - counts)[:, None]
    offsets = np.arange(0, matched.size, matched.shape[1])[:, None]
    if not config.random_assignment:
        kept = flat[starts + np.arange(target)] - offsets
        return kept, kept[:, :count], kept[:, count:]
    picks = np.empty((len(parties), target), dtype=np.int64)
    in_code = np.ones((len(parties), target), dtype=bool)
    for t, party in enumerate(parties):
        picks[t] = party.choice(counts[t], size=target, replace=False)
        in_code[t, party.choice(target, size=count, replace=False)] = False
    picks.sort(axis=1)
    kept = flat[starts + picks] - offsets
    return kept, kept[~in_code].reshape(len(parties), -1), kept[in_code].reshape(len(parties), -1)


def _check_and_abort(alice_check: np.ndarray, bob_check: np.ndarray, config: ProtocolConfig):
    """The check comparison and the abort rule, over (T, c) 0/1 arrays of
    Alice's and Bob's check bits, one trial per row, or (c,) arrays of one
    trial's.

    Returns:
        (rate, abort): the (T,) observed check-bit error rates and the (T,)
        bool mask of trials whose rate exceeds the abort threshold (scalars
        for one trial).
    """
    rate = (alice_check ^ bob_check).sum(axis=-1) / alice_check.shape[-1]
    return rate, rate > config.abort_threshold


def _labels(pair: CssPair, product: np.ndarray,
            projected: Optional[np.ndarray] = None) -> np.ndarray:
    """Coset labels of the rows of a (B, n) array of outer codewords, from
    their `words @ pair.check_label_t & 1` product.

    Rows flagged in the optional (B,) mask `projected` need not be codewords:
    they get the projected label, the label matrix applied to the raw word.

    Raises:
        NotInCodeError: an unflagged row is not an outer-code codeword.
    """
    r = pair.outer.n - pair.outer.k
    syndromes = product[:, :r] if projected is None else product[~projected, :r]
    if np.count_nonzero(syndromes):
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
    # syndromes and projected labels of u+e = (v+e) + (u+v); adding those of
    # the tabulated error gives the decoded word's, and a failed row's error
    # is zero, so it is labelled as the raw word
    product = (blocks ^ announcements) @ pair.check_label_t & 1
    rows, failed = pair.outer.syndrome_table().lookup_rows(
        product[:, :pair.outer.n - pair.outer.k])
    return _labels(pair, product ^ pair.error_check_labels[rows], failed), failed


def _alice_stage(pair: CssPair, values: np.ndarray, coeffs: np.ndarray):
    """Sender side of one stage: form a codeword u per block from its drawn
    coefficients, announce u+v, keep the coset label of u.

    `values` holds Alice's bits v and `coeffs` her (B, k) 0/1 coefficients,
    one block per row.

    Returns:
        (masked, labels): (B, n) announced words u+v and (B, key_width) labels.
    """
    product = coeffs @ pair.generator_check_labels & 1
    return product[:, :pair.n] ^ values, _labels(pair, product[:, pair.n:])


def _announce(stage: int, positions: np.ndarray, masked: np.ndarray):
    """One BlockAnnouncement per row of (B, n) positions and masked words."""
    n = positions.shape[1]
    text = format_bits(masked.reshape(-1))
    return tuple(BlockAnnouncement(stage, i, tuple(pos), text[i * n:(i + 1) * n])
                 for i, pos in enumerate(positions.tolist()))


def _inject(injector: Optional[ErrorInjector], stage: int, words: np.ndarray,
            blocks: int) -> np.ndarray:
    """Apply the test injector's flips to Bob's words, in place: a (T*blocks, n)
    array holding each trial's blocks in order, so the injector sees block
    indices 0..blocks-1 per trial."""
    if injector is not None:
        n = words.shape[1]
        for i, row in enumerate(words):
            for j in injector(stage, i % blocks, n):
                if not 0 <= j < n:
                    raise IndexError(f"injected flip {j} out of range for block length {n}")
                row[j] ^= 1
    return words


class TrialChunk:
    """The results of a chunk of trials, one trial per row of its arrays.

    The per-trial outcome fields are arrays: `aborted`, `check_failed` (the
    trials that aborted at the check), `check_error_rate`, `keys_equal`
    (False where aborted), and `stage1_decode_failures` and
    `stage2_decode_failures` (0 where aborted, as in `RunOutcome`).  The
    objects of one trial (outcome, transcript, keys) are built by
    `artifacts` only when asked for.
    """

    def __init__(self, config: ProtocolConfig, draws: dict, bob_bits: np.ndarray):
        """Compare the check bits of every trial and decide its abort."""
        self.config = config
        self.draws = draws
        self.bob_bits = bob_bits
        count = len(bob_bits)
        rows, check = np.arange(count)[:, None], draws["check"]
        self.check_error_rate, self.check_failed = _check_and_abort(
            draws["bits"][rows, check], bob_bits[rows, check], config)
        self.aborted = self.check_failed.copy()
        self.keys_equal = np.zeros(count, dtype=bool)
        self.stage1_decode_failures, self.stage2_decode_failures = np.zeros((2, count), np.int64)
        # the row in the stage-1 and stage-2 arrays below of each trial that
        # reached that stage
        self.row1: dict[int, int] = {}
        self.row2: dict[int, int] = {}

    def _run_stages(self, live: np.ndarray, stage_draws, error_injection) -> None:
        """Both stages for the trials `live` that passed the check, given
        their `_draw_stages` rows."""
        c, d = self.config, self.draws
        self.order1, coeffs1, order2, coeffs2 = stage_draws
        # stage 1, steps 8-9: Alice assigns code positions to blocks (randomly
        # unless the test hook disabled it) and announces positions and u+v;
        # steps 10-11 are Bob's side
        self.row1 = dict(zip(live.tolist(), range(live.size)))
        rows = live[:, None]
        failed1, alice_key1, bob_key1, self.masked1 = _run_stage(
            1, c.stage1_pair, d["bits"][rows, self.order1], self.bob_bits[rows, self.order1],
            coeffs1, error_injection)
        s1 = failed1.sum(axis=1)
        if c.strict_decode:
            reach2 = s1 == 0
            self.aborted[live[~reach2]] = True
            live, s1, alice_key1, bob_key1, order2, coeffs2 = (
                a[reach2] for a in (live, s1, alice_key1, bob_key1, order2, coeffs2))
            if not live.size:
                return

        # stage 2 over the stage-1 key bits, mirrored
        self.row2 = dict(zip(live.tolist(), range(live.size)))
        self.order2 = order2
        ar = np.arange(live.size)[:, None]
        failed2, self.alice_key, self.bob_key, self.masked2 = _run_stage(
            2, c.stage2_pair, alice_key1[ar, order2], bob_key1[ar, order2], coeffs2,
            error_injection)
        if self.alice_key.shape[1] != c.final_key_bits:
            raise ProtocolDesyncError(
                f"final key length {self.alice_key.shape[1]} != expected {c.final_key_bits}")
        s2 = failed2.sum(axis=1)
        self.stage1_decode_failures[live] = s1
        self.stage2_decode_failures[live] = s2
        self.keys_equal[live] = (self.alice_key == self.bob_key).all(axis=1)
        if c.strict_decode:
            # with no stage-1 failures left, only stage-2 failures abort here
            failed = live[s2 > 0]
            self.aborted[failed] = True
            self.stage2_decode_failures[failed] = 0
            self.keys_equal[failed] = False

    def artifacts(self, i: int) -> RunArtifacts:
        """Trial i's outcome, transcript and Bob's raw data, as objects."""
        c, d = self.config, self.draws
        aborted = bool(self.aborted[i])
        j, k = self.row1.get(i), self.row2.get(i)
        stage1 = () if j is None else _announce(1, self.order1[j].reshape(-1, c.n1),
                                                 self.masked1[j])
        stage2 = () if k is None else _announce(2, self.order2[k].reshape(-1, c.n2),
                                                 self.masked2[k])
        if aborted:
            reason = "security" if self.check_failed[i] else "decode_failure"
            alice_key = bob_key = None
        else:
            reason = None
            alice_key, bob_key = format_bits(self.alice_key[k]), format_bits(self.bob_key[k])
        outcome = RunOutcome(
            aborted=aborted,
            abort_reason=reason,
            observed_check_error_rate=float(self.check_error_rate[i]),
            alice_final_key=alice_key,
            bob_final_key=bob_key,
            stage1_decode_failures=int(self.stage1_decode_failures[i]),
            stage2_decode_failures=int(self.stage2_decode_failures[i]),
            sifted_count=int(d["matched"][i]),
            restarts=d["restarts"][i],
        )
        check = d["check"][i]
        transcript = Transcript(
            b=format_bits(d["b"][i]),
            kept_positions=tuple(d["kept"][i].tolist()),
            check_positions=tuple(check.tolist()),
            alice_check_values=format_bits(d["bits"][i][check]),
            bob_check_values=format_bits(self.bob_bits[i][check]),
            stage1_blocks=stage1,
            stage2_blocks=stage2,
        )
        return RunArtifacts(outcome, transcript, d["bob_bases"][i], self.bob_bits[i])


def _run_stage(stage: int, pair: CssPair, alice_bits: np.ndarray, bob_bits: np.ndarray,
               coeffs: np.ndarray, error_injection: Optional[ErrorInjector]):
    """One stage for M trials, from their (M, B*n) bits, one trial per row
    with its B blocks in order, and their (M, B, k) coefficients.

    Returns:
        (failed, alice_key, bob_key, masked): the (M, B) decode-failure
        flags, Alice's and Bob's (M, B*key_width) keys, and the (M, B, n)
        announced words.
    """
    m, blocks, n = len(coeffs), coeffs.shape[1], pair.n
    masked, alice_labels = _alice_stage(pair, alice_bits.reshape(-1, n),
                                        coeffs.reshape(-1, pair.outer.k))
    bob_labels, failed = stage_correct_and_amplify(
        pair, _inject(error_injection, stage, bob_bits.reshape(-1, n), blocks), masked)
    return (failed.reshape(m, blocks), alice_labels.reshape(m, -1),
            bob_labels.reshape(m, -1), masked.reshape(m, blocks, n))


def _bit_rows(words: np.ndarray, rows: int, n: int) -> np.ndarray:
    """(T, rows, n) fair bits from (T, rows*ceil(n/4)) uint32 words: bit 7
    of each byte, low byte first, ceil(n/4) words to a row, as each
    `integers(0, 2, size=n)` call for uint8 or int8 draws them."""
    octets = words.astype("<u4", copy=False).view(np.uint8)
    return octets.reshape(len(words), rows, -1)[:, :, :n] >> 7


def _halves(raw: np.ndarray, uniforms: int) -> np.ndarray:
    """The 32-bit halves, low half first, of the raw words of each row after
    its first `uniforms`."""
    return raw.astype("<u8", copy=False).view("<u4")[..., 2 * uniforms:]


def _draw_quantum(config: ProtocolConfig, attack: AttackModel, seeds: list):
    """Every draw up to and including sifting, one trial per row.

    An attempt is one word draw per generator: 3*ceil(n/4) uint32 party
    words (preparation bits, bases and Bob's bases, a row of n bits each),
    and the raw channel words `channel_draws` counts, whose 32-bit halves
    carry over from one attempt to the next (see channel.py).  Every
    trial's first attempt is drawn, then only the trials with too few basis
    matches draw again; the bits, the tampering and the sifting are array
    passes over the chunk.

    Returns:
        (draws, parties): a dict of the (T, n) quantum-phase arrays, the
        (T, 2*n1*n2) kept and (T, n1*n2) check and code positions, the (T,)
        match counts and the list of restart counts; and each trial's party
        generator, which `_draw_stages` goes on drawing from.

    Raises:
        InsufficientSiftAbort: a trial had too few basis matches in
            max_restarts + 1 attempts.
    """
    n, target = config.transmitted_count, config.kept_target
    quarter = -(-n // 4)
    uniforms, channel_rows = channel_draws(attack, n)
    halves, rows = channel_rows * quarter, 3 + channel_rows
    parties, channels, party_words, channel_words = [], [], [], []
    for seed in seeds:
        # the two children of SeedSequence(seed), as its spawn(2) makes them
        party = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
        channel = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,)))
        # steps 1-2: prepare; step 3: transmit under attack; step 4: Bob
        # measures in random bases; step 5: only then is b announced (Bob's
        # bases are drawn before the channel acts, so ordering holds by
        # construction)
        party_words.append(party.integers(0, 2**32, size=3 * quarter, dtype=np.uint32))
        channel_words.append(channel.random_raw(uniforms + -(-halves // 2)))
        parties.append(party)
        channels.append(channel)
    raw = np.array(channel_words)
    split = _halves(raw, uniforms)
    # bit rows: preparation bits, bases, Bob's bases, then the channel's
    bits = _bit_rows(np.concatenate((np.array(party_words), split[:, :halves]), axis=1), rows, n)
    matched = bits[:, 1] == bits[:, 2]
    counts = matched.sum(axis=1)
    restarts = [0] * len(parties)
    for t in (counts < target).nonzero()[0]:
        carry = split[t, halves:]
        while counts[t] < target:
            restarts[t] += 1
            if restarts[t] > config.max_restarts:
                raise InsufficientSiftAbort(f"{counts[t]} basis-matched positions, need {target}")
            words = parties[t].integers(0, 2**32, size=3 * quarter, dtype=np.uint32)
            more = channels[t].random_raw(uniforms + (halves - carry.size + 1) // 2)
            raw[t, :uniforms] = more[:uniforms]
            more = np.concatenate((carry, _halves(more, uniforms)))
            carry = more[halves:]
            bits[t] = _bit_rows(np.concatenate((words, more[:halves]))[None], rows, n)[0]
            matched[t] = bits[t, 1] == bits[t, 2]
            counts[t] = np.count_nonzero(matched[t])

    flip, eve = attack_arrays(attack, n, raw[:, :uniforms], bits[:, 3])
    kept, check, code = _select(matched, counts, config, parties)
    draws = dict(bits=bits[:, 0], b=bits[:, 1], bob_bases=bits[:, 2], flip=flip, eve=eve,
                 coins=bits[:, -1], kept=kept, check=check, code=code, matched=counts,
                 restarts=restarts)
    return draws, parties


def _draw_stages(config: ProtocolConfig, parties: list, code: np.ndarray):
    """Alice's stage draws, one trial per row, from each trial's party
    generator in protocol order: the permutation of her code positions (one
    row per trial in `code`), the stage-1 coefficients, the permutation of the
    stage-1 key bits and the stage-2 coefficients.  A stage's coefficients
    are one int64 draw of B blocks by k, which consumes the stream as B
    per-block draws do.

    Returns:
        (order1, coeffs1, order2, coeffs2): the (M, n1*n2) code positions in
        assigned order, the (M, kw1*n2) stage-1 key bit indices in assigned
        order, and the (M, B, k) uint8 coefficients of each stage.
    """
    total1 = config.stage1_key_bits
    shape1 = (config.stage1_block_count, config.stage1_pair.outer.k)
    shape2 = (config.stage2_block_count, config.stage2_pair.outer.k)
    order1, coeffs1, order2, coeffs2 = [], [], [], []
    for party, positions in zip(parties, code):
        if config.random_assignment:
            order1.append(party.permutation(positions))
        coeffs1.append(party.integers(0, 2, size=shape1))
        if config.random_assignment:
            order2.append(party.permutation(total1))
        coeffs2.append(party.integers(0, 2, size=shape2))
    if not config.random_assignment:
        order1 = code
        order2 = np.broadcast_to(np.arange(total1), (len(parties), total1))
    return (np.asarray(order1), np.array(coeffs1, dtype=np.uint8),
            np.asarray(order2), np.array(coeffs2, dtype=np.uint8))


def run_chunk(config: ProtocolConfig, seeds: Iterable[int],
              attack: AttackModel = AttackModel.none(),
              error_injection: Optional[ErrorInjector] = None) -> TrialChunk:
    """Run one trial per seed (config.rng_seed is not used); each trial's
    result equals its run alone, deterministic given (seed, attack).

    A trial's draws come from its own party and channel generators, one trial
    at a time and in the order the protocol consumes them.  Everything else
    runs once over the whole chunk: measurement and the check comparison over
    all trials, then both stages over the trials that passed the check.  A
    test injector is called per stage, trial and block, in that order.

    Raises:
        InsufficientSiftAbort: a trial had too few basis matches in
            max_restarts + 1 attempts.
    """
    seeds = list(seeds)
    draws, parties = _draw_quantum(config, attack, seeds)
    bob_bits = measure_bits(draws["b"], draws["bits"], draws["flip"], draws["eve"],
                            draws["bob_bases"], draws["coins"])
    chunk = TrialChunk(config, draws, bob_bits)
    live = (~chunk.aborted).nonzero()[0]
    if live.size:
        stage_draws = _draw_stages(config, [parties[t] for t in live.tolist()],
                                   draws["code"][live])
        chunk._run_stages(live, stage_draws, error_injection)
    return chunk


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
    (the data his replay file is built from): a chunk of one trial."""
    return run_chunk(config, [config.rng_seed], attack, error_injection).artifacts(0)


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


def _first_invalid(positions: np.ndarray, n: int, valid: Optional[np.ndarray] = None,
                   distinct: bool = False) -> Optional[int]:
    """The flat index, in row-major order, of the first of `positions` that
    lies outside [0, n), where the (n,) mask `valid` (if given) is False,
    or, with `distinct`, that repeats an earlier position; None if there is
    none.

    One array pass decides; only when it fails does a Python scan find that
    first position.
    """
    flat = positions.reshape(-1)
    # in range first, so that `valid` and bincount see only [0, n)
    if (flat.min(initial=0) >= 0 and flat.max(initial=-1) < n
            and (valid is None or valid[flat].all())
            and (not distinct or np.bincount(flat).max(initial=0) <= 1)):
        return None
    seen = set()
    for i, p in enumerate(flat.tolist()):
        if not 0 <= p < n or (valid is not None and not valid[p]) or (distinct and p in seen):
            return i
        seen.add(p)


def replay_bob(transcript: Transcript, bob_bases: np.ndarray, bob_bits: np.ndarray,
               config: ProtocolConfig) -> ReplayResult:
    """Recompute Bob's entire post-processing from his measurement record and
    the public transcript alone.

    Every position is checked before anything is indexed with it: the kept
    positions were measured in the announced basis, the check positions are
    kept, the stage-1 blocks and the check positions partition the kept
    positions, and the stage-2 blocks permute the stage-1 key bits.  Each
    check is one array pass over the (blocks x n) positions, with
    `np.bincount` for repeats; only a failed pass is followed by a Python
    scan, which names the first offending position in block order.

    Raises:
        TranscriptError: the transcript is inconsistent with the measurement
            record or with the configured code pair geometry.
    """
    n = len(transcript.b)
    bob_bases = np.asarray(bob_bases, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    if bob_bases.shape != (n,) or bob_bits.shape != (n,):
        raise TranscriptError(
            f"measurement record length {bob_bases.shape} does not match transmission {n}")
    kept = _positions(transcript.kept_positions, "kept")
    i = _first_invalid(kept, n, bob_bases == parse_bits(transcript.b))
    if i is not None:
        p = int(kept[i])
        if not 0 <= p < n:
            raise TranscriptError(f"kept position {p} outside transmission length {n}")
        raise TranscriptError(f"kept position {p} was not measured in the announced basis")
    if len(transcript.check_positions) != config.check_count:
        raise TranscriptError(
            f"{len(transcript.check_positions)} check positions, but the configured "
            f"code pairs use {config.check_count}")
    check = _positions(transcript.check_positions, "check")
    is_kept = np.zeros(n, dtype=bool)
    is_kept[kept] = True
    i = _first_invalid(check, n, is_kept)
    if i is not None:
        p = int(check[i])
        if not 0 <= p < n:
            raise TranscriptError(f"check position {p} outside transmission length {n}")
        raise TranscriptError(f"check position {p} is not a kept position")
    rate, abort = _check_and_abort(parse_bits(transcript.alice_check_values), bob_bits[check],
                                   config)
    # a Python float, whose repr `bb84sim replay` prints
    rate = float(rate)
    if abort:
        return ReplayResult(None, rate, True, 0, 0)
    _check_block_geometry(1, transcript.stage1_blocks, config.stage1_block_count, config.n1)
    _check_block_geometry(2, transcript.stage2_blocks, config.stage2_block_count, config.n2)

    # distinct code positions (kept, not check) that cover every code position
    is_code = is_kept.copy()
    is_code[check] = False
    positions1 = _block_positions(1, transcript.stage1_blocks)
    i = _first_invalid(positions1, n, is_code, distinct=True)
    if i is not None:
        raise TranscriptError(
            f"stage-1 block {transcript.stage1_blocks[i // config.n1].index} position "
            f"{positions1.flat[i]} violates the check/code partition")
    if positions1.size != np.count_nonzero(is_code):
        raise TranscriptError("stage-1 blocks and check bits do not partition the kept positions")

    labels1, failed1 = stage_correct_and_amplify(
        config.stage1_pair, bob_bits[positions1],
        _block_words(transcript.stage1_blocks, config.n1))
    bob_key1 = labels1.reshape(-1)

    # distinct key-bit indices; the geometry fixes their count at the key
    # length, so they are a permutation of the stage-1 key
    positions2 = _block_positions(2, transcript.stage2_blocks)
    i = _first_invalid(positions2, bob_key1.size, distinct=True)
    if i is not None:
        raise TranscriptError(
            f"stage-2 block {transcript.stage2_blocks[i // config.n2].index} position "
            f"{positions2.flat[i]} invalid over {bob_key1.size} key bits")

    labels2, failed2 = stage_correct_and_amplify(
        config.stage2_pair, bob_key1[positions2],
        _block_words(transcript.stage2_blocks, config.n2))
    return ReplayResult(format_bits(labels2.reshape(-1)), rate, False,
                        int(failed1.sum()), int(failed2.sum()))


def _positions(values, what: str) -> np.ndarray:
    """The int64 array of transcript positions `values`.

    Raises:
        TranscriptError: a position does not fit an int64, which no
            transmission or key reaches.
    """
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise TranscriptError(f"a {what} position does not fit an int64") from None


def _block_positions(stage: int, blocks: Sequence[BlockAnnouncement]) -> np.ndarray:
    """(B, n) positions of a stage's announced blocks of equal length n."""
    return _positions([blk.positions for blk in blocks], f"stage-{stage} block")


def _block_words(blocks: Sequence[BlockAnnouncement], n: int) -> np.ndarray:
    """(B, n) masked words of announced blocks of length n."""
    return parse_bits("".join(blk.masked for blk in blocks)).reshape(-1, n)

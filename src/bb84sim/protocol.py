"""The concatenated prepare-and-measure protocol as two communicating party
state machines with a public transcript.

One run is strictly sequential (message ordering is part of the security
logic): Alice prepares and sends, Bob measures and acknowledges, Alice
announces bases, both sift, compare check bits, then one correction and
amplification stage per configured code pair runs over announced blocks.
Independent runs with distinct seeds share no mutable state.

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
two choices of sifting, then, for a trial that passed the check, stage by
stage in a loop over the pairs (`config.pairs`), the permutation of that
stage's input and its coefficients.  Stage 1's input is the code positions;
each later stage's is the previous stage's key bits.

Randomness contract: a trial's streams are the PCG64 streams of the two
children of ``SeedSequence(seed).spawn(2)``, the party's first.  They are
built without SeedSequence: `_stream_states` runs SeedSequence's hash on
every seed of the chunk at once and gives each child's
``generate_state(4, np.uint64)`` words, which are all PCG64 takes from it.
The quantum phase is word draws, each bit-identical to the ``Generator``
calls that define the streams.  A party attempt takes the 3*ceil(n/4) words
``party.integers(0, 2**32, size=3*ceil(n/4), dtype=np.uint32)`` draws.  For
an even count (steane/steane and golay/golay at the default delta) they are
the 32-bit halves of ``random_raw`` words, low half first: PCG64 holds no
buffered half-word before or after.  An odd count ends or starts on such a
half, so it is drawn by that call.  Bit 7 of each byte, low byte first,
``ceil(n/4)`` words to a row, gives the preparation bits, the bases and
Bob's bases, which is what three ``integers(0, 2, size=n, dtype=np.uint8)``
calls draw: that sampling never rejects at range 2, each call starts a
fresh four-byte buffer, and numpy keeps PCG64's buffered half-word between
calls, so the choices after it see the stream as before.  A channel attempt
is one ``random_raw`` call on a bare PCG64; channel.py states how its words
map to ``Generator.random`` uniforms and int8/uint8 bits, and how a
leftover half-word carries into the next attempt.  Sifting draws
``choice(matched.size, ...)`` and takes the matched positions at the sorted
indices, which equals sorting ``choice(matched, ...)``; the indices are
sorted by scattering them into a mask over the matched positions, whose
compression lists the chosen ones in ascending order.

Only the generators' set-up and calls run per trial (per attempt, two word
draws and, on success, the two choices); the seed hash, the bits, the
tampering and the sifting's indexing are passes over the chunk.  Everything
after the draws runs once per chunk over (trials x n) arrays as well:
measurement (xor and and passes, see channel.py), the check comparison and
the abort decision (`_check_and_abort`, which replay calls too), and the
correction stages, one loop over the pairs, whose blocks are the rows of
(trials*blocks x n) arrays, against the dense matrices each code pair
caches (see codes.py).  Each party's bits at a trial's check positions, or
in a stage's order, are one take at flat indices into the chunk's arrays.  A
stage's masking coefficients are one (blocks x k) draw, which consumes the
party stream exactly as one draw per block does; syndromes, codewords and
labels are GF(2) matrix products over all rows (`gf2.matmul`, in float32
against float32 copies of the pair's matrices, exact below 2**24 ones a
sum), and decoding is one syndrome-table lookup per row.  A stage's key is
the row-major flattening of a trial's labels at that stage.  The objects of
a trial (outcome, transcript and keys) are built only when asked for
(`TrialChunk.artifacts`): its transcript's positions are read-only views of
the trial's rows of the chunk's arrays, one per field and stage, and its
bits 0/1 strings (`gf2.format_bits`).  A run's dumps build no such objects:
`TrialChunk.dumps` formats each field of all the chunk's trials at once,
from its arrays (`gf2.format_decimals`, `gf2.format_bit_rows`), and joins
each trial's rows with the one transcript layout (`transcript.dump_fields`)
and the one layout of Bob's record (`transcript.dump_bob`).  Replay
indexes with the transcript's position arrays as they are, parses its bit
strings back to arrays and runs the same check and receiver stage functions
as a live run, stage by stage on one row, after checking the positions
with counting passes, a max and boolean masks (see `replay_bob`).  Each
protocol step has this one implementation; the public
`stage_correct_and_amplify` only adds checks of its inputs.  The tests hold
a scalar per-block reference.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .channel import AttackModel, _measure, attack_arrays, channel_draws
from .codes import CssPair
from .errors import (
    ConfigError,
    InsufficientSiftAbort,
    NotInCodeError,
    ProtocolDesyncError,
    TranscriptError,
)
from .gf2 import format_bit_rows, format_bits, format_decimals, matmul, parse_bits
from .transcript import NO_BLOCKS, StageAnnouncement, Transcript, dump_bob, dump_fields

__all__ = [
    "ProtocolConfig",
    "RunOutcome",
    "RunArtifacts",
    "ReplayResult",
    "stage_correct_and_amplify",
    "TrialChunk",
    "run_chunk",
    "run_protocol",
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

    The derived sizes (`pairs` to `final_key_bits`) are computed once, when
    the config is made, since every chunk reads them several times.
    """

    stage1_pair: CssPair
    stage2_pair: CssPair
    abort_threshold: float
    delta: float = 0.1
    rng_seed: int = 0
    strict_decode: bool = False
    random_assignment: bool = True
    max_restarts: int = 100
    # the code pair of each stage, stage 1 first
    pairs: tuple[CssPair, ...] = field(init=False, repr=False, compare=False)
    # the check bits, as many as the code bits: the product of the pairs' n
    check_count: int = field(init=False, repr=False, compare=False)
    # floor(4 * check_count * (1 + delta)) qubits per attempt
    transmitted_count: int = field(init=False, repr=False, compare=False)
    kept_target: int = field(init=False, repr=False, compare=False)
    # the blocks of each stage: stage s splits the previous stage's key bits,
    # or the code bits for stage 1, into blocks of its pair's n
    block_counts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    final_key_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ConfigError(f"abort threshold {self.abort_threshold} outside [0, 1]")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        pairs = (self.stage1_pair, self.stage2_pair)
        check = math.prod(pair.n for pair in pairs)
        counts, bits = [], check
        for pair in pairs:
            counts.append(bits // pair.n)
            bits = counts[-1] * pair.key_width
        derived = dict(pairs=pairs, check_count=check,
                       transmitted_count=int(math.floor(4 * check * (1 + self.delta) + 1e-9)),
                       kept_target=2 * check, block_counts=tuple(counts), final_key_bits=bits)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


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
    positions, given its (T,) row counts, each at least `kept_target`.

    Each trial's party generator makes two `choice` draws: the indices of
    Alice's kept positions among its matched ones, and those of her check
    positions among the kept ones.  Each is scattered into a mask, over the
    chunk's matched positions and over its kept ones, whose compression
    gives the chosen positions in ascending order: sorted indices with no
    sort.

    Returns:
        (kept, check, code): (T, kept_target) int64 kept positions and
        (T, check_count) check and code (not check) positions, each row
        ascending.
    """
    target, count = config.kept_target, config.check_count
    # the matched positions of all trials as flat indices, row by row, where
    # each row starts among them, and the flat index of each row's start
    flat = matched.ravel().nonzero()[0]
    starts = counts.cumsum() - counts
    offsets = _row_starts(matched)[:, None]
    if not config.random_assignment:
        kept = flat[starts[:, None] + np.arange(target)] - offsets
        return kept, kept[:, :count], kept[:, count:]
    # the chosen indices scattered into masks, over `flat` and over the kept
    # positions, which compress to ascending positions with no sort
    chosen = np.zeros(flat.size, dtype=bool)
    is_check = np.zeros((len(parties), target), dtype=bool)
    for t, (party, start, matches) in enumerate(zip(parties, starts.tolist(), counts.tolist())):
        chosen[start + party.choice(matches, size=target, replace=False)] = True
        is_check[t, party.choice(target, size=count, replace=False)] = True
    kept = flat[chosen].reshape(-1, target) - offsets
    is_check = is_check.ravel()
    return (kept, kept.take(is_check.nonzero()[0]).reshape(-1, count),
            kept.take((~is_check).nonzero()[0]).reshape(-1, count))


def _check_and_abort(alice_check: np.ndarray, bob_check: np.ndarray, config: ProtocolConfig):
    """The check comparison and the abort rule, over (T, c) 0/1 arrays of
    Alice's and Bob's check bits, one trial per row, or (c,) arrays of one
    trial's.

    Returns:
        (rate, abort): the (T,) observed check-bit error rates and the (T,)
        bool mask of trials whose rate exceeds the abort threshold (scalars
        for one trial).
    """
    # an int32 count of bytes or bools sums about twice as fast as numpy's
    # default 64-bit one, and a transmission holds far fewer than 2**31 bits
    rate = (alice_check ^ bob_check).sum(axis=-1, dtype=np.int32) / alice_check.shape[-1]
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
    syndromes = product[:, :r]
    # the flagged rows are left out only when some syndrome is nonzero
    if np.count_nonzero(syndromes):
        unflagged = syndromes if projected is None else syndromes[~projected]
        if np.count_nonzero(unflagged):
            raise NotInCodeError(
                f"{unflagged.any(axis=1).sum()} stage words are not in the outer code")
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
    return _bob_stage(pair, blocks, announcements)


def _bob_stage(pair: CssPair, blocks: np.ndarray, announcements: np.ndarray):
    """`stage_correct_and_amplify` of two uint8 arrays of one (B, n) shape,
    as a run and a replay, which checks its blocks first, pass them."""
    # syndromes and projected labels of u+e = (v+e) + (u+v); adding those of
    # the tabulated error gives the decoded word's, and a failed row's error
    # is zero, so it is labelled as the raw word
    product = matmul(blocks ^ announcements, pair.check_label_f32)
    rows, failed = pair.outer.syndrome_table().lookup_rows(
        product[:, :pair.outer.n - pair.outer.k])
    product ^= pair.error_check_labels.take(rows, axis=0)
    return _labels(pair, product, failed), failed


def _alice_stage(pair: CssPair, values: np.ndarray, coeffs: np.ndarray):
    """Sender side of one stage: form a codeword u per block from its drawn
    coefficients, announce u+v, keep the coset label of u.

    `values` holds Alice's bits v and `coeffs` her (B, k) 0/1 coefficients,
    one block per row.

    Returns:
        (masked, labels): (B, n) announced words u+v and (B, key_width) labels.
    """
    product = matmul(coeffs, pair.generator_check_labels_f32)
    return product[:, :pair.n] ^ values, _labels(pair, product[:, pair.n:])


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
    (False where aborted), and `decode_failures`, one row per stage (0 where
    aborted, as in `RunOutcome`).  The objects of one trial (outcome,
    transcript, keys) are built by `artifacts` only when asked for; `dumps`
    writes the files of every trial from the arrays, with no such objects.
    """

    def __init__(self, config: ProtocolConfig, draws: dict, bob_bits: np.ndarray):
        """Compare the check bits of every trial and decide its abort."""
        self.config = config
        self.draws = draws
        self.bob_bits = bob_bits
        count = len(bob_bits)
        at = draws["check"] + _row_starts(bob_bits)[:, None]
        self.check_error_rate, self.check_failed = _check_and_abort(
            draws["bits"].take(at), bob_bits.take(at), config)
        self.aborted = self.check_failed.copy()
        self.keys_equal = np.zeros(count, dtype=bool)
        stages = len(config.pairs)
        self.decode_failures = np.zeros((stages, count), np.int64)
        # per stage, the row in its `orders` and `masked` arrays of each trial
        # that reached it
        self.rows: list[dict[int, int]] = [{} for _ in range(stages)]
        self.orders: list = [None] * stages
        self.masked: list = [None] * stages

    def _run_stages(self, live: np.ndarray, stage_draws, error_injection) -> None:
        """Every stage for the trials `live` that passed the check, given
        their `_draw_stages` rows.  Stage s corrects and amplifies the bits
        its order picks from the previous stage's keys, or from the
        transmitted bits for stage 1 (steps 8-11: Alice assigns positions to
        blocks and announces positions and u+v, Bob decodes).  Under strict
        decoding a trial with a failed block aborts after that stage."""
        c = self.config
        alice, bob = self.draws["bits"], self.bob_bits
        # where each trial's row of the stage's input starts in its flattening
        starts = (live * alice.shape[1])[:, None]
        # the row of each trial in a stage's arrays, until strict decoding drops some
        rows = dict(zip(live.tolist(), range(live.size)))
        failures = np.zeros((len(c.pairs), live.size), np.int64)
        for s, (pair, blocks) in enumerate(zip(c.pairs, c.block_counts)):
            if not live.size:
                return
            order, coeffs = stage_draws[s]
            m, n = live.size, pair.n
            self.rows[s], self.orders[s] = rows, order
            # each block's positions in the flattened input, one block per
            # row: a take at them costs about a third of the two-array index
            # [live[:, None], order] on a chunk
            at = (order + starts).reshape(-1, n)
            masked, alice = _alice_stage(pair, alice.take(at), coeffs.reshape(-1, pair.outer.k))
            bob, failed = _bob_stage(pair, _inject(error_injection, s + 1, bob.take(at), blocks),
                                     masked)
            alice, bob = alice.reshape(m, -1), bob.reshape(m, -1)
            # the final keys are the last stage's, one row per trial in its `rows`
            self.alice_key, self.bob_key = alice, bob
            self.masked[s] = masked.reshape(m, blocks, n)
            # a chunk's blocks mostly all decode: the count per trial is
            # taken only when some block failed
            if np.count_nonzero(failed):
                failures[s] = failed.reshape(m, blocks).sum(axis=1)
            if c.strict_decode:
                ok = failures[s] == 0
                self.aborted[live[~ok]] = True
                live, alice, bob, failures = live[ok], alice[ok], bob[ok], failures[:, ok]
                stage_draws = [(order[ok], coeffs[ok]) for order, coeffs in stage_draws]
                rows = dict(zip(live.tolist(), range(live.size)))
            # the stage's keys hold one row per trial left
            starts = _row_starts(alice)[:, None]
        if self.alice_key.shape[1] != c.final_key_bits:
            raise ProtocolDesyncError(
                f"final key length {self.alice_key.shape[1]} != expected {c.final_key_bits}")
        self.decode_failures[:, live] = failures
        self.keys_equal[live] = (alice == bob).all(axis=1)

    def artifacts(self, i: int) -> RunArtifacts:
        """Trial i's outcome, transcript and Bob's raw data, as objects."""
        d = self.draws
        aborted = bool(self.aborted[i])
        # each stage's positions are a view of the trial's row of its order
        stage1, stage2 = [
            StageAnnouncement(order[rows[i]].reshape(masked.shape[1:]),
                              format_bits(masked[rows[i]].reshape(-1)))
            if i in rows else NO_BLOCKS
            for rows, order, masked in zip(self.rows, self.orders, self.masked)]
        if aborted:
            reason = "security" if self.check_failed[i] else "decode_failure"
            alice_key = bob_key = None
        else:
            reason = None
            k = self.rows[-1][i]
            alice_key, bob_key = format_bits(self.alice_key[k]), format_bits(self.bob_key[k])
        outcome = RunOutcome(
            aborted=aborted,
            abort_reason=reason,
            observed_check_error_rate=float(self.check_error_rate[i]),
            alice_final_key=alice_key,
            bob_final_key=bob_key,
            stage1_decode_failures=int(self.decode_failures[0, i]),
            stage2_decode_failures=int(self.decode_failures[1, i]),
            sifted_count=int(d["matched"][i]),
            restarts=d["restarts"][i],
        )
        check = d["check"][i]
        transcript = Transcript(
            b=format_bits(d["b"][i]),
            kept_positions=d["kept"][i],
            check_positions=check,
            alice_check_values=format_bits(d["bits"][i][check]),
            bob_check_values=format_bits(self.bob_bits[i][check]),
            stage1_blocks=stage1,
            stage2_blocks=stage2,
        )
        return RunArtifacts(outcome, transcript, d["bob_bases"][i], self.bob_bits[i])

    def dumps(self) -> Iterator[tuple[bytes, bytes]]:
        """Each trial's dumped transcript and Bob's record, in trial order:
        the bytes `dump_transcript` and `dump_bob` make of its `artifacts`.

        They are made from the chunk's arrays, with no object per trial: one
        `format_decimals` call per position field and stage and one
        `format_bit_rows` call per bit field for all trials, whose rows
        `dump_fields` and `dump_bob` join.
        """
        d, bob_bits = self.draws, self.bob_bits
        at = d["check"] + _row_starts(bob_bits)[:, None]
        b, bases, bits, achk, bchk = map(format_bit_rows, (d["b"], d["bob_bases"], bob_bits,
                                                           d["bits"].take(at), bob_bits.take(at)))
        kept, check = format_decimals(d["kept"]), format_decimals(d["check"])
        # per stage reached: its rows, its blocks' position lists, its block
        # count and each row's masked words joined
        stages = [(rows, format_decimals(order.reshape(-1, masked.shape[2])), masked.shape[1],
                   format_bit_rows(masked.reshape(len(masked), -1)))
                  for rows, order, masked in zip(self.rows, self.orders, self.masked) if rows]
        keys = format_bit_rows(self.bob_key) if self.rows[-1] else []
        for i, aborted in enumerate(self.aborted.tolist()):
            announced = []
            for rows, lists, blocks, words in stages:
                r = rows.get(i)
                announced.append(((), b"") if r is None
                                 else (lists[r * blocks:(r + 1) * blocks], words[r]))
            yield (dump_fields(b[i], kept[i], check[i], achk[i], bchk[i], announced),
                   dump_bob(bases[i], bits[i], b"-" if aborted else keys[self.rows[-1][i]]))


def _row_starts(a: np.ndarray) -> np.ndarray:
    """The flat index of the start of each row of a 2-D array: a take at
    ``positions + _row_starts(a)[:, None]`` reads ``a[i, positions[i]]`` for
    each row i of (rows, m) positions."""
    return np.arange(0, a.size, a.shape[1])


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


# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four 32-bit
# words takes in the entropy words through `hashmix`, whose multiplier moves on
# at every call, and `mix`; generate_state hashes the pool out again.
_WORD = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# mix(x, y) is L*x - R*y, taken here as L*x + (2**32 - R)*y so that no lane borrows
_MIX_L, _MIX_NEG_R = 0xCA01F9DD, -0x4973F715 & _WORD


def _hash_steps(init: int, mult: int, count: int) -> list:
    """The (xor, multiplier) constants of `count` successive hashmix steps."""
    steps, const = [], init
    for _ in range(count):
        xor, const = const, const * mult & _WORD
        steps.append((xor, const))
    return steps


@functools.lru_cache(maxsize=8)
def _lane_constants(count: int, width: int):
    """The hash's constants for `_hash_lanes`, in lanes of 32*width bits.

    Returns:
        (mask, pair_mask, mixing, pool_steps, spawned, out_steps):
        - the low 32 bits of `count` lanes, and of 2*count lanes (the
          party's, then the channel's);
        - the (source, target) words of each `mix` step, 0-3 being the pool
          and 4 on the seed's words past the fourth: the pool's
          cross-mixing, then each further seed word into each pool word;
        - the (xor, multiplier) of each hashmix step that takes the seed
          in, xor in `count` lanes;
        - per pool word, mix's term of the hashed spawn word, 0 in the
          party's lanes and 1 in the channel's;
        - generate_state's eight steps, xor in 2*count lanes.
    """
    lane = 32 * width
    ones = int.from_bytes((b"\x01" + bytes(lane // 8 - 1)) * count, "little")
    pairs = ones | ones << lane * count
    mixing = tuple([(s, d) for s in range(4) for d in range(4) if s != d]
                   + [(s, d) for s in range(4, width) for d in range(4)])
    steps = _hash_steps(_INIT_A, _MULT_A, 4 * width + 4)
    spawned = []
    for xor, mult in steps[-4:]:
        terms = []
        for j in (0, 1):
            hashed = (j ^ xor) * mult & _WORD
            terms.append((hashed ^ hashed >> 16) * _MIX_NEG_R & _WORD)
        spawned.append(terms[0] * ones | terms[1] * ones << lane * count)
    # tuples: the cache hands the same constants to every call
    pool_steps = tuple((xor * ones, mult) for xor, mult in steps[:-4])
    out_steps = tuple((xor * pairs, mult) for xor, mult in _hash_steps(_INIT_B, _MULT_B, 8))
    return ones * _WORD, pairs * _WORD, mixing, pool_steps, tuple(spawned), out_steps


def _hash_lanes(seeds: list, width: int) -> np.ndarray:
    """`_stream_states` of seeds of `width` entropy words, all at once.

    Seed t is lane t of Python ints of 32*width-bit lanes, so that one int
    operation is one hash step of every seed.  Each step masks every lane
    back to 32 bits; a lane holds at least 128, more than the 65 bits of a
    `mix` sum, so no lane carries into the next."""
    count, lane = len(seeds), 32 * width
    mask, pair_mask, mixing, steps, spawned, out_steps = _lane_constants(count, width)
    packed = b"".join(seed.to_bytes(lane // 8, "little") for seed in seeds)
    packed = int.from_bytes(packed, "little")
    words = []
    for i, (xor, mult) in enumerate(steps[:4]):
        hashed = ((packed >> 32 * i & mask) ^ xor) * mult & mask
        words.append((hashed ^ hashed >> 16) & mask)
    words += [packed >> 32 * i & mask for i in range(4, width)]
    for (s, d), (xor, mult) in zip(mixing, steps[4:]):
        hashed = (words[s] ^ xor) * mult & mask
        mixed = (_MIX_L * words[d] + _MIX_NEG_R * ((hashed ^ hashed >> 16) & mask)) & mask
        words[d] = (mixed ^ mixed >> 16) & mask
    # the spawn word, 0 or 1, is the last entropy word: each pool word is
    # copied into the party's lanes and the channel's
    pool = []
    for word, spawn in zip(words, spawned):
        mixed = (_MIX_L * (word | word << lane * count) + spawn) & pair_mask
        pool.append((mixed ^ mixed >> 16) & pair_mask)
    # the bytes of each output half's 2*count lanes, one half after another
    size = count * lane // 4
    out = bytearray()
    for i, (xor, mult) in enumerate(out_steps):
        hashed = (pool[i % 4] ^ xor) * mult & pair_mask
        out += (hashed ^ hashed >> 16).to_bytes(size, "little")
    # (seed, stream, half) read in place: a half is word 0 of its lane (the
    # last step leaves the rest unmasked), two halves to a uint64, low half
    # first
    out = np.ndarray((count, 2, 8), "<u4", out, strides=(lane // 8, size // 2, size))
    return np.ascontiguousarray(out).view("<u8").astype(np.uint64, copy=False)


def _entropy_width(seed: int) -> int:
    """The 32-bit words SeedSequence takes a seed as, with a spawn key."""
    return max(4, -(-seed.bit_length() // 32))


def _stream_states(seeds: list) -> np.ndarray:
    """Each seed's party and channel PCG64 seeds, (T, 2, 4) uint64: what
    ``SeedSequence(seed, spawn_key=(j,)).generate_state(4, np.uint64)``
    returns for j = 0 (party) and 1 (channel), the children that
    ``SeedSequence(seed).spawn(2)`` makes.

    Raises:
        TypeError: a seed is not an integer.
        ValueError: a seed is negative.
    """
    seeds = [operator.index(seed) for seed in seeds]
    low, high = min(seeds), max(seeds)
    if low < 0:
        raise ValueError(f"seeds must be non-negative, got {low}")
    width = _entropy_width(high)
    if _entropy_width(low) == width:
        return _hash_lanes(seeds, width)
    # seeds of other widths take other hash steps: one pass per width
    rows = {}
    for t, seed in enumerate(seeds):
        rows.setdefault(_entropy_width(seed), []).append(t)
    states = np.empty((len(seeds), 2, 4), np.uint64)
    for width, where in rows.items():
        states[where] = _hash_lanes([seeds[t] for t in where], width)
    return states


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose words are hashed already (`_stream_states`):
    PCG64 asks it once, at construction, for generate_state(4, np.uint64)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _party_words(party: np.random.Generator, count: int) -> np.ndarray:
    """The `count` uint32 words ``party.integers(0, 2**32, size=count,
    dtype=np.uint32)`` draws.  For an even count they are the 32-bit halves
    of count/2 raw PCG64 words, low half first.  An odd count is drawn by
    that call, since it ends on a low half and leaves PCG64 holding the high
    one, or starts with the half PCG64 holds."""
    if count % 2:
        return party.integers(0, 2**32, size=count, dtype=np.uint32)
    return _halves(party.bit_generator.random_raw(count // 2), 0)


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
        (T, kept_target) kept and (T, check_count) check and code
        positions, the (T,) match counts and the list of restart counts; and
        each trial's party generator, which `_draw_stages` goes on drawing
        from.

    Raises:
        InsufficientSiftAbort: a trial had too few basis matches in
            max_restarts + 1 attempts.
    """
    n, target = config.transmitted_count, config.kept_target
    quarter = -(-n // 4)
    uniforms, channel_rows = channel_draws(attack, n)
    halves, rows = channel_rows * quarter, 3 + channel_rows
    parties, channels, party_words, channel_words = [], [], [], []
    for party_state, channel_state in _stream_states(seeds):
        party = np.random.Generator(np.random.PCG64(_SeedState(party_state)))
        channel = np.random.PCG64(_SeedState(channel_state))
        # steps 1-2: prepare; step 3: transmit under attack; step 4: Bob
        # measures in random bases; step 5: only then is b announced (Bob's
        # bases are drawn before the channel acts, so ordering holds by
        # construction)
        party_words.append(_party_words(party, 3 * quarter))
        channel_words.append(channel.random_raw(uniforms + -(-halves // 2)))
        parties.append(party)
        channels.append(channel)
    raw = np.array(channel_words)
    split = _halves(raw, uniforms)
    # bit rows: preparation bits, bases, Bob's bases, then the channel's
    bits = _bit_rows(np.concatenate((np.array(party_words), split[:, :halves]), axis=1), rows, n)
    matched = bits[:, 1] == bits[:, 2]
    # an int32 count, as in `_check_and_abort`
    counts = matched.sum(axis=1, dtype=np.int32)
    restarts = [0] * len(parties)
    for t in (counts < target).nonzero()[0]:
        carry = split[t, halves:]
        while counts[t] < target:
            restarts[t] += 1
            if restarts[t] > config.max_restarts:
                raise InsufficientSiftAbort(f"{counts[t]} basis-matched positions, need {target}")
            words = _party_words(parties[t], 3 * quarter)
            more = channels[t].random_raw(uniforms + (halves - carry.size + 1) // 2)
            raw[t, :uniforms] = more[:uniforms]
            more = np.concatenate((carry, _halves(more, uniforms)))
            carry = more[halves:]
            bits[t] = _bit_rows(np.concatenate((words, more[:halves]))[None], rows, n)[0]
            matched[t] = bits[t, 1] == bits[t, 2]
            counts[t] = np.count_nonzero(matched[t])

    flip, eve = attack_arrays(attack, n, raw[:, :uniforms], bits[:, 3])
    kept, check, code = _select(matched, counts, config, parties)
    # the prepared bits contiguous, so that their ravel is a view
    draws = dict(bits=np.ascontiguousarray(bits[:, 0]), b=bits[:, 1], bob_bases=bits[:, 2],
                 flip=flip, eve=eve, coins=bits[:, -1], kept=kept, check=check, code=code,
                 matched=counts, restarts=restarts)
    return draws, parties


def _draw_stages(config: ProtocolConfig, parties: list, code: np.ndarray):
    """Alice's stage draws, one trial per row, from each trial's party
    generator in protocol order: per stage, the permutation of its input
    (her code positions, one row per trial in `code`, for stage 1, the
    previous stage's key bit indices after it), then its coefficients.  A
    stage's coefficients are one int64 draw of B blocks by k, which consumes
    the stream as B per-block draws do.

    Returns:
        one (order, coeffs) pair per stage: the (M, B*n) input positions in
        assigned order and the (M, B, k) 0/1 coefficients as float32, the
        form `gf2.matmul` multiplies in.
    """
    stages = list(zip(config.pairs, config.block_counts))
    orders = [[] for _ in stages]
    coeffs = [[] for _ in stages]
    for positions, party in zip(code, parties):
        inputs = positions
        for s, (pair, blocks) in enumerate(stages):
            if config.random_assignment:
                orders[s].append(party.permutation(inputs))
            coeffs[s].append(party.integers(0, 2, size=(blocks, pair.outer.k)))
            # the next stage permutes this stage's key bits, by index
            inputs = blocks * pair.key_width
    if not config.random_assignment:
        sizes = [blocks * pair.key_width for pair, blocks in stages[:-1]]
        orders = [code] + [np.broadcast_to(np.arange(k), (len(parties), k)) for k in sizes]
    return [(np.asarray(order), np.array(c, dtype=np.float32)) for order, c in zip(orders, coeffs)]


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
    bob_bits = _measure(draws["b"], draws["bits"], draws["flip"], draws["eve"],
                        draws["bob_bases"], draws["coins"])
    chunk = TrialChunk(config, draws, bob_bits)
    live = (~chunk.aborted).nonzero()[0]
    if live.size:
        stage_draws = _draw_stages(config, [parties[t] for t in live.tolist()],
                                   draws["code"].take(live, axis=0))
        chunk._run_stages(live, stage_draws, error_injection)
    return chunk


def run_protocol(config: ProtocolConfig, attack: AttackModel = AttackModel.none(),
                 error_injection: Optional[ErrorInjector] = None):
    """Execute one full run, a chunk of one trial; deterministic given
    (config.rng_seed, attack).

    Returns:
        (RunOutcome, Transcript).
    """
    artifacts = run_chunk(config, [config.rng_seed], attack, error_injection).artifacts(0)
    return artifacts.outcome, artifacts.transcript


def _first_invalid(positions: np.ndarray, n: int, valid: Optional[np.ndarray] = None,
                   distinct: bool = False) -> Optional[int]:
    """The flat index, in row-major order, of the first of `positions` that
    lies outside [0, n), where the (n,) mask `valid` (if given) is False,
    or, with `distinct`, that repeats an earlier position; None if there is
    none.

    Counting passes decide; only when one fails does a Python scan find that
    first position.
    """
    flat = positions.reshape(-1)
    # a negative position reads as one above 2**63 as a uint64, so one max
    # checks the range, which comes first, so that the masks see only [0, n)
    if flat.view(np.uint64).max(initial=0) < n:
        if not distinct:
            if valid is None or valid[flat].all():
                return None
        else:
            # each valid position met for the first time clears one entry, so
            # all of them clear one each exactly when they are valid and distinct
            unmet = np.ones(n, dtype=bool) if valid is None else valid.copy()
            before = np.count_nonzero(unmet)
            unmet[flat] = False
            if before - np.count_nonzero(unmet) == flat.size:
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
    kept, both are as many as the configured code pairs use and none
    repeats, the stage-1 blocks and the check positions partition the kept
    positions, and each later stage's blocks permute the previous stage's
    key bits.  Each check is a counting pass over the kept and check
    positions or a stage's (blocks x n) positions: one max for the range, a
    boolean mask read at the positions for the basis and the kept and code
    positions, and for repeats a count of the entries the positions set in,
    or clear from, a boolean mask.  Only a failed pass is followed by a
    Python scan, which names the first offending position in block order.

    Under strict decoding a stage with a failed block ends the replay
    aborted, as it ends the run (whose transcript announces no later stage),
    with no decode failures recorded, as in the run's outcome.

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
    kept = transcript.kept_positions
    i = _first_invalid(kept, n, bob_bases == parse_bits(transcript.b))
    if i is not None:
        p = int(kept[i])
        if not 0 <= p < n:
            raise TranscriptError(f"kept position {p} outside transmission length {n}")
        raise TranscriptError(f"kept position {p} was not measured in the announced basis")
    check = transcript.check_positions
    if len(check) != config.check_count:
        raise TranscriptError(
            f"{len(check)} check positions, but the configured code pairs use {config.check_count}")
    is_kept = np.zeros(n, dtype=bool)
    is_kept[kept] = True
    i = _first_invalid(check, n, is_kept)
    if i is not None:
        p = int(check[i])
        if not 0 <= p < n:
            raise TranscriptError(f"check position {p} outside transmission length {n}")
        raise TranscriptError(f"check position {p} is not a kept position")
    # KEEP names kept_target distinct positions and CHECKPOS distinct ones
    # of them; counting the masks' ones decides, a scan names a repeat
    if len(kept) != config.kept_target:
        raise TranscriptError(
            f"{len(kept)} kept positions, but the configured code pairs use {config.kept_target}")
    if np.count_nonzero(is_kept) != len(kept):
        raise TranscriptError(
            f"kept position {kept[_first_invalid(kept, n, distinct=True)]} repeats")
    # the kept mask, no longer needed, becomes the code positions' mask
    is_code = is_kept
    is_code[check] = False
    if np.count_nonzero(is_code) != len(kept) - len(check):
        raise TranscriptError(
            f"check position {check[_first_invalid(check, n, distinct=True)]} repeats")
    rate, abort = _check_and_abort(parse_bits(transcript.alice_check_values), bob_bits[check],
                                   config)
    # a Python float, whose repr `bb84sim replay` prints
    rate = float(rate)
    if abort:
        return ReplayResult(None, rate, True, 0, 0)
    stages = list(zip((transcript.stage1_blocks, transcript.stage2_blocks), config.pairs,
                      config.block_counts))
    # the geometry of every stage first: a transcript of other code pairs
    # fails here, however its positions look.  Under strict decoding a stage
    # after the first may be empty, if the one before it fails.
    for stage, (blocks, pair, count) in enumerate(stages, start=1):
        if len(blocks) != count and (stage == 1 or len(blocks) or not config.strict_decode):
            raise _block_count_error(stage, blocks, count)
        if len(blocks) and blocks.positions.shape[1] != pair.n:
            raise TranscriptError(
                f"stage-{stage} block 0 has {blocks.positions.shape[1]} bits, "
                f"but the configured code pair has n={pair.n}")

    # stage 1 takes distinct code positions (kept, not check), which the
    # geometry makes all of them; a later stage, distinct key-bit indices,
    # which the geometry makes a permutation of the previous stage's key
    bits, failures = bob_bits, []
    for stage, (blocks, pair, count) in enumerate(stages, start=1):
        if len(blocks) != count:
            # a strict transcript that stops after a stage with no failure
            raise _block_count_error(stage, blocks, count)
        positions = blocks.positions
        i = _first_invalid(positions, bits.size, is_code if stage == 1 else None, distinct=True)
        if i is not None:
            why = ("violates the check/code partition" if stage == 1
                   else f"invalid over {bits.size} key bits")
            raise TranscriptError(
                f"stage-{stage} block {i // pair.n} position {positions.flat[i]} {why}")
        labels, failed = _bob_stage(pair, bits[positions],
                                    parse_bits(blocks.masked).reshape(-1, pair.n))
        if config.strict_decode and failed.any():
            return ReplayResult(None, rate, True, 0, 0)
        bits = labels.reshape(-1)
        failures.append(int(failed.sum()))
    return ReplayResult(format_bits(bits), rate, False, *failures)


def _block_count_error(stage: int, blocks: StageAnnouncement, count: int) -> TranscriptError:
    return TranscriptError(
        f"{len(blocks)} stage-{stage} blocks, but the configured code pairs use {count}")

"""Scalar reference for decoding, coset labels and codeword draws, one block
at a time, and the Generator calls that define a trial's draws.

The protocol decodes and labels (blocks x n) arrays against the dense
matrices and the syndrome table each code and pair caches.  This module does
the same work from a code's generator and parity-check matrices alone: its
own syndrome table, built one error at a time; its own coset-label matrix,
built by the canonical-basis construction with its own row reduction on int
words it packs from the generator rows; and its own codeword draw.  A fault
in the tables or matrices the protocol uses therefore shows up as a
disagreement with it.  `test_stage_oracle.py` checks that this module stays
independent of them.  Vectors in and out are 1-D uint8 arrays of 0/1 bits.

`row_reduce_reference` and `solve_membership_reference` run the
elimination as numpy row operations on the rows of a uint8 array, where
`gf2` packs the rows into ints; `test_gf2.py` checks that both give the same
reduced arrays, pivots and coefficients.

`draw_quantum_reference` takes one trial's quantum phase, restarts
included, as the sequence of ``Generator`` calls that defines the party and
channel streams: three uint8 `integers` party draws, the channel's
`attack_arrays_reference` draws and its uint8 coins per attempt, then the
two `choice` draws of sifting.  The protocol derives the same values from
one word draw per generator per attempt; `test_draws.py` checks that every
value, and the state each party generator is left in, agree.
`draw_stages_reference` goes on with each trial's stage draws as the calls
that define them, `permutation` of a stage's input and `integers(0, 2)`
coefficients, where the protocol shuffles preallocated rows in place and
takes the top bits of float32 uniforms.

`parse_transcript_reference` is the transcript parser as it was when a
transcript held its positions as tuples of ints and its blocks as one
object each: every position list read on its own, one line after another.
`test_transcript.py` checks that the parser accepts and rejects the same
texts as it does, with the same messages and the same content.
"""

import functools
import itertools
import re
from typing import NamedTuple

import numpy as np

from bb84sim.errors import (
    ConfigError,
    DimensionError,
    InsufficientSiftAbort,
    NotInCodeError,
    TranscriptError,
)
from bb84sim.gf2 import parse_decimal, parse_decimals


class DecodeFailure(Exception):
    """Received word lies outside the decoding radius of the syndrome table."""


def mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product; result bit i is the parity of row i AND v."""
    m, v = np.asarray(m, dtype=np.uint8), np.asarray(v, dtype=np.uint8)
    if m.shape[1] != len(v):
        raise DimensionError(f"matrix has {m.shape[1]} columns, vector length {len(v)}")
    return np.array([int((row & v).sum()) & 1 for row in m], dtype=np.uint8)


def syndrome(code, v: np.ndarray) -> np.ndarray:
    return mat_vec(code.parity_check, v)


def contains(code, v: np.ndarray) -> bool:
    return not syndrome(code, v).any()


def scalar_table_items(code) -> list[tuple[np.ndarray, np.ndarray]]:
    """(syndrome, error) pairs of the bounded-distance table, built one error
    at a time: weights 0..t in itertools.combinations order, the first error
    kept for each syndrome."""
    zero = np.zeros(code.n, dtype=np.uint8)
    leaders = {syndrome(code, zero).tobytes(): zero}
    for weight in range(1, code.t + 1):
        for positions in itertools.combinations(range(code.n), weight):
            err = zero.copy()
            err[list(positions)] = 1
            leaders.setdefault(syndrome(code, err).tobytes(), err)
    return [(np.frombuffer(key, dtype=np.uint8), err) for key, err in leaders.items()]


@functools.cache
def _leaders(code) -> dict[bytes, np.ndarray]:
    return {s.tobytes(): err for s, err in scalar_table_items(code)}


def decode_to_codeword(code, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded-distance decode: returns (codeword, corrected_error).

    Raises:
        DecodeFailure: syndrome of `received` is outside the table, i.e. the
            error weight exceeded t and no correction is guaranteed.
    """
    if len(received) != code.n:
        raise DimensionError(f"received length {len(received)} != block length {code.n}")
    err = _leaders(code).get(syndrome(code, received).tobytes())
    if err is None:
        raise DecodeFailure(f"syndrome outside radius-{code.t} table of {code!r}")
    return received ^ err, err


def random_codeword(code, rng) -> np.ndarray:
    """Uniform draw over the 2^k codewords (rng is a numpy Generator); one
    draw of k coefficients, as the protocol draws one block's."""
    coeffs = rng.integers(0, 2, size=code.k)
    w = np.zeros(code.n, dtype=np.uint8)
    for i in range(code.k):
        if coeffs[i]:
            w ^= code.generator[i]
    return w


def to_word(bits) -> int:
    """The bits of a 1-D 0/1 array as an int word, column j as bit j."""
    return sum(int(b) << j for j, b in enumerate(bits))


def word_rows(words, n: int) -> np.ndarray:
    """(len(words), n) uint8 array whose row i holds bits 0..n-1 of words[i];
    the inverse of `to_word`."""
    return np.array([[(w >> j) & 1 for j in range(n)] for w in words],
                    dtype=np.uint8).reshape(len(words), n)


def _reduce(words: list[int], ncols: int) -> list[int]:
    """Leftmost-pivot reduction of the low `ncols` bits of `words`, in
    place, with higher bits riding along; returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(words):
            break
        mask = 1 << col
        pivot_row = next((i for i in range(r, len(words)) if words[i] & mask), None)
        if pivot_row is None:
            continue
        words[r], words[pivot_row] = words[pivot_row], words[r]
        for i in range(len(words)):
            if i != r and words[i] & mask:
                words[i] ^= words[r]
        pivots.append(col)
        r += 1
    return pivots


def eliminate_reference(a: np.ndarray, ncols: int) -> list[int]:
    """Leftmost-pivot reduction of the first `ncols` columns of the 0/1 array
    `a`, in place, as numpy row operations on its rows (the elimination the
    program ran before it packed rows into ints); columns after them ride
    along.  Returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(a):
            break
        hits = a[r:, col].nonzero()[0]
        if not hits.size:
            continue
        p = r + hits[0]
        a[[r, p]] = a[[p, r]]
        others = a[:, col].nonzero()[0]
        a[others[others != r]] ^= a[r]
        pivots.append(col)
        r += 1
    return pivots


def row_reduce_reference(a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """(reduced, rank, pivots) of `gf2.row_reduce`, by `eliminate_reference`."""
    reduced = np.array(a, dtype=np.uint8)
    pivots = eliminate_reference(reduced, reduced.shape[1])
    return reduced, len(pivots), pivots


def solve_membership_reference(a: np.ndarray, v: np.ndarray):
    """`gf2.solve_membership` by `eliminate_reference`: the rows of a, tagged
    with their indices in the columns after a's, are reduced over a's
    columns, and clearing v's pivot bits leaves its coefficients in the tag
    columns; None when v is not in the row space."""
    a = np.asarray(a, dtype=np.uint8)
    m, n = a.shape
    aug = np.hstack([a, np.eye(m, dtype=np.uint8)])
    word = np.concatenate([np.asarray(v, dtype=np.uint8), np.zeros(m, dtype=np.uint8)])
    for i, col in enumerate(eliminate_reference(aug, n)):
        if word[col]:
            word ^= aug[i]
    return None if word[:n].any() else word[n:]


def _in_span(rows: list[int], word: int, ncols: int) -> bool:
    reduced = list(rows)
    for i, col in enumerate(_reduce(reduced, ncols)):
        if (word >> col) & 1:
            word ^= reduced[i]
    return word == 0


def build_label_matrix(outer, inner) -> np.ndarray:
    """(key_width, n) matrix L with L @ w & 1 = canonical coset label for w in
    outer: the row-reduced inner basis, extended by the row-reduced outer rows
    not yet in its span; the label is the coefficients on the extension
    rows."""
    n = outer.n
    basis = [to_word(row) for row in inner.generator]
    r2 = len(_reduce(basis, n))
    basis = basis[:r2]
    outer_rows = [to_word(row) for row in outer.generator]
    k1 = len(_reduce(outer_rows, n))
    extension: list[int] = []
    for candidate in outer_rows[:k1]:
        if not _in_span(basis + extension, candidate, n):
            extension.append(candidate)
    assert len(extension) == k1 - r2, "could not extend inner basis to outer basis"
    # reduce [M | I]: the tag rows T satisfy T.M = rref(M), so coefficients
    # of w over M are read off w's bits at the pivot columns
    aug = [w | (1 << (n + i)) for i, w in enumerate(basis + extension)]
    pivots = _reduce(aug, n)
    assert len(pivots) == k1, "stacked basis is rank deficient"
    label = np.zeros((k1 - r2, n), dtype=np.uint8)
    for j in range(k1 - r2):
        for l in range(k1):
            label[j, pivots[l]] = (aug[l] >> (n + r2 + j)) & 1
    return label


@functools.cache
def label_matrix(pair) -> np.ndarray:
    return build_label_matrix(pair.outer, pair.inner)


def coset_label(pair, codeword: np.ndarray) -> np.ndarray:
    """Label of the coset codeword + inner, as key_width bits.

    Raises:
        NotInCodeError: the input is not an outer-code codeword.
    """
    if not contains(pair.outer, codeword):
        raise NotInCodeError(f"{codeword} is not in the outer code")
    return mat_vec(label_matrix(pair), codeword)


def project_label(pair, word: np.ndarray) -> np.ndarray:
    """Linear extension of coset_label to arbitrary words, the label a block
    gets after a decode failure (the raw block labelled as if error-free)."""
    return mat_vec(label_matrix(pair), word)


def attack_arrays_reference(attack, n: int, rng):
    """The channel's tampering for one transmission of n qubits, drawn from
    the Generator `rng`: `random` uniforms, then int8 interceptor bases.

    Returns:
        (flip, eve_basis): uint8 flip indicators and int8 interceptor bases
        (-1 where not intercepted).
    """
    if attack.kind == "bitflip":
        return (rng.random(n) < attack.probability).view(np.uint8), np.full(n, -1, dtype=np.int8)
    flip = np.zeros(n, dtype=np.uint8)
    if attack.kind == "intercept_resend":
        intercepted = rng.random(n) < attack.probability
        return flip, np.where(intercepted, rng.integers(0, 2, size=n, dtype=np.int8), -1)
    eve = np.full(n, -1, dtype=np.int8)
    if attack.kind == "correlated_positions":
        if any(p >= n for p in attack.positions):
            raise ConfigError(
                f"attack position {max(attack.positions)} outside transmission length {n}")
        hit = rng.random(len(attack.positions)) < attack.probability
        # a position listed twice toggles twice
        np.bitwise_xor.at(flip, np.array(attack.positions, dtype=np.intp)[hit], 1)
    return flip, eve


def select_reference(matched: np.ndarray, config, rng):
    """Sifting of one trial from its ascending matched positions: kept
    positions by `choice(matched, ...)`, check positions by a choice among
    the kept ones.  Returns sorted (kept, check, code) arrays.

    Raises:
        InsufficientSiftAbort: fewer than 2*n1*n2 matched positions.
    """
    target, count = config.kept_target, config.check_count
    if matched.size < target:
        raise InsufficientSiftAbort(f"{matched.size} basis-matched positions, need {target}")
    if not config.random_assignment:
        kept = matched[:target]
        return kept, kept[:count], kept[count:]
    kept = np.sort(rng.choice(matched, size=target, replace=False))
    picks = rng.choice(target, size=count, replace=False)
    in_code = np.ones(target, dtype=bool)
    in_code[picks] = False
    return kept, np.sort(kept[picks]), kept[in_code]


def draw_quantum_reference(config, attack, seed: int):
    """One trial's quantum phase, restarts included, drawn call by call from
    the two children of SeedSequence(seed).

    Returns:
        (draws, party): a dict of the trial's bits, b, bob_bases, flip, eve,
        coins, kept, check and code arrays and its matched and restarts
        counts; and its party generator, left as sifting leaves it.

    Raises:
        InsufficientSiftAbort: too few basis matches in max_restarts + 1
            attempts.
    """
    party, channel = (np.random.Generator(np.random.PCG64(s))
                      for s in np.random.SeedSequence(seed).spawn(2))
    n = config.transmitted_count
    restarts = 0
    while True:
        bits, b, bob_bases = (party.integers(0, 2, size=n, dtype=np.uint8) for _ in range(3))
        flip, eve = attack_arrays_reference(attack, n, channel)
        coins = channel.integers(0, 2, size=n, dtype=np.uint8)
        matched = (bob_bases == b).nonzero()[0]
        try:
            kept, check, code = select_reference(matched, config, party)
            break
        except InsufficientSiftAbort:
            restarts += 1
            if restarts > config.max_restarts:
                raise
    draws = dict(bits=bits, b=b, bob_bases=bob_bases, flip=flip, eve=eve, coins=coins,
                 kept=kept, check=check, code=code, matched=matched.size, restarts=restarts)
    return draws, party


def draw_stages_reference(config, parties, code):
    """Alice's stage draws, trial by trial and stage by stage, from each
    trial's party generator: ``permutation`` of the stage's input (the code
    positions, one row per trial in `code`, then the previous stage's key bit
    indices; the input as it is without random assignment), then
    ``integers(0, 2, size=(blocks, k))`` coefficients.

    Returns:
        one (orders, coeffs) pair per stage: the (M, blocks*n) positions in
        assigned order and the (M, blocks, k) int64 0/1 coefficients.
    """
    stages = [([], []) for _ in config.pairs]
    for positions, party in zip(code, parties):
        inputs = positions
        for (orders, coeffs), pair, blocks in zip(stages, config.pairs, config.block_counts):
            orders.append(party.permutation(inputs) if config.random_assignment
                          else np.arange(inputs) if isinstance(inputs, int) else inputs)
            coeffs.append(party.integers(0, 2, size=(blocks, pair.outer.k)))
            inputs = blocks * pair.key_width
    return [(np.array(orders), np.array(coeffs)) for orders, coeffs in stages]


class ReferenceBlock(NamedTuple):
    """One block line as the reference parser reads it."""

    stage: int
    index: int
    positions: tuple
    masked: str
    line: int


class ReferenceTranscript(NamedTuple):
    b: str
    kept_positions: tuple
    check_positions: tuple
    alice_check_values: str
    bob_check_values: str
    stage1_blocks: tuple
    stage2_blocks: tuple


_REFERENCE_BITS = re.compile("[01]*")
_REFERENCE_HEADER_TAGS = ("B", "KEEP", "CHECKPOS", "ACHK", "BCHK")


def _reference_fields(body: str, line_no: int) -> dict:
    fields = {}
    for part in body.split():
        if "=" not in part:
            raise TranscriptError(f"malformed field {part!r}", line=line_no)
        key, value = part.split("=", 1)
        if key in fields:
            raise TranscriptError(f"duplicate field {key!r}", line=line_no)
        fields[key] = value
    return fields


def _reference_bits(value: str, line_no: int) -> str:
    if _REFERENCE_BITS.fullmatch(value) is None:
        raise TranscriptError(f"bit string {value!r} has characters outside 0/1", line=line_no)
    return value


def _reference_positions(value: str, line_no: int) -> tuple:
    try:
        return tuple(parse_decimals(value).tolist())
    except ValueError:
        raise TranscriptError(f"bad position list {value!r}", line=line_no) from None


def parse_transcript_reference(text: str, accepted: list = None) -> ReferenceTranscript:
    """Parse a dumped transcript one line and one list at a time; each block
    line read in full is appended to `accepted` (if given) as a
    ReferenceBlock, so a caller sees the blocks read before an error.

    Raises:
        TranscriptError: with the offending line number, as the parser does.
    """
    accepted = [] if accepted is None else accepted
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, _, body = line.partition(" ")
        records.append((line_no, tag, _reference_fields(body, line_no)))

    header = {}
    idx = 0
    for expected in _REFERENCE_HEADER_TAGS:
        if idx >= len(records) or records[idx][1] != expected:
            found = records[idx][1] if idx < len(records) else "end of file"
            line = records[idx][0] if idx < len(records) else len(text.splitlines()) + 1
            raise TranscriptError(f"missing tag {expected} (found {found})", line=line)
        header[expected] = (records[idx][0], records[idx][2])
        idx += 1

    def field(tag, key):
        line_no, fields = header[tag]
        if key not in fields:
            raise TranscriptError(f"tag {tag} is missing field {key!r}", line=line_no)
        return fields[key], line_no

    b = _reference_bits(*field("B", "bits"))
    kept = _reference_positions(*field("KEEP", "pos"))
    checkpos = _reference_positions(*field("CHECKPOS", "pos"))
    achk = _reference_bits(*field("ACHK", "bits"))
    bchk = _reference_bits(*field("BCHK", "bits"))

    blocks = {1: [], 2: []}
    for line_no, tag, fields in records[idx:]:
        if tag not in ("BLK1", "BLK2"):
            raise TranscriptError(f"unexpected tag {tag}", line=line_no)
        stage = int(tag[3])
        if stage == 1 and blocks[2]:
            raise TranscriptError("BLK1 after BLK2", line=line_no)
        for key in ("id", "pos", "masked"):
            if key not in fields:
                raise TranscriptError(f"tag {tag} is missing field {key!r}", line=line_no)
        try:
            block_id = parse_decimal(fields["id"])
        except ValueError:
            raise TranscriptError(f"bad block id {fields['id']!r}", line=line_no) from None
        if block_id != len(blocks[stage]):
            raise TranscriptError(
                f"block id {block_id} out of order (expected {len(blocks[stage])})", line=line_no)
        positions = _reference_positions(fields["pos"], line_no)
        masked = _reference_bits(fields["masked"], line_no)
        if len(positions) != len(masked):
            raise TranscriptError(
                f"masked length {len(masked)} != position count {len(positions)}", line=line_no)
        blocks[stage].append(ReferenceBlock(stage, block_id, positions, masked, line_no))
        accepted.append(blocks[stage][-1])

    if len(checkpos) != len(achk):
        raise TranscriptError("check positions and alice check values differ in length")
    if len(achk) != len(bchk):
        raise TranscriptError("check value strings differ in length")
    return ReferenceTranscript(b, kept, checkpos, achk, bchk, tuple(blocks[1]), tuple(blocks[2]))

"""Scalar reference for decoding, coset labels and codeword draws, one block
at a time, and the Generator calls that define a trial's quantum-phase draws.

The protocol decodes and labels (blocks x n) arrays against the dense
matrices and the syndrome table each code and pair caches.  This module does
the same work from a code's generator and parity-check matrices alone: its
own syndrome table, built one error at a time; its own coset-label matrix,
built by the canonical-basis construction with its own row reduction on int
words it packs from the generator rows; and its own codeword draw.  A fault
in the tables or matrices the protocol uses therefore shows up as a
disagreement with it.  `test_stage_oracle.py` checks that this module stays
independent of them.  Vectors in and out are 1-D uint8 arrays of 0/1 bits.

`draw_quantum_reference` takes one trial's quantum phase, restarts
included, as the sequence of ``Generator`` calls that defines the party and
channel streams: three uint8 `integers` party draws, the channel's
`attack_arrays_reference` draws and its uint8 coins per attempt, then the
two `choice` draws of sifting.  The protocol derives the same values from
one word draw per generator per attempt; `test_draws.py` checks that every
value, and the state each party generator is left in, agree.
"""

import functools
import itertools

import numpy as np

from bb84sim.errors import ConfigError, DimensionError, InsufficientSiftAbort, NotInCodeError


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


def one_error_per_block(rng):
    """Injector flipping one uniformly placed bit in every block, both stages."""

    def inject(stage: int, block_index: int, block_len: int):
        return [int(rng.integers(0, block_len))]

    return inject


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

"""The array stage functions against the scalar oracle in tests/oracle.py.

`_alice_stage` and `stage_correct_and_amplify` work on (B, n) arrays; each
row, with the coefficients drawn as one (B, k) draw, must match what the
per-block functions `random_codeword`, `decode_to_codeword`, `coset_label`
and `project_label` give for that block, decode failures included.  The
nested pairs are random, built here, and their declared distances are
checked by enumeration.  The oracle builds its own syndrome table and label
matrix, and a test below keeps it from using the engine's.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bb84sim.channel import AttackModel
from bb84sim.codes import CssPair, LinearCode, builtin_pair
from bb84sim.errors import NotInCodeError
from bb84sim.gf2 import BitMatrix, BitVector, row_reduce, rows_to_words, words_to_rows
from bb84sim.protocol import (
    ProtocolConfig,
    _alice_stage,
    _labels,
    run_protocol,
    stage_correct_and_amplify,
)
from oracle import (
    DecodeFailure,
    build_label_matrix,
    coset_label,
    decode_to_codeword,
    project_label,
    random_codeword,
)


def full_rank_rows(rng, k, n):
    """k random linearly independent n-bit words."""
    while True:
        words = [int(w) for w in rng.integers(0, 1 << n, size=k)]
        if row_reduce(BitMatrix(k, n, words))[1] == k:
            return words


def null_space(words, n):
    """A basis of {x : <w, x> = 0 for every w} (n - rank words)."""
    reduced, rank, pivots = row_reduce(BitMatrix(len(words), n, words))
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = 1 << free
        for i, p in enumerate(pivots):
            if (reduced.row_words[i] >> free) & 1:
                x |= 1 << p
        basis.append(x)
    return basis


def code_of(words, n, name):
    """The code spanned by `words`, its d the enumerated minimum distance."""
    k = len(words)
    check = null_space(words, n)
    probe = LinearCode(n, k, 1, BitMatrix(k, n, words), BitMatrix(n - k, n, check))
    weights = [cw.weight for cw in probe.codewords() if not cw.is_zero()]
    code = LinearCode(n, k, min(weights, default=n), BitMatrix(k, n, words),
                      BitMatrix(n - k, n, check), name=name)
    assert code.verify_distance()
    return code


def random_pair(rng, n, k_outer, k_inner):
    outer_words = full_rank_rows(rng, k_outer, n)
    coeffs = full_rank_rows(rng, k_inner, k_outer)
    inner_words = []
    for c in coeffs:
        w = 0
        for i in range(k_outer):
            if (c >> i) & 1:
                w ^= outer_words[i]
        inner_words.append(w)
    return CssPair(code_of(outer_words, n, "outer"), code_of(inner_words, n, "inner"))


@st.composite
def pairs_and_seed(draw):
    n = draw(st.integers(2, 12))
    k_outer = draw(st.integers(1, n))
    k_inner = draw(st.integers(0, k_outer - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, n, k_outer, k_inner)
    assert pair._label_matrix == build_label_matrix(pair.outer, pair.inner)
    return pair, seed


def vectors(rows):
    return [BitVector(rows.shape[1], w) for w in rows_to_words(rows)]


@settings(max_examples=150, deadline=None)
@given(pairs_and_seed(), st.integers(1, 9))
def test_alice_stage_matches_per_block_draws(pair_seed, blocks):
    pair, seed = pair_seed
    values = np.random.default_rng(seed + 1).integers(0, 2, (blocks, pair.n), dtype=np.uint8)
    # the engine draws a stage's coefficients as one (B, k) draw
    coeffs = np.random.default_rng(seed).integers(0, 2, size=(blocks, pair.outer.k))
    masked, labels = _alice_stage(pair, values, coeffs)
    oracle = np.random.default_rng(seed)
    for v, m, label in zip(vectors(values), vectors(masked), vectors(labels)):
        u = random_codeword(pair.outer, oracle)
        assert m == u + v
        assert label == coset_label(pair, u)


@settings(max_examples=150, deadline=None)
@given(pairs_and_seed(), st.integers(1, 9))
def test_receiver_stage_matches_per_block_decode(pair_seed, blocks):
    pair, seed = pair_seed
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, (blocks, pair.n), dtype=np.uint8)
    masked, _ = _alice_stage(pair, values, rng.integers(0, 2, size=(blocks, pair.outer.k)))
    # errors of every weight, so that non-perfect codes fail to decode
    weights = rng.integers(0, pair.n + 1, size=blocks)
    noisy = values ^ (rng.random((blocks, pair.n)).argsort(axis=1) < weights[:, None])
    labels, failed = stage_correct_and_amplify(pair, noisy, masked)
    assert labels.shape == (blocks, pair.key_width) and failed.shape == (blocks,)
    for w, a, label, flag in zip(vectors(noisy), vectors(masked), vectors(labels), failed):
        try:
            codeword, _ = decode_to_codeword(pair.outer, w + a)
        except DecodeFailure:
            assert flag
            assert label == project_label(pair, w + a)
        else:
            assert not flag
            assert label == coset_label(pair, codeword)


def test_every_word_of_a_non_perfect_pair():
    # all 1024 received words of one [10,4] outer code in one call, so the
    # failure branch is certain to be taken
    pair = random_pair(np.random.default_rng(0), 10, 4, 1)
    assert len(pair.outer.syndrome_table()) < 2 ** (pair.n - pair.outer.k)
    words = words_to_rows(range(1 << pair.n), pair.n)
    labels, failed = stage_correct_and_amplify(pair, words, np.zeros_like(words))
    assert failed.any() and not failed.all()
    for w, label, flag in zip(vectors(words), vectors(labels), failed):
        try:
            codeword, _ = decode_to_codeword(pair.outer, w)
        except DecodeFailure:
            assert flag and label == project_label(pair, w)
        else:
            assert not flag and label == coset_label(pair, codeword)


def test_labelling_a_non_codeword_raises():
    # as the oracle's coset_label does; only rows flagged as decode failures
    # may be labelled by projection
    steane = builtin_pair("steane")
    words = words_to_rows([0b1111111, 0b0000001], 7)
    with pytest.raises(NotInCodeError, match="1 stage words"):
        _labels(steane, words @ steane.check_label_t & 1)
    labels = _labels(steane, words @ steane.check_label_t & 1, np.array([False, True]))
    assert vectors(labels) == [coset_label(steane, BitVector(7, 0b1111111)),
                               project_label(steane, BitVector(7, 0b0000001))]


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("flip", [-1, 7])
def test_injected_flip_outside_block_raises_index_error(stage, flip):
    steane = builtin_pair("steane")
    config = ProtocolConfig(steane, steane, abort_threshold=0.124, rng_seed=3)

    def inject(s, block, n):
        return [flip] if s == stage else []

    with pytest.raises(IndexError, match=f"injected flip {flip} out of range"):
        run_protocol(config, AttackModel.none(), error_injection=inject)


# what the engine decodes and labels with; the oracle must build its own
ENGINE_NAMES = {"SyndromeTable", "check_label_t", "generator_check_labels",
                "error_check_labels", "generator_array", "parity_check_t"}


def test_oracle_is_independent_of_the_engine():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            used.add(node.module)
            used.update(alias.name for alias in node.names)
            used.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert "bb84sim.protocol" not in used
    assert not used & ENGINE_NAMES

"""The array stage functions against the scalar oracle in tests/oracle.py.

`_alice_stage` and `_bob_stage` work on (B, n) arrays; each
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

from bb84sim.codes import CssPair, LinearCode, builtin_pair
from bb84sim.errors import NotInCodeError
from bb84sim.gf2 import row_reduce
from bb84sim.protocol import _alice_stage, _bob_stage, _labels
from oracle import (
    DecodeFailure,
    build_label_matrix,
    coset_label,
    decode_to_codeword,
    project_label,
    random_codeword,
    word_rows,
)


def full_rank_rows(rng, k, n):
    """k random linearly independent rows of n bits."""
    while True:
        rows = word_rows(rng.integers(0, 1 << n, size=k), n)
        if row_reduce(rows)[1] == k:
            return rows


def null_space(rows, n):
    """A basis of {x : <w, x> = 0 for every row w} (n - rank rows)."""
    reduced, rank, pivots = row_reduce(rows)
    basis = np.zeros((n - rank, n), dtype=np.uint8)
    for row, free in zip(basis, (c for c in range(n) if c not in pivots)):
        row[free] = 1
        row[pivots] = reduced[:rank, free]
    return basis


def code_of(rows, n, name):
    """The code spanned by `rows`, its d the enumerated minimum distance."""
    check = null_space(rows, n)
    weights = LinearCode(rows, check, 1).codewords()[1:].sum(axis=1)
    code = LinearCode(rows, check, int(weights.min(initial=n)), name=name)
    assert code.verify_distance()
    return code


def random_pair(rng, n, k_outer, k_inner):
    outer_rows = full_rank_rows(rng, k_outer, n)
    inner_rows = full_rank_rows(rng, k_inner, k_outer) @ outer_rows & 1
    return CssPair(code_of(outer_rows, n, "outer"), code_of(inner_rows, n, "inner"))


@st.composite
def pairs_and_seed(draw):
    n = draw(st.integers(2, 12))
    k_outer = draw(st.integers(1, n))
    k_inner = draw(st.integers(0, k_outer - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, n, k_outer, k_inner)
    assert np.array_equal(pair._label_matrix, build_label_matrix(pair.outer, pair.inner))
    return pair, seed


@settings(max_examples=150, deadline=None)
@given(pairs_and_seed(), st.integers(1, 9))
def test_alice_stage_matches_per_block_draws(pair_seed, blocks):
    pair, seed = pair_seed
    values = np.random.default_rng(seed + 1).integers(0, 2, (blocks, pair.n), dtype=np.uint8)
    # the engine draws a stage's coefficients as one (B, k) draw
    coeffs = np.random.default_rng(seed).integers(0, 2, size=(blocks, pair.outer.k))
    masked, labels = _alice_stage(pair, values, coeffs)
    oracle = np.random.default_rng(seed)
    for v, m, label in zip(values, masked, labels):
        u = random_codeword(pair.outer, oracle)
        assert (m == u ^ v).all()
        assert (label == coset_label(pair, u)).all()


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
    labels, failed = _bob_stage(pair, noisy, masked)
    assert labels.shape == (blocks, pair.key_width) and failed.shape == (blocks,)
    for w, a, label, flag in zip(noisy, masked, labels, failed):
        try:
            codeword, _ = decode_to_codeword(pair.outer, w ^ a)
        except DecodeFailure:
            assert flag
            assert (label == project_label(pair, w ^ a)).all()
        else:
            assert not flag
            assert (label == coset_label(pair, codeword)).all()


def test_every_word_of_a_non_perfect_pair():
    # all 1024 received words of one [10,4] outer code in one call, so the
    # failure branch is certain to be taken
    pair = random_pair(np.random.default_rng(0), 10, 4, 1)
    assert len(pair.outer.syndrome_table()) < 2 ** (pair.n - pair.outer.k)
    words = word_rows(range(1 << pair.n), pair.n)
    labels, failed = _bob_stage(pair, words, np.zeros_like(words))
    assert failed.any() and not failed.all()
    for w, label, flag in zip(words, labels, failed):
        try:
            codeword, _ = decode_to_codeword(pair.outer, w)
        except DecodeFailure:
            assert flag and (label == project_label(pair, w)).all()
        else:
            assert not flag and (label == coset_label(pair, codeword)).all()


def test_labelling_a_non_codeword_raises():
    # as the oracle's coset_label does; only rows flagged as decode failures
    # may be labelled by projection
    steane = builtin_pair("steane")
    words = word_rows([0b1111111, 0b0000001], 7)
    with pytest.raises(NotInCodeError, match="1 stage words"):
        _labels(steane, words @ steane.check_label_t & 1)
    labels = _labels(steane, words @ steane.check_label_t & 1, np.array([False, True]))
    assert labels.tolist() == [coset_label(steane, words[0]).tolist(),
                               project_label(steane, words[1]).tolist()]


# what the engine decodes and labels with; the oracle must build its own
ENGINE_NAMES = {"SyndromeTable", "check_label_t", "generator_check_labels",
                "error_check_labels", "generator_array", "parity_check_t", "check_label_f32",
                "generator_check_labels_f32"}


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

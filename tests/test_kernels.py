import itertools

import numpy as np
import pytest

from bb84sim.channel import measure_bits
from bb84sim.errors import DimensionError


def reference_bit(prep_basis, prep_bit, flip, eve_basis, bob_basis, coin):
    # scalar truth table the batch measurement must reproduce
    if eve_basis >= 0 and eve_basis != prep_basis:
        return coin
    if bob_basis == prep_basis:
        return prep_bit ^ flip
    return coin


def all_input_combinations():
    return list(itertools.product((0, 1), (0, 1), (0, 1), (-1, 0, 1), (0, 1), (0, 1)))


def test_exhaustive_truth_table():
    combos = all_input_combinations()
    cols = list(zip(*combos))
    prep_basis = np.array(cols[0], dtype=np.uint8)
    prep_bit = np.array(cols[1], dtype=np.uint8)
    flip = np.array(cols[2], dtype=np.uint8)
    eve = np.array(cols[3], dtype=np.int8)
    bob = np.array(cols[4], dtype=np.uint8)
    coin = np.array(cols[5], dtype=np.uint8)
    got = measure_bits(prep_basis, prep_bit, flip, eve, bob, coin)
    expected = np.array([reference_bit(*c) for c in combos], dtype=np.uint8)
    assert np.array_equal(np.asarray(got), expected)


def test_wrapper_validates_lengths():
    z5 = np.zeros(5, dtype=np.uint8)
    z4 = np.zeros(4, dtype=np.uint8)
    e5 = np.full(5, -1, dtype=np.int8)
    with pytest.raises(DimensionError):
        measure_bits(z5, z5, z5, e5, z4, z5)


def test_wrapper_coerces_dtypes():
    got = measure_bits([0, 0], [1, 1], [0, 0], [-1, -1], [0, 1], [0, 0])
    assert list(got) == [1, 0]

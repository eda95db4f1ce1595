"""Transmission medium: noise and eavesdropper models, and batch measurement.

The four prepare-and-measure states admit an exact classical description for
the modeled attacks: a matched-basis measurement returns the prepared bit
plus accumulated flips, a mismatched one is a fair coin, and interception in
the wrong basis re-randomizes the qubit.  No amplitude-level state is kept;
the interceptor's re-prepared state is modeled by basis-conditional
re-randomization at measurement time, which is statistically identical.

Randomness contract (relied on for reproducibility): the channel's draws for
one transmission are raw 64-bit words of its PCG64 stream, taken in a fixed
order and number that depend only on the attack kind and transmission
length, never on sampled values (`channel_draws`).  First come the words
`attack_arrays` reads as uniforms, each word w being the double
``(w >> 11) * 2**-53`` that ``Generator.random`` makes of it.  Then come
rows of n fair bits, each bit 7 of one byte of the stream's 32-bit halves,
low half and low byte first, `ceil(n / 4)` halves to a row: exactly what
``Generator.integers(0, 2, size=n)`` draws for uint8 or int8, since its
sampling never rejects at range 2 and starts a fresh four-byte buffer at
each call.  The rows are the interceptor's bases (`intercept_resend` only)
and then the measurement coins.  A half left over after the last row, when
the rows take an odd number, comes first in the rows of the trial's next
attempt (a restart), as ``Generator`` keeps it.  `measure_bits` draws
nothing; its random outcomes are the coins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError

__all__ = ["Basis", "AttackModel", "channel_draws", "attack_arrays", "measure_bits"]


class Basis(IntEnum):
    Z = 0
    X = 1


_KINDS = ("none", "bitflip", "intercept_resend", "correlated_positions")


@dataclass(frozen=True)
class AttackModel:
    """Channel tampering model.

    kind 'none': identity channel.
    kind 'bitflip': each position flips independently with `probability`.
    kind 'intercept_resend': each position is intercepted with
        `probability`; the interceptor measures in a uniform basis and
        forwards the collapsed state.
    kind 'correlated_positions': flips with `probability` applied only at
        the listed transmitted positions.
    """

    kind: str = "none"
    probability: float = 0.0
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r} (have {_KINDS})")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"attack probability {self.probability} outside [0, 1]")
        if self.kind == "correlated_positions":
            if any(p < 0 for p in self.positions):
                raise ConfigError("attack positions must be nonnegative")
        elif self.positions:
            raise ConfigError(f"attack kind {self.kind!r} takes no position list")

    @classmethod
    def none(cls) -> "AttackModel":
        return cls("none")

    @classmethod
    def bitflip(cls, p: float) -> "AttackModel":
        return cls("bitflip", probability=p)

    @classmethod
    def intercept_resend(cls, fraction: float) -> "AttackModel":
        return cls("intercept_resend", probability=fraction)

    @classmethod
    def correlated_positions(cls, positions: Sequence[int], flip_probability: float) -> "AttackModel":
        return cls("correlated_positions", probability=flip_probability,
                   positions=tuple(int(p) for p in positions))

    def describe(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "correlated_positions":
            return f"correlated_positions(p={self.probability}, k={len(self.positions)})"
        return f"{self.kind}(p={self.probability})"


def channel_draws(attack: AttackModel, n: int) -> tuple[int, int]:
    """The channel's draws for one transmission of n qubits, in stream order.

    Returns:
        (words, rows): the number of raw words `attack_arrays` reads as
        uniforms, and the number of rows of n fair bits drawn after them (the
        interceptor's bases under intercept_resend, then the coins).
    """
    if attack.kind in ("bitflip", "intercept_resend"):
        return n, 1 + (attack.kind == "intercept_resend")
    return len(attack.positions), 1


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """Where the uniforms (w >> 11) * 2**-53 of raw words w fall below p,
    compared as the integers w >> 11 < ceil(p * 2**53), which is exact."""
    return words >> 11 < math.ceil(p * 2 ** 53)


def attack_arrays(attack: AttackModel, n: int, words: np.ndarray, bases: np.ndarray):
    """The channel's tampering for T transmissions of n qubits, one per row.

    Args:
        words: (T, words) uint64 raw words, as `channel_draws` counts them.
        bases: (T, n) uint8 fair bits, the interceptor's bases; read only by
            intercept_resend.

    Returns:
        (flip, eve_basis): (T, n) uint8 flip indicators and int8 interceptor
        bases (-1 where not intercepted).

    Raises:
        ConfigError: a correlated position lies outside the transmission.
    """
    shape = (len(words), n)
    if attack.kind == "bitflip":
        return _below(words, attack.probability).view(np.uint8), np.full(shape, -1, np.int8)
    flip = np.zeros(shape, dtype=np.uint8)
    if attack.kind == "intercept_resend":
        return flip, np.where(_below(words, attack.probability), bases.view(np.int8), -1)
    if attack.kind == "correlated_positions":
        if any(p >= n for p in attack.positions):
            raise ConfigError(
                f"attack position {max(attack.positions)} outside transmission length {n}")
        rows, hit = _below(words, attack.probability).nonzero()
        # a position listed twice toggles twice
        np.bitwise_xor.at(flip, (rows, np.array(attack.positions, dtype=np.intp)[hit]), 1)
    return flip, np.full(shape, -1, np.int8)


def measure_bits(prep_basis, prep_bit, flip, eve_basis, bob_basis, coin):
    """Measurement outcomes for a batch of transmitted qubits, one per element
    of the equally shaped inputs (one transmission, or one per row).

    Args:
        prep_basis: uint8 array, preparation basis per position (0=Z, 1=X).
        prep_bit: uint8 array, prepared bit values.
        flip: uint8 array, 1 where the channel flipped the bit in its
            preparation basis.
        eve_basis: int8 array, interceptor's measurement basis per position,
            -1 where the position was not intercepted.
        bob_basis: uint8 array, receiver's measurement basis.
        coin: uint8 array, pre-drawn fair coins used wherever the outcome is
            random (mismatched measurement basis, or interception in the
            wrong basis).

    Returns:
        uint8 array of measured bits, shaped as the inputs.

    Raises:
        DimensionError: an input's shape differs from prep_basis's.
    """
    prep_basis = np.asarray(prep_basis, dtype=np.uint8)
    prep_bit = np.asarray(prep_bit, dtype=np.uint8)
    flip = np.asarray(flip, dtype=np.uint8)
    eve_basis = np.asarray(eve_basis, dtype=np.int8)
    bob_basis = np.asarray(bob_basis, dtype=np.uint8)
    coin = np.asarray(coin, dtype=np.uint8)
    for arr in (prep_bit, flip, eve_basis, bob_basis, coin):
        if arr.shape != prep_basis.shape:
            raise DimensionError(f"measurement input shape {arr.shape} != {prep_basis.shape}")
    # A qubit whose interceptor measured in the wrong basis is re-randomized,
    # whatever Bob does; otherwise a matched-basis measurement is the prepared
    # bit plus any in-channel flip, and a mismatched one is a fair coin.  As
    # uint8, an interceptor basis differs from the preparation basis by 1
    # exactly when it measured in the wrong one (-1 reads 255).
    scrambled = (eve_basis.view(np.uint8) ^ prep_basis) == 1
    return np.where(scrambled | (bob_basis != prep_basis), coin, prep_bit ^ flip)

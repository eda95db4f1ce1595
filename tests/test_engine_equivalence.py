"""Equality sweep: the trial engine must reproduce, byte for byte, the
recorded digests in engine_digests.json.

Each case runs many seeds of one configuration and hashes, per seed, the
outcome fields, the dumped transcript, Bob's bases and bits, and (on every
REPLAY_EVERY-th seed) the replay result.  The wide-pair cases run
`bb84sim run --dump-transcripts` with a file pair whose outer code has 64
parity checks and hash every output file.

The digests were computed by this module's own functions on the engine
that predates the array stages; print them for any checkout with

    PYTHONPATH=<checkout>/src python tests/test_engine_equivalence.py

This module never writes engine_digests.json.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bb84sim import cli
from bb84sim.channel import AttackModel
from bb84sim.codes import CssPair, LinearCode, builtin_pair, make_hamming_dual_7_3
from bb84sim.errors import TranscriptError
from bb84sim.gf2 import BitMatrix
from bb84sim.protocol import ProtocolConfig, one_error_per_block, replay_bob, run_protocol_full
from bb84sim.transcript import dump_transcript

DIGESTS_PATH = Path(__file__).resolve().parent / "engine_digests.json"
REPLAY_EVERY = 10
SWEEP_SEEDS = 2000
VARIANT_SEEDS = 200


def simplex_pair():
    # a non-perfect outer code ([7,3,4] simplex over the zero code), so that
    # bounded-distance decoding fails on reachable syndromes
    zero = LinearCode(7, 0, 7, BitMatrix(0, 7, ()), BitMatrix.identity(7), name="zero[7,0]")
    return CssPair(make_hamming_dual_7_3(), zero)


def pair(name):
    return simplex_pair() if name == "simplex" else builtin_pair(name)


def attack_for(kind, transmitted):
    if kind == "none":
        return AttackModel.none()
    if kind == "bitflip":
        return AttackModel.bitflip(0.04)
    if kind == "intercept_resend":
        return AttackModel.intercept_resend(0.3)
    return AttackModel.correlated_positions(range(0, transmitted, 3), 0.05)


# name -> (stage-1 pair, stage-2 pair, attack kind, seeds, config overrides, inject)
CASES = {}
for _pairs in ("steane/steane", "steane/golay", "golay/golay"):
    for _kind in ("none", "bitflip", "intercept_resend", "correlated_positions"):
        CASES[f"{_pairs}:{_kind}"] = (*_pairs.split("/"), _kind, SWEEP_SEEDS, {}, False)
CASES.update({
    "simplex/simplex:bitflip:strict": ("simplex", "simplex", "bitflip", VARIANT_SEEDS,
                                       {"strict_decode": True}, False),
    "simplex/simplex:bitflip:lenient": ("simplex", "simplex", "bitflip", VARIANT_SEEDS, {}, False),
    "steane/steane:bitflip:strict": ("steane", "steane", "bitflip", VARIANT_SEEDS,
                                     {"strict_decode": True}, False),
    "steane/steane:none:inject": ("steane", "steane", "none", VARIANT_SEEDS, {}, True),
    "golay/golay:bitflip:inject": ("golay", "golay", "bitflip", VARIANT_SEEDS, {}, True),
    "simplex/simplex:none:inject": ("simplex", "simplex", "none", VARIANT_SEEDS, {}, True),
    "steane/steane:bitflip:fixed": ("steane", "steane", "bitflip", VARIANT_SEEDS,
                                    {"random_assignment": False}, False),
    "golay/golay:correlated_positions:fixed": ("golay", "golay", "correlated_positions",
                                               VARIANT_SEEDS, {"random_assignment": False},
                                               False),
})


def _key(vec):
    return None if vec is None else str(vec)


def case_digest(name):
    """sha256 over every seed of one case."""
    stage1, stage2, kind, seeds, overrides, inject = CASES[name]
    base = ProtocolConfig(pair(stage1), pair(stage2), abort_threshold=0.124, delta=0.1,
                          **overrides)
    attack = attack_for(kind, base.transmitted_count)
    h = hashlib.sha256()
    for seed in range(seeds):
        config = replace(base, rng_seed=seed)
        injector = one_error_per_block(np.random.default_rng(10**6 + seed)) if inject else None
        art = run_protocol_full(config, attack, injector)
        o = art.outcome
        fields = (o.aborted, o.abort_reason, o.observed_check_error_rate,
                  _key(o.alice_final_key), _key(o.bob_final_key), o.stage1_decode_failures,
                  o.stage2_decode_failures, o.sifted_count, o.restarts)
        parts = [repr(fields), dump_transcript(art.transcript),
                 art.bob_bases.tobytes(), art.bob_bits.tobytes()]
        if seed % REPLAY_EVERY == 0:
            try:
                r = replay_bob(art.transcript, art.bob_bases, art.bob_bits, config)
                parts.append(repr((_key(r.key), r.check_error_rate, r.aborted,
                                   r.stage1_decode_failures, r.stage2_decode_failures)))
            except TranscriptError as exc:
                parts.append(f"TranscriptError: {exc}")
        for part in parts:
            h.update(part if isinstance(part, bytes) else part.encode())
            h.update(b"\0")
    return h.hexdigest()


# The wide outer code: [66,2] spanned by the all-ones word and 1^33 0^33,
# declared d=3 (radius 1), over the [66,1] repetition code.  Its 64 parity
# checks are e_i + e_(i+1) within each half; the repetition code's 65 are
# e_i + e_(i+1) for every i.
WIDE_N = 66


def _unit_pair_row(i):
    return "".join("1" if j in (i, i + 1) else "0" for j in range(WIDE_N))


def wide_pair_text():
    half = WIDE_N // 2
    outer = [f"{WIDE_N} 2 3", "1" * WIDE_N, "1" * half + "0" * half]
    outer += [_unit_pair_row(i) for i in range(WIDE_N - 1) if i != half - 1]
    inner = [f"{WIDE_N} 1 {WIDE_N}", "1" * WIDE_N]
    inner += [_unit_pair_row(i) for i in range(WIDE_N - 1)]
    return "\n".join(outer) + "\n%\n" + "\n".join(inner) + "\n"


# name -> (stage-1 pair, stage-2 pair), "wide" standing for the file pair
WIDE_CASES = {
    "wide/steane:cli": ("wide", "steane"),
    "steane/wide:cli": ("steane", "wide"),
}


def wide_digest(name, work_dir):
    """sha256 over every file `bb84sim run --dump-transcripts` writes."""
    work_dir = Path(work_dir)
    pair_file = work_dir / "wide.pair"
    pair_file.write_text(wide_pair_text(), encoding="ascii")
    specs = [f"file:{pair_file}" if p == "wide" else p for p in WIDE_CASES[name]]
    out_dir = work_dir / "out"
    argv = ["run", "--seed", "3", "--trials", "8", "--attack", "bitflip", "--noise-p", "0.02",
            "--threshold", "0.124", "--delta", "0.1", "--stage1-pair", specs[0],
            "--stage2-pair", specs[1], "--out-dir", str(out_dir), "--dump-transcripts"]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"bb84sim {' '.join(argv)} failed")
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _expected():
    return json.loads(DIGESTS_PATH.read_text())


def test_every_case_is_pinned():
    assert set(_expected()) == set(CASES) | set(WIDE_CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_sweep_matches_recorded_digest(name):
    assert case_digest(name) == _expected()[name]


@pytest.mark.parametrize("name", list(WIDE_CASES))
def test_wide_pair_cli_output_matches_recorded_digest(name, tmp_path):
    assert wide_digest(name, tmp_path) == _expected()[name]


if __name__ == "__main__":
    digests = {name: case_digest(name) for name in CASES}
    for name in WIDE_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = wide_digest(name, tmp)
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

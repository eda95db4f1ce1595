"""Equality sweep: the trial engine must reproduce, byte for byte, the
recorded digests in engine_digests.json.

Each case runs many seeds of one configuration and hashes, per seed, the
outcome fields, the dumped transcript, Bob's bases and bits, and (on every
REPLAY_EVERY-th seed) the replay result.  The wide-pair cases run
`bb84sim run --dump-transcripts` with a file pair whose outer code has 64
parity checks and hash every output file.

The chunk cases run `bb84sim run --dump-transcripts` over at least three of
its trial chunks and compare every trials.csv row, transcript and .bob record
with `run_protocol_full` on that trial's seed alone.

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
from bb84sim.codes import CssPair, LinearCode, builtin_pair, make_hamming_dual_7_3, parse_pair
from bb84sim.errors import InsufficientSiftAbort, TranscriptError
from bb84sim.gf2 import BitMatrix
from bb84sim.protocol import (
    ProtocolConfig,
    replay_bob,
    run_chunk,
    run_protocol_full,
)
from bb84sim.transcript import dump_transcript
from oracle import one_error_per_block

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
    if name == "simplex-file":
        return parse_pair(SIMPLEX_PAIR_FILE)
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


def _artifact_parts(art):
    """The outcome fields, dumped transcript and Bob's bases and bits of a run."""
    o = art.outcome
    fields = (o.aborted, o.abort_reason, o.observed_check_error_rate,
              _key(o.alice_final_key), _key(o.bob_final_key), o.stage1_decode_failures,
              o.stage2_decode_failures, o.sifted_count, o.restarts)
    return [repr(fields), dump_transcript(art.transcript),
            art.bob_bases.tobytes(), art.bob_bits.tobytes()]


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
        parts = _artifact_parts(art)
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


# name -> (code pair at both stages, attack kind, noise_p, trials, strict_decode)
CHUNK_CASES = {
    # about 7% of steane trials restart their quantum phase
    "steane:bitflip": ("steane", "bitflip", 0.04, 200, False),
    # about 98% abort at the check
    "steane:intercept_resend": ("steane", "intercept_resend", 1.0, 200, False),
    # golay is perfect, so strict decoding never aborts
    "golay:bitflip:strict": ("golay", "bitflip", 0.04, 40, True),
    # the [7,3,4] simplex code is not: some trials abort at stage 1 or 2
    "simplex:bitflip:strict": ("simplex-file", "bitflip", 0.04, 200, True),
}

# the simplex code over its [7,1,4] subcode spanned by 1010101, as a pair file
SIMPLEX_PAIR_FILE = """7 3 4
1010101
0110011
0001111
1110000
1001100
0101010
1101001
%
7 1 4
1010101
0100000
0001000
0000010
1010000
1000100
1000001
"""


def _with_config(monkeypatch, **changes):
    """Make `bb84sim run` use its usual config with `changes` applied."""
    build = cli._build_protocol_config
    monkeypatch.setattr(cli, "_build_protocol_config",
                        lambda settings, seed: replace(build(settings, seed), **changes))


def _run_argv(pair_name, kind, noise_p, seed, trials, out_dir):
    if pair_name == "simplex-file":
        pair_file = Path(out_dir) / "simplex.pair"
        pair_file.write_text(SIMPLEX_PAIR_FILE, encoding="ascii")
        pair_name = f"file:{pair_file}"
    return ["run", "--seed", str(seed), "--trials", str(trials), "--attack", kind,
            "--noise-p", repr(noise_p), "--threshold", "0.124", "--delta", "0.1",
            "--stage1-pair", pair_name, "--stage2-pair", pair_name,
            "--out-dir", str(Path(out_dir) / "out"), "--dump-transcripts"]


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


@pytest.mark.parametrize("name", list(CHUNK_CASES))
def test_run_across_chunks_matches_single_trials(name, tmp_path, monkeypatch):
    pair_name, kind, noise_p, trials, strict = CHUNK_CASES[name]
    _with_config(monkeypatch, strict_decode=strict)
    config = ProtocolConfig(pair(pair_name), pair(pair_name), abort_threshold=0.124, delta=0.1,
                            strict_decode=strict)
    chunk = max(1, cli.QUBITS_PER_CHUNK // config.transmitted_count)
    assert trials > 2 * chunk
    base = 500
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_run_argv(pair_name, kind, noise_p, base, trials, tmp_path)) == 0
    out_dir = tmp_path / "out"
    rows = (out_dir / "trials.csv").read_text(encoding="ascii").splitlines()[1:]
    assert len(rows) == trials
    attack = AttackModel(kind, probability=noise_p)
    outcomes = []
    for i, row in enumerate(rows):
        art = run_protocol_full(replace(config, rng_seed=base + i), attack)
        o = art.outcome
        outcomes.append(o)
        expected = [i, base + i, o.aborted, o.observed_check_error_rate, o.keys_equal,
                    o.stage1_decode_failures + o.stage2_decode_failures]
        assert row == ",".join(cli._fmt(v) for v in expected), f"trial {i}"
        stem = out_dir / "transcripts" / f"trial_{i:05d}"
        assert stem.with_suffix(".transcript").read_text(encoding="ascii") == \
            dump_transcript(art.transcript), f"trial {i}"
        key = "-" if o.bob_final_key is None else str(o.bob_final_key)
        bob = (f"BASES {''.join(str(x) for x in art.bob_bases)}\n"
               f"BITS {''.join(str(x) for x in art.bob_bits)}\nKEY {key}\n")
        assert stem.with_suffix(".bob").read_text(encoding="ascii") == bob, f"trial {i}"
    # the cases reach what they are there for
    reasons = {o.abort_reason for o in outcomes}
    if name == "steane:bitflip":
        assert any(o.restarts and i % chunk for i, o in enumerate(outcomes))
    if name == "steane:intercept_resend":
        assert reasons == {"security", None}
    if name == "simplex:bitflip:strict":
        assert reasons == {"decode_failure", None}


@pytest.mark.parametrize("name", ["simplex/simplex:bitflip:strict", "steane/steane:bitflip:fixed",
                                  "golay/golay:correlated_positions:fixed",
                                  "steane/golay:intercept_resend"])
def test_chunk_trials_equal_single_trials(name):
    # settings `bb84sim run` cannot make, in one chunk of many trials
    stage1, stage2, kind, _, overrides, _ = CASES[name]
    base = ProtocolConfig(pair(stage1), pair(stage2), abort_threshold=0.124, delta=0.1,
                          **overrides)
    attack = attack_for(kind, base.transmitted_count)
    chunk = run_chunk(base, range(100, 160), attack)
    for i in range(len(chunk.aborted)):
        single = run_protocol_full(replace(base, rng_seed=100 + i), attack)
        assert _artifact_parts(chunk.artifacts(i)) == _artifact_parts(single), f"trial {i}"


def test_chunk_aborting_at_every_step_equals_single_trials():
    # strict simplex at bitflip 0.1: trials abort at the check and on decode
    # failures at either stage, between trials that finish
    config = ProtocolConfig(simplex_pair(), simplex_pair(), abort_threshold=0.124, delta=0.1,
                            strict_decode=True)
    attack = AttackModel.bitflip(0.1)
    chunk = run_chunk(config, range(100, 300), attack)
    steps = set()
    for i in range(200):
        art = chunk.artifacts(i)
        o, t = art.outcome, art.transcript
        steps.add((o.abort_reason, bool(t.stage1_blocks), bool(t.stage2_blocks)))
        if o.aborted:  # an aborted run reports no failures and no keys
            assert (o.stage1_decode_failures, o.stage2_decode_failures) == (0, 0)
            assert o.alice_final_key is o.bob_final_key is None
        single = run_protocol_full(replace(config, rng_seed=100 + i), attack)
        assert _artifact_parts(art) == _artifact_parts(single), f"trial {i}"
    assert steps == {("security", False, False), ("decode_failure", True, False),
                     ("decode_failure", True, True), (None, True, True)}


def test_chunk_injects_per_trial_block_indices():
    # a stateless injector, so that each trial alone sees the same flips;
    # four flips a block are beyond golay's radius, so they change the keys
    def inject(stage, block, n):
        return [(block + j) % n for j in range(4)]

    config = ProtocolConfig(pair("golay"), pair("steane"), abort_threshold=0.124, delta=0.1)
    chunk = run_chunk(config, range(30), AttackModel.bitflip(0.02), inject)
    assert not chunk.keys_equal.all()
    for i in range(30):
        single = run_protocol_full(replace(config, rng_seed=i), AttackModel.bitflip(0.02), inject)
        assert _artifact_parts(chunk.artifacts(i)) == _artifact_parts(single), f"trial {i}"


def test_exhausted_restarts_mid_chunk_is_a_config_error(tmp_path, monkeypatch, capsys):
    _with_config(monkeypatch, max_restarts=0)
    config = ProtocolConfig(pair("steane"), pair("steane"), abort_threshold=0.124, delta=0.1,
                            max_restarts=0)
    chunk = cli.QUBITS_PER_CHUNK // config.transmitted_count
    base = 500
    first = next(i for i in range(1000) if _needs_restart(replace(config, rng_seed=base + i)))
    assert first % chunk and first < chunk
    code = cli.main(_run_argv("steane", "bitflip", 0.04, base, chunk, tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: ")


def _needs_restart(config):
    try:
        run_protocol_full(config, AttackModel.bitflip(0.04))
    except InsufficientSiftAbort:
        return True
    return False


if __name__ == "__main__":
    digests = {name: case_digest(name) for name in CASES}
    for name in WIDE_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = wide_digest(name, tmp)
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")

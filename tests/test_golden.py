"""Byte-level output pins: `bb84sim run` at seed 0 must reproduce the sha256
of every file recorded in perfbench/golden.json.

The hashes are read from that file and never written here; a refactor that
changes a single output byte fails this test.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bb84sim import cli

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

# workload name -> (code pair at both stages, attack, noise_p, dump transcripts)
WORKLOADS = {
    "steane-bitflip": ("steane", "bitflip", 0.03, False),
    "golay-bitflip": ("golay", "bitflip", 0.03, False),
    "intercept-transcripts": ("steane", "intercept_resend", 1.0, True),
}


def test_every_golden_workload_is_pinned():
    assert set(WORKLOADS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_output_matches_golden_sha256(name, tmp_path):
    pair, attack, noise_p, dump = WORKLOADS[name]
    argv = ["run", "--seed", "0", "--trials", "200",
            "--attack", attack, "--noise-p", repr(noise_p),
            "--threshold", "0.124", "--delta", "0.1",
            "--stage1-pair", pair, "--stage2-pair", pair,
            "--out-dir", str(tmp_path)]
    if dump:
        argv.append("--dump-transcripts")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    for rel, expected in sorted(GOLDEN[name].items()):
        got = hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
        assert got == expected, f"{name}: {rel} sha256 {got} != golden {expected}"

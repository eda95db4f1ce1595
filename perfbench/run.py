#!/usr/bin/env python3
"""Whole-trial benchmark for bb84sim.

One protocol trial of the two-stage concatenated BB84 pipeline is the unit of
work.  Each run drives one workload in a closed loop (one caller, no threads)
for --seconds seconds, checks the outputs, and prints one JSON result as the
last line of standard output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps bb84sim's functions at module boundaries
(see spans.py) and reports the per-layer split instead.

Usage, from the repository root:

    python3 perfbench/run.py --workload golay-bitflip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-golden   # re-capture perfbench/golden.json

The program is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"

KERNEL_BACKEND = "python"   # pinned, so a backend switch cannot pass for a program change
THRESHOLD = 0.124
DELTA = 0.1
DEFAULT_SEED = 0            # the seed golden.json was captured at
GOLDEN_TRIALS = 200
SEED_STRIDE = 10**8         # trial seeds of one workload seed: [seed*STRIDE, (seed+1)*STRIDE)
BATCH_STRIDE = 10**4        # trial seeds of one batch within that range
REPLAY_SOURCE_INDEX = SEED_STRIDE // BATCH_STRIDE - 1
MIN_ROUNDS = 3
GAUGE_FRESH_S = 0.005       # a reading this recent also serves as the next "before"
STEANE_GAUGE = (232, 7, 3, 8)
STEANE_GAUGE_REF_S = 0.0015
PARSE_GAUGE_REF_S = 0.00135
BATCH_S = 0.6               # per round: timed batches
LATENCY_S = 0.5             # per round: single-trial chunks
REPLAY_S = 0.3              # per round: replay chunks
TRACE_SPANS = 300_000       # spans kept per traced run, which bounds their memory (~60 MB)
CI_Z = 5.0                  # abort-fraction interval half-width in standard errors


@dataclass(frozen=True)
class Workload:
    name: str
    pair: str
    attack: str
    noise_p: float
    check_bit_error: float  # exact per-check-bit error probability of the attack
    dump: bool              # batches write transcripts, as `run --dump-transcripts`
    batch_trials: int       # trials per timed batch, 0.1-0.3 s each
    latency_chunk: int      # single trials between two gauge readings, ~50 ms
    replay_chunk: int       # replays between two gauge readings, ~50 ms
    gauge_shape: tuple      # reference_trial(qubits, block, parity rows, repeats)
    gauge_ref_s: float      # its time in the fast state of a 2.1 GHz Xeon (KVM, 2 vCPU)

    def run_argv(self, base_seed, trials, out_dir, dump):
        argv = ["run", "--seed", str(base_seed), "--trials", str(trials),
                "--attack", self.attack, "--noise-p", repr(self.noise_p),
                "--threshold", repr(THRESHOLD), "--delta", repr(DELTA),
                "--stage1-pair", self.pair, "--stage2-pair", self.pair,
                "--out-dir", str(out_dir)]
        return argv + ["--dump-transcripts"] if dump else argv


WORKLOADS = {w.name: w for w in (
    Workload("steane-bitflip", "steane", "bitflip", 0.03, 0.03, False, 200, 100, 200,
             STEANE_GAUGE, STEANE_GAUGE_REF_S),
    Workload("golay-bitflip", "golay", "bitflip", 0.03, 0.03, False, 100, 30, 20,
             (2327, 23, 11, 4), 0.0031),
    # intercept-resend at p=1: the interceptor's basis is wrong half the time,
    # and then the collapsed bit is wrong half the time
    Workload("intercept-transcripts", "steane", "intercept_resend", 1.0, 0.25, True, 200, 100,
             200, STEANE_GAUGE, STEANE_GAUGE_REF_S),
)}


class CheckFailed(Exception):
    """An output of the program is wrong."""


class Ledger:
    """Operations attempted and failed (trials, single-trial calls, replays)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def ops(self, count, what):
        """Count `count` operations; all of them fail if the block raises."""
        self.attempted += count
        try:
            yield
        except Exception:
            self.failed += count
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# environment


def source_digest():
    """sha256 over the program's source files, which identifies the code
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bb84sim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, or None; never looks above ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed):
    import numpy

    try:
        from bb84sim.kernels import backend
    except ImportError:  # the kernel dispatch is slated for removal
        backend = None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": backend() if backend else None,
        "BB84SIM_KERNELS": os.environ.get("BB84SIM_KERNELS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the program's outputs and their checks


def trial_seed_base(seed, batch_index):
    return seed * SEED_STRIDE + batch_index * BATCH_STRIDE


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def cli_batch(workload, base_seed, trials, out_dir, dump):
    """One in-process `bb84sim run` batch.

    Returns ({"wall", "user", "system"} seconds, trials.csv rows).  A batch
    is timed by its user CPU seconds: the kernel's part of its file writes
    varies severalfold between runs on the ext4 volume this was tuned on.
    The kernel part is reported on its own by the traced run.
    """
    from bb84sim import cli

    argv = workload.run_argv(base_seed, trials, out_dir, dump)
    with contextlib.redirect_stdout(io.StringIO()):
        user, system = cpu_seconds()
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        user_end, system_end = cpu_seconds()
    if code != 0:
        raise CheckFailed(f"bb84sim run exited with {code}")
    times = {"wall": wall, "user": user_end - user, "system": system_end - system}
    return times, check_batch_files(out_dir, base_seed, trials, dump)


def read_csv(path):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines]


TRIAL_HEADER = ["trial", "seed", "aborted", "check_error_rate", "keys_equal", "decode_failures"]
SUMMARY_HEADER = ["trials", "abort_fraction", "mean_check_error", "stddev_check_error",
                  "key_agreement_fraction"]


def check_batch_files(out_dir, base_seed, trials, dump):
    """trials.csv has one well-formed row per trial; summary.csv agrees with
    it; a dumped batch has a transcript and a .bob record per trial."""
    table = read_csv(out_dir / "trials.csv")
    if table[0] != TRIAL_HEADER:
        raise CheckFailed(f"trials.csv header {table[0]}")
    rows = [dict(zip(TRIAL_HEADER, line)) for line in table[1:]]
    if len(rows) != trials:
        raise CheckFailed(f"trials.csv has {len(rows)} rows, expected {trials}")
    for i, row in enumerate(rows):
        if (row["trial"], row["seed"]) != (str(i), str(base_seed + i)):
            raise CheckFailed(f"trials.csv row {i} is {row}")
        if row["aborted"] not in ("0", "1") or row["keys_equal"] not in ("", "0", "1"):
            raise CheckFailed(f"trials.csv row {i} is {row}")
    summary = read_csv(out_dir / "summary.csv")
    if summary[0] != SUMMARY_HEADER or len(summary) != 2:
        raise CheckFailed("summary.csv is malformed")
    summary = dict(zip(SUMMARY_HEADER, summary[1]))
    aborts = sum(row["aborted"] == "1" for row in rows)
    completed = trials - aborts
    agreements = sum(row["keys_equal"] == "1" for row in rows)
    if int(summary["trials"]) != trials or float(summary["abort_fraction"]) != aborts / trials:
        raise CheckFailed(f"summary.csv {summary} disagrees with trials.csv")
    if completed and float(summary["key_agreement_fraction"]) != agreements / completed:
        raise CheckFailed(f"summary.csv {summary} disagrees with trials.csv")
    if dump:
        names = set(os.listdir(out_dir / "transcripts"))
        for i in range(trials):
            if {f"trial_{i:05d}.transcript", f"trial_{i:05d}.bob"} - names:
                raise CheckFailed(f"trial {i} has no transcript or .bob record")
    return rows


def golden_files(workload, rows):
    """Files pinned by golden.json: both CSVs and, for a dumping workload,
    the first non-aborted trial's transcript and .bob record."""
    names = ["trials.csv", "summary.csv"]
    if workload.dump:
        first = next(int(row["trial"]) for row in rows if row["aborted"] == "0")
        names += [f"transcripts/trial_{first:05d}.transcript", f"transcripts/trial_{first:05d}.bob"]
    return names


def file_digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def golden_mismatches(out_dir, expected):
    """Names of pinned files that are missing or differ from their digest."""
    bad = []
    for name, digest in expected.items():
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            bad.append(name)
    return bad


def check_golden(workload):
    """Run the default-seed batch and compare its files with golden.json."""
    out_dir = WORK / "golden" / workload.name
    _, rows = cli_batch(workload, DEFAULT_SEED, GOLDEN_TRIALS, out_dir, workload.dump)
    expected = json.loads(GOLDEN_PATH.read_text())[workload.name]
    if set(expected) != set(golden_files(workload, rows)):
        raise CheckFailed(f"golden file set {sorted(expected)} does not match the outputs")
    bad = golden_mismatches(out_dir, expected)
    if bad:
        raise CheckFailed(f"outputs differ from golden.json: {bad}")


def write_golden():
    goldens = {}
    for workload in WORKLOADS.values():
        out_dir = WORK / "golden" / workload.name
        _, rows = cli_batch(workload, DEFAULT_SEED, GOLDEN_TRIALS, out_dir, workload.dump)
        goldens[workload.name] = file_digests(out_dir, golden_files(workload, rows))
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")


def binomial_tail(n, r, threshold):
    """P[X/n > threshold] for X ~ Binomial(n, r), summed with math.comb."""
    k_min = math.floor(n * threshold) + 1
    return math.fsum(math.comb(n, k) * r**k * (1 - r) ** (n - k) for k in range(k_min, n + 1))


def abort_probability(check_bits, error_rate, threshold):
    """Exact probability that more than threshold*check_bits check bits err."""
    from bb84sim.stats import SamplingModel, cheat_probability_binomial

    if error_rate <= threshold:
        return cheat_probability_binomial(SamplingModel(error_rate, check_bits), threshold)
    # cheat_probability_binomial raises ConfigError for a rate above the threshold
    return binomial_tail(check_bits, error_rate, threshold)


def wilson_interval(successes, trials, z=CI_Z):
    centre = (successes + z * z / 2) / (trials + z * z)
    half = z / (trials + z * z) * math.sqrt(successes * (trials - successes) / trials + z * z / 4)
    # the bounds are exactly 0 and 1 at the extremes, where rounding would
    # otherwise exclude an exact probability such as 4e-22
    return (0.0 if successes == 0 else centre - half,
            1.0 if successes == trials else centre + half)


def check_abort_fraction(workload, config, aborts, trials):
    """The abort fraction over all timed trials lies in a binomial interval
    around the exact abort probability."""
    exact = abort_probability(config.check_count, workload.check_bit_error, THRESHOLD)
    lo, hi = wilson_interval(aborts, trials)
    if not lo <= exact <= hi:
        raise CheckFailed(f"abort fraction {aborts}/{trials} outside [{lo:.4f}, {hi:.4f}] "
                          f"around the exact {exact:.6f}")
    return {"aborts": aborts, "trials": trials, "exact": exact, "interval": [lo, hi]}


def csv_row_of(outcome):
    """The trials.csv fields of one outcome, formatted as docs/formats.md says."""
    rate = outcome.observed_check_error_rate
    keys = outcome.keys_equal
    return {
        "aborted": "1" if outcome.aborted else "0",
        "check_error_rate": "" if rate is None else repr(rate),
        "keys_equal": "" if keys is None else ("1" if keys else "0"),
        "decode_failures": str(outcome.stage1_decode_failures + outcome.stage2_decode_failures),
    }


# ---------------------------------------------------------------------------
# replay


def read_bob_record(path):
    import numpy as np

    fields = dict(line.split(" ", 1) for line in path.read_text(encoding="ascii").splitlines())
    bits = {tag: np.frombuffer(fields[tag].encode(), dtype=np.uint8) - ord("0")
            for tag in ("BASES", "BITS")}
    return bits["BASES"], bits["BITS"], fields["KEY"]


def load_replays(out_dir, trials):
    """(transcript text, Bob's bases, Bob's bits, recorded key) per dumped trial."""
    records = []
    for i in range(trials):
        stem = out_dir / "transcripts" / f"trial_{i:05d}"
        text = stem.with_suffix(".transcript").read_text(encoding="ascii")
        records.append((text, *read_bob_record(stem.with_suffix(".bob"))))
    return records


def replay_one(config, record):
    """Parse one transcript and recompute Bob's key from it; the names are
    looked up on their modules so a traced run sees them."""
    from bb84sim import protocol, transcript

    text, bases, bits, recorded = record
    result = protocol.replay_bob(transcript.parse_transcript(text), bases, bits, config)
    key = "-" if result.key is None else str(result.key)
    if key != recorded:
        raise CheckFailed(f"replayed key {key} != recorded {recorded}")


# ---------------------------------------------------------------------------
# set-up in a fresh interpreter


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["BB84SIM_KERNELS"] = KERNEL_BACKEND
    return env


def setup_run(workload, seed, out_dir):
    """Wall seconds of a fresh interpreter running `bb84sim run` with one
    trial: import, argument parsing, pair and table build, one trial, CSV
    writes."""
    argv = [sys.executable, "-m", "bb84sim.cli"] + workload.run_argv(seed, 1, out_dir,
                                                                     workload.dump)
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise CheckFailed(f"fresh `bb84sim run` exited with {proc.returncode}: "
                          f"{proc.stderr.decode(errors='replace')}")
    check_batch_files(out_dir, seed, 1, workload.dump)
    return elapsed


def import_seconds():
    """Seconds a fresh interpreter spends importing bb84sim.cli."""
    code = ("import time; t = time.perf_counter(); import bb84sim.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, timeout=60, check=True)
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# the two kinds of run


def protocol_config(workload):
    from bb84sim.codes import load_pair
    from bb84sim.protocol import ProtocolConfig

    return ProtocolConfig(load_pair(workload.pair), load_pair(workload.pair),
                          abort_threshold=THRESHOLD, delta=DELTA)


class _Word:
    __slots__ = ("n", "word")

    def __init__(self, n, word):
        if word >> n:
            raise ValueError(f"word 0x{word:x} has bits beyond length {n}")
        self.n = n
        self.word = word


def reference_trial(qubits, block, parity, repeats):
    """A frozen stand-in for `repeats` protocol trials of one shape, written
    without bb84sim so that no change to the program moves it: generator
    setup from a SeedSequence, uint8 draws, masking, flatnonzero, choice,
    setdiff1d, packbits, tuple-of-int conversion, and per-block parity
    arithmetic on small slotted int-word objects."""
    import numpy as np

    x = 0
    rows = [(0x5A5A5A5A5A >> r) & ((1 << block) - 1) for r in range(parity)]
    for seed in range(repeats):
        party, channel = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        bits = party.integers(0, 2, size=qubits, dtype=np.uint8)
        basis = party.integers(0, 2, size=qubits, dtype=np.uint8)
        bob = party.integers(0, 2, size=qubits, dtype=np.uint8)
        flip = channel.random(qubits) < 0.03
        coins = channel.integers(0, 2, size=qubits, dtype=np.uint8)
        measured = np.where(basis == bob, bits ^ flip, coins).astype(np.uint8)
        matched = np.flatnonzero(basis == bob)
        kept = np.sort(party.choice(matched, size=min(2 * block * block, matched.size),
                                    replace=False))
        check = np.sort(party.choice(kept, size=min(block * block, kept.size), replace=False))
        positions = tuple(int(p) for p in np.setdiff1d(kept, check))
        x += int.from_bytes(np.packbits(measured[check], bitorder="little").tobytes(),
                            "little") & 1
        for i in range(0, len(positions) - block, block):
            word = 0
            for j, p in enumerate(positions[i:i + block]):
                word |= int(measured[p]) << j
            v = _Word(block, word)
            for _ in range(5):
                syndrome = 0
                for k, row in enumerate(rows):
                    syndrome |= ((row & v.word).bit_count() & 1) << k
                v = _Word(block, v.word ^ syndrome)
            x ^= v.word
    return x


def _reference_transcript():
    """Transcript-like text in the dump format, fixed by a seeded generator."""
    rng = random.Random(0)
    bits = "".join(rng.choice("01") for _ in range(232))
    lines = [f"B bits={bits}", "KEEP pos=" + ",".join(str(p) for p in range(0, 196, 2))]
    lines += [f"BLK1 id={i} pos={','.join(str(rng.randrange(232)) for _ in range(7))} "
              f"masked={bits[i:i + 7]}" for i in range(8)]
    return "\n".join(lines) + "\n"


REFERENCE_TRANSCRIPT = _reference_transcript()


def reference_parse(text=REFERENCE_TRANSCRIPT, repeats=12):
    """A frozen stand-in for parsing transcripts, written without bb84sim:
    line and field splitting, int position lists and 0/1 strings to int words."""
    total = 0
    for _ in range(repeats):
        for line in text.splitlines():
            _, _, body = line.partition(" ")
            for part in body.split():
                key, value = part.split("=", 1)
                if key == "pos":
                    total += sum(tuple(int(p) for p in value.split(",")))
                elif key in ("bits", "masked"):
                    word = 0
                    for i, c in enumerate(value):
                        if c not in "01":
                            raise ValueError(c)
                        word |= (c == "1") << i
                    total ^= _Word(len(value), word).word
    return total


class Gauge:
    """Machine speed, read as the time of a frozen reference function.

    The host alternates between speed states every few seconds to minutes,
    one of them about 1.8x slower, and whole runs can sit in one state.
    Every timed sample is bracketed by two gauge readings, and its time is
    divided by (mean reading / ref_s), ref_s being the reference's time in
    the host's fast state: times and rates are reported at that speed.
    """

    def __init__(self, reference, ref_s):
        self.reference = reference
        self.ref_s = ref_s
        self.readings = []
        self._last = (-math.inf, 0.0)

    def read(self):
        start = time.perf_counter()
        self.reference()
        end = time.perf_counter()
        self._last = (end, end - start)
        self.readings.append(end - start)
        return end - start

    def slowdown(self, fn, *args):
        """(fn(*args), the machine's slowdown against ref_s around the call)."""
        at, before = self._last
        if time.perf_counter() - at > GAUGE_FRESH_S:
            before = self.read()
        result = fn(*args)
        return result, (before + self.read()) / 2 / self.ref_s


class Bench:
    def __init__(self, workload, seed, seconds):
        from bb84sim.channel import AttackModel

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.config = protocol_config(workload)
        self.attack = AttackModel(workload.attack, probability=workload.noise_p)
        self.ledger = Ledger()
        self.batch_index = 0
        # trials and set-ups are scaled by a reference trial of the workload's
        # shape; replays, which are string parsing, by a reference parse
        self.gauge = Gauge(functools.partial(reference_trial, *workload.gauge_shape),
                           workload.gauge_ref_s)
        self.parse_gauge = Gauge(reference_parse, PARSE_GAUGE_REF_S)
        self.tally = Counter()  # over timed batches: trials, aborted, keys_equal
        self.info = {}

    def batch(self, out_dir=None, index=None, dump=None):
        """One timed `bb84sim run` batch of this workload on the next seeds
        (or those of batch `index`); (times, rows), rows None on failure.

        Timed batches overwrite the files of the one before, in one
        directory: on the ext4 volume this was tuned on, creating a file
        cost about eight times the kernel time of overwriting one."""
        w = self.workload
        if index is None:
            index = self.batch_index
            self.batch_index += 1
        out_dir = out_dir or WORK / "timed"
        result = (None, None)
        with self.ledger.ops(w.batch_trials, f"batch {index}"):
            result = cli_batch(w, trial_seed_base(self.seed, index), w.batch_trials, out_dir,
                               w.dump if dump is None else dump)
        return result

    def prepare(self):
        """Golden check (also the warm-up) and the replay source batch."""
        with self.ledger.ops(GOLDEN_TRIALS, "golden check"):
            check_golden(self.workload)
        source = WORK / "replay-source"
        self.batch(source, REPLAY_SOURCE_INDEX, dump=True)
        self.replays = load_replays(source, self.workload.batch_trials)
        self.replay_next = 0

    def finish_checks(self):
        with self.ledger.ops(self.tally["trials"], "abort-fraction interval check"):
            self.info["abort_check"] = check_abort_fraction(
                self.workload, self.config, self.tally["aborted"], self.tally["trials"])

    def count(self, rows):
        self.tally["trials"] += len(rows)
        self.tally["aborted"] += sum(row["aborted"] == "1" for row in rows)
        self.tally["keys_equal"] += sum(row["keys_equal"] == "1" for row in rows)

    def replay(self, tracer=None):
        """One chunk of replays; returns its seconds."""
        chunk = self.workload.replay_chunk
        start = time.perf_counter()
        for i in range(self.replay_next, self.replay_next + chunk):
            record = self.replays[i % len(self.replays)]
            with self.ledger.ops(1, f"replay of record {i % len(self.replays)}"):
                if tracer is None:
                    replay_one(self.config, record)
                else:
                    tracer.root("bench.replay", replay_one, self.config, record)
        self.replay_next += chunk
        return time.perf_counter() - start

    def rounds(self, more=lambda: True):
        """Round indices until --seconds have passed or `more` says stop,
        and at least MIN_ROUNDS."""
        start = time.perf_counter()
        r = 0
        while r < MIN_ROUNDS or (time.perf_counter() - start < self.seconds and more()):
            yield r
            r += 1

    def latency_chunk(self, rows):
        """Single run_protocol calls on the seeds of `rows`; each must
        reproduce its trials.csv row.  Returns the call times."""
        from bb84sim import protocol

        times = []
        for row in rows:
            config = replace(self.config, rng_seed=int(row["seed"]))
            with self.ledger.ops(1, f"single trial seed {row['seed']}"):
                start = time.perf_counter()
                outcome, _ = protocol.run_protocol(config, self.attack)
                times.append(time.perf_counter() - start)
                expected = {k: row[k] for k in ("aborted", "check_error_rate", "keys_equal",
                                                "decode_failures")}
                if csv_row_of(outcome) != expected:
                    raise CheckFailed(f"single trial {csv_row_of(outcome)} != batch row {expected}")
        return times

    def end_to_end(self):
        """Rounds of: one fresh-interpreter set-up, batches for BATCH_S,
        single-trial chunks on those batches' seeds for LATENCY_S, replay
        chunks for REPLAY_S, so that short samples spread over the run.
        Each sample is scaled by the gauge around it (see Gauge)."""
        rates, latencies, replay_rates, setups = [], [], [], []
        wall_rates = []
        gauge = self.gauge
        self.prepare()
        for _ in self.rounds():
            with self.ledger.ops(1, "fresh-interpreter set-up"):
                seconds, slow = gauge.slowdown(setup_run, self.workload,
                                               trial_seed_base(self.seed, 0),
                                               WORK / "setup")
                setups.append(seconds / slow)
            round_rows = []
            phase_end = time.perf_counter() + BATCH_S
            while not round_rows or time.perf_counter() < phase_end:
                (times, rows), slow = gauge.slowdown(self.batch)
                if rows is None:
                    break
                wall_rates.append(len(rows) / times["wall"])
                rates.append(len(rows) / times["user"] * slow)
                round_rows += rows
            self.count(round_rows)
            phase_end = time.perf_counter() + LATENCY_S
            chunk = self.workload.latency_chunk
            for i in range(0, len(round_rows), chunk):
                times, slow = gauge.slowdown(self.latency_chunk, round_rows[i:i + chunk])
                latencies += (t / slow for t in times)
                if time.perf_counter() >= phase_end:
                    break
            phase_end = time.perf_counter() + REPLAY_S
            while True:
                seconds, slow = self.parse_gauge.slowdown(self.replay)
                replay_rates.append(self.workload.replay_chunk / seconds * slow)
                if time.perf_counter() >= phase_end:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.finish_checks()
        self.info["samples"] = {"batches": len(rates), "single_trials": len(latencies),
                                "replay_chunks": len(replay_rates), "setups": len(setups)}
        self.info["unscaled_wall_trials_per_s"] = statistics.median(wall_rates)
        self.info["gauge_slowdown_median"] = statistics.median(gauge.readings) / gauge.ref_s
        return {
            "trials_per_s": (statistics.median(rates), "1/s"),
            "trial_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "trial_ms_p90": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
            "replays_per_s": (statistics.median(replay_rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def per_layer(self):
        """Rounds of: one untraced batch, the same batch traced, one traced
        replay chunk; until --seconds or TRACE_SPANS spans."""
        from spans import TARGETS, Totals, Tracer, snapshot, unrestored

        self.prepare()
        source_tracer = Tracer()
        originals = snapshot(source_tracer.targets)
        source = WORK / "replay-source-traced"
        with source_tracer:
            self.batch(source, REPLAY_SOURCE_INDEX, dump=True)

        tracer = Tracer()
        slowdowns, bytes_written, kernel_ms = [], [], []
        traced_trials = 0
        for _ in self.rounds(lambda: len(tracer.spans) < TRACE_SPANS):
            index = self.batch_index
            plain, rows = self.batch()
            if rows is None:
                continue
            self.count(rows)
            plain_csv = (WORK / "timed" / "trials.csv").read_bytes()
            traced_dir = WORK / "traced"
            with tracer:
                traced_times, traced = self.batch(traced_dir, index)
                self.replay(tracer)
            if traced is None:
                continue
            traced_trials += len(traced)
            with self.ledger.ops(len(rows), f"traced batch {index}"):
                if unrestored(originals):
                    raise CheckFailed(f"names left rebound: {unrestored(originals)}")
                if (traced_dir / "trials.csv").read_bytes() != plain_csv:
                    raise CheckFailed("tracing changed trials.csv")
            slowdowns.append(traced_times["user"] / plain["user"])
            kernel_ms.append(plain["system"] * 1e3 / len(rows))
            bytes_written.append(sum(p.stat().st_size for p in traced_dir.rglob("*")
                                     if p.is_file()) / len(rows))
        self.finish_checks()

        setup_ms = []
        for _ in range(5):
            start = time.perf_counter()
            config = protocol_config(self.workload)
            config.stage1_pair.outer.syndrome_table()
            config.stage2_pair.outer.syndrome_table()
            setup_ms.append((time.perf_counter() - start) * 1e3)
        import_ms = statistics.median(import_seconds() * 1e3 for _ in range(5))

        source_tracer.write_csv(WORK / "spans-replay-source.csv")
        tracer.write_csv(WORK / "spans.csv")
        self.info["samples"] = {"traced_batches": len(slowdowns), "traced_trials": traced_trials,
                                "spans": len(tracer.spans)}
        traced = {name for _, _, name, _ in tracer.targets}
        self.info["untraced"] = [name for *_, name, _ in TARGETS if name not in traced]
        return layer_metrics(
            n=traced_trials,
            trials=Totals(tracer, "protocol.run_protocol_full"),
            batches=Totals(tracer, None),
            replays=Totals(tracer, "bench.replay"),
            dumped=self.workload.batch_trials,
            dumps=Totals(source_tracer, None),
            dumped_bytes=sum(p.stat().st_size for p in (source / "transcripts").glob("*.transcript")),
            useful=self.tally["keys_equal"] / self.tally["trials"],
            qubits_per_attempt=self.config.transmitted_count,
            overhead=statistics.median(slowdowns),
            bytes_written=statistics.median(bytes_written),
            kernel_ms=statistics.median(kernel_ms),
            setup_ms=statistics.median(setup_ms),
            import_ms=import_ms,
        )


def share(part, whole):
    """part / whole, or 0 where a refactor removed the span that gives whole."""
    return part / whole if whole else 0.0


def layer_metrics(n, trials, batches, replays, dumped, dumps, dumped_bytes, useful,
                  qubits_per_attempt, overhead, bytes_written, kernel_ms, setup_ms, import_ms):
    """Per-layer metrics from span totals over n traced batch trials and
    `dumped` traced dumping trials: inclusive times unless named self."""

    def ms_per_trial(*names):
        return sum(trials.seconds[name] for name in names) * 1e3 / n

    def stage_ms(stage):
        return sum(trials.nth_seconds[name, stage] for name in
                   ("protocol.alice_stage", "protocol.bob_stage")) * 1e3 / n

    trial_s = trials.seconds["protocol.run_protocol_full"]
    attempts = trials.calls["protocol.sift"] / n
    return {
        "gf2.bitvector_new_per_trial": (trials.counts["gf2.BitVector"] / n, "count"),
        "gf2.mat_vec_calls_per_trial": (trials.calls["gf2.mat_vec"] / n, "count"),
        "gf2.mat_vec_ms_per_trial": (ms_per_trial("gf2.mat_vec"), "ms"),
        "codes.decode_calls_per_trial": (trials.calls["codes.decode"] / n, "count"),
        "codes.decode_ms_per_trial": (ms_per_trial("codes.decode"), "ms"),
        "codes.label_ms_per_trial": (ms_per_trial("codes.coset_label", "codes.project_label"),
                                     "ms"),
        "codes.random_codeword_ms_per_trial": (ms_per_trial("codes.random_codeword"), "ms"),
        "codes.setup_ms": (setup_ms, "ms"),
        "channel.attack_arrays_ms_per_trial": (ms_per_trial("channel.attack_arrays"), "ms"),
        "channel.qubits_per_trial": (attempts * qubits_per_attempt, "count"),
        "kernels.measure_bits_ms_per_trial": (ms_per_trial("kernels.measure_bits"), "ms"),
        "kernels.share": (share(trials.seconds["kernels.measure_bits"], trial_s), "ratio"),
        # six uint8 inputs and one uint8 output per qubit: computed, not measured
        "kernels.bytes_per_trial": (7 * attempts * qubits_per_attempt, "computed_B"),
        "protocol.sift_ms_per_trial": (ms_per_trial("protocol.sift"), "ms"),
        "protocol.check_ms_per_trial": (ms_per_trial("protocol.check"), "ms"),
        "protocol.stage1_ms_per_trial": (stage_ms(1), "ms"),
        "protocol.stage2_ms_per_trial": (stage_ms(2), "ms"),
        "protocol.self_ms_per_trial": (
            trials.self_seconds["protocol.run_protocol_full"] * 1e3 / n, "ms"),
        "protocol.attempts_per_trial": (attempts, "count"),
        "protocol.useful_ratio": (useful, "ratio"),
        "protocol.replay_ms_per_replay": (
            replays.seconds["protocol.replay_bob"] * 1e3 / replays.roots, "ms"),
        "transcript.dump_ms_per_trial": (dumps.seconds["transcript.dump"] * 1e3 / dumped, "ms"),
        "transcript.bytes_per_trial": (dumped_bytes / dumped, "B"),
        "transcript.parse_ms_per_replay": (
            replays.seconds["transcript.parse"] * 1e3 / replays.roots, "ms"),
        "cli.output_ms_per_trial": (batches.self_seconds["cli.cmd_run"] * 1e3 / n, "ms"),
        "cli.bytes_written_per_trial": (bytes_written, "B"),
        "cli.kernel_ms_per_trial": (kernel_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.overhead": (overhead, "ratio"),
        "trace.unattributed_share": (
            share(trials.self_seconds["protocol.run_protocol_full"], trial_s), "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="capture golden.json from the default-seed batches and exit")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bb84sim" / "__init__.py").is_file():
        print(f"bb84sim sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["BB84SIM_KERNELS"] = KERNEL_BACKEND
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    if args.write_golden:
        write_golden()
        return 0

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.seconds)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    ledger = bench.ledger
    record = {"environment": environment(workload, args.seed), **bench.info}
    (WORK / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

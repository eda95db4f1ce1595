"""Command-line front end: configure and run trial batches, query the
sampling statistics, replay transcripts, and validate code files.

Configuration is a flat key=value text file ('#' starts a comment); every
key is also a command-line flag, and flags override the file.  Outputs are
header-row CSV with '.' decimals, written in trial-index order so the same
configuration and seed produce byte-identical files; `run` writes each
chunk's trials.csv rows, and its transcripts, as the chunk finishes.
Exit codes:
0 success, 1 configuration error, 2 I/O error, 3 parse error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from array import array

from .channel import AttackModel
from .codes import load_pair, parse_code, parse_pair
from .errors import ConfigError, InsufficientSiftAbort, TranscriptError
from .gf2 import parse_decimal, parse_decimals, parse_float, read_ascii
from .protocol import ProtocolConfig, replay_bob, run_chunk
from .stats import (
    RecursionModel,
    SamplingModel,
    cheat_probability,
    cheat_probability_binomial,
    confidence_threshold,
    iterate_error_rate,
    sigma,
)
from .transcript import bob_lines, parse_bob, parse_transcript

TRIAL_COLUMNS = ["trial", "seed", "aborted", "check_error_rate", "keys_equal", "decode_failures"]
SUMMARY_COLUMNS = ["trials", "abort_fraction", "mean_check_error", "stddev_check_error",
                   "key_agreement_fraction"]

# `run` evaluates trials in chunks of at most this many transmitted qubits
# (at least one trial), so that its memory does not grow with the batch: a
# chunk's arrays peak at about 50 bytes per qubit, 1.4-1.8 MB at this size
# (tracemalloc, numpy 2.4: 14 golay/golay trials, 152 steane/steane).  Each
# chunk carries about 0.2 ms of fixed cost, which larger chunks spread over
# more trials: 0.17-0.26 ms for either built-in pair (tools/fixed_costs.py,
# 2-core x86 container, Python 3.11, numpy 2.4).
QUBITS_PER_CHUNK = 1 << 15

# Each `run` setting, declared once: (the reader of its text, its default,
# its flag's help, whether `replay` takes the flag).  Its flag is
# --key-with-dashes; replay takes only those that build the ProtocolConfig.
# A config file's numbers are ASCII digits (no sign, space or underscore),
# read as every number in the program's files is: the integer settings
# digits only, the float settings with an optional fraction and exponent.
_SETTINGS = {
    "seed": (parse_decimal, 0, "base seed (trial i uses seed+i)", False),
    "trials": (parse_decimal, 100, None, False),
    "attack": (str, "none", "none, bitflip, intercept_resend or correlated_positions", False),
    "noise_p": (parse_float, 0.0, "flip probability / intercept fraction", False),
    "attack_positions": (str, "", "comma-separated transmitted positions for "
                         "correlated_positions", False),
    "threshold": (parse_float, 0.124, "abort threshold", True),
    "delta": (parse_float, 0.1, None, True),
    "stage1_pair": (str, "steane", "built-in pair name or file:PATH", True),
    "stage2_pair": (str, "steane", None, True),
    "out_dir": (str, "out", None, False),
    # the one flag without a value: given, it sets 1
    "dump_transcripts": (parse_decimal, 0, None, False),
}

# each `stats` subcommand's numbers: (reader, flag help).  They are read as
# text by the same readers as the config file's settings, so that a bad value
# is a configuration error there as well.
_RATE_SAMPLE = {"r": (parse_float, None), "n": (parse_decimal, None)}
_STATS = {
    "sigma": _RATE_SAMPLE,
    "threshold": {**_RATE_SAMPLE, "z": (parse_float, None)},
    "cheat": {**_RATE_SAMPLE, "threshold": (parse_float, None)},
    "recursion": {"T": (parse_float, "code threshold"), "r0": (parse_float, "initial error rate"),
                  "steps": (parse_decimal, None)},
}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SETTINGS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _read_value(key, value, f"{path}:{line_no}", _SETTINGS[key][0])
    return values


def _read_value(key: str, value: str, source: str, read):
    """`value`, the text given for `key`, read by `read`; `source` says
    where it was given."""
    try:
        return read(value)
    except ValueError:
        raise ConfigError(f"{source}: bad value for {key}: {value!r}") from None


def _merge_settings(args) -> dict:
    settings = {key: default for key, (_, default, _, _) in _SETTINGS.items()}
    if args.config:
        settings.update(_read_config_file(args.config))
    # a flag left unset keeps the file's value; replay has no batch flags.
    # Flags given as text are read as the file's values are.
    for key, (read, _, _, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if isinstance(value, str):
            value = _read_value(key, value, "--" + key.replace("_", "-"), read)
        if value is not None:
            settings[key] = value
    return settings


def _build_attack(settings: dict) -> AttackModel:
    kind = settings["attack"]
    p = settings["noise_p"]
    if kind == "none":
        return AttackModel.none()
    if kind == "bitflip":
        return AttackModel.bitflip(p)
    if kind == "intercept_resend":
        return AttackModel.intercept_resend(p)
    if kind == "correlated_positions":
        raw = settings["attack_positions"].strip()
        if not raw:
            raise ConfigError("correlated_positions attack needs attack_positions")
        try:
            positions = parse_decimals(raw).tolist()
        except ValueError:
            raise ConfigError(f"bad attack_positions {raw!r}") from None
        return AttackModel.correlated_positions(positions, p)
    raise ConfigError(f"unknown attack {kind!r}")


def _build_protocol_config(settings: dict) -> ProtocolConfig:
    stage1_pair = load_pair(settings["stage1_pair"])
    # one pair object for a spec named twice, so its syndrome table is built once
    same = settings["stage2_pair"] == settings["stage1_pair"]
    return ProtocolConfig(
        stage1_pair=stage1_pair,
        stage2_pair=stage1_pair if same else load_pair(settings["stage2_pair"]),
        abort_threshold=settings["threshold"],
        delta=settings["delta"],
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# the text of a flag column's codes: 0 and 1, and 2 for no value
_FLAGS = ("0", "1", "")


def _trial_rows(chunk, start: int, base_seed: int):
    """The trials.csv rows of a chunk whose first trial is `start`, made from
    its whole columns: the ints and the rates as they are (the csv module
    writes an int's str and a float's repr), the flags as "0" and "1", and
    keys_equal as "" where the trial aborted."""
    end = start + len(chunk.aborted)
    # keys_equal is False where a trial aborted, so that code 2 is ""
    keys = chunk.keys_equal + 2 * chunk.aborted
    return zip(range(start, end), range(base_seed + start, base_seed + end),
               map(_FLAGS.__getitem__, chunk.aborted.tolist()), chunk.check_error_rate.tolist(),
               map(_FLAGS.__getitem__, keys.tolist()), chunk.decode_failures.sum(axis=0).tolist())


# a file written whole, as bytes: O_BINARY, which only Windows has, stops its
# C runtime from writing each "\n" as "\r\n"
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_bytes(path: str, data: bytes) -> None:
    """Write `data` as the whole file at `path`, as `open(path, "wb")` would
    (mode 0o666 less the umask)."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def cmd_run(args) -> int:
    settings = _merge_settings(args)
    attack = _build_attack(settings)
    base_config = _build_protocol_config(settings)
    trials = settings["trials"]
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")

    out_dir = settings["out_dir"]
    transcript_dir = os.path.join(out_dir, "transcripts") if settings["dump_transcripts"] else None
    os.makedirs(out_dir, exist_ok=True)
    if transcript_dir:
        os.makedirs(transcript_dir, exist_ok=True)

    # one check rate per trial: a trial that cannot sift stops the run
    rates = array("d")
    aborts = agreements = 0
    base_seed = settings["seed"]
    chunk_size = max(1, QUBITS_PER_CHUNK // base_config.transmitted_count)
    # each chunk's rows are written as it finishes, so that a run that fails
    # leaves those of the chunks before, beside their transcripts
    with open(os.path.join(out_dir, "trials.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for start in range(0, trials, chunk_size):
            chunk = run_chunk(base_config, range(base_seed + start,
                                                 base_seed + min(start + chunk_size, trials)),
                              attack)
            aborts += int(chunk.aborted.sum())
            # keys_equal is False where a trial aborted
            agreements += int(chunk.keys_equal.sum())
            rates.extend(chunk.check_error_rate)
            writer.writerows(_trial_rows(chunk, start, base_seed))
            if transcript_dir:
                for i, (transcript, bob) in enumerate(chunk.dumps(), start=start):
                    stem = os.path.join(transcript_dir, f"trial_{i:05d}")
                    _write_bytes(stem + ".transcript", transcript)
                    _write_bytes(stem + ".bob", bob)

    mean_rate = math.fsum(rates) / trials
    std_rate = (math.sqrt(math.fsum((x - mean_rate) ** 2 for x in rates) / (trials - 1))
                if trials > 1 else None)
    summary = {
        "trials": trials,
        "abort_fraction": aborts / trials,
        "mean_check_error": mean_rate,
        "stddev_check_error": std_rate,
        "key_agreement_fraction": (agreements / (trials - aborts)) if aborts < trials else None,
    }
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow([_fmt(summary[c]) for c in SUMMARY_COLUMNS])

    print(f"trials={trials} aborts={aborts} "
          f"abort_fraction={_fmt(summary['abort_fraction'])} "
          f"key_agreement={_fmt(summary['key_agreement_fraction'])}")
    print(f"wrote {os.path.join(out_dir, 'trials.csv')} and summary.csv")
    return 0


def cmd_stats(args) -> int:
    # the subcommand's numbers; argparse has made sure each one is given
    v = {key: _read_value(key, getattr(args, key), "--" + key, read)
         for key, (read, _) in _STATS[args.stats_command].items()}
    if args.stats_command == "sigma":
        model = SamplingModel(v["r"], v["n"])
        print(f"sigma={sigma(model):.6f}")
    elif args.stats_command == "threshold":
        model = SamplingModel(v["r"], v["n"])
        print(f"threshold={confidence_threshold(model, v['z']):.6f}")
    elif args.stats_command == "cheat":
        model = SamplingModel(v["r"], v["n"])
        if args.binomial:
            value = cheat_probability_binomial(model, v["threshold"])
            print(f"cheat_probability={value:.6g} (exact binomial)")
        else:
            value = cheat_probability(model, v["threshold"], sigma_at=args.sigma_at)
            print(f"cheat_probability={value:.6g} (gaussian, sigma at {args.sigma_at})")
    else:
        model = RecursionModel(v["T"], v["r0"])
        values = iterate_error_rate(model, v["steps"])
        print("# model: next_rate = exp(-T^2 / rate)")
        print("step,rate")
        for i, value in enumerate(values, start=1):
            print(f"{i},{value!r}")
    return 0


def cmd_replay(args) -> int:
    settings = _merge_settings(args)
    config = _build_protocol_config(settings)
    transcript = parse_transcript(read_ascii(args.transcript, str.splitlines, TranscriptError))
    bases, bits, recorded = parse_bob(read_ascii(args.bob_record, bob_lines, TranscriptError))
    result = replay_bob(transcript, bases, bits, config)
    recomputed = result.key if result.key is not None else "-"
    print(f"check_error_rate={result.check_error_rate!r} aborted={int(result.aborted)}")
    print(f"recomputed_key={recomputed}")
    print(f"recorded_key={recorded}")
    print("MATCH" if recomputed == recorded else "MISMATCH")
    return 0


def cmd_codes_validate(args) -> int:
    text = read_ascii(args.path, str.splitlines, ConfigError)
    is_pair = any(line.strip() == "%" for line in text.splitlines())
    if is_pair:
        pair = parse_pair(text, name=args.path)
        codes = [("outer", pair.outer), ("inner", pair.inner)]
        print(f"valid pair: key_width={pair.key_width}")
    else:
        codes = [("code", parse_code(text, name=args.path))]
    for label, code in codes:
        line = f"{label}: [{code.n},{code.k},{code.d}]"
        if code.k <= 16:
            if not code.verify_distance():
                print(f"{line} FAILED distance check")
                raise ConfigError(f"{label} violates declared distance {code.d}")
            line += " distance verified by enumeration"
        else:
            line += " distance declared (too large to enumerate)"
        print(line)
    print("OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84sim",
        description="Concatenated BB84 protocol simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings_flags(p, replay):
        """The --config flag and a flag per setting: all of them for `run`,
        for `replay` those the settings table marks."""
        p.add_argument("--config", help="flat key=value configuration file")
        for key, (_, _, text, in_replay) in _SETTINGS.items():
            if in_replay or not replay:
                if key == "dump_transcripts":
                    p.add_argument("--dump-transcripts", action="store_const", const=1)
                else:
                    p.add_argument("--" + key.replace("_", "-"), help=text)

    run_p = sub.add_parser("run", help="run a batch of protocol trials")
    add_settings_flags(run_p, replay=False)

    stats_p = sub.add_parser("stats", help="sampling statistics and the rate recursion")
    stats_sub = stats_p.add_subparsers(dest="stats_command", required=True)
    for command, numbers in _STATS.items():
        command_p = stats_sub.add_parser(command)
        for key, (_, text) in numbers.items():
            command_p.add_argument("--" + key, required=True, help=text)
        if command == "cheat":
            command_p.add_argument("--sigma-at", default="threshold",
                                   help="threshold or estimate")
            command_p.add_argument("--binomial", action="store_true", help="exact binomial tail")

    replay_p = sub.add_parser("replay", help="recompute Bob's key from a dumped transcript")
    replay_p.add_argument("transcript")
    replay_p.add_argument("bob_record")
    add_settings_flags(replay_p, replay=True)

    codes_p = sub.add_parser("codes", help="code file utilities")
    codes_sub = codes_p.add_subparsers(dest="codes_command", required=True)
    val_p = codes_sub.add_parser("validate", help="validate a code or pair file")
    val_p.add_argument("path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "replay":
            return cmd_replay(args)
        if args.command == "codes":
            return cmd_codes_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except TranscriptError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, InsufficientSiftAbort) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

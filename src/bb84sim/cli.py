"""Command-line front end: configure and run trial batches, query the
sampling statistics, replay transcripts, and validate code files.

Configuration is a flat key=value text file ('#' starts a comment); every
key is also a command-line flag, and flags override the file.  Outputs are
header-row CSV with '.' decimals, written in trial-index order so the same
configuration and seed produce byte-identical files.  Exit codes:
0 success, 1 configuration error, 2 I/O error, 3 parse error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import AttackModel
from .codes import load_pair, parse_code, parse_pair
from .errors import ConfigError, InsufficientSiftAbort, TranscriptError
from .gf2 import format_bits, parse_bits, parse_decimal, parse_decimals
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
from .transcript import dump_transcript, parse_transcript

TRIAL_COLUMNS = ["trial", "seed", "aborted", "check_error_rate", "keys_equal", "decode_failures"]
SUMMARY_COLUMNS = ["trials", "abort_fraction", "mean_check_error", "stddev_check_error",
                   "key_agreement_fraction"]

# `run` evaluates trials in chunks of at most this many transmitted qubits
# (at least one trial), so that its memory does not grow with the batch
QUBITS_PER_CHUNK = 1 << 14

# a config file's integer settings are ASCII decimal digits (no sign, space
# or underscore), read as every number in the program's files is
_CONFIG_KEYS = {
    "seed": parse_decimal,
    "trials": parse_decimal,
    "attack": str,
    "noise_p": float,
    "attack_positions": str,
    "threshold": float,
    "delta": float,
    "stage1_pair": str,
    "stage2_pair": str,
    "out_dir": str,
    "dump_transcripts": parse_decimal,
}

_DEFAULTS = {
    "seed": 0,
    "trials": 100,
    "attack": "none",
    "noise_p": 0.0,
    "attack_positions": "",
    "threshold": 0.124,
    "delta": 0.1,
    "stage1_pair": "steane",
    "stage2_pair": "steane",
    "out_dir": "out",
    "dump_transcripts": 0,
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
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {value!r}") from None
    return values


def _merge_settings(args) -> dict:
    settings = dict(_DEFAULTS)
    if args.config:
        settings.update(_read_config_file(args.config))
    # a flag left unset keeps the file's value; replay has no batch flags
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
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


def _build_protocol_config(settings: dict, seed: int) -> ProtocolConfig:
    stage1_pair = load_pair(settings["stage1_pair"])
    # one pair object for a spec named twice, so its syndrome table is built once
    same = settings["stage2_pair"] == settings["stage1_pair"]
    return ProtocolConfig(
        stage1_pair=stage1_pair,
        stage2_pair=stage1_pair if same else load_pair(settings["stage2_pair"]),
        abort_threshold=settings["threshold"],
        delta=settings["delta"],
        rng_seed=seed,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _dump_trial(stem: str, art) -> None:
    """Write one trial's transcript and Bob's record beside it."""
    with open(stem + ".transcript", "w", encoding="ascii") as fh:
        fh.write(dump_transcript(art.transcript))
    key = art.outcome.bob_final_key
    with open(stem + ".bob", "w", encoding="ascii") as fh:
        fh.write(f"BASES {format_bits(art.bob_bases)}\n")
        fh.write(f"BITS {format_bits(art.bob_bits)}\n")
        fh.write(f"KEY {'-' if key is None else key}\n")


def cmd_run(args) -> int:
    settings = _merge_settings(args)
    attack = _build_attack(settings)
    base_config = _build_protocol_config(settings, settings["seed"])
    trials = settings["trials"]
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")

    out_dir = settings["out_dir"]
    transcript_dir = os.path.join(out_dir, "transcripts") if settings["dump_transcripts"] else None
    os.makedirs(out_dir, exist_ok=True)
    if transcript_dir:
        os.makedirs(transcript_dir, exist_ok=True)

    rows = []
    rates = []
    aborts = 0
    agreements = 0
    completed = 0
    base_seed = settings["seed"]
    chunk_size = max(1, QUBITS_PER_CHUNK // base_config.transmitted_count)
    for start in range(0, trials, chunk_size):
        chunk = run_chunk(base_config, range(base_seed + start,
                                             base_seed + min(start + chunk_size, trials)), attack)
        failures = chunk.stage1_decode_failures + chunk.stage2_decode_failures
        for t, (aborted, rate, keys_equal, decode_failures) in enumerate(zip(
                chunk.aborted.tolist(), chunk.check_error_rate.tolist(),
                chunk.keys_equal.tolist(), failures.tolist())):
            i = start + t
            if aborted:
                aborts += 1
            else:
                completed += 1
                agreements += 1 if keys_equal else 0
            rates.append(rate)
            rows.append([i, base_seed + i, aborted, rate, None if aborted else keys_equal,
                         decode_failures])
            if transcript_dir:
                _dump_trial(os.path.join(transcript_dir, f"trial_{i:05d}"), chunk.artifacts(t))

    with open(os.path.join(out_dir, "trials.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(value) for value in row])

    mean_rate = math.fsum(rates) / len(rates) if rates else None
    if rates and len(rates) > 1:
        m = mean_rate
        std_rate = math.sqrt(math.fsum((x - m) ** 2 for x in rates) / (len(rates) - 1))
    else:
        std_rate = None
    summary = {
        "trials": trials,
        "abort_fraction": aborts / trials,
        "mean_check_error": mean_rate,
        "stddev_check_error": std_rate,
        "key_agreement_fraction": (agreements / completed) if completed else None,
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
    if args.stats_command == "sigma":
        model = SamplingModel(args.r, args.n)
        print(f"sigma={sigma(model):.6f}")
    elif args.stats_command == "threshold":
        model = SamplingModel(args.r, args.n)
        print(f"threshold={confidence_threshold(model, args.z):.6f}")
    elif args.stats_command == "cheat":
        model = SamplingModel(args.r, args.n)
        if args.binomial:
            value = cheat_probability_binomial(model, args.threshold)
            print(f"cheat_probability={value:.6g} (exact binomial)")
        else:
            value = cheat_probability(model, args.threshold, sigma_at=args.sigma_at)
            print(f"cheat_probability={value:.6g} (gaussian, sigma at {args.sigma_at})")
    elif args.stats_command == "recursion":
        model = RecursionModel(args.T, args.r0)
        values = iterate_error_rate(model, args.steps)
        print("# model: next_rate = exp(-T^2 / rate)")
        print("step,rate")
        for i, value in enumerate(values, start=1):
            print(f"{i},{value!r}")
    else:
        raise ConfigError(f"unknown stats subcommand {args.stats_command!r}")
    return 0


@dataclass
class _BobRecord:
    bases: np.ndarray
    bits: np.ndarray
    key: Optional[str]


def _read_bob_file(path: str) -> _BobRecord:
    fields = {}
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tag, _, value = line.partition(" ")
            if tag not in ("BASES", "BITS", "KEY"):
                raise TranscriptError(f"unexpected tag {tag!r}", line=line_no)
            if tag in ("BASES", "BITS") and set(value) - {"0", "1"}:
                raise TranscriptError(f"{tag} must be a 0/1 string", line=line_no)
            fields[tag] = value
    for tag in ("BASES", "BITS", "KEY"):
        if tag not in fields:
            raise TranscriptError(f"missing tag {tag}")
    if len(fields["BASES"]) != len(fields["BITS"]):
        raise TranscriptError("BASES and BITS differ in length")
    return _BobRecord(
        bases=parse_bits(fields["BASES"]),
        bits=parse_bits(fields["BITS"]),
        key=None if fields["KEY"] == "-" else fields["KEY"],
    )


def cmd_replay(args) -> int:
    settings = _merge_settings(args)
    config = _build_protocol_config(settings, settings["seed"])
    with open(args.transcript, "r", encoding="ascii") as fh:
        transcript = parse_transcript(fh.read())
    bob = _read_bob_file(args.bob_record)
    result = replay_bob(transcript, bob.bases, bob.bits, config)
    recomputed = result.key if result.key is not None else "-"
    recorded = bob.key if bob.key is not None else "-"
    match = recomputed == recorded
    print(f"check_error_rate={result.check_error_rate!r} aborted={int(result.aborted)}")
    print(f"recomputed_key={recomputed}")
    print(f"recorded_key={recorded}")
    print("MATCH" if match else "MISMATCH")
    return 0


def cmd_codes_validate(args) -> int:
    with open(args.path, "r", encoding="ascii") as fh:
        text = fh.read()
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

    def add_settings_flags(p, batch):
        """Flags for the config keys: all of them when `batch`, otherwise
        only those that build the ProtocolConfig."""
        p.add_argument("--config", help="flat key=value configuration file")
        if batch:
            p.add_argument("--seed", type=int, default=None,
                           help="base seed (trial i uses seed+i)")
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--attack", default=None,
                           choices=["none", "bitflip", "intercept_resend", "correlated_positions"])
            p.add_argument("--noise-p", dest="noise_p", type=float, default=None,
                           help="flip probability / intercept fraction")
            p.add_argument("--attack-positions", dest="attack_positions", default=None,
                           help="comma-separated transmitted positions for correlated_positions")
        p.add_argument("--threshold", type=float, default=None, help="abort threshold")
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--stage1-pair", dest="stage1_pair", default=None,
                       help="built-in pair name or file:PATH")
        p.add_argument("--stage2-pair", dest="stage2_pair", default=None)
        if batch:
            p.add_argument("--out-dir", dest="out_dir", default=None)
            p.add_argument("--dump-transcripts", dest="dump_transcripts", action="store_const",
                           const=1, default=None)

    run_p = sub.add_parser("run", help="run a batch of protocol trials")
    add_settings_flags(run_p, batch=True)

    stats_p = sub.add_parser("stats", help="sampling statistics and the rate recursion")
    stats_sub = stats_p.add_subparsers(dest="stats_command", required=True)
    sigma_p = stats_sub.add_parser("sigma")
    sigma_p.add_argument("--r", type=float, required=True)
    sigma_p.add_argument("--n", type=int, required=True)
    thr_p = stats_sub.add_parser("threshold")
    thr_p.add_argument("--r", type=float, required=True)
    thr_p.add_argument("--n", type=int, required=True)
    thr_p.add_argument("--z", type=float, required=True)
    cheat_p = stats_sub.add_parser("cheat")
    cheat_p.add_argument("--r", type=float, required=True)
    cheat_p.add_argument("--n", type=int, required=True)
    cheat_p.add_argument("--threshold", type=float, required=True)
    cheat_p.add_argument("--sigma-at", dest="sigma_at", default="threshold",
                         choices=["threshold", "estimate"])
    cheat_p.add_argument("--binomial", action="store_true", help="exact binomial tail")
    rec_p = stats_sub.add_parser("recursion")
    rec_p.add_argument("--T", type=float, required=True, help="code threshold")
    rec_p.add_argument("--r0", type=float, required=True, help="initial error rate")
    rec_p.add_argument("--steps", type=int, required=True)

    replay_p = sub.add_parser("replay", help="recompute Bob's key from a dumped transcript")
    replay_p.add_argument("transcript")
    replay_p.add_argument("bob_record")
    add_settings_flags(replay_p, batch=False)

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

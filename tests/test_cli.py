import argparse
import csv
import math
import shutil
import subprocess

import numpy as np
import pytest

from bb84sim import cli
from bb84sim.cli import main
from bb84sim.codes import CssPair, LinearCode, builtin_pair, format_pair, make_hamming_dual_7_3
from test_transcript import respelled


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStatsCommands:
    def test_sigma(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "sigma", "--r", "0.10", "--n", "1000")
        assert code == 0
        assert abs(float(out.split("=")[1]) - 0.009487) < 1e-6

    def test_threshold_points(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "threshold", "--r", "0.10", "--n", "1000", "--z", "2.57")
        assert code == 0
        assert abs(float(out.split("=")[1]) - 0.1244) < 0.0005
        code, out, _ = run_cli(capsys, "stats", "threshold", "--r", "0.10", "--n", "1000", "--z", "20")
        assert abs(float(out.split("=")[1]) - 0.2897) < 0.0005

    def test_cheat(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "cheat", "--r", "0.10", "--n", "1000",
                               "--threshold", "0.124")
        assert code == 0
        value = float(out.split("=")[1].split()[0])
        assert abs(value - 0.010) < 0.001

    def test_cheat_binomial(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "cheat", "--r", "0.1", "--n", "10",
                               "--threshold", "0.35", "--binomial")
        assert code == 0
        expected = sum(math.comb(10, k) * 0.1**k * 0.9 ** (10 - k) for k in range(4, 11))
        assert abs(float(out.split("=")[1].split()[0]) - expected) < 1e-7  # printed at 6 sig figs

    def test_cheat_binomial_rate_above_threshold(self, capsys):
        # the full intercept-resend abort probability on 49 check bits
        code, out, _ = run_cli(capsys, "stats", "cheat", "--r", "0.25", "--n", "49",
                               "--threshold", "0.124", "--binomial")
        assert code == 0
        expected = sum(math.comb(49, k) * 0.25**k * 0.75 ** (49 - k) for k in range(7, 50))
        assert out.strip() == f"cheat_probability={expected:.6g} (exact binomial)"
        assert abs(float(out.split("=")[1].split()[0]) - 0.976988) < 1e-7

    def test_recursion_csv(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "recursion", "--T", "0.3", "--r0", "0.01",
                               "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# model")
        assert lines[1] == "step,rate"
        first = float(lines[2].split(",")[1])
        assert first == pytest.approx(math.exp(-9), rel=1e-12)

    def test_bad_parameters_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "stats", "sigma", "--r", "1.5", "--n", "100")
        assert code == 1
        assert "config error" in err

    @pytest.mark.parametrize("argv, flag, value", [
        ("sigma --r abc --n 5", "--r", "abc"),
        ("sigma --r 0_1 --n 5", "--r", "0_1"),
        ("sigma --r nan --n 5", "--r", "nan"),
        ("threshold --r 0.1 --n 100 --z inf", "--z", "inf"),
        ("recursion --T 0.3 --r0 1e-2_0 --steps 3", "--r0", "1e-2_0"),
        ("sigma --r 0.1 --n 1_0", "--n", "1_0"),
        ("sigma --r 0.1 --n -5", "--n", "-5"),
        ("threshold --r 0.1 --n 100 --z x", "--z", "x"),
        ("cheat --r 0.1 --n 10 --threshold 0.2.1", "--threshold", "0.2.1"),
        ("cheat --r 0.1 --n +10 --threshold 0.2 --binomial", "--n", "+10"),
        ("recursion --T 0.3 --r0 zero --steps 3", "--r0", "zero"),
        ("recursion --T 0.3 --r0 0.01 --steps 3.0", "--steps", "3.0"),
    ])
    def test_bad_number_exit_one(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, "stats", *argv.split())
        assert code == 1
        assert out == ""
        assert err.startswith(f"config error: {flag}: bad value for {flag[2:]}: '{value}'")

    def test_bad_sigma_at_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "stats", "cheat", "--r", "0.1", "--n", "10",
                               "--threshold", "0.2", "--sigma-at", "bogus")
        assert code == 1
        assert err.startswith("config error: sigma_at must be 'threshold' or 'estimate'")


# float text Python's float() reads but a float setting must not
BAD_FLOATS = ["0_2", "-0.2", "+0.2", "0. 2", "inf", "nan", "Infinity", ".2", "2.", "1e",
              "0x1", "\u0660.2", "0.2f"]


class TestRunCommand:
    def test_clean_batch(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", "--trials", "20", "--seed", "7",
                               "--out-dir", str(out_dir))
        assert code == 0
        with open(out_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["abort_fraction"]) == 0.0
        assert float(rows[0]["key_agreement_fraction"]) == 1.0
        with open(out_dir / "trials.csv") as fh:
            trials = list(csv.DictReader(fh))
        assert len(trials) == 20
        assert trials[0]["seed"] == "7"
        assert all(t["keys_equal"] == "1" for t in trials)

    def test_byte_identical_outputs(self, capsys, tmp_path):
        args = ["run", "--trials", "15", "--seed", "3", "--attack", "bitflip",
                "--noise-p", "0.08"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out-dir", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out-dir", str(b))[0] == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_summary_matches_per_trial_rows(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--trials", "60", "--seed", "11",
                             "--attack", "bitflip", "--noise-p", "0.12",
                             "--out-dir", str(out_dir))
        assert code == 0
        with open(out_dir / "trials.csv") as fh:
            trials = list(csv.DictReader(fh))
        with open(out_dir / "summary.csv") as fh:
            summary = next(csv.DictReader(fh))
        aborts = sum(t["aborted"] == "1" for t in trials)
        assert float(summary["abort_fraction"]) == pytest.approx(aborts / len(trials))
        rates = [float(t["check_error_rate"]) for t in trials if t["check_error_rate"]]
        assert float(summary["mean_check_error"]) == pytest.approx(sum(rates) / len(rates))
        completed = [t for t in trials if t["aborted"] == "0"]
        agree = sum(t["keys_equal"] == "1" for t in completed)
        assert float(summary["key_agreement_fraction"]) == pytest.approx(agree / len(completed))

    def test_bitflip_mean_check_error_tracks_noise(self, capsys, tmp_path):
        # binomial oracle: mean observed check error over the batch sits
        # within 3*sigma(p, 49)/sqrt(trials) of the flip probability
        out_dir = tmp_path / "out"
        trials = 2000
        code, _, _ = run_cli(capsys, "run", "--trials", str(trials), "--seed", "40",
                             "--attack", "bitflip", "--noise-p", "0.10",
                             "--out-dir", str(out_dir))
        assert code == 0
        with open(out_dir / "summary.csv") as fh:
            summary = next(csv.DictReader(fh))
        mean = float(summary["mean_check_error"])
        tol = 3 * math.sqrt(0.10 * 0.90 / 49) / math.sqrt(trials)
        assert abs(mean - 0.10) < tol

    @pytest.mark.parametrize("attack, noise_p", [("none", "0"), ("bitflip", "0.03"),
                                                 ("intercept_resend", "0.3")])
    @pytest.mark.parametrize("stack", ["steane/steane", "steane/golay", "golay/steane",
                                       "golay/golay"])
    def test_every_dumped_transcript_replays(self, capsys, tmp_path, stack, attack, noise_p):
        stage1, stage2 = stack.split("/")
        pairs = ["--stage1-pair", stage1, "--stage2-pair", stage2]
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--trials", "4", "--seed", "3", "--attack", attack,
                             "--noise-p", noise_p, *pairs, "--out-dir", str(out_dir),
                             "--dump-transcripts")
        assert code == 0
        tdir = out_dir / "transcripts"
        for i in range(4):
            stem = tdir / f"trial_{i:05d}"
            key = stem.with_suffix(".bob").read_text().splitlines()[2].split(" ")[1]
            code, out, _ = run_cli(capsys, "replay", str(stem.with_suffix(".transcript")),
                                   str(stem.with_suffix(".bob")), *pairs)
            assert code == 0
            assert out.splitlines()[1:] == [f"recomputed_key={key}", f"recorded_key={key}",
                                            "MATCH"], f"trial {i}"

    def test_transcript_dump_and_replay(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--trials", "1", "--seed", "5",
                             "--out-dir", str(out_dir), "--dump-transcripts")
        assert code == 0
        tdir = out_dir / "transcripts"
        transcripts = sorted(tdir.glob("*.transcript"))
        bobs = sorted(tdir.glob("*.bob"))
        assert len(transcripts) == 1 and len(bobs) == 1
        code, out, _ = run_cli(capsys, "replay", str(transcripts[0]), str(bobs[0]))
        assert code == 0
        assert "MATCH" in out and "MISMATCH" not in out

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "trials = 5\n"
            "seed = 2\n"
            "attack = bitflip\n"
            "noise_p = 0.0\n"
            f"out_dir = {tmp_path / 'from_file'}\n"
        )
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "from_file" / "trials.csv").exists()
        override = tmp_path / "flag_wins"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(override))
        assert code == 0
        assert (override / "trials.csv").exists()

    def test_unknown_config_key_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize("line", ["seed = 1_0", "trials = +3", "trials = 3.0",
                                      "seed = -1", "dump_transcripts = yes",
                                      "seed = 1234567890123456789"])
    def test_config_integers_are_decimal_digits(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# integers\nattack = none\n{line}\n")
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith(f"config error: {cfg}:3: bad value for {line.split()[0]}")
        assert not out_dir.exists()

    def test_config_integers_read_as_written(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 010\ntrials = 3\ndump_transcripts = 1\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        rows = list(csv.DictReader((out_dir / "trials.csv").open()))
        assert [row["seed"] for row in rows] == ["10", "11", "12"]
        assert len(list((out_dir / "transcripts").glob("*.transcript"))) == 3

    @pytest.mark.parametrize("seed", ["1_0", "-1"])
    def test_seed_flag_is_decimal_digits(self, capsys, tmp_path, seed):
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "run", "--trials", "1", "--seed", seed,
                               "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith(f"config error: --seed: bad value for seed: '{seed}'")
        assert not out_dir.exists()

    def test_infinite_delta_exit_one(self, capsys, tmp_path):
        # "inf" is not a decimal (see test_floats_are_decimals); an exponent
        # past the float range spells infinity in digits
        code, _, err = run_cli(capsys, "run", "--trials", "1", "--delta", "1e999",
                               "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("config error: delta must be positive and finite")

    @pytest.mark.parametrize("value", BAD_FLOATS)
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_floats_are_decimals(self, capsys, tmp_path, where, value):
        out_dir = tmp_path / "x"
        if where == "file":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"attack = bitflip\ndelta = {value}\n")
            code, _, err = run_cli(capsys, "run", "--trials", "1", "--config", str(cfg),
                                   "--out-dir", str(out_dir))
            source = f"{cfg}:2"
        else:
            code, _, err = run_cli(capsys, "run", "--trials", "1", f"--delta={value}",
                                   "--out-dir", str(out_dir))
            source = "--delta"
        assert code == 1
        assert err.startswith(f"config error: {source}: bad value for delta: {value!r}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["2e-1", "0.02E1", "0.2e+0", "00.20"])
    def test_float_spellings_read_alike(self, capsys, tmp_path, value):
        outputs = []
        for spelling in ("0.2", value):
            out_dir = tmp_path / spelling
            code, _, _ = run_cli(capsys, "run", "--trials", "2", "--attack", "bitflip",
                                 "--noise-p", "0.05", f"--delta={spelling}",
                                 "--out-dir", str(out_dir))
            assert code == 0
            outputs.append((out_dir / "trials.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--threshold", "--delta", "--noise-p"])
    def test_float_flag_bad_value_exit_one(self, capsys, tmp_path, flag):
        out_dir = tmp_path / "x"
        code, _, err = run_cli(capsys, "run", "--trials", "1", flag, "abc",
                               "--out-dir", str(out_dir))
        key = flag[2:].replace("-", "_")
        assert code == 1
        assert err.startswith(f"config error: {flag}: bad value for {key}: 'abc'")
        assert not out_dir.exists()

    def test_float_flags_read_as_the_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attack = bitflip\nnoise_p = 0.05\nthreshold = 0.06\ndelta = 0.2\n")
        outputs = []
        for name, settings in (("flags", ["--attack", "bitflip", "--noise-p", "0.05",
                                          "--threshold", "0.06", "--delta", "0.2"]),
                               ("file", ["--config", str(cfg)])):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "run", "--trials", "20", *settings,
                                 "--out-dir", str(out_dir))
            assert code == 0
            outputs.append((out_dir / "trials.csv").read_bytes())
        assert outputs[0] == outputs[1]
        # the low threshold aborts some trials and passes others
        aborted = {row["aborted"] for row in csv.DictReader(outputs[0].decode().splitlines())}
        assert aborted == {"0", "1"}

    def test_unknown_attack_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("attack = bogus\n")
        for settings in (["--attack", "bogus"], ["--config", str(cfg)]):
            out_dir = tmp_path / "x"
            code, _, err = run_cli(capsys, "run", "--trials", "1", *settings,
                                   "--out-dir", str(out_dir))
            assert code == 1
            assert err.startswith("config error: unknown attack 'bogus'")
            assert not out_dir.exists()

    def test_zero_trials_exit_one(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--trials", "0", "--out-dir", str(tmp_path / "x"))
        assert code == 1

    def test_correlated_attack_needs_positions(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--trials", "1", "--attack",
                               "correlated_positions", "--noise-p", "1.0",
                               "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert "attack_positions" in err


    @pytest.mark.parametrize("positions", ["+3", "3,1_0", "3, 5", "-3"])
    def test_attack_positions_are_decimal_digits(self, capsys, tmp_path, positions):
        code, _, err = run_cli(capsys, "run", "--trials", "1", "--attack",
                               "correlated_positions", "--noise-p", "1.0",
                               "--attack-positions", positions, "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("config error:")
        assert not (tmp_path / "x").exists()

class TestReplayErrors:
    def test_truncated_transcript_exit_three(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        text = tpath.read_text().splitlines()[:2]
        tpath.write_text("\n".join(text) + "\n")
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath))
        assert code == 3
        assert "missing tag" in err

    @pytest.mark.parametrize("flag", ["--stage1-pair", "--stage2-pair"])
    def test_wrong_code_pair_exit_three(self, capsys, tmp_path, flag):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath), flag, "golay")
        assert code == 3
        assert err.startswith("parse error:")
        assert "Traceback" not in err

    def test_check_position_outside_transmission_exit_three(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        lines = tpath.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("CHECKPOS"):
                lines[i] = line.rsplit(",", 1)[0] + ",9999"
        tpath.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath))
        assert code == 3
        assert err.startswith("parse error:")
        assert "9999" in err
        assert "Traceback" not in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "replay", str(tmp_path / "nope.transcript"),
                               str(tmp_path / "nope.bob"))
        assert code == 2

    @pytest.mark.parametrize("how", ["underscore", "plus", "id"])
    def test_non_decimal_number_exit_three(self, capsys, tmp_path, how):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        tpath.write_text(respelled(tpath.read_text(), how))
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath))
        assert code == 3
        assert err.startswith("parse error:")

    def test_position_too_long_for_int64_exit_three(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        lines = tpath.read_text().splitlines()
        assert lines[1].startswith("KEEP pos=")
        lines[1] = "KEEP pos=123456789012345678901234567890," + lines[1].split(",", 1)[1]
        tpath.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath))
        assert code == 3
        assert err.startswith("parse error: line 2: bad position list")
        assert "Traceback" not in err

    @pytest.mark.parametrize("suffix, line_no", [(".transcript", 4), (".bob", 2)])
    def test_non_ascii_byte_exit_three(self, capsys, tmp_path, suffix, line_no):
        # the file was once read as strict ASCII, and a decode error was
        # reported as a config error with exit 1
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        path = tpath if suffix == ".transcript" else bpath
        lines = path.read_bytes().split(b"\n")
        lines[line_no - 1] = lines[line_no - 1][:3] + b"\xe9" + lines[line_no - 1][3:]
        path.write_bytes(b"\n".join(lines))
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath))
        assert code == 3
        assert err.startswith(f"parse error: line {line_no}: byte 0xe9 is not ASCII")

    @pytest.mark.parametrize("flag", ["--threshold", "--delta"])
    def test_float_flag_bad_value_exit_one(self, capsys, tmp_path, flag):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "1", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        code, _, err = run_cli(capsys, "replay", str(tpath), str(bpath), flag, "abc")
        assert code == 1
        assert err.startswith(f"config error: {flag}: bad value for {flag[2:]}: 'abc'")

    @pytest.mark.parametrize("flags", ["--seed 5", "--trials 5", "--attack none",
                                       "--noise-p 0.1", "--attack-positions 5", "--out-dir out",
                                       "--dump-transcripts"])
    def test_batch_flags_are_usage_errors(self, capsys, flags):
        # replay takes only the flags that build its ProtocolConfig
        with pytest.raises(SystemExit) as exc:
            main(["replay", "t.transcript", "t.bob", *flags.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags}" in capsys.readouterr().err

    def test_corrupted_masked_word_reports_mismatch(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "--trials", "1", "--seed", "9", "--out-dir", str(out_dir),
                "--dump-transcripts")
        tpath = next((out_dir / "transcripts").glob("*.transcript"))
        bpath = next((out_dir / "transcripts").glob("*.bob"))
        lines = tpath.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("BLK2"):
                head, masked = line.rsplit("masked=", 1)
                flipped = "".join("1" if c == "0" else "0" for c in masked[:2]) + masked[2:]
                lines[i] = head + "masked=" + flipped
        tpath.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "replay", str(tpath), str(bpath))
        assert code == 0  # reported, not a crash
        assert "MISMATCH" in out


class TestCodesValidate:
    def test_valid_pair_file(self, capsys, tmp_path):
        path = tmp_path / "steane.pair"
        path.write_text(format_pair(builtin_pair("steane")))
        code, out, _ = run_cli(capsys, "codes", "validate", str(path))
        assert code == 0
        assert "OK" in out
        assert "distance verified" in out

    def test_pair_with_zero_inner_code(self, capsys, tmp_path):
        zero = LinearCode(np.zeros((0, 7), dtype=np.uint8), np.eye(7, dtype=np.uint8), 7)
        path = tmp_path / "simplex-zero.pair"
        path.write_text(format_pair(CssPair(make_hamming_dual_7_3(), zero)))
        code, out, _ = run_cli(capsys, "codes", "validate", str(path))
        assert code == 0
        assert "valid pair: key_width=3" in out and "inner: [7,0,7]" in out

    def test_invalid_pair_exit_one(self, capsys, tmp_path):
        text = format_pair(builtin_pair("steane"))
        # corrupt one generator bit so containment fails
        lines = text.splitlines()
        lines[1] = ("0" if lines[1][0] == "1" else "1") + lines[1][1:]
        path = tmp_path / "broken.pair"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "codes", "validate", str(path))
        assert code == 1

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "codes", "validate", str(tmp_path / "nope.code"))
        assert code == 2

    def test_bad_header_exit_one(self, capsys, tmp_path):
        path = tmp_path / "wide.code"
        path.write_text("3 5 1\n111\n")
        code, _, err = run_cli(capsys, "codes", "validate", str(path))
        assert code == 1
        assert err.startswith("config error:") and "'3 5 1'" in err

    def test_run_with_pair_file(self, capsys, tmp_path):
        path = tmp_path / "steane.pair"
        path.write_text(format_pair(builtin_pair("steane")))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--trials", "3", "--stage1-pair", f"file:{path}",
                             "--stage2-pair", f"file:{path}", "--out-dir", str(out_dir))
        assert code == 0


def option_flags(*commands):
    """{dest: action} of the option flags of the (sub)command path `commands`."""
    parser = cli.build_parser()
    for command in commands:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    return {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}


# the settings read as numbers, and each command's flags for them that take a value
NUMBER_SETTINGS = [key for key, (read, *_) in cli._SETTINGS.items() if read is not str]
NUMBER_FLAGS = [(command, key) for command in ("run", "replay")
                for key, action in option_flags(command).items()
                if key in NUMBER_SETTINGS and action.nargs is None]
STATS_NUMBERS = [(command, key) for command, numbers in cli._STATS.items() for key in numbers]


class TestSettingsTables:
    """Each setting and stats number behaves as its table line declares, so a
    line added to a table is covered here."""

    @staticmethod
    def argv(command, tmp_path, *flags):
        if command == "run":
            return ["run", "--out-dir", str(tmp_path / "x"), *flags]
        return ["replay", str(tmp_path / "t.transcript"), str(tmp_path / "t.bob"), *flags]

    @pytest.mark.parametrize("key", NUMBER_SETTINGS)
    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_bad_number_in_the_file_exit_one(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = abc\n")
        code, out, err = run_cli(capsys, *self.argv(command, tmp_path, "--config", str(cfg)))
        assert (code, out) == (1, "")
        assert err == f"config error: {cfg}:1: bad value for {key}: 'abc'\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, key", NUMBER_FLAGS)
    def test_bad_number_flag_exit_one(self, capsys, tmp_path, command, key):
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(capsys, *self.argv(command, tmp_path, flag, "abc"))
        assert (code, out) == (1, "")
        assert err == f"config error: {flag}: bad value for {key}: 'abc'\n"
        assert not (tmp_path / "x").exists()

    def test_every_number_but_the_const_flag_takes_a_value(self):
        assert [key for command, key in NUMBER_FLAGS if command == "run"] == [
            key for key in NUMBER_SETTINGS if key != "dump_transcripts"]
        action = option_flags("run")["dump_transcripts"]
        assert (action.nargs, action.const, action.default) == (0, 1, None)

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_flags_are_the_marked_settings(self, command):
        marked = [key for key, (*_, in_replay) in cli._SETTINGS.items()
                  if in_replay or command == "run"]
        flags = option_flags(command)
        assert list(flags) == ["config", *marked]
        for key in marked:
            assert flags[key].option_strings == ["--" + key.replace("_", "-")]

    @pytest.mark.parametrize("command, key", STATS_NUMBERS)
    def test_bad_stats_number_exit_one(self, capsys, command, key):
        argv = [part for number in cli._STATS[command]
                for part in (f"--{number}", "abc" if number == key else "1")]
        code, out, err = run_cli(capsys, "stats", command, *argv)
        assert (code, out) == (1, "")
        assert err == f"config error: --{key}: bad value for {key}: 'abc'\n"

    @pytest.mark.parametrize("command", cli._STATS)
    def test_stats_flags_are_the_table_numbers(self, command):
        extra = ["sigma_at", "binomial"] if command == "cheat" else []
        flags = option_flags("stats", command)
        assert list(flags) == [*cli._STATS[command], *extra]
        for key in cli._STATS[command]:
            assert flags[key].required


@pytest.mark.skipif(shutil.which("bb84sim") is None, reason="entry point not installed")
def test_console_script_smoke():
    proc = subprocess.run(["bb84sim", "stats", "sigma", "--r", "0.1", "--n", "1000"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.009487" in proc.stdout


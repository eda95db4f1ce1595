import csv
import math
import shutil
import subprocess

import numpy as np
import pytest

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


@pytest.mark.skipif(shutil.which("bb84sim") is None, reason="entry point not installed")
def test_console_script_smoke():
    proc = subprocess.run(["bb84sim", "stats", "sigma", "--r", "0.1", "--n", "1000"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.009487" in proc.stdout


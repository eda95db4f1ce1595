from dataclasses import replace

import pytest

from bb84sim.channel import AttackModel
from bb84sim.codes import builtin_pair
from bb84sim.errors import TranscriptError
from bb84sim.protocol import ProtocolConfig, replay_bob, run_protocol_full
from bb84sim.transcript import (
    BlockAnnouncement,
    Transcript,
    dump_transcript,
    parse_transcript,
)


def small_transcript():
    return Transcript(
        b="0110",
        kept_positions=(0, 2),
        check_positions=(0,),
        alice_check_values="1",
        bob_check_values="1",
        stage1_blocks=(BlockAnnouncement(1, 0, (2,), "0"),),
        stage2_blocks=(BlockAnnouncement(2, 0, (0,), "1"),),
    )


def run_config(seed=0):
    steane = builtin_pair("steane")
    return ProtocolConfig(stage1_pair=steane, stage2_pair=steane,
                          abort_threshold=0.124, rng_seed=seed)


class TestRoundTrip:
    def test_synthetic(self):
        t = small_transcript()
        assert parse_transcript(dump_transcript(t)) == t

    def test_empty_bit_strings(self):
        t = Transcript(b="", kept_positions=(), check_positions=(), alice_check_values="",
                       bob_check_values="")
        assert dump_transcript(t).startswith("B bits=\nKEEP pos=\n")
        assert parse_transcript(dump_transcript(t)) == t

    def test_dump_is_stable(self):
        t = small_transcript()
        assert dump_transcript(parse_transcript(dump_transcript(t))) == dump_transcript(t)

    def test_real_runs_bit_exact(self):
        for seed in range(5):
            art = run_protocol_full(run_config(seed), AttackModel.bitflip(0.05))
            text = dump_transcript(art.transcript)
            assert parse_transcript(text) == art.transcript
            assert dump_transcript(parse_transcript(text)) == text

    def test_aborted_run_has_no_blocks(self):
        art = run_protocol_full(run_config(3), AttackModel.intercept_resend(1.0))
        assert art.outcome.aborted
        t = parse_transcript(dump_transcript(art.transcript))
        assert t.stage1_blocks == ()
        assert t.stage2_blocks == ()


class TestParseErrors:
    def test_truncation_names_missing_tag(self):
        text = dump_transcript(small_transcript())
        truncated = "\n".join(text.splitlines()[:3]) + "\n"
        with pytest.raises(TranscriptError, match="missing tag ACHK"):
            parse_transcript(truncated)

    def test_error_carries_line_number(self):
        text = dump_transcript(small_transcript()).replace("ACHK bits=1", "ACHK bits=2")
        with pytest.raises(TranscriptError, match="line 4"):
            parse_transcript(text)

    def test_bad_positions(self):
        text = dump_transcript(small_transcript()).replace("KEEP pos=0,2", "KEEP pos=0,x")
        with pytest.raises(TranscriptError, match="position"):
            parse_transcript(text)

    def test_out_of_order_blocks(self):
        t = small_transcript()
        text = dump_transcript(t)
        lines = text.splitlines()
        lines[5], lines[6] = lines[6], lines[5]  # BLK2 before BLK1
        with pytest.raises(TranscriptError, match="BLK1 after BLK2"):
            parse_transcript("\n".join(lines) + "\n")

    def test_masked_length_mismatch(self):
        text = dump_transcript(small_transcript()).replace("pos=2 masked=0", "pos=2 masked=01")
        with pytest.raises(TranscriptError, match="masked length"):
            parse_transcript(text)

    def test_unexpected_tag(self):
        text = dump_transcript(small_transcript()) + "WHAT is=this\n"
        with pytest.raises(TranscriptError, match="unexpected tag"):
            parse_transcript(text)

    @pytest.mark.parametrize("bits", ["0_10", "+110", "0x10", "01 10", "0b10"])
    def test_rejects_what_int_would_parse_as_bits(self, bits):
        text = dump_transcript(small_transcript()).replace("B bits=0110", f"B bits={bits}")
        with pytest.raises(TranscriptError, match="line 1"):
            parse_transcript(text)

    @pytest.mark.parametrize("how", ["underscore", "plus", "id"])
    def test_numbers_are_decimal_digits_only(self, how):
        text = dump_transcript(run_protocol_full(run_config(0)).transcript)
        assert parse_transcript(text)
        with pytest.raises(TranscriptError, match="line (2: bad position list|7: bad block id)"):
            parse_transcript(respelled(text, how))


    @pytest.mark.parametrize("digits", [19, 30])
    def test_position_too_long_for_int64(self, digits):
        # 30 digits crashed replay with an OverflowError once parsed
        number = "123456789" * 4
        text = dump_transcript(small_transcript()).replace("KEEP pos=0,2",
                                                           f"KEEP pos={number[:digits]},2")
        with pytest.raises(TranscriptError, match="line 2: bad position list"):
            parse_transcript(text)

    def test_eighteen_digit_position(self):
        t = replace(small_transcript(), kept_positions=(0, 10**18 - 1))
        assert parse_transcript(dump_transcript(t)) == t


def respelled(text, how):
    """A dumped transcript with one number written as int() reads it but a
    decimal field must not: 1_0 for 10 or +2 for 2 in KEEP, or BLK1 id=+1."""
    lines = text.splitlines()
    if how == "id":
        assert lines[5].startswith("BLK1 id=0 ") and lines[6].startswith("BLK1 id=1 ")
        lines[6] = lines[6].replace("id=1", "id=+1")
    else:
        head, value = lines[1].split("=")
        positions = value.split(",")
        if how == "underscore":
            j = next(j for j, p in enumerate(positions) if len(p) > 1)
            positions[j] = positions[j][0] + "_" + positions[j][1:]
        else:
            positions[0] = "+" + positions[0]
        lines[1] = head + "=" + ",".join(positions)
    return "\n".join(lines) + "\n"


class TestCorruptionSensitivity:
    def test_single_masked_bit_flip_is_absorbed(self):
        # one flipped masked-word bit looks like one extra channel error, and
        # a distance-3 stage absorbs it: the replayed key still matches
        cfg = run_config(17)
        art = run_protocol_full(cfg)
        text = dump_transcript(art.transcript)
        corrupted = parse_transcript(_flip_masked_bits(text, "BLK2", 1))
        result = replay_bob(corrupted, art.bob_bases, art.bob_bits, cfg)
        assert not result.aborted
        assert result.key == art.outcome.bob_final_key

    def test_two_masked_bit_flips_reported_as_mismatch(self):
        # two flips exceed the correction radius: replay completes without
        # crashing and the key disagrees with the recorded one
        cfg = run_config(17)
        art = run_protocol_full(cfg)
        text = dump_transcript(art.transcript)
        corrupted = parse_transcript(_flip_masked_bits(text, "BLK2", 2))
        result = replay_bob(corrupted, art.bob_bases, art.bob_bits, cfg)
        assert not result.aborted
        assert result.key is not None
        assert result.key != art.outcome.bob_final_key


def _flip_masked_bits(text, tag, count):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(tag + " "):
            head, masked = line.rsplit("masked=", 1)
            flipped = "".join(
                ("1" if c == "0" else "0") if j < count else c
                for j, c in enumerate(masked)
            )
            lines[i] = head + "masked=" + flipped
            break
    return "\n".join(lines) + "\n"

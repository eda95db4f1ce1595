import functools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84sim import transcript
from bb84sim.channel import AttackModel
from bb84sim.cli import main
from bb84sim.codes import builtin_pair
from bb84sim.errors import TranscriptError
from bb84sim.gf2 import format_bits
from bb84sim.protocol import ProtocolConfig, replay_bob, run_chunk
from bb84sim.transcript import (
    StageAnnouncement,
    Transcript,
    dump_bob,
    dump_transcript,
    parse_bob,
    parse_transcript,
)
from oracle import parse_transcript_reference
from test_protocol import simplex_pair
from trials import double_error_in_first_block, read_trial, read_trials


def small_transcript():
    return Transcript(
        b="0110",
        kept_positions=(0, 2),
        check_positions=(0,),
        alice_check_values="1",
        bob_check_values="1",
        stage1_blocks=StageAnnouncement([[2]], "0"),
        stage2_blocks=StageAnnouncement([[0]], "1"),
    )


def run_config(seed=0):
    steane = builtin_pair("steane")
    return ProtocolConfig(stage1_pair=steane, stage2_pair=steane,
                          abort_threshold=0.124, rng_seed=seed)


def run_dump(seed=0, attack=AttackModel.none()):
    """The transcript a steane/steane run of one trial dumps."""
    [(text, _)] = run_chunk(run_config(), [seed], attack).dumps()
    return text.decode("ascii")


class TestRoundTrip:
    def test_synthetic(self):
        t = small_transcript()
        assert parse_transcript(dump_transcript(t)) == t

    def test_empty_bit_strings(self):
        t = Transcript(b="", kept_positions=(), check_positions=(), alice_check_values="",
                       bob_check_values="")
        assert dump_transcript(t).startswith("B bits=\nKEEP pos=\n")
        assert parse_transcript(dump_transcript(t)) == t

    def test_blocks_of_no_positions(self):
        t = replace(small_transcript(), stage1_blocks=StageAnnouncement(np.zeros((2, 0)), ""))
        assert "BLK1 id=1 pos= masked=\n" in dump_transcript(t)
        assert parse_transcript(dump_transcript(t)) == t

    def test_dump_is_stable(self):
        t = small_transcript()
        assert dump_transcript(parse_transcript(dump_transcript(t))) == dump_transcript(t)

    def test_real_runs_bit_exact(self):
        for seed in range(5):
            text = run_dump(seed, AttackModel.bitflip(0.05))
            assert dump_transcript(parse_transcript(text)) == text

    def test_aborted_run_has_no_blocks(self):
        art = read_trial(run_chunk(run_config(), [3], AttackModel.intercept_resend(1.0)))
        assert art.outcome.aborted
        t = art.transcript
        assert t.stage1_blocks == t.stage2_blocks == StageAnnouncement()
        assert t.stage1_blocks.positions.shape == (0, 0)


def chunk_dumps_agree(config, attack, sizes, flips=None, seed=100):
    """Run one chunk of each of `sizes` trials on consecutive seeds, check
    each trial's dumps and return each trial, read back from them.

    A trial's dumps must equal those of a chunk of that trial alone (with
    its rows of the flips `flips(config, trials)` makes, if given), be
    written again unchanged from what `parse_transcript` and `parse_bob`
    read of them, and give Bob's final key as the trial's outcome does."""
    trials = []
    for size in sizes:
        chunk = run_chunk(config, range(seed, seed + size), attack,
                          None if flips is None else flips(config, size))
        dumps = list(chunk.dumps())
        assert len(dumps) == size
        for t, (transcript, bob) in enumerate(dumps):
            single = run_chunk(config, [seed + t], attack,
                               None if flips is None else flips(config, 1))
            assert [(transcript, bob)] == list(single.dumps()), f"seed {seed + t}"
            text = transcript.decode("ascii")
            assert dump_transcript(parse_transcript(text)) == text, f"seed {seed + t}"
            bases, bits, key = parse_bob(bob.decode("ascii"))
            assert dump_bob(format_bits(bases).encode(), format_bits(bits).encode(),
                            key.encode()) == bob, f"seed {seed + t}"
            final = chunk.outcome(t).bob_final_key
            assert key == ("-" if final is None else final), f"seed {seed + t}"
        trials += read_trials(chunk)
        seed += size
    return trials


class TestChunkDump:
    """`TrialChunk.dumps`, which formats a whole chunk from its arrays,
    writes for each trial the bytes a chunk of that trial alone writes, in
    the layouts the parsers read back."""

    @pytest.mark.parametrize("attack", [AttackModel.none(), AttackModel.bitflip(0.05),
                                        AttackModel.intercept_resend(0.5)],
                             ids=["none", "bitflip", "intercept_resend"])
    @pytest.mark.parametrize("name, sizes", [("steane", (1, 9, 14)), ("golay", (1, 2, 3))])
    def test_pairs_and_attacks(self, name, sizes, attack):
        pair = builtin_pair(name)
        config = ProtocolConfig(pair, pair, abort_threshold=0.124)
        arts = chunk_dumps_agree(config, attack, sizes)
        if attack.kind == "intercept_resend":
            assert {art.outcome.abort_reason for art in arts} == {"security", None}
        else:
            assert not any(art.outcome.aborted for art in arts)

    @pytest.mark.parametrize("pair", [builtin_pair("steane"), simplex_pair()],
                             ids=["steane", "simplex"])
    def test_strict_decoding(self, pair):
        # steane's Hamming outer code is perfect, so no block fails to decode
        # there; the simplex outer code's injected double errors do, and
        # those trials stop after stage 1
        config = ProtocolConfig(pair, pair, abort_threshold=0.2, strict_decode=True)
        arts = chunk_dumps_agree(config, AttackModel.bitflip(0.06), (1, 8, 12),
                                 None if pair.inner.k else double_error_in_first_block)
        completed = [not art.outcome.aborted for art in arts]
        assert any(completed)
        stopped = [len(art.transcript.stage1_blocks) and not len(art.transcript.stage2_blocks)
                   for art in arts]
        assert any(stopped) == (not pair.inner.k)

    def test_fixed_assignment(self):
        # the later stages' orders are broadcast views of one row
        steane = builtin_pair("steane")
        config = ProtocolConfig(steane, steane, abort_threshold=0.124, random_assignment=False)
        arts = chunk_dumps_agree(config, AttackModel.bitflip(0.03), (1, 5, 7))
        assert not all(art.outcome.aborted for art in arts)


def read_by_either_reader(monkeypatch, texts):
    """Read `texts` line by line, then check that `parse_transcript` reads
    each to the same transcript without the line reader."""
    by_lines = [transcript._read_lines(text) for text in texts]

    def refuse(text):
        raise AssertionError(f"read line by line: {text[:40]!r}")

    monkeypatch.setattr(transcript, "_read_lines", refuse)
    assert [parse_transcript(text) for text in texts] == by_lines


class TestWhichReader:
    """Every dump `run` writes is read in whole-text passes; the line reader
    is the fallback for other text, and reads a dump the same."""

    @pytest.mark.parametrize("attack", ["none 0", "bitflip 0.05", "intercept_resend 1.0"])
    @pytest.mark.parametrize("stack", ["steane steane", "golay golay", "steane golay"])
    def test_run_dumps(self, monkeypatch, capsys, tmp_path, stack, attack):
        (stage1, stage2), (kind, p) = stack.split(), attack.split()
        assert main(["run", "--trials", "4", "--seed", "21", "--attack", kind, "--noise-p", p,
                     "--stage1-pair", stage1, "--stage2-pair", stage2,
                     "--out-dir", str(tmp_path), "--dump-transcripts"]) == 0
        capsys.readouterr()
        paths = sorted((tmp_path / "transcripts").glob("*.transcript"))
        assert len(paths) == 4
        read_by_either_reader(monkeypatch, [path.read_text() for path in paths])

    def test_strict_dump_that_stops_after_stage_one(self, monkeypatch):
        strict = ProtocolConfig(simplex_pair(), simplex_pair(), abort_threshold=0.3,
                                strict_decode=True)
        flips = double_error_in_first_block(strict)
        [(text, _)] = run_chunk(strict, [2], AttackModel.none(), flips).dumps()
        text = text.decode("ascii")
        assert "\nBLK1 " in text and "BLK2" not in text
        read_by_either_reader(monkeypatch, [text])


# `.bob` records `parse_bob` refuses, each with the line and the message
# that `bb84sim replay` prints after "parse error: "
BOB_REFUSALS = {
    "tag": ("BASES 01\nBITS 10\nKEYS 1\n", 3, "line 3: unexpected tag 'KEYS'"),
    "bases": ("BASES 0121\nBITS 1000\nKEY -\n", 1, "line 1: BASES must be a 0/1 string"),
    "key": ("BASES 01\nBITS 10\n", None, "missing tag KEY"),
    "lengths": ("BASES 011\nBITS 10\nKEY -\n", None, "BASES and BITS differ in length"),
    # lines end at "\n" alone, so a vertical tab stays inside its line
    "line ends": ("BASES 01\nBITS 10\x0bX\nKEY -\n", 2, "line 2: BITS must be a 0/1 string"),
    # a repeated tag is refused at its second line, whatever its value; the
    # last one read was once kept
    "repeated BASES": ("BASES 01\nBITS 10\nKEY -\nBASES 11\nKEY 0101\n", 4,
                       "line 4: duplicate tag 'BASES'"),
    "repeated BITS": ("BASES 01\nBITS 10\nBITS 2\nKEY -\n", 3, "line 3: duplicate tag 'BITS'"),
    "repeated KEY": ("KEY 0101\nBASES 01\nBITS 10\nKEY -\n", 4, "line 4: duplicate tag 'KEY'"),
}


class TestBobRecord:
    @pytest.mark.parametrize("key", [b"0110", b"-"])
    def test_round_trip(self, key):
        bases, bits, read_key = parse_bob(dump_bob(b"01011", b"11000", key).decode("ascii"))
        assert (format_bits(bases), format_bits(bits), read_key) == ("01011", "11000",
                                                                      key.decode("ascii"))

    def test_tags_in_any_order_once_each(self):
        bases, bits, key = parse_bob("KEY 1\n\nBITS 10\nBASES 01\n")
        assert (format_bits(bases), format_bits(bits), key) == ("01", "10", "1")

    @pytest.mark.parametrize("text, line, message", BOB_REFUSALS.values(), ids=BOB_REFUSALS)
    def test_refusals(self, text, line, message):
        with pytest.raises(TranscriptError) as exc:
            parse_bob(text)
        assert (exc.value.line, str(exc.value)) == (line, message)


class TestArrays:
    def test_every_array_is_read_only(self):
        for t in real_transcripts():
            for array in (t.kept_positions, t.check_positions, t.stage1_blocks.positions,
                          t.stage2_blocks.positions):
                assert array.dtype == np.int64
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
            assert parse_transcript(dump_transcript(t)) == t

    def test_hand_built_arrays_stay_writeable(self):
        # the transcript holds read-only views; the arrays it was given keep their flags
        kept, stage = np.array([0, 2]), np.array([[2]])
        t = replace(small_transcript(), kept_positions=kept,
                    stage1_blocks=StageAnnouncement(stage, "0"))
        assert kept.flags.writeable and stage.flags.writeable
        assert not t.kept_positions.flags.writeable
        assert t == small_transcript()

    def test_a_stage_is_one_array_of_its_blocks(self):
        t = parse_transcript(real_dumps()[-1])
        assert t.stage1_blocks.positions.shape == (23, 23)
        assert t.stage2_blocks.positions.shape == (1, 23)
        assert len(t.stage1_blocks.masked) == 23 * 23

    @pytest.mark.parametrize("positions, masked", [
        ([[1, 2], [3]], "0" * 3),
        ([1, 2], "00"),
        ([[1, 2]], "0"),
    ])
    def test_stage_shape_is_checked(self, positions, masked):
        with pytest.raises(ValueError):
            StageAnnouncement(positions, masked)


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

    @pytest.mark.parametrize("edits, error", [
        ((("KEEP pos=0,2", "KEEP pos=0,x"), ("ACHK bits=1", "ACHK bits=2")),
         "line 2: bad position list '0,x'"),
        ((("BLK1 id=0 pos=2 masked=0", "BLK1 id=0 pos=x masked=2"),),
         "line 6: bad position list 'x'"),
        ((("BLK1 id=0 pos=2 masked=0", "BLK1 id=0 pos=2 masked=2"),
          ("BLK2 id=0 pos=0 ", "BLK2 id=0 pos=x ")),
         "line 6: bit string '2' has characters outside 0/1"),
    ], ids=["header", "one block line", "two block lines"])
    def test_first_failure_in_line_and_field_order(self, edits, error):
        text = dump_transcript(small_transcript())
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(TranscriptError) as exc:
            parse_transcript(text)
        assert str(exc.value) == error

    def test_out_of_order_blocks(self):
        t = small_transcript()
        text = dump_transcript(t)
        lines = text.splitlines()
        lines[5], lines[6] = lines[6], lines[5]  # BLK2 before BLK1
        with pytest.raises(TranscriptError, match="BLK1 after BLK2"):
            parse_transcript("\n".join(lines) + "\n")

    def test_stage_blocks_of_unequal_length(self):
        text = run_dump()
        lines = text.splitlines()
        head, masked = lines[7].rsplit(" masked=", 1)
        lines[7] = head.rsplit(",", 1)[0] + " masked=" + masked[:-1]
        with pytest.raises(TranscriptError,
                           match="line 8: stage-1 block 2 has 6 positions, but block 0 has 7"):
            parse_transcript("\n".join(lines) + "\n")

    def test_masked_length_mismatch(self):
        text = dump_transcript(small_transcript()).replace("pos=2 masked=0", "pos=2 masked=01")
        with pytest.raises(TranscriptError, match="masked length"):
            parse_transcript(text)

    def test_masked_bit_moved_to_another_block(self):
        # the stage's masked bits stay as many as its positions, but block 1
        # has one bit more than its positions, and block 2 one less
        lines = run_dump().splitlines()
        assert lines[6].startswith("BLK1 id=1 ") and lines[7].startswith("BLK1 id=2 ")
        lines[6] += lines[7][-1]
        lines[7] = lines[7][:-1]
        with pytest.raises(TranscriptError, match="line 7: masked length 8 != position count 7"):
            parse_transcript("\n".join(lines) + "\n")

    @pytest.mark.parametrize("key", ["pos", "masked"])
    def test_block_value_without_its_key(self, key):
        text = run_dump()
        head, line, tail = text.partition("\nBLK1 id=1 ")
        line = line + tail.replace(f"{key}=", "", 1)
        with pytest.raises(TranscriptError, match="line 7: malformed field"):
            parse_transcript(head + line)

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
        text = run_dump()
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
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        text = dump_transcript(art.transcript)
        corrupted = parse_transcript(_flip_masked_bits(text, "BLK2", 1))
        result = replay_bob(corrupted, art.bob_bases, art.bob_bits, cfg)
        assert not result.aborted
        assert result.key == art.outcome.bob_final_key

    def test_two_masked_bit_flips_reported_as_mismatch(self):
        # two flips exceed the correction radius: replay completes without
        # crashing and the key disagrees with the recorded one
        cfg = run_config(17)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
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


STACKS = [("steane", "steane"), ("steane", "golay"), ("golay", "golay")]


@functools.lru_cache(maxsize=None)
def real_dumps():
    """Dumped transcripts of real runs: one under strict decoding that stops
    after a stage-1 block fails to decode, so has no BLK2 lines, then for
    each stack one that aborts at the check and two that finish (golay/golay's
    last)."""
    strict = ProtocolConfig(simplex_pair(), simplex_pair(), abort_threshold=0.3, strict_decode=True)
    failed = run_chunk(strict, [2], AttackModel.none(), double_error_in_first_block(strict))
    assert failed.outcome(0).abort_reason == "decode_failure"
    chunks = [failed]
    for stage1, stage2 in STACKS:
        config = ProtocolConfig(builtin_pair(stage1), builtin_pair(stage2), abort_threshold=0.124)
        aborted = run_chunk(config, [0], AttackModel.intercept_resend(1.0))
        assert aborted.outcome(0).abort_reason == "security"
        chunks += [aborted, run_chunk(config, range(2), AttackModel.bitflip(0.03))]
    dumps = [text.decode("ascii") for chunk in chunks for text, _ in chunk.dumps()]
    assert "\nBLK1 " in dumps[0] and "BLK2" not in dumps[0]
    return tuple(dumps)


def real_transcripts():
    return [parse_transcript(text) for text in real_dumps()]


# edits by weight: most change one character, mostly inside a field's value
_EDITS = 3 * ["insert", "delete", "substitute"] + [
    "duplicate field", "reorder fields", "shorten block", "swap lines", "drop line"]


@st.composite
def mutated_dumps(draw):
    """A real dump with one to three edits: a character inserted, deleted or
    substituted, a field duplicated or two swapped, a block's last position
    dropped with its last masked bit, or two lines swapped or one dropped."""
    lines = draw(st.sampled_from(real_dumps())).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line, edit = lines[i], draw(st.sampled_from(_EDITS))
        fields = line.split(" ")
        if edit in ("insert", "delete", "substitute"):
            values = [match.span(1) for match in re.finditer("=([^ ]*)", line)]
            if values and draw(st.integers(0, 3)):
                j = draw(st.integers(*draw(st.sampled_from(values))))
            else:
                j = draw(st.integers(0, len(line)))
            char = draw(st.sampled_from("0123456789,,,=+-_x B\n\r\t"))
            end = j + (edit != "insert")
            lines[i] = line[:j] + ("" if edit == "delete" else char) + line[end:]
        elif edit == "duplicate field" and len(fields) > 1:
            k = draw(st.integers(1, len(fields) - 1))
            lines[i] = " ".join(fields + [fields[k]])
        elif edit == "reorder fields" and len(fields) > 2:
            a, b = draw(st.permutations(range(1, len(fields))))[:2]
            fields[a], fields[b] = fields[b], fields[a]
            lines[i] = " ".join(fields)
        elif edit == "shorten block" and " masked=" in line:
            head, masked = line.rsplit(" masked=", 1)
            lines[i] = head.rsplit(",", 1)[0] + " masked=" + masked[:-1]
        elif edit == "swap lines":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif edit == "drop line":
            del lines[i]
    return "\n".join(lines)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except TranscriptError as exc:
        return "error", exc.line, str(exc)


def _content(t):
    """A parsed transcript as plain values: positions as tuples of ints, and
    each stage as a list of (positions, masked word), one per block."""
    stages = []
    for blocks in (t.stage1_blocks, t.stage2_blocks):
        n = blocks.positions.shape[1]
        stages.append([(tuple(row), blocks.masked[i * n:(i + 1) * n])
                       for i, row in enumerate(blocks.positions.tolist())])
    return (t.b, tuple(t.kept_positions.tolist()), tuple(t.check_positions.tolist()),
            t.alice_check_values, t.bob_check_values, stages)


def _reference_content(t):
    """`_content` of what the reference parser returns."""
    return (t.b, t.kept_positions, t.check_positions, t.alice_check_values,
            t.bob_check_values, [[(blk.positions, blk.masked) for blk in blocks]
                                 for blocks in (t.stage1_blocks, t.stage2_blocks)])


@settings(max_examples=500, deadline=None)
@given(mutated_dumps())
def test_parser_agrees_with_the_reference(text):
    accepted = []
    expected = _outcome(lambda text: parse_transcript_reference(text, accepted), text)
    # the one rule the reference lacks: a stage's blocks have one length, so
    # the first block (that it read in full) of another length is refused
    widths = {}
    for blk in accepted:
        width = widths.setdefault(blk.stage, len(blk.positions))
        if len(blk.positions) != width:
            expected = ("error", blk.line, f"line {blk.line}: stage-{blk.stage} block "
                        f"{blk.index} has {len(blk.positions)} positions, but block 0 has {width}")
            break
    got = _outcome(parse_transcript, text)
    if expected[0] == "ok":
        assert got[0] == "ok", got
        t = got[1]
        assert _content(t) == _reference_content(expected[1])
        assert not t.kept_positions.flags.writeable
        assert not t.stage1_blocks.positions.flags.writeable
        assert parse_transcript(dump_transcript(t)) == t
    else:
        assert got == expected


def test_mutations_reach_every_outcome():
    # the edits above make texts both parsers accept, texts both refuse, and
    # texts only the one-length rule refuses
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_dumps())
    def collect(text):
        try:
            parse_transcript_reference(text)
            ref = "ok"
        except TranscriptError:
            ref = "error"
        try:
            parse_transcript(text)
            seen.add((ref, "ok"))
        except TranscriptError as exc:
            seen.add((ref, "unequal" if "but block 0 has" in str(exc) else "error"))

    collect()
    assert {("ok", "ok"), ("error", "error"), ("ok", "unequal")} <= seen

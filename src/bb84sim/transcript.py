"""Public classical transcript of one protocol run and its text serialization.

Line format: one record per line, ``TAG field=value ...``; bit strings are
0/1 text, position lists comma-separated zero-based decimal integers.  A
dump is ASCII with ``\n`` line ends.

Inside the program a transcript holds its bits as that same 0/1 text
(`str`), character i being bit i, and its positions as read-only int64
arrays: the kept and check positions one 1-D array each, and each stage's
blocks one `StageAnnouncement`, a (blocks x n) array of positions whose
row is the block id, with one masked string of the blocks' words in
order.  Text is only the file form.  The line layout is `dump_fields`,
which joins a transcript's lines from its fields' ASCII bytes; a chunk of
trials is dumped from its arrays (`protocol.TrialChunk.dumps`, with one
`gf2.format_decimals` call per position field for all its trials), and
`dump_transcript` dumps one `Transcript` through the same function.

A text laid out as dumped is read in whole-text passes: one split into
lines, one split of each block line into its fields, taken apart as
columns, literal compares of the tags, keys and block ids, one bit check
of all bit strings joined, and one `gf2.parse_decimals` call (bytes passes
and one C conversion) over every position list joined (KEEP, CHECKPOS,
every BLK ``pos``), sliced into the arrays.  Any other text, or one such a
pass refuses, is read line by line: each field is read on its own line, a
position list by `gf2.parse_decimals` and a bit string checked by
`gf2.parse_bits`, and the first failure met is raised with its line.  The
line reader accepts other spacing and field order.  Numbers are ASCII
digits only, at most 18 to a number, so that every position fits an
int64; a block out of order and a block whose length differs from its
stage's first are refused with their lines.

Bob's record beside a transcript, ``BASES``, ``BITS`` and ``KEY`` lines,
is written by `dump_bob` and read by `parse_bob`, whose lines are
numbered as `bob_lines` splits them, at each ``\n`` alone.

Tags in dump order: B, KEEP, CHECKPOS, ACHK, BCHK, then one BLK1 line per
first-stage block and one BLK2 line per second-stage block (absent when
the run aborted before that stage).  Round-trips bit-exactly:
parse(dump(t)) == t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import TranscriptError
from .gf2 import format_decimals, parse_bits, parse_decimal, parse_decimals

__all__ = ["NO_BLOCKS", "StageAnnouncement", "Transcript", "bob_lines", "dump_bob",
           "dump_fields", "dump_transcript", "parse_bob", "parse_transcript"]


def _read_only(values, name: str, ndim: int) -> np.ndarray:
    """`values` as an int64 array of `ndim` dimensions and of its own that
    cannot be written to (a view, so that a caller's array keeps its flags).

    Raises:
        ValueError: a value does not fit an int64, or the array has other
            dimensions.
    """
    try:
        array = np.asarray(values, dtype=np.int64).view()
    except OverflowError:
        raise ValueError(f"{name} holds a position that does not fit an int64") from None
    if array.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got shape {array.shape}")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class StageAnnouncement:
    """The announcements of one stage's blocks: the (blocks x n) positions
    each block draws its code bits from, in announced order, one block per
    row, and the masked words u+v of all blocks, block after block.  A stage
    with no blocks has (0, 0) positions."""

    positions: np.ndarray = ()
    masked: str = ""

    def __post_init__(self):
        positions = self.positions
        if np.ndim(positions) == 1 and not np.size(positions):
            positions = np.reshape(positions, (0, 0))
        positions = _read_only(positions, "positions", 2)
        if len(self.masked) != positions.size:
            raise ValueError(
                f"masked word length {len(self.masked)} != position count {positions.size}")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other):
        if not isinstance(other, StageAnnouncement):
            return NotImplemented
        return self.masked == other.masked and np.array_equal(self.positions, other.positions)


# the announcements of a stage with no blocks, the stages a run did not reach
NO_BLOCKS = StageAnnouncement()


@dataclass(frozen=True, eq=False)
class Transcript:
    """Everything publicly announced in one run, in announcement order.

    Positions given as any sequence of ints are stored as read-only int64
    arrays."""

    b: str
    kept_positions: np.ndarray
    check_positions: np.ndarray
    alice_check_values: str
    bob_check_values: str
    stage1_blocks: StageAnnouncement = field(default_factory=lambda: NO_BLOCKS)
    stage2_blocks: StageAnnouncement = field(default_factory=lambda: NO_BLOCKS)

    def __post_init__(self):
        object.__setattr__(self, "kept_positions",
                           _read_only(self.kept_positions, "kept_positions", 1))
        object.__setattr__(self, "check_positions",
                           _read_only(self.check_positions, "check_positions", 1))
        if len(self.check_positions) != len(self.alice_check_values):
            raise ValueError("check positions and alice check values differ in length")
        if len(self.alice_check_values) != len(self.bob_check_values):
            raise ValueError("check value strings differ in length")

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        return ((self.b, self.alice_check_values, self.bob_check_values,
                 self.stage1_blocks, self.stage2_blocks)
                == (other.b, other.alice_check_values, other.bob_check_values,
                    other.stage1_blocks, other.stage2_blocks)
                and np.array_equal(self.kept_positions, other.kept_positions)
                and np.array_equal(self.check_positions, other.check_positions))

    def code_positions(self) -> np.ndarray:
        """Kept positions that are not check positions, ascending."""
        return self.kept_positions[~np.isin(self.kept_positions, self.check_positions)]


def dump_fields(b: bytes, kept: bytes, check: bytes, achk: bytes, bchk: bytes,
                stages) -> bytes:
    """A dumped transcript, from the ASCII bytes of its fields: the bit
    strings, the kept and check position lists and, per stage, the position
    lists of its blocks and their masked words joined, all of one length.
    """
    parts = [b"B bits=", b, b"\nKEEP pos=", kept, b"\nCHECKPOS pos=", check,
             b"\nACHK bits=", achk, b"\nBCHK bits=", bchk, b"\n"]
    for tag, (lists, masked) in zip((b"BLK1", b"BLK2"), stages):
        n = len(masked) // len(lists) if lists else 0
        for i, positions in enumerate(lists):
            parts += (b"%s id=%d pos=" % (tag, i), positions, b" masked=",
                      masked[i * n:(i + 1) * n], b"\n")
    return b"".join(parts)


def dump_bob(bases: bytes, bits: bytes, key: bytes) -> bytes:
    """Bob's record beside a dumped transcript, from the 0/1 ASCII bytes of
    his bases, his bits and his final key (b"-" when the run aborted)."""
    return b"BASES %s\nBITS %s\nKEY %s\n" % (bases, bits, key)


_BOB_TAGS = ("BASES", "BITS", "KEY")


def bob_lines(text: str) -> list[str]:
    """The lines of a `.bob` record as `parse_bob` numbers them: the text
    split at each "\n" alone."""
    return text.split("\n")


def parse_bob(text: str) -> tuple[np.ndarray, np.ndarray, str]:
    """Bob's bases and bits, as uint8 arrays, and his key as written (``-``
    when the run aborted), from his record beside a dumped transcript.

    Raises:
        TranscriptError: an unexpected or repeated tag, or a BASES or BITS
            value that is not a 0/1 string, with its line; a missing tag, or
            BASES and BITS of unequal length.
    """
    fields = {}
    for line_no, raw in enumerate(bob_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, _, value = line.partition(" ")
        if tag not in _BOB_TAGS:
            raise TranscriptError(f"unexpected tag {tag!r}", line=line_no)
        if tag in fields:
            raise TranscriptError(f"duplicate tag {tag!r}", line=line_no)
        if tag != "KEY":
            try:
                value = parse_bits(value)
            except ValueError:
                raise TranscriptError(f"{tag} must be a 0/1 string", line=line_no) from None
        fields[tag] = value
    for tag in _BOB_TAGS:
        if tag not in fields:
            raise TranscriptError(f"missing tag {tag}")
    if len(fields["BASES"]) != len(fields["BITS"]):
        raise TranscriptError("BASES and BITS differ in length")
    return fields["BASES"], fields["BITS"], fields["KEY"]


def dump_transcript(t: Transcript) -> str:
    """The text `dump_fields` lays out for the transcript `t`."""
    kept, check = (format_decimals(p[None])[0] for p in (t.kept_positions, t.check_positions))
    stages = [(format_decimals(stage.positions), stage.masked.encode("ascii"))
              for stage in (t.stage1_blocks, t.stage2_blocks)]
    return dump_fields(t.b.encode("ascii"), kept, check, t.alice_check_values.encode("ascii"),
                       t.bob_check_values.encode("ascii"), stages).decode("ascii")


# each header line's tag and field, in dump order
_HEADER = (("B", "bits"), ("KEEP", "pos"), ("CHECKPOS", "pos"), ("ACHK", "bits"), ("BCHK", "bits"))
# the start of each header line, up to its value
_HEADER_STARTS = tuple(f"{tag} {key}=" for tag, key in _HEADER)
_BLOCK_TAGS = {"BLK1": 0, "BLK2": 1}
_BLOCK_FIELDS = ("id", "pos", "masked")


@functools.lru_cache(maxsize=16)
def _block_ids(count: int) -> tuple[str, ...]:
    """The id fields of a stage of `count` blocks, as they are dumped."""
    return tuple(f"id={i}" for i in range(count))


def _read_dumped(text: str) -> Optional[Transcript]:
    """The transcript a text laid out exactly as `dump_transcript` writes it
    holds, read in whole-text passes; None for any other text, and for one
    a pass refuses.

    One split makes the lines, and one split of each block line its fields,
    which are taken apart as columns.  The tags, keys and block ids are
    compared as literals, all bit strings joined pass one `parse_bits`
    check, and all position lists joined are read by one `parse_decimals`
    call, so every character is checked and what this accepts the line by
    line reading accepts the same.
    """
    lines = text.split("\n")
    header, blocks = lines[:5], lines[5:-1]
    if len(lines) < 6 or lines[-1] or not all(map(str.startswith, header, _HEADER_STARTS)):
        return None
    b, kept, check, achk, bchk = map(str.removeprefix, header, _HEADER_STARTS)
    try:
        tags, ids, positions, words = (zip(*map(str.split, blocks, repeat(" ")), strict=True)
                                       if blocks else ((),) * 4)
    except ValueError:
        return None
    count1 = tags.count("BLK1")
    counts = (count1, len(tags) - count1)
    if (tags != ("BLK1",) * counts[0] + ("BLK2",) * counts[1]
            or ids != _block_ids(counts[0]) + _block_ids(counts[1])
            or not all(map(str.startswith, positions, repeat("pos=")))
            or not all(map(str.startswith, words, repeat("masked=")))):
        return None
    positions = tuple(map(str.removeprefix, positions, repeat("pos=")))
    words = tuple(map(str.removeprefix, words, repeat("masked=")))
    # a stage's blocks each hold n masked bits and n positions, so n - 1
    # commas, which also refuses n = 0 (a list of no commas holds one number)
    widths, commas = tuple(map(len, words)), tuple(map(str.count, positions, repeat(",")))
    stages, start = [], 0
    for count in counts:
        stop = start + count
        n = widths[start] if count else 0
        if widths[start:stop] != (n,) * count or commas[start:stop] != (n - 1,) * count:
            return None
        stages.append((words[start:stop], n))
        start = stop
    try:
        parse_bits("".join((b, achk, bchk) + words))
        numbers = parse_decimals(",".join((kept, check) + positions))
        # the numbers are KEEP's, CHECKPOS's, then each stage's blocks', in turn
        kept_end = kept.count(",") + 1
        check_end = end = kept_end + check.count(",") + 1
        announcements = []
        for masked, n in stages:
            start, end = end, end + len(masked) * n
            announcements.append(StageAnnouncement(numbers[start:end].reshape(len(masked), n),
                                                   "".join(masked)) if masked else NO_BLOCKS)
        return Transcript(b, numbers[:kept_end], numbers[kept_end:check_end], achk, bchk,
                          *announcements)
    except ValueError:
        return None


def parse_transcript(text: str) -> Transcript:
    """Parse a dumped transcript.

    A text laid out as `dump_transcript` writes it is read in whole-text
    passes (`_read_dumped`).  Any other text, and one such a pass refuses,
    is read line by line (`_read_lines`), which names the first error.

    Raises:
        TranscriptError: with the offending line number; a truncated file
            reports which mandatory tag is missing.
    """
    transcript = _read_dumped(text)
    return _read_lines(text) if transcript is None else transcript


def _parse_fields(body: str, line_no: int) -> dict[str, str]:
    fields = {}
    for part in body.split():
        key, equals, value = part.partition("=")
        if not equals:
            raise TranscriptError(f"malformed field {part!r}", line=line_no)
        if key in fields:
            raise TranscriptError(f"duplicate field {key!r}", line=line_no)
        fields[key] = value
    return fields


def _read_field(record: tuple[int, str, dict[str, str]], key: str) -> np.ndarray | str:
    """The field `key` of a (line number, tag, fields) record: a position
    list as the int64 array `parse_decimals` reads, a bit string as its text
    once `parse_bits` has checked it.

    Raises:
        TranscriptError: the field is missing or bad, with its line.
    """
    line_no, tag, fields = record
    if key not in fields:
        raise TranscriptError(f"tag {tag} is missing field {key!r}", line=line_no)
    value = fields[key]
    try:
        if key == "pos":
            return parse_decimals(value)
        parse_bits(value)
    except ValueError as exc:
        message = f"bad position list {value!r}" if key == "pos" else str(exc)
        raise TranscriptError(message, line=line_no) from None
    return value


def _read_lines(text: str) -> Transcript:
    """`parse_transcript` of any text, one line after another: each field is
    read on its own line, in line order, and the first failure met is the
    one reported."""
    records: list[tuple[int, str, dict[str, str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, _, body = line.partition(" ")
        records.append((line_no, tag, _parse_fields(body, line_no)))

    for idx, (expected, _) in enumerate(_HEADER):
        if idx >= len(records) or records[idx][1] != expected:
            found = records[idx][1] if idx < len(records) else "end of file"
            line = records[idx][0] if idx < len(records) else len(text.splitlines()) + 1
            raise TranscriptError(f"missing tag {expected} (found {found})", line=line)
    b, kept, check, achk, bchk = (_read_field(record, key)
                                  for record, (_, key) in zip(records, _HEADER))

    # per stage, the positions and the masked word of each block
    rows: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
    masked: tuple[list[str], list[str]] = ([], [])
    for record in records[len(_HEADER):]:
        line_no, tag, fields = record
        stage = _BLOCK_TAGS.get(tag)
        if stage is None:
            raise TranscriptError(f"unexpected tag {tag}", line=line_no)
        if stage == 0 and rows[1]:
            raise TranscriptError("BLK1 after BLK2", line=line_no)
        for key in _BLOCK_FIELDS:
            if key not in fields:
                raise TranscriptError(f"tag {tag} is missing field {key!r}", line=line_no)
        try:
            block_id = parse_decimal(fields["id"])
        except ValueError:
            raise TranscriptError(f"bad block id {fields['id']!r}", line=line_no) from None
        blocks = rows[stage]
        if block_id != len(blocks):
            raise TranscriptError(f"block id {block_id} out of order (expected {len(blocks)})",
                                  line=line_no)
        positions, word = _read_field(record, "pos"), _read_field(record, "masked")
        if len(word) != len(positions):
            raise TranscriptError(f"masked length {len(word)} != position count "
                                  f"{len(positions)}", line=line_no)
        if blocks and len(positions) != len(blocks[0]):
            raise TranscriptError(f"stage-{stage + 1} block {len(blocks)} has {len(positions)} "
                                  f"positions, but block 0 has {len(blocks[0])}", line=line_no)
        blocks.append(positions)
        masked[stage].append(word)

    try:
        return Transcript(b, kept, check, achk, bchk,
                          *(StageAnnouncement(np.array(blocks), "".join(words)) if blocks
                            else NO_BLOCKS for blocks, words in zip(rows, masked)))
    except ValueError as exc:
        raise TranscriptError(str(exc)) from exc

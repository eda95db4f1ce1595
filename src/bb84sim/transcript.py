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
`dump_transcript` dumps one `Transcript` through the same function.  Bob's
record beside it, ``BASES``, ``BITS`` and ``KEY`` lines, is laid out by
`dump_bob`.  Parsing joins every position list of the transcript (KEEP,
CHECKPOS, every BLK ``pos``) and reads them with one `gf2.parse_decimals`
call, bytes passes and one C conversion, then slices the result into the
arrays.  A text laid out as dumped is read in whole-text passes: one split
into lines, one split of each block line into its fields, taken apart as
columns, literal compares of the tags, keys and block ids, and one bit
check of all bit strings joined.  Any other text, or one such a pass
refuses, is read line by line, which accepts other spacing and field
order and names the first error and its line.  Numbers are ASCII digits
only, at most 18 to a number, so that every position fits an int64; a bad
list is reported with its own line, as are a block out of order and a
block whose length differs from its stage's first.

Tags in dump order: B, KEEP, CHECKPOS, ACHK, BCHK, then one BLK1 line per
first-stage block and one BLK2 line per second-stage block (absent when
the run aborted before that stage).  Round-trips bit-exactly:
parse(dump(t)) == t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import repeat
from typing import NoReturn, Optional

import numpy as np

from .errors import TranscriptError
from .gf2 import format_decimals, parse_bits, parse_decimal, parse_decimals

__all__ = ["NO_BLOCKS", "StageAnnouncement", "Transcript", "dump_bob", "dump_fields",
           "dump_transcript", "parse_transcript"]


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


def dump_transcript(t: Transcript) -> str:
    """The text `dump_fields` lays out for the transcript `t`."""
    kept, check = (format_decimals(p[None])[0] for p in (t.kept_positions, t.check_positions))
    stages = [(format_decimals(stage.positions), stage.masked.encode("ascii"))
              for stage in (t.stage1_blocks, t.stage2_blocks)]
    return dump_fields(t.b.encode("ascii"), kept, check, t.alice_check_values.encode("ascii"),
                       t.bob_check_values.encode("ascii"), stages).decode("ascii")


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


_HEADER_TAGS = ("B", "KEEP", "CHECKPOS", "ACHK", "BCHK")
# the start of each header line, in dump order, up to its value
_HEADER_STARTS = ("B bits=", "KEEP pos=", "CHECKPOS pos=", "ACHK bits=", "BCHK bits=")
_BLOCK_TAGS = {"BLK1": 0, "BLK2": 1}
_BLOCK_FIELDS = ("id", "pos", "masked")


def _count(positions: str) -> int:
    """The numbers a position list holds, if it is well formed."""
    return positions.count(",") + 1 if positions else 0


def _assemble(b: str, achk: str, bchk: str, numbers: np.ndarray, kept: int, check: int,
              stages) -> Transcript:
    """The transcript whose position lists, KEEP's `kept` numbers, CHECKPOS's
    `check`, then each stage's blocks, are `numbers` in turn; `stages` holds
    each stage's (masked words, their common length).

    Raises:
        ValueError: from the `Transcript` constructor.
    """
    end = kept + check
    announcements = []
    for words, n in stages:
        start, end = end, end + len(words) * n
        announcements.append(StageAnnouncement(numbers[start:end].reshape(len(words), n),
                                               "".join(words)) if words else NO_BLOCKS)
    return Transcript(b, numbers[:kept], numbers[kept:kept + check], achk, bchk, *announcements)


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
        return _assemble(b, achk, bchk, numbers, kept.count(",") + 1, check.count(",") + 1,
                         stages)
    except ValueError:
        return None


def _read_positions(lists: list[tuple[str, int]]) -> np.ndarray:
    """The numbers of every (position list, line number) of `lists`, in
    order, from one `parse_decimals` call over the lists joined.  Joining
    keeps a bad list bad, so only a failed call scans the lists one by one.

    Raises:
        TranscriptError: naming the first bad list and its line.
    """
    try:
        return parse_decimals(",".join(value for value, _ in lists if value))
    except ValueError:
        for value, line_no in lists:
            try:
                parse_decimals(value)
            except ValueError:
                raise TranscriptError(f"bad position list {value!r}", line=line_no) from None
        raise


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


def _read_lines(text: str) -> Transcript:
    """`parse_transcript` of any text, one line after another.

    The checks run in line order, and the first failure is the one
    reported.  The position lists are read together at the end, so a check
    that fails reads the lists before it first and reports a bad one
    instead.
    """
    records: list[tuple[int, str, dict[str, str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, _, body = line.partition(" ")
        records.append((line_no, tag, _parse_fields(body, line_no)))

    for idx, expected in enumerate(_HEADER_TAGS):
        if idx >= len(records) or records[idx][1] != expected:
            found = records[idx][1] if idx < len(records) else "end of file"
            line = records[idx][0] if idx < len(records) else len(text.splitlines()) + 1
            raise TranscriptError(f"missing tag {expected} (found {found})", line=line)
    header = {tag: (line_no, fields) for line_no, tag, fields in records[:len(_HEADER_TAGS)]}

    # every position list met so far, with its line
    lists: list[tuple[str, int]] = []

    def fail(message: str, line_no: int) -> NoReturn:
        _read_positions(lists)
        raise TranscriptError(message, line=line_no) from None

    def check_bits(value: str, line_no: int) -> None:
        try:
            parse_bits(value)
        except ValueError as exc:
            fail(str(exc), line_no)

    def header_field(tag: str, key: str) -> str:
        line_no, fields = header[tag]
        if key not in fields:
            fail(f"tag {tag} is missing field {key!r}", line_no)
        value = fields[key]
        if key == "pos":
            lists.append((value, line_no))
        else:
            check_bits(value, line_no)
        return value

    b = header_field("B", "bits")
    kept = header_field("KEEP", "pos")
    check = header_field("CHECKPOS", "pos")
    achk = header_field("ACHK", "bits")
    bchk = header_field("BCHK", "bits")

    # per stage, the masked words of its blocks and their common length
    masked: tuple[list[str], list[str]] = ([], [])
    widths = [0, 0]
    for line_no, tag, fields in records[len(_HEADER_TAGS):]:
        stage = _BLOCK_TAGS.get(tag)
        if stage is None:
            fail(f"unexpected tag {tag}", line_no)
        if stage == 0 and masked[1]:
            fail("BLK1 after BLK2", line_no)
        if not ("id" in fields and "pos" in fields and "masked" in fields):
            key = next(key for key in _BLOCK_FIELDS if key not in fields)
            fail(f"tag {tag} is missing field {key!r}", line_no)
        words = masked[stage]
        if fields["id"] != str(len(words)):  # "007" is block 7 too
            try:
                block_id = parse_decimal(fields["id"])
            except ValueError:
                fail(f"bad block id {fields['id']!r}", line_no)
            if block_id != len(words):
                fail(f"block id {block_id} out of order (expected {len(words)})", line_no)
        positions, word = fields["pos"], fields["masked"]
        lists.append((positions, line_no))
        count = _count(positions)
        check_bits(word, line_no)
        if len(word) != count:
            fail(f"masked length {len(word)} != position count {count}", line_no)
        if words and count != widths[stage]:
            fail(f"stage-{stage + 1} block {len(words)} has {count} positions, but block 0 "
                 f"has {widths[stage]}", line_no)
        widths[stage] = count
        words.append(word)

    numbers = _read_positions(lists)
    try:
        return _assemble(b, achk, bchk, numbers, _count(kept), _count(check), zip(masked, widths))
    except ValueError as exc:
        raise TranscriptError(str(exc)) from exc

"""Public classical transcript of one protocol run and its text serialization.

Line format: one record per line, ``TAG field=value ...``; bit strings are
0/1 text, position lists comma-separated zero-based decimal integers.  The
bit fields of a transcript are held as that same 0/1 text (`str`),
character i being bit i, so dumping writes them as they are.  Tags in dump
order: B, KEEP, CHECKPOS, ACHK, BCHK, then one BLK1 line per first-stage
block and one BLK2 line per second-stage block (absent when the run aborted
at the check).  Round-trips bit-exactly: parse(dump(t)) == t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TranscriptError

__all__ = ["BlockAnnouncement", "Transcript", "dump_transcript", "parse_transcript"]


@dataclass(frozen=True)
class BlockAnnouncement:
    """One masked-word announcement: the positions the block draws its code
    bits from (in announced order) and the masked word u+v over them."""

    stage: int
    index: int
    positions: tuple[int, ...]
    masked: str

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ValueError(f"stage must be 1 or 2, got {self.stage}")
        if len(self.positions) != len(self.masked):
            raise ValueError(
                f"masked word length {len(self.masked)} != position count {len(self.positions)}")


@dataclass(frozen=True)
class Transcript:
    """Everything publicly announced in one run, in announcement order."""

    b: str
    kept_positions: tuple[int, ...]
    check_positions: tuple[int, ...]
    alice_check_values: str
    bob_check_values: str
    stage1_blocks: tuple[BlockAnnouncement, ...] = ()
    stage2_blocks: tuple[BlockAnnouncement, ...] = ()

    def __post_init__(self):
        if len(self.check_positions) != len(self.alice_check_values):
            raise ValueError("check positions and alice check values differ in length")
        if len(self.alice_check_values) != len(self.bob_check_values):
            raise ValueError("check value strings differ in length")

    def code_positions(self) -> tuple[int, ...]:
        """Kept positions that are not check positions, ascending."""
        check = set(self.check_positions)
        return tuple(p for p in self.kept_positions if p not in check)


def _positions_str(positions) -> str:
    return ",".join(map(str, positions))


def dump_transcript(t: Transcript) -> str:
    lines = [
        f"B bits={t.b}",
        f"KEEP pos={_positions_str(t.kept_positions)}",
        f"CHECKPOS pos={_positions_str(t.check_positions)}",
        f"ACHK bits={t.alice_check_values}",
        f"BCHK bits={t.bob_check_values}",
    ]
    for blk in t.stage1_blocks + t.stage2_blocks:
        tag = f"BLK{blk.stage}"
        lines.append(f"{tag} id={blk.index} pos={_positions_str(blk.positions)} masked={blk.masked}")
    return "\n".join(lines) + "\n"


def _parse_fields(body: str, line_no: int) -> dict[str, str]:
    fields = {}
    for part in body.split():
        if "=" not in part:
            raise TranscriptError(f"malformed field {part!r}", line=line_no)
        key, value = part.split("=", 1)
        if key in fields:
            raise TranscriptError(f"duplicate field {key!r}", line=line_no)
        fields[key] = value
    return fields


def _parse_bits(value: str, line_no: int) -> str:
    if value.strip("01"):
        raise TranscriptError(f"bit string {value!r} has characters outside 0/1", line=line_no)
    return value


def _is_decimal(text: str) -> bool:
    """True for a nonempty run of ASCII digits; int() also takes signs,
    underscores, spaces and other scripts' digits."""
    return text.isascii() and text.isdigit()


def _parse_positions(value: str, line_no: int) -> tuple[int, ...]:
    if value == "":
        return ()
    parts = value.split(",")
    if "" in parts or not _is_decimal(value.replace(",", "")):
        raise TranscriptError(f"bad position list {value!r}", line=line_no)
    return tuple(map(int, parts))


_HEADER_TAGS = ("B", "KEEP", "CHECKPOS", "ACHK", "BCHK")


def parse_transcript(text: str) -> Transcript:
    """Parse a dumped transcript.

    Raises:
        TranscriptError: with the offending line number; a truncated file
            reports which mandatory tag is missing.
    """
    records: list[tuple[int, str, dict[str, str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, _, body = line.partition(" ")
        records.append((line_no, tag, _parse_fields(body, line_no)))

    header: dict[str, tuple[int, dict[str, str]]] = {}
    idx = 0
    for expected in _HEADER_TAGS:
        if idx >= len(records) or records[idx][1] != expected:
            found = records[idx][1] if idx < len(records) else "end of file"
            line = records[idx][0] if idx < len(records) else len(text.splitlines()) + 1
            raise TranscriptError(f"missing tag {expected} (found {found})", line=line)
        header[expected] = (records[idx][0], records[idx][2])
        idx += 1

    def field(tag: str, key: str) -> tuple[str, int]:
        line_no, fields = header[tag]
        if key not in fields:
            raise TranscriptError(f"tag {tag} is missing field {key!r}", line=line_no)
        return fields[key], line_no

    b = _parse_bits(*field("B", "bits"))
    kept = _parse_positions(*field("KEEP", "pos"))
    checkpos = _parse_positions(*field("CHECKPOS", "pos"))
    achk = _parse_bits(*field("ACHK", "bits"))
    bchk = _parse_bits(*field("BCHK", "bits"))

    blocks: dict[int, list[BlockAnnouncement]] = {1: [], 2: []}
    for line_no, tag, fields in records[idx:]:
        if tag not in ("BLK1", "BLK2"):
            raise TranscriptError(f"unexpected tag {tag}", line=line_no)
        stage = int(tag[3])
        if stage == 1 and blocks[2]:
            raise TranscriptError("BLK1 after BLK2", line=line_no)
        for key in ("id", "pos", "masked"):
            if key not in fields:
                raise TranscriptError(f"tag {tag} is missing field {key!r}", line=line_no)
        if not _is_decimal(fields["id"]):
            raise TranscriptError(f"bad block id {fields['id']!r}", line=line_no)
        block_id = int(fields["id"])
        if block_id != len(blocks[stage]):
            raise TranscriptError(
                f"block id {block_id} out of order (expected {len(blocks[stage])})", line=line_no)
        positions = _parse_positions(fields["pos"], line_no)
        masked = _parse_bits(fields["masked"], line_no)
        if len(positions) != len(masked):
            raise TranscriptError(
                f"masked length {len(masked)} != position count {len(positions)}", line=line_no)
        blocks[stage].append(BlockAnnouncement(stage, block_id, positions, masked))

    try:
        return Transcript(
            b=b,
            kept_positions=kept,
            check_positions=checkpos,
            alice_check_values=achk,
            bob_check_values=bchk,
            stage1_blocks=tuple(blocks[1]),
            stage2_blocks=tuple(blocks[2]),
        )
    except ValueError as exc:
        raise TranscriptError(str(exc)) from exc

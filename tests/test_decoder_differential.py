"""Instruction lengths of ``decode_instruction`` checked against objdump.

Every instruction the decoder does not call opaque must be one that GNU
objdump decodes at the same offset, with the same length and without
``(bad)``. Each case is written as the instruction's own bytes followed by
16 ``int3`` (CC) bytes, so objdump is back in step at the next case
whatever it made of this one. ``-M intel64`` gives the 0x66-prefixed near
branches Intel's rel32 semantics, as the decoder does.
"""

import random
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uefiforensics.forge import _STUB_POOL
from uefiforensics.inline_hooks import DECODE_WINDOW, decode_instruction

OBJDUMP = shutil.which("objdump")
needs_objdump = pytest.mark.skipif(OBJDUMP is None, reason="GNU objdump is not on PATH")

PREFIXES = ("", "66", "67", "F0", "F2", "F3", "2E", "66F3", "F266", "F0F2F32E")
REXES = (b"", b"\x41", b"\x48", b"\x4F")
OPCODES = [bytes([op]) for op in range(256)] + [bytes([0x0F, op]) for op in range(256)]
RESYNC = b"\xCC" * 16
_LISTING_LINE = re.compile(r"\s*([0-9a-f]+):\t([0-9a-f ]+)\t(.*)")


def decoded_bytes(window: bytes) -> bytes | None:
    """The bytes of the instruction the decoder finds, or None if opaque."""
    window = window[:DECODE_WINDOW].ljust(DECODE_WINDOW, b"\x00")
    decoded = decode_instruction(window, 0)
    return None if decoded is None else window[:decoded[0]]


def enumerated_cases() -> list[bytes]:
    """Prefix x REX x opcode x mod/rm (one per reg field), random tails."""
    rng = random.Random(0)
    cases = set()
    for prefix in PREFIXES:
        for rex in REXES:
            head = bytes.fromhex(prefix) + rex
            for opcode in OPCODES:
                for reg in range(8):
                    modrm = rng.randrange(4) << 6 | reg << 3 | rng.randrange(8)
                    insn = decoded_bytes(head + opcode + bytes([modrm]) + rng.randbytes(16))
                    if insn is not None:
                        cases.add(insn)
    return sorted(cases)


def objdump_disagreements(cases: list[bytes]) -> list[str]:
    """Cases objdump does not decode as one valid instruction of that length."""
    if not cases:
        return []
    blob = bytearray()
    offsets = []
    for insn in cases:
        offsets.append(len(blob))
        blob += insn + RESYNC
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.bin"
        path.write_bytes(blob)
        listing = subprocess.run(
            [OBJDUMP, "-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel64",
             "--insn-width=16", str(path)],
            capture_output=True, text=True, check=True,
        ).stdout
    seen = {}
    for line in listing.splitlines():
        match = _LISTING_LINE.match(line)
        if match:
            seen[int(match[1], 16)] = (len(match[2].split()), match[3])
    bad = []
    for offset, insn in zip(offsets, cases):
        length, text = seen.get(offset, (None, "no instruction starts here"))
        if length != len(insn) or "(bad)" in text:
            bad.append(f"{insn.hex()}: objdump {length} byte(s) {text!r}")
    return bad


def test_stub_pool_lengths():
    for encoding, length in _STUB_POOL:
        decoded = decode_instruction(encoding, 0)
        assert decoded is not None, encoding.hex()
        assert decoded[:2] == (length, "skip"), encoding.hex()


@needs_objdump
def test_stub_pool_matches_objdump():
    assert objdump_disagreements([encoding for encoding, _ in _STUB_POOL]) == []


@needs_objdump
def test_enumerated_instructions_match_objdump():
    cases = enumerated_cases()
    assert len(cases) > 40_000
    assert objdump_disagreements(cases) == []


@needs_objdump
@settings(deadline=None, max_examples=50)
@given(st.binary(min_size=1, max_size=64))
def test_swept_byte_stream_matches_objdump(stream):
    # Sweep the stream as scan_prologue does, up to the first opaque bytes.
    cases = []
    cursor = 0
    while cursor < len(stream):
        insn = decoded_bytes(stream[cursor:cursor + DECODE_WINDOW])
        if insn is None:
            break
        cases.append(insn)
        cursor += len(insn)
    assert objdump_disagreements(cases) == []

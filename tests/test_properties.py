"""Property-based checks of the structural laws the parsers rely on."""

import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from uefiforensics.dump_model import MemoryDump, load_dump
from uefiforensics.inline_hooks import TransferKind, decode_instruction
from uefiforensics.service_tables import KIND_ORDER, crc32_ieee, find_table_candidates

from helpers import brute_force_find, crc32_reference, sext


# --- CRC-32 ----------------------------------------------------------------

@given(st.binary(max_size=512))
def test_crc32_matches_bitwise_reference(data):
    assert crc32_ieee(data) == crc32_reference(data)


@given(st.binary(min_size=24, max_size=256))
def test_crc_involution(buf):
    # Recomputing over a buffer whose CRC field holds the computed value,
    # with the field re-zeroed for computation, yields the same value.
    work = bytearray(buf)
    work[16:20] = b"\x00\x00\x00\x00"
    computed = crc32_ieee(bytes(work))
    stored = bytearray(buf)
    stored[16:20] = struct.pack("<I", computed)
    rezeroed = bytearray(stored)
    rezeroed[16:20] = b"\x00\x00\x00\x00"
    assert crc32_ieee(bytes(rezeroed)) == computed


# --- sparse dump reads and scans -------------------------------------------

regions_strategy = st.lists(
    st.tuples(st.integers(0, 0x300), st.binary(min_size=1, max_size=0x80)),
    min_size=1,
    max_size=4,
)


def build_sparse(pieces):
    """Place variable-size chunks at non-overlapping, gap-separated offsets."""
    placed = []
    cursor = 0
    for gap, data in pieces:
        start = cursor + gap
        placed.append((start, data))
        cursor = start + len(data)
    return MemoryDump.from_regions(placed), cursor


@given(regions_strategy)
def test_read_bytes_equals_manual_reassembly(pieces):
    dump, span = build_sparse(pieces)
    # Manual reassembly from the original placement, independent of reads.
    flat = bytearray(span)
    cursor = 0
    for gap, data in pieces:
        start = cursor + gap
        flat[start:start + len(data)] = data
        cursor = start + len(data)
    assert dump.read_bytes(0, span) == bytes(flat)
    # The sidecar writer and reader round-trip the same dump.
    with tempfile.TemporaryDirectory() as tmp:
        dump.save(Path(tmp) / "d.dump", Path(tmp) / "d.map.json")
        loaded = load_dump(Path(tmp) / "d.dump", Path(tmp) / "d.map.json")
    assert loaded.regions == dump.regions
    assert loaded.read_bytes(0, span) == bytes(flat)


@given(
    regions_strategy,
    st.sampled_from([b"ldri", b"\x00\x00\x00\x00", b"\xFF\xFF\xFF\xFF", b"BOOTSERV"]),
    st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=200)
def test_find_signature_equals_brute_force(pieces, sig, alignment):
    dump, span = build_sparse(pieces)
    if span < len(sig):
        return
    flat = dump.read_bytes(0, span)
    got = dump.find_signature(sig, alignment)
    assert got == brute_force_find(flat, sig, alignment)


@given(regions_strategy, st.integers(0, 0x500), st.integers(1, 0x80))
def test_gap_reads_are_zero(pieces, addr, length):
    dump, span = build_sparse(pieces)
    if addr + length > span:
        return
    data = dump.read_bytes(addr, length)
    flat = dump.read_bytes(0, span)
    assert data == flat[addr:addr + length]


@st.composite
def planted_table_dumps(draw):
    """A sparse dump cut from a buffer with table signatures and ``SERV`` decoys.

    The buffer is cut into runs at random points and some runs are left
    unmapped, so planted strings cross region edges or lose bytes to gaps;
    the runs are laid in the file in random order.
    """
    size = draw(st.integers(16, 0x200))
    flat = bytearray(draw(st.binary(min_size=size, max_size=size)))
    token = st.sampled_from([k.signature for k in KIND_ORDER]) | st.binary(
        min_size=4, max_size=4).map(lambda prefix: prefix + b"SERV")
    offset = st.integers(0, size - 8) | st.integers(0, (size - 8) // 8).map(lambda i: 8 * i)
    for sig, at in draw(st.lists(st.tuples(token, offset), max_size=12)):
        flat[at:at + 8] = sig
    cuts = sorted(set(draw(st.lists(st.integers(1, size - 1), max_size=6))))
    bounds = [0, *cuts, size]
    runs = [(lo, bytes(flat[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    mapped = draw(st.lists(st.booleans(), min_size=len(runs), max_size=len(runs)))
    kept = [run for run, keep in zip(runs, mapped) if keep] or runs[:1]
    return MemoryDump.from_regions(draw(st.permutations(kept)))


@given(planted_table_dumps())
@settings(max_examples=200)
def test_one_suffix_scan_equals_per_kind_scans(dump):
    for alignment in (None, 1, 2, 4, 8):
        per_kind = [
            (kind, addr)
            for kind in KIND_ORDER
            for addr in dump.find_signature(kind.signature, alignment)
        ]
        assert find_table_candidates(dump, alignment) == per_kind


# --- relative-target law ----------------------------------------------------

@given(
    st.sampled_from([0xE8, 0xE9]),
    st.integers(-(1 << 31), (1 << 31) - 1),
    st.integers(0, 1 << 48),
)
def test_rel32_target_law(opcode, disp, at):
    window = bytes([opcode]) + struct.pack("<i", disp) + bytes(11)
    length, _, target, _ = decode_instruction(window, at)
    assert length == 5
    assert target == (at + 5 + disp) & ((1 << 64) - 1)


@given(st.integers(0x70, 0x7F), st.integers(-128, 127), st.integers(0, 1 << 48))
def test_rel8_target_law(opcode, disp, at):
    window = bytes([opcode]) + struct.pack("<b", disp) + bytes(14)
    _, kind, target, _ = decode_instruction(window, at)
    assert kind is TransferKind.JCC_RELATIVE
    assert target == (at + 2 + disp) & ((1 << 64) - 1)


@given(st.binary(min_size=1, max_size=16))
def test_decode_never_crashes_and_lengths_positive(window):
    decoded = decode_instruction(window, 0x1000)
    if decoded is not None:
        length, kind, target, slot = decoded
        assert length >= 1
        if not isinstance(kind, TransferKind):
            assert kind in ("skip", "ret") and target is None and slot is None


@given(st.binary(min_size=2, max_size=16))
def test_decoded_relative_targets_recheck_from_bytes(window):
    # Whatever the decoder claims, the displacement must re-derive the target.
    decoded = decode_instruction(window, 0x4000)
    if decoded is None:
        return
    length, kind, target, _ = decoded
    if kind not in (TransferKind.CALL_RELATIVE, TransferKind.JMP_RELATIVE,
                    TransferKind.JCC_RELATIVE):
        return
    padded = bytes(window) + bytes(16)
    raw = padded[:length]
    if length >= 5:
        disp = sext(int.from_bytes(raw[-4:], "little"), 32)
    else:
        disp = sext(raw[-1], 8)
    assert target == (0x4000 + length + disp) & ((1 << 64) - 1)

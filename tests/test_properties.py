"""Property-based checks of the structural laws the parsers rely on."""

import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from uefiforensics.dump_model import MemoryDump, load_dump
from uefiforensics.inline_hooks import TransferKind, decode_instruction
from uefiforensics.service_tables import TableKind, crc32_ieee, find_table_candidates

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


SIGNATURES = [b"ldri", b"SERV", b"\xFF\xFF\xFF\xFF", b"BOOTSERV"]

# Mostly 0: a match crosses a region edge only into an adjacent region.
gap_strategy = st.just(0) | st.integers(0, 0x300)

# Pieces dense in probe bytes (runs of ``l``, ``S`` and 01, among whole
# signatures), so that a scan's probe often passes ``LEAD_HITS`` in one region.
probe_dense_strategy = st.lists(
    st.tuples(
        gap_strategy,
        st.lists(
            st.builds(lambda b, n: b * n, st.sampled_from([b"l", b"S", b"\x01"]), st.integers(1, 80))
            | st.sampled_from([b"\x00", b"ldri", b"SERV", b"BOOTSERV", b"\x00\x00\x00\x01"]),
            min_size=1,
            max_size=12,
        ).map(b"".join),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def cut_signatures_strategy(draw):
    """Pieces cut from one buffer of random bytes and planted signatures.

    Most cuts fall inside a planted signature, so that its bytes straddle a
    region edge, and many of those leave just one of its bytes on one side.
    """
    segments = draw(st.lists(st.binary(min_size=1, max_size=0x40) | st.sampled_from(SIGNATURES),
                             min_size=1, max_size=8))
    buf = b"".join(segments)
    inside, one_byte_in, at = [], [], 0
    for segment in segments:
        if segment in SIGNATURES:
            inside += range(at + 1, at + len(segment))
            one_byte_in += [at + 1, at + len(segment) - 1]
        at += len(segment)
    cut = st.integers(0, len(buf))
    if inside:
        cut = st.sampled_from(one_byte_in) | st.sampled_from(inside) | cut
    cuts = set(draw(st.lists(cut, max_size=3))) - {0, len(buf)}
    bounds = [0, *sorted(cuts), len(buf)]
    return [(draw(gap_strategy), buf[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


@given(
    probe_dense_strategy | cut_signatures_strategy(),
    st.sampled_from(SIGNATURES),
)
@settings(max_examples=200)
def test_find_signature_equals_brute_force(pieces, sig):
    dump, span = build_sparse(pieces)
    if span < len(sig):
        return
    flat = dump.read_bytes(0, span)
    assert dump.find_signature(sig) == brute_force_find(flat, sig)


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
    token = st.sampled_from([k.signature for k in TableKind]) | st.binary(
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
    per_kind = [
        (kind, addr) for kind in TableKind for addr in dump.find_signature(kind.signature)
    ]
    assert find_table_candidates(dump) == per_kind


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

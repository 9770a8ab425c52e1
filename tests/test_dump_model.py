import hashlib
import json
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from uefiforensics.dump_model import (
    ZERO_RUN,
    DumpLoadError,
    MemoryDump,
    OutOfBoundsRead,
    Region,
    load_dump,
)
from uefiforensics.report import content_sha256

from helpers import brute_force_find, reassemble_dump_file


def write_dump(tmp_path, data: bytes, regions=None):
    path = tmp_path / "test.dump"
    path.write_bytes(data)
    if regions is not None:
        map_path = tmp_path / "test.map.json"
        map_path.write_text(json.dumps(regions))
        return path, map_path
    return path, None


def test_flat_file_is_one_identity_region(tmp_path):
    path, _ = write_dump(tmp_path, bytes(64 * 1024))
    dump = load_dump(path)
    assert dump.regions == (Region(phys_start=0, file_offset=0, length=0x10000),)
    assert dump.total_span == 0x10000


def test_sidecar_hole_reads_zero(tmp_path):
    regions = [
        {"phys_start": "0x0", "file_offset": "0x0", "length": "0x100"},
        {"phys_start": "0x300", "file_offset": "0x100", "length": "0x100"},
    ]
    path, map_path = write_dump(tmp_path, b"\xAA" * 0x100 + b"\xBB" * 0x100, regions)
    dump = load_dump(path, map_path)
    assert dump.total_span == 0x400
    assert dump.read_bytes(0x100, 0x200) == bytes(0x200)
    # read spanning region -> gap -> region
    window = dump.read_bytes(0xF0, 0x220)
    assert window == b"\xAA" * 0x10 + bytes(0x200) + b"\xBB" * 0x10


def test_sidecar_autodiscovered_next_to_dump(tmp_path):
    regions = [{"phys_start": 0x1000, "file_offset": 0, "length": 0x80}]
    path, _ = write_dump(tmp_path, b"\xCC" * 0x80, regions)
    dump = load_dump(path)  # no explicit map path
    assert dump.total_span == 0x1080
    assert dump.read_bytes(0x1000, 1) == b"\xCC"


def test_known_byte_round_trips(tmp_path, forged):
    scenario = forged("clean")
    paths = scenario.write(tmp_path)
    dump = load_dump(paths["dump"], paths["map"])
    probe = scenario.dump.read_bytes(0x1000, 4)
    assert dump.read_bytes(0x1000, 4) == probe


def test_full_read_matches_independent_reassembly(tmp_path):
    from uefiforensics.forge import COMPACT_GEOMETRY, scenario_by_name, build_scenario
    from dataclasses import replace

    spec = replace(scenario_by_name("clean"), geometry=COMPACT_GEOMETRY)
    paths = build_scenario(spec).write(tmp_path)
    dump = load_dump(paths["dump"], paths["map"])
    flat = reassemble_dump_file(paths["dump"], paths["map"])
    assert dump.read_bytes(0, dump.total_span) == flat


def test_reads_beyond_span_error(tmp_path):
    path, _ = write_dump(tmp_path, bytes(0x100))
    dump = load_dump(path)
    with pytest.raises(OutOfBoundsRead):
        dump.read_bytes(0x100, 1)  # addr == total_span
    with pytest.raises(OutOfBoundsRead):
        dump.read_bytes(0xF0, 0x11)
    with pytest.raises(ValueError):
        dump.read_bytes(0, 0)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.dump"
    path.write_bytes(b"")
    with pytest.raises(DumpLoadError):
        load_dump(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DumpLoadError):
        load_dump(tmp_path / "nope.dump")


def test_overlapping_sidecar_regions_rejected(tmp_path):
    regions = [
        {"phys_start": 0, "file_offset": 0, "length": 0x100},
        {"phys_start": 0x80, "file_offset": 0x100, "length": 0x100},
    ]
    path, map_path = write_dump(tmp_path, bytes(0x200), regions)
    with pytest.raises(DumpLoadError):
        load_dump(path, map_path)


def test_sidecar_region_past_eof_rejected(tmp_path):
    regions = [{"phys_start": 0, "file_offset": 0, "length": 0x1000}]
    path, map_path = write_dump(tmp_path, bytes(0x100), regions)
    with pytest.raises(DumpLoadError):
        load_dump(path, map_path)


@pytest.mark.parametrize("value", [True, False])
def test_sidecar_bool_field_rejected(tmp_path, value):
    # bool is an int subclass; JSON true must not read as 1.
    regions = [
        {"phys_start": 0, "file_offset": 0, "length": 0x10},
        {"phys_start": 0x100, "file_offset": value, "length": 0x10},
    ]
    path, map_path = write_dump(tmp_path, bytes(0x20), regions)
    with pytest.raises(DumpLoadError):
        load_dump(path, map_path)


SIDECAR_FILE_SIZE = 0x200
VALID_SIDECAR = (
    {"phys_start": 0x0, "file_offset": 0x0, "length": 0x100},
    {"phys_start": 0x300, "file_offset": 0x100, "length": 0x100},
)
FIELDS = ("phys_start", "file_offset", "length")
DROP = object()


@st.composite
def sidecar_mutation(draw):
    """(record index, field, new value or DROP): one mutation of VALID_SIDECAR."""
    index = draw(st.sampled_from([0, 1]))
    record, other = VALID_SIDECAR[index], VALID_SIDECAR[1 - index]
    room = SIDECAR_FILE_SIZE - record["file_offset"] - record["length"]
    field = draw(st.sampled_from(FIELDS))
    negative = st.integers(max_value=-1)
    mutations = {
        "drop": (field, st.just(DROP)),
        "negative": (field, negative | negative.map(hex)),
        "zero length": ("length", st.sampled_from([0, "0", "0x0"])),
        "overlap": ("phys_start", st.integers(
            max(other["phys_start"] - record["length"] + 1, 0),
            other["phys_start"] + other["length"] - 1)),
        "offset past EOF": ("file_offset", st.integers(record["file_offset"] + room + 1, 1 << 40)),
        "length past EOF": ("length", st.integers(record["length"] + room + 1, 1 << 40)),
        "bool": (field, st.booleans()),
        "float": (field, st.floats()),
        "non-numeric string": (field, st.text(alphabet="xyz_-+. e", max_size=6)),
        "nested": (field, st.lists(st.integers(0, 0x100), max_size=2)
                   | st.dictionaries(st.just(field), st.integers(0, 0x100), max_size=1)),
    }
    field, values = mutations[draw(st.sampled_from(sorted(mutations)))]
    return index, field, draw(values)


@given(st.lists(sidecar_mutation(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_mutated_sidecar_loads_or_raises_dump_load_error(tmp_path_factory, mutations):
    records = [dict(r) for r in VALID_SIDECAR]
    for index, field, value in mutations:
        if value is DROP:
            records[index].pop(field, None)
        else:
            records[index][field] = value
    tmp_path = tmp_path_factory.mktemp("sidecar")
    path, map_path = write_dump(tmp_path, bytes(SIDECAR_FILE_SIZE), records)
    try:
        dump = load_dump(path, map_path)
    except DumpLoadError:
        return
    prev_end = 0
    for region in dump.regions:
        assert region.length > 0 and region.phys_start >= prev_end
        assert 0 <= region.file_offset and region.file_offset + region.length <= SIDECAR_FILE_SIZE
        prev_end = region.phys_end


def test_load_and_scan_do_not_copy_the_file(tmp_path):
    size = 16 << 20
    half = size // 2
    regions = [
        {"phys_start": 0, "file_offset": 0, "length": half},
        {"phys_start": 0x2000000, "file_offset": half, "length": half},
    ]
    path, map_path = write_dump(tmp_path, bytes(size), regions)
    tracemalloc.start()
    try:
        dump = load_dump(path, map_path)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert dump.find_signature(b"BOOTSERV") == []
        scan_alloc = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert load_peak < 1.25 * size
    assert scan_alloc < 1 << 20


def test_content_hash_does_not_copy_regions():
    half = 8 << 20
    rng = Random(6)
    low, high = rng.randbytes(half), rng.randbytes(half)
    dump = MemoryDump.from_regions([(0, low), (0x2000000, high)])
    tracemalloc.start()
    try:
        digest = content_sha256(dump)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert digest == hashlib.sha256(low + high).hexdigest()


def test_iter_range_joins_to_read_bytes():
    half = 8 << 20
    dump = MemoryDump.from_regions([(0x2000000, b"\xBB" * half), (0x100000, b"\xAA" * half)])
    rng = Random(7)
    for _ in range(20):
        # Windows start in or before the low region and end in the high one,
        # so each crosses the 24 MiB gap between them.
        addr = rng.randrange(0, 0x100000 + half)
        end = rng.randrange(0x2000000, dump.total_span) + 1
        chunks = list(dump.iter_range(addr, end - addr))
        assert b"".join(chunks) == dump.read_bytes(addr, end - addr)
        assert all(len(c) <= ZERO_RUN for c in chunks if isinstance(c, bytes))
        assert sum(isinstance(c, memoryview) for c in chunks) == 2
    with pytest.raises(OutOfBoundsRead):
        dump.iter_range(dump.total_span - 1, 2)
    with pytest.raises(ValueError):
        dump.iter_range(0, 0)


def test_find_signature_single_hit():
    buf = bytearray(0x2000)
    buf[0x1000:0x1008] = b"BOOTSERV"
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    assert dump.find_signature(b"BOOTSERV") == [0x1000]


def test_find_signature_absent_and_sorted():
    buf = bytearray(0x1000)
    buf[0x100:0x104] = b"ldri"
    buf[0x80:0x84] = b"ldri"
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    assert dump.find_signature(b"RUNTSERV") == []
    assert dump.find_signature(b"ldri") == [0x80, 0x100]


def test_find_signature_respects_alignment():
    buf = bytearray(0x100)
    buf[0x11:0x19] = b"BOOTSERV"  # unaligned
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    assert dump.find_signature(b"BOOTSERV") == []
    assert dump.find_signature(b"BOOTSERV", alignment=1) == [0x11]


def test_find_signature_across_region_boundary():
    # 'ldri' straddles the end of region one into region two.
    left = bytes(0x100 - 2) + b"ld"
    right = b"ri" + bytes(0x100 - 2)
    dump = MemoryDump.from_regions([(0, left), (0x100, right)])
    assert dump.find_signature(b"ldri", alignment=1) == [0xFE]


def test_find_signature_agrees_with_brute_force_on_sparse_dump():
    pieces = [(0x0, b"ldriXXldri" + bytes(0x40)), (0x100, bytes(0x20) + b"ldri" + bytes(0x10))]
    dump = MemoryDump.from_regions([(s, b) for s, b in pieces])
    flat = dump.read_bytes(0, dump.total_span)
    for alignment in (1, 2, 4):
        got = dump.find_signature(b"ldri", alignment)
        assert got == brute_force_find(flat, b"ldri", alignment)


def test_find_all_zero_signature_includes_gaps():
    dump = MemoryDump.from_regions([(0, b"\xFF" * 8), (0x20, b"\xFF" * 8)])
    flat = dump.read_bytes(0, dump.total_span)
    got = dump.find_signature(bytes(4), alignment=1)
    assert got == brute_force_find(flat, bytes(4), 1)


def test_scan_soundness(forged):
    dump = forged("clean").dump
    for sig in (b"BOOTSERV", b"RUNTSERV", b"DXE_SERV", b"ldri"):
        for addr in dump.find_signature(sig):
            assert dump.read_bytes(addr, len(sig)) == sig


def test_determinism(tmp_path):
    from uefiforensics.forge import COMPACT_GEOMETRY, scenario_by_name, build_scenario
    from dataclasses import replace

    spec = replace(scenario_by_name("clean"), geometry=COMPACT_GEOMETRY)
    paths = build_scenario(spec).write(tmp_path)
    a = load_dump(paths["dump"], paths["map"])
    b = load_dump(paths["dump"], paths["map"])
    assert a.regions == b.regions
    assert a.read_bytes(0, a.total_span) == b.read_bytes(0, b.total_span)
    assert a.find_signature(b"ldri") == b.find_signature(b"ldri")

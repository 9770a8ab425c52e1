import filecmp
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import uefiforensics
from uefiforensics.dump_model import (
    LEAD_HITS,
    WINDOW,
    ZERO_RUN,
    DumpLoadError,
    MemoryDump,
    OutOfBoundsRead,
    Region,
    load_dump,
)
from uefiforensics.forge import (
    COMPACT_GEOMETRY,
    CORE_GUID,
    ImageSpec,
    ScenarioSpec,
    build_scenario,
    builtin_scenarios,
)
from uefiforensics.report import AnalysisOptions, analyze_dump, content_sha256, to_json_dict

from helpers import brute_force_find, plain_find, reassemble_dump_file


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


def test_sidecar_named_after_the_whole_dump_name_is_probed(tmp_path):
    path, _ = write_dump(tmp_path, b"\xCC" * 0x80)
    map_path = tmp_path / "test.dump.map.json"
    map_path.write_text(json.dumps([{"phys_start": 0x1000, "file_offset": 0, "length": 0x80}]))
    dump = load_dump(path)
    assert dump.regions == (Region(phys_start=0x1000, file_offset=0, length=0x80),)
    assert dump.inputs == (path, map_path)


def test_stem_sidecar_wins_over_the_whole_name_sidecar(tmp_path):
    regions = [{"phys_start": 0x1000, "file_offset": 0, "length": 0x80}]
    path, map_path = write_dump(tmp_path, b"\xCC" * 0x80, regions)
    (tmp_path / "test.dump.map.json").write_text(
        json.dumps([{"phys_start": 0x2000, "file_offset": 0, "length": 0x40}])
    )
    dump = load_dump(path)
    assert dump.regions == (Region(phys_start=0x1000, file_offset=0, length=0x80),)
    assert dump.inputs == (path, map_path)


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


def test_directory_rejected(tmp_path):
    with pytest.raises(DumpLoadError):
        load_dump(tmp_path)


def test_save_refuses_the_file_it_maps(tmp_path):
    data = b"\xAA" * 0x1000
    path, _ = write_dump(tmp_path, data)
    os.link(path, tmp_path / "link.dump")
    dump = load_dump(path)
    for dump_path, map_path in (
        (path, tmp_path / "test.map.json"),
        (tmp_path / "link.dump", tmp_path / "test.map.json"),
        (tmp_path / "copy.dump", path),
    ):
        with pytest.raises(ValueError):
            dump.save(dump_path, map_path)
    assert path.read_bytes() == data
    assert not (tmp_path / "test.map.json").exists() and not (tmp_path / "copy.dump").exists()
    dump.save(tmp_path / "copy.dump", tmp_path / "copy.map.json")
    assert load_dump(tmp_path / "copy.dump").read_bytes(0, len(data)) == data


@pytest.mark.parametrize("named", [False, True], ids=["found", "named"])
def test_save_refuses_the_sidecar_it_was_loaded_with(tmp_path, named):
    path, map_path = write_dump(tmp_path, bytes(0x200), [
        {"phys_start": 0, "file_offset": 0, "length": 0x200}])
    sidecar = map_path.read_bytes()
    dump = load_dump(path, map_path if named else None)
    with pytest.raises(ValueError):
        dump.save(tmp_path / "copy.dump", map_path)
    assert map_path.read_bytes() == sidecar
    assert not (tmp_path / "copy.dump").exists()


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


@pytest.mark.parametrize("records, message", [
    ({}, "non-empty JSON array"),
    ([], "non-empty JSON array"),
    ([1], "records must be objects"),
])
def test_sidecar_of_no_region_objects_rejected(tmp_path, records, message):
    path, map_path = write_dump(tmp_path, bytes(0x20), records)
    with pytest.raises(DumpLoadError, match=message):
        load_dump(path, map_path)


def test_missing_explicit_sidecar_rejected(tmp_path):
    path, _ = write_dump(tmp_path, bytes(0x20))
    with pytest.raises(DumpLoadError, match="does not exist"):
        load_dump(path, tmp_path / "nope.map.json")


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_refused_dump_leaves_no_mapping(tmp_path):
    # Each error is held, traceback and all, while the process's mappings are read.
    sidecars = [
        "not json",
        [{"phys_start": 0, "file_offset": 0, "length": 0x1000}],  # past EOF
        [{"phys_start": 0, "file_offset": 0, "length": 0x100},
         {"phys_start": 0x80, "file_offset": 0x100, "length": 0x100}],  # overlapping
    ]
    errors, names = [], []
    for i, sidecar in enumerate(sidecars):
        path = tmp_path / f"refused{i}.dump"
        path.write_bytes(bytes(0x200))
        map_path = tmp_path / f"refused{i}.map.json"
        map_path.write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
        with pytest.raises(DumpLoadError) as exc:
            load_dump(path, map_path)
        errors.append(exc.value)
        names.append(path.name)
    maps = Path("/proc/self/maps").read_text()
    assert [name for name in names if name in maps] == []


def test_dump_without_regions_rejected():
    with pytest.raises(DumpLoadError, match="no regions"):
        MemoryDump(b"x", [])


def test_repr_names_span_regions_and_source():
    dump = MemoryDump.from_regions([(0, b"ab"), (0x10, b"cd")])
    assert repr(dump) == "MemoryDump(span=0x12, regions=2, source='<memory>')"


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


class RecordingSha256:
    """A SHA-256 that records the length of each ``update``."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.lengths = []

    def update(self, chunk):
        self.lengths.append(len(chunk))
        self._h.update(chunk)

    def hexdigest(self):
        return self._h.hexdigest()


def hash_loaded(tmp_path, monkeypatch, size, regions):
    """Write ``size`` random file bytes and a sidecar of ``regions`` (phys_start,
    file_offset, length), listed as given; load the dump and hash it. Returns the
    digest, the ``update`` lengths, the ``_drop`` (offset, length) calls and the
    digest of the regions' bytes joined in physical order."""
    data = Random(size).randbytes(size)
    records = [{"phys_start": a, "file_offset": o, "length": n} for a, o, n in regions]
    dump = load_dump(*write_dump(tmp_path, data, records))
    hashes, drops = [], []
    drop = MemoryDump._drop

    def sha256():
        hashes.append(RecordingSha256())
        return hashes[-1]

    def recording_drop(self, off, length):
        drops.append((off, length))
        drop(self, off, length)

    monkeypatch.setattr("uefiforensics.report.hashlib", SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(MemoryDump, "_drop", recording_drop)
    digest = content_sha256(dump)
    monkeypatch.undo()
    joined = b"".join(data[o:o + n] for _, o, n in sorted(regions))
    return digest, hashes[0].lengths, drops, hashlib.sha256(joined).hexdigest()


def windows_of(runs) -> list[tuple[int, int]]:
    """(offset, length) of the windows a hash reads the file runs ``[off, end)`` in."""
    return [(lo, min(WINDOW, end - lo)) for off, end in runs for lo in range(off, end, WINDOW)]


@pytest.mark.parametrize("size, regions, runs", [
    # The builtin layout: a short low region, then a long one right after it in
    # the file. One run: every update but the last hashes a whole window.
    (0x2000 + 3 * WINDOW + 0x800,
     [(0, 0, 0x2000), (0x100000, 0x2000, 3 * WINDOW + 0x800)],
     [(0, 0x2800 + 3 * WINDOW)]),
    # Listed in reverse; in physical order the first two lie back to back in the
    # file, after the third region's bytes, so the hash reads two runs.
    (0x3000 + WINDOW + 0x1800 + 0x2000,
     [(0x800000, 0, 0x3000), (0x10000, 0x5000, WINDOW + 0x1800), (0, 0x3000, 0x2000)],
     [(0x3000, 0x6800 + WINDOW), (0, 0x3000)]),
    # File bytes no region maps lie between the two regions: two runs, the
    # unmapped bytes hashed in neither.
    (0x2000 + 0x1000 + WINDOW + 0x10,
     [(0, 0, 0x2000), (0x100000, 0x3000, WINDOW + 0x10)],
     [(0, 0x2000), (0x3000, 0x3010 + WINDOW)]),
    # A region off page alignment, with another right after it in the file.
    (0x801 + WINDOW + 0x100 + 0x1000,
     [(0x10000, 0x801, WINDOW + 0x100), (0x800000, 0x901 + WINDOW, 0x1000)],
     [(0x801, 0x1901 + WINDOW)]),
], ids=["file-adjacent", "listed-out-of-file-order", "unmapped-bytes-between", "off-page-alignment"])
def test_content_hash_reads_file_runs_in_whole_windows(tmp_path, monkeypatch, size, regions,
                                                       runs):
    digest, lengths, drops, want = hash_loaded(tmp_path, monkeypatch, size, regions)
    assert digest == want
    assert drops == windows_of(runs)
    assert lengths == [n for _, n in windows_of(runs)]


def test_iter_range_joins_to_read_bytes():
    half = 8 << 20
    low, high = 0x100000, 0x2000000
    dump = MemoryDump.from_regions([(high, b"\xBB" * half), (low, b"\xAA" * half)])
    rng = Random(7)
    for _ in range(20):
        # Ranges start in or before the low region and end in the high one,
        # so each crosses the 24 MiB gap between them.
        addr = rng.randrange(0, low + half)
        end = rng.randrange(high, dump.total_span) + 1
        chunks = list(dump.iter_range(addr, end - addr))
        assert b"".join(chunks) == dump.read_bytes(addr, end - addr)
        assert all(len(c) <= ZERO_RUN for c in chunks if isinstance(c, bytes))
        # Each region's part of the range comes in views of at most one window.
        views = [len(c) for c in chunks if isinstance(c, memoryview)]
        assert all(n <= WINDOW for n in views)
        parts = (low + half - max(addr, low), end - high)
        assert len(views) == sum(-(-n // WINDOW) for n in parts)
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


def test_find_signature_every_byte_offset():
    buf = bytearray(0x100)
    buf[0x11:0x19] = b"BOOTSERV"  # unaligned
    buf[0x42:0x46] = b"ldri"
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    assert dump.find_signature(b"BOOTSERV") == [0x11]
    assert dump.find_signature(b"ldri") == [0x42]


def test_find_signature_across_region_boundary():
    # 'ldri' straddles the end of region one into region two.
    left = bytes(0x100 - 2) + b"ld"
    right = b"ri" + bytes(0x100 - 2)
    dump = MemoryDump.from_regions([(0, left), (0x100, right)])
    assert dump.find_signature(b"ldri") == [0xFE]


def test_find_signature_in_region_shorter_than_signature():
    # The scan of a region too short to hold the signature must not reach
    # into the file bytes of the next one.
    dump = MemoryDump.from_regions([(0, b"BOOT"), (0x100, b"BOOTSERV")])
    assert dump.find_signature(b"BOOTSERV") == [0x100]


def test_find_signature_agrees_with_brute_force_on_sparse_dump():
    pieces = [(0x0, b"ldriXXldri" + bytes(0x40)), (0x100, bytes(0x20) + b"ldri" + bytes(0x10))]
    dump = MemoryDump.from_regions([(s, b) for s, b in pieces])
    flat = dump.read_bytes(0, dump.total_span)
    assert dump.find_signature(b"ldri") == brute_force_find(flat, b"ldri") == [0, 6, 0x120]


@pytest.mark.parametrize("sig", [b"", b"\x00", bytes(4), b"ld\x00i", b"\x00\x00\x00\x01"],
                         ids=["empty", "zero", "all-zero", "inner-zero", "leading-zeros"])
def test_find_signature_refuses_empty_or_zero_byte_signature(tmp_path, sig):
    # A signature with a zero byte could match into a gap; none is scanned for.
    path, map_path = write_dump(tmp_path, b"ldri" + bytes(0x100), [
        {"phys_start": 0, "file_offset": 0, "length": 0x80},
        {"phys_start": 0x100, "file_offset": 0x80, "length": 0x84},
    ])
    with pytest.raises(ValueError):
        load_dump(path, map_path).find_signature(sig)


@pytest.mark.parametrize("head", range(1, 8))
def test_find_signature_across_a_region_shorter_than_the_signature(head):
    # Adjacent regions: a match with ``head`` bytes at the end of the first
    # runs on through a middle region shorter than the signature into the
    # third (at head 7 there is no middle: the match starts as far back as a
    # crossing match can), and matches sit at the outer ends. Each is found
    # once, in order.
    sig = b"BOOTSERV"
    pieces, at = [], 0
    for piece in (sig + bytes(0x20) + sig[:head], sig[head:7], sig[7:] + bytes(0x20) + sig):
        if piece:
            pieces.append((at, piece))
            at += len(piece)
    dump = MemoryDump.from_regions(pieces)
    flat = dump.read_bytes(0, dump.total_span)
    want = [0, len(pieces[0][1]) - head, dump.total_span - len(sig)]
    assert dump.find_signature(sig) == plain_find(flat, sig) == want


def test_find_signature_across_window_edge_of_loaded_dump(tmp_path):
    # One region, off page alignment in the file, with matches straddling both
    # of its inner window edges; each pass over the mapping drops its windows.
    offset, length = 0x801, 3 * WINDOW
    data = bytearray(offset + length)
    hits = (0x10000 + WINDOW - 3, 0x10000 + 2 * WINDOW - 7)
    for addr in hits:
        at = offset + addr - 0x10000
        data[at:at + 8] = b"BOOTSERV"
    regions = [{"phys_start": 0x10000, "file_offset": offset, "length": length}]
    path, map_path = write_dump(tmp_path, bytes(data), regions)
    dump = load_dump(path, map_path)
    assert dump.find_signature(b"BOOTSERV") == list(hits)
    assert content_sha256(dump) == hashlib.sha256(data[offset:]).hexdigest()
    assert dump.find_signature(b"BOOTSERV") == list(hits)


SCAN_SIGS = (b"ldri", b"SERV", b"BOOTSERV")
# A probe byte of every signature, none of them the start of a match.
FLOOD = b"lSB" * (LEAD_HITS + 1)


def test_probe_scan_equals_plain_find_past_lead_hits_and_edges(tmp_path):
    # Each window that holds an edge match opens with the flood: a match of
    # each signature before it, more than LEAD_HITS probe hits, matches after
    # the scan has switched to a plain find, then the one straddling its edge.
    first = bytearray(WINDOW + 0x1000)
    second = bytearray(2 * WINDOW + 0x800)
    matches = b"ldri\xFF\xFF\xFF\xFFBOOTSERV"  # at +0 and +8
    for buf, lo in ((first, 0), (second, 0), (second, WINDOW)):
        buf[lo + 0x100:lo + 0x110] = matches
        buf[lo + 0x200:lo + 0x200 + len(FLOOD)] = FLOOD
        buf[lo + 0x1000:lo + 0x1010] = matches
    first[WINDOW - 6:WINDOW + 2] = b"BOOTSERV"  # SERV at WINDOW - 2
    second[WINDOW - 2:WINDOW + 2] = b"ldri"
    first[-2:], second[:2] = b"ld", b"ri"  # across the edge of adjacent regions
    second[-2:] = b"ld"  # and no match across the gap to the next region
    third = b"ri" + bytes(0xFE)
    a, b = 0x3000, 0x3000 + len(first)
    c = b + len(second) + 0x10
    pieces = [(a, bytes(first)), (b, bytes(second)), (c, third)]
    # Then, per signature, a region of exactly LEAD_HITS probe hits and a match
    # right after them: where the scan hands over to the plain find.
    handover, at = {}, c + 0x1000
    for sig in SCAN_SIGS:
        pieces.append((at, sig[:1] * LEAD_HITS + sig))
        handover[sig] = at + LEAD_HITS
        at += 0x1000
    dump = MemoryDump.from_regions(pieces)
    assert dump.total_span > 2 * WINDOW + 1
    dump.save(tmp_path / "d.dump", tmp_path / "d.map.json")
    loaded = load_dump(tmp_path / "d.dump", tmp_path / "d.map.json")
    flat = dump.read_bytes(0, dump.total_span)
    planted = {
        b"ldri": {a + 0x100, a + 0x1000, b - 2, b + WINDOW - 2, b + WINDOW + 0x1000},
        b"SERV": {a + 0x10C, a + 0x100C, a + WINDOW - 2, b + WINDOW + 0x100C},
        b"BOOTSERV": {a + 0x108, a + 0x1008, a + WINDOW - 6, b + WINDOW + 0x1008},
    }
    for sig in SCAN_SIGS:
        want = plain_find(flat, sig)
        assert planted[sig] | {handover[sig]} <= set(want)
        assert dump.find_signature(sig) == want
        assert loaded.find_signature(sig) == want


def best_of_three(*fns) -> list[float]:
    """Each of ``fns``' best of three timings, run in turn so that drift hits all alike."""
    best = [float("inf")] * len(fns)
    for _ in range(3):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


@pytest.mark.slow
@pytest.mark.parametrize("fill", [b"l", b"S", b"random"])
def test_probe_scan_costs_no_more_than_plain_find_on_probe_dense_bytes(fill):
    # Every byte a probe byte, or one in 256: the probe scan must stay within
    # 1.25x the windowed plain find it replaces, best of three in this process.
    size = 64 << 20
    buf = Random(22).randbytes(size) if fill == b"random" else fill * size
    dump = MemoryDump.from_regions([(0, buf)])
    for sig in (b"ldri", b"SERV"):
        def plain():
            return [pos for lo in range(0, size, WINDOW)
                    for pos in plain_find(buf, sig, lo, min(lo + WINDOW + len(sig) - 1, size))]

        plain_s, probe_s = best_of_three(plain, lambda: dump.find_signature(sig))
        assert probe_s <= 1.25 * plain_s, (sig, probe_s, plain_s)


def report_doc(dump, carve_dir) -> dict:
    """The report JSON without what names files: ``meta``, the dump path, the carve dir."""
    doc = to_json_dict(analyze_dump(dump, AnalysisOptions(carve_dir=str(carve_dir))))
    del doc["meta"], doc["dump"]["path"], doc["carve"]["out_dir"]
    return doc


def pieces_of(dump) -> list[tuple[int, bytes]]:
    return [(r.phys_start, dump.read_bytes(r.phys_start, r.length)) for r in dump.regions]


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_loaded_dump_reports_as_bytes_backed_dump(tmp_path, forged, name):
    scenario = forged(name)
    paths = scenario.write(tmp_path)
    in_memory = MemoryDump.from_regions(pieces_of(scenario.dump))
    loaded = load_dump(paths["dump"], paths["map"])
    assert report_doc(loaded, tmp_path / "a") == report_doc(in_memory, tmp_path / "b")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([s.name for s in builtin_scenarios()]), st.data())
def test_split_and_reordered_regions_report_the_same(tmp_path_factory, forged, name, data):
    # Split one region at any point, lay the file pieces out in any order and
    # write the sidecar to match: only the report's region list changes.
    dump = forged(name).dump
    pieces = pieces_of(dump)
    i = data.draw(st.integers(0, len(pieces) - 1))
    start, buf = pieces[i]
    cut = data.draw(st.integers(1, len(buf) - 1))
    pieces[i:i + 1] = [(start, buf[:cut]), (start + cut, buf[cut:])]
    pieces = data.draw(st.permutations(pieces))
    tmp_path = tmp_path_factory.mktemp("split")
    MemoryDump.from_regions(pieces).save(tmp_path / "split.dump", tmp_path / "split.map.json")
    split = load_dump(tmp_path / "split.dump", tmp_path / "split.map.json")
    assert len(split.regions) == len(dump.regions) + 1
    got, want = report_doc(split, tmp_path / "a"), report_doc(dump, tmp_path / "b")
    assert got["dump"].pop("regions") != want["dump"].pop("regions")
    assert got == want


# Run with the launcher below, so that the peak read is the analyzer's own:
# Linux carries a parent's peak RSS over into its child's ru_maxrss.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
_ANALYZE = """
import resource, sys
from uefiforensics.dump_model import load_dump
from uefiforensics.report import AnalysisOptions, analyze_dump
dump = load_dump(sys.argv[1], sys.argv[2])
report = analyze_dump(dump, AnalysisOptions(carve_dir=sys.argv[3]))
dump.save(sys.argv[4], sys.argv[5])
print(len(report.carved), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_analysis_memory_is_bounded_by_windows_not_the_file(tmp_path):
    spec = ScenarioSpec(
        name="big",
        images=(
            ImageSpec(guid=CORE_GUID, size=0x8000, role="core"),
            ImageSpec(path="\\EFI\\big\\blob.efi", size=0x800_0000),
        ),
        geometry=COMPACT_GEOMETRY,
    )
    paths = build_scenario(spec).write(tmp_path)
    dump_size = paths["dump"].stat().st_size
    assert dump_size >= 128 << 20
    package_root = str(Path(uefiforensics.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "-c", _ANALYZE,
         str(paths["dump"]), str(paths["map"]), str(tmp_path / "carved"),
         str(tmp_path / "copy.dump"), str(tmp_path / "copy.map.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300, check=True,
    )
    carved, peak_kib = map(int, proc.stdout.split())
    assert carved == 2
    assert peak_kib * 1024 < dump_size / 2, f"peak RSS {peak_kib / 1024:.0f} MiB"
    # ``save`` streams the file bytes a window at a time, like the bulk passes.
    assert filecmp.cmp(paths["dump"], tmp_path / "copy.dump", shallow=False)
    assert filecmp.cmp(paths["map"], tmp_path / "copy.map.json", shallow=False)


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

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from uefiforensics.dump_model import MemoryDump
from uefiforensics.forge import COSMICSTRAND_GUID, EFIGUARD_PATH
from uefiforensics.image_registry import (
    ImageIdentity,
    ImageMap,
    LoadedImageRecord,
    format_guid,
    normalize_guid,
    scan_loaded_images,
)

from helpers import NOT_PE, brute_force_owner, brute_force_owners


def test_scan_finds_planted_records(forged):
    scenario = forged("clean")
    image_map = scan_loaded_images(scenario.dump)
    assert len(image_map) == 3
    got = {(r.image_base, r.image_size) for r in image_map.records}
    want = {(i.base, i.size) for i in scenario.truth.images}
    assert got == want
    assert image_map.anomalies == ()


def test_identities_resolved(forged):
    scenario = forged("efiguard")
    image_map = scan_loaded_images(scenario.dump)
    by_base = {r.image_base: r for r in image_map.records}
    for truth in scenario.truth.images:
        record = by_base[truth.base]
        assert record.identity.guid == truth.guid
        assert record.identity.file_path == truth.path
    assert any(r.identity.file_path == EFIGUARD_PATH for r in image_map.records)


def test_guid_uppercase_hyphenated(forged):
    scenario = forged("cosmicstrand")
    image_map = scan_loaded_images(scenario.dump)
    record = image_map.by_guid(COSMICSTRAND_GUID)
    assert record is not None
    assert record.identity.guid == "B18322E1-A4D7-11EF-BE59-000C2987BDE4"


def test_by_guid_accepts_any_guid_form(forged):
    image_map = scan_loaded_images(forged("cosmicstrand").dump)
    want = image_map.by_guid(COSMICSTRAND_GUID)
    for form in ("{%s}" % COSMICSTRAND_GUID.lower(), "urn:uuid:" + COSMICSTRAND_GUID,
                 COSMICSTRAND_GUID.replace("-", "")):
        assert normalize_guid(form) == COSMICSTRAND_GUID
        assert image_map.by_guid(form) is want is not None
    for bad in ("not-a-guid", COSMICSTRAND_GUID[:-1], ""):
        with pytest.raises(ValueError):
            normalize_guid(bad)


def test_format_guid_little_endian_layout():
    import uuid

    raw = uuid.UUID("B18322E1-A4D7-11EF-BE59-000C2987BDE4").bytes_le
    assert format_guid(raw) == "B18322E1-A4D7-11EF-BE59-000C2987BDE4"


def test_decoy_ldri_rejected_with_anomaly(forged):
    scenario = forged("decoy-heavy")
    image_map = scan_loaded_images(scenario.dump)
    decoy_addrs = {d.addr for d in scenario.truth.decoys if d.kind == "fake_ldri"}
    assert decoy_addrs
    assert all(r.record_addr not in decoy_addrs for r in image_map.records)
    rejected = {a.addr for a in image_map.anomalies if a.kind == "ldri_candidate_rejected"}
    assert decoy_addrs <= rejected


def test_validated_records_start_with_mz(forged):
    scenario = forged("thunderstrike")
    image_map = scan_loaded_images(scenario.dump)
    for record in image_map.records:
        assert scenario.dump.read_bytes(record.image_base, 2) == b"MZ"


def make_raw_record(base, size, guid_ptr=0, path_ptr=0):
    return struct.pack("<4s4xQQQQ", b"ldri", base, size, guid_ptr, path_ptr)


def test_record_without_identity_rejected():
    buf = bytearray(0x2000)
    buf[0x100:0x102] = b"MZ"
    buf[0x1000:0x1000 + 40] = make_raw_record(0x100, 0x200)
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    image_map = scan_loaded_images(dump)
    assert len(image_map) == 0
    assert any("neither GUID nor file path" in a.detail for a in image_map.anomalies)


def test_record_missing_mz_rejected():
    buf = bytearray(0x2000)
    buf[0x1000:0x1000 + 40] = make_raw_record(0x100, 0x200, path_ptr=0x1800)
    buf[0x1800:0x1804] = "a\x00b\x00".encode("latin1")
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    image_map = scan_loaded_images(dump)
    assert len(image_map) == 0
    assert any("MZ" in a.detail for a in image_map.anomalies)


@pytest.mark.parametrize("fields, path, reason", [
    ({"size": 0, "path_ptr": 0x1800}, "a\x00", "image_size is zero"),
    ({"guid_ptr": 0x1FF8}, "", "GUID pointer 0x1ff8 outside span"),
    ({"path_ptr": 0x2000}, "", "path pointer 0x2000 outside span"),
    ({"path_ptr": 0x1800}, "a" * 0x400, "unterminated path string"),
    ({"path_ptr": 0x1800}, "\ud800a\x00", "illegal UTF-16 surrogate"),
])
def test_crafted_record_rejected_with_its_reason(fields, path, reason):
    # One record at 0x1000 for an MZ image at 0x100, in a 0x2000-byte span.
    buf = bytearray(0x2000)
    buf[0x100:0x102] = b"MZ"
    raw = path.encode("utf-16-le", "surrogatepass")
    buf[0x1800:0x1800 + len(raw)] = raw
    fields = {"base": 0x100, "size": 0x200, **fields}
    buf[0x1000:0x1000 + 40] = make_raw_record(**fields)
    image_map = scan_loaded_images(MemoryDump.from_regions([(0, bytes(buf))]))
    assert len(image_map) == 0
    (anomaly,) = image_map.anomalies
    assert anomaly.kind == "ldri_candidate_rejected" and anomaly.addr == 0x1000
    assert reason in anomaly.detail


def test_resolve_owner_bounds(forged):
    scenario = forged("clean")
    image_map = scan_loaded_images(scenario.dump)
    record = image_map.records[0]
    assert image_map.resolve_owner(record.image_base) == record
    assert image_map.resolve_owner(record.image_end) != record
    assert image_map.resolve_owner(record.image_end - 1) == record


def test_resolve_owner_outside_any_image(forged):
    image_map = scan_loaded_images(forged("clean").dump)
    assert image_map.resolve_owner(0x10) is None
    assert image_map.resolve_owner(0x10) == brute_force_owner(image_map.records, 0x10)


def test_resolve_owner_matches_brute_force(forged):
    scenario = forged("clean")
    image_map = scan_loaded_images(scenario.dump)
    probes = [0, 1, 0x1000]
    for record in image_map.records:
        probes += [
            record.image_base - 1, record.image_base, record.image_base + 1,
            record.image_base + record.image_size // 2,
            record.image_end - 1, record.image_end,
        ]
    for addr in probes:
        assert image_map.resolve_owner(addr) == brute_force_owner(image_map.records, addr)


def test_overlapping_images_flagged_not_merged():
    a = LoadedImageRecord(
        0x10, 0x1000, 0x400, ImageIdentity(guid="A" * 8 + "-0000-0000-0000-000000000000"), NOT_PE
    )
    b = LoadedImageRecord(0x40, 0x1200, 0x400, ImageIdentity(file_path="\\x.efi"), NOT_PE)
    image_map = ImageMap([a, b])
    assert len(image_map) == 2
    assert any(an.kind == "image_overlap" for an in image_map.anomalies)
    assert brute_force_owners(image_map.records, 0x1300) == [a, b]
    assert image_map.resolve_owner(0x1300) == a


# Small bases and sizes, so ranges overlap, nest and share bases; a small
# record_addr range also gives records equal sort keys.
overlapping_records = st.lists(
    st.tuples(st.integers(0, 0x40), st.integers(1, 0x30), st.integers(0, 3)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(overlapping_records, st.lists(st.integers(0, 0x80), max_size=8))
# A holds the bases of both B and C, although B, just before C, ends before C.
@example([(0x1000, 0x10000, 0), (0x2000, 0x1000, 1), (0x4000, 0x1000, 2)], [])
def test_resolve_owner_matches_brute_force_with_overlaps(ranges, extra_probes):
    image_map = ImageMap([
        LoadedImageRecord(record_addr, base, size, ImageIdentity(file_path=f"\\{i}.efi"), NOT_PE)
        for i, (base, size, record_addr) in enumerate(ranges)
    ])
    probes = list(extra_probes)
    for record in image_map.records:
        probes += [record.image_base, record.image_end, record.image_end - 1]
    for addr in probes:
        expected = brute_force_owner(image_map.records, addr)
        assert image_map.resolve_owner(addr) == expected, hex(addr)
    # Every record whose base an earlier record holds is flagged, naming that record.
    expected_overlaps = [
        (rec.image_base, f"{rec.identity.label} overlaps {owner.identity.label}")
        for i, rec in enumerate(image_map.records)
        if (owner := brute_force_owner(image_map.records[:i], rec.image_base)) is not None
    ]
    assert [(an.addr, an.detail) for an in image_map.anomalies
            if an.kind == "image_overlap"] == expected_overlaps


def test_scan_determinism(forged):
    dump = forged("glupteba").dump
    first = scan_loaded_images(dump)
    second = scan_loaded_images(dump)
    assert first.records == second.records
    assert first.anomalies == second.anomalies

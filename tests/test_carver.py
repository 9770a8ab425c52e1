import hashlib
import json
import struct
import tracemalloc

import pytest

from uefiforensics.carver import MANIFEST_NAME, carve_images
from uefiforensics.dump_model import MemoryDump
from uefiforensics.forge import build_minimal_pe, build_scenario, scenario_by_name
from uefiforensics.image_registry import (
    PE_SIGNATURE,
    ImageIdentity,
    ImageMap,
    LoadedImageRecord,
    read_pe_header,
    scan_loaded_images,
)


def carve(scenario, out_dir):
    image_map = scan_loaded_images(scenario.dump)
    return carve_images(scenario.dump, image_map, out_dir)


def record(dump, record_addr, base, size, file_path):
    """A loaded-image record over ``dump``, its PE header read as the registry reads it."""
    return LoadedImageRecord(
        record_addr, base, size, ImageIdentity(file_path=file_path),
        read_pe_header(dump, base, size),
    )


def test_round_trip_bytes_identical(tmp_path, forged):
    scenario = forged("efiguard")
    carved, anomalies = carve(scenario, tmp_path)
    assert anomalies == []
    truth_by_base = {i.base: i for i in scenario.truth.images}
    assert len(carved) == len(truth_by_base)
    for image in carved:
        data = (tmp_path / image.output_name).read_bytes()
        truth = truth_by_base[image.image_base]
        assert len(data) == truth.size
        assert hashlib.sha256(data).hexdigest() == truth.sha256
        assert image.sha256 == truth.sha256
        assert image.pe_valid
        assert image.machine == 0x8664


def test_three_source_fixture_carves_three_valid_pes(tmp_path, forged):
    carved, _ = carve(forged("thunderstrike"), tmp_path)
    assert len(carved) == 3
    assert all(c.pe_valid for c in carved)


def test_names_from_path_basename_and_guid(tmp_path, forged):
    carved, _ = carve(forged("thunderstrike"), tmp_path)
    names = {c.output_name for c in carved}
    assert "BootX64.efi" in names
    assert "0000003C-0000-0000-0000-0000FF310000.efi" in names


def test_name_collision_gets_suffix(tmp_path):
    pe = bytes(build_minimal_pe(0x1000))
    buf = bytearray(0x8000)
    bases = (0x1000, 0x3000)
    for base in bases:
        buf[base:base + len(pe)] = pe
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    records = [record(dump, i, base, 0x1000, "\\EFI\\same.efi") for i, base in enumerate(bases)]
    carved, _ = carve_images(dump, ImageMap(records), tmp_path)
    assert [c.output_name for c in carved] == ["same.efi", "same_1.efi"]


def test_third_name_collision_takes_the_next_free_suffix(tmp_path):
    pe = bytes(build_minimal_pe(0x1000))
    buf = bytearray(0x8000)
    bases = (0x1000, 0x3000, 0x5000)
    for base in bases:
        buf[base:base + len(pe)] = pe
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    paths = ("\\EFI\\same.efi", "\\EFI\\same_1.efi", "\\EFI\\same.efi")
    records = [record(dump, i, base, 0x1000, path)
               for i, (base, path) in enumerate(zip(bases, paths))]
    carved, _ = carve_images(dump, ImageMap(records), tmp_path)
    assert [c.output_name for c in carved] == ["same.efi", "same_1.efi", "same_2.efi"]


def test_path_separators_sanitized(tmp_path):
    pe = bytes(build_minimal_pe(0x1000))
    buf = bytearray(0x3000)
    buf[0x1000:0x1000 + len(pe)] = pe
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    image = record(dump, 0, 0x1000, 0x1000, "\\EFI\\Boot\\we?ird name")
    carved, _ = carve_images(dump, ImageMap([image]), tmp_path)
    assert carved[0].output_name == "we_ird_name.efi"
    assert (tmp_path / "we_ird_name.efi").exists()


def test_record_without_mz_carved_but_flagged(tmp_path):
    buf = bytearray(0x3000)
    buf[0x1000:0x1008] = b"NOTAPE!!"
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    image = record(dump, 0, 0x1000, 0x800, "\\bad.efi")
    carved, anomalies = carve_images(dump, ImageMap([image]), tmp_path)
    assert len(carved) == 1
    assert not carved[0].pe_valid
    assert carved[0].machine == 0
    assert (tmp_path / carved[0].output_name).read_bytes() == bytes(buf[0x1000:0x1800])
    assert any(a.kind == "carved_image_invalid_pe" for a in anomalies)


def test_size_mismatch_with_pe_header_flagged(tmp_path):
    pe = bytes(build_minimal_pe(0x1000))  # SizeOfImage 0x1000
    buf = bytearray(0x4000)
    buf[0x1000:0x1000 + len(pe)] = pe
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    records = [
        record(dump, 0, 0x1000, 0x2000, "\\long.efi"),
        record(dump, 1, 0x1000, 0x1000, "\\exact.efi"),
    ]
    carved, anomalies = carve_images(dump, ImageMap(records), tmp_path)
    assert [(a.kind, a.addr) for a in anomalies] == [("carved_image_size_mismatch", 0x1000)]
    assert "0x2000" in anomalies[0].detail and "0x1000" in anomalies[0].detail
    # The record decides what is carved, not the header.
    sizes = {c.output_name: (tmp_path / c.output_name).stat().st_size for c in carved}
    assert sizes == {"long.efi": 0x2000, "exact.efi": 0x1000}


@pytest.mark.parametrize("pe_header_at_end", [False, True])
def test_oversized_record_carved_in_bounded_memory(tmp_path, pe_header_at_end):
    # A 64 MiB record over an 8 KiB file: all but two pages are gap.
    size = 64 << 20
    head = bytearray(build_minimal_pe(0x1000))
    tail = bytearray(b"\xCC" * 0x1000)
    if pe_header_at_end:
        # e_lfanew at the last six bytes: validation must read only those.
        struct.pack_into("<I", head, 0x3C, size - 6)
        tail[-6:] = PE_SIGNATURE + struct.pack("<H", 0x8664)
    dump = MemoryDump.from_regions([(0, bytes(head)), (size - 0x1000, bytes(tail))])
    tracemalloc.start()
    try:
        image = record(dump, 0, 0, size, "\\big.efi")
        carved, anomalies = carve_images(dump, ImageMap([image]), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert carved[0].pe_valid and carved[0].machine == 0x8664
    expected = hashlib.sha256(dump.read_bytes(0, size)).hexdigest()
    assert carved[0].sha256 == expected
    assert hashlib.sha256((tmp_path / "big.efi").read_bytes()).hexdigest() == expected
    # SizeOfImage lies past the image when the PE header is its last bytes.
    kinds = [a.kind for a in anomalies]
    assert kinds == ([] if pe_header_at_end else ["carved_image_size_mismatch"])
    # Gap bytes are seeked over: the file is sparse, not 64 MiB of written zeros.
    st = (tmp_path / "big.efi").stat()
    assert st.st_size == size
    if not hasattr(st, "st_blocks"):
        pytest.skip("no st_blocks on this platform")
    assert st.st_blocks * 512 < 1 << 20


def test_orphan_mz_blob_not_carved(tmp_path, forged):
    # An extra MZ image outside any ldri record must not be carved.
    scenario = build_scenario(scenario_by_name("clean"))
    flat = bytearray(scenario.dump.read_bytes(0x3E40_0000, 0x100000))
    orphan = bytes(build_minimal_pe(0x1000))
    flat[0xF0000:0xF0000 + len(orphan)] = orphan
    dump = MemoryDump.from_regions(
        [(r.phys_start, scenario.dump.read_bytes(r.phys_start, r.length))
         for r in scenario.dump.regions[:1]]
        + [(0x3E40_0000, bytes(flat))]
    )
    image_map = scan_loaded_images(dump)
    carved, _ = carve_images(dump, image_map, tmp_path)
    assert len(carved) == len(image_map.records)
    bases = {c.image_base for c in carved}
    assert 0x3E40_0000 + 0xF0000 not in bases


def test_manifest_contents(tmp_path, forged):
    carved, _ = carve(forged("glupteba"), tmp_path)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["schema"] == 1
    assert len(manifest["images"]) == len(carved)
    entry = manifest["images"][0]
    assert set(entry) == {
        "guid", "file_path", "image_base", "image_size", "pe_valid",
        "machine", "sha256", "file",
    }
    assert entry["image_base"].startswith("0x")


def test_name_and_digest_stability(tmp_path, forged):
    a, _ = carve(forged("efiguard"), tmp_path / "a")
    b, _ = carve(forged("efiguard"), tmp_path / "b")
    assert [(c.output_name, c.sha256) for c in a] == [(c.output_name, c.sha256) for c in b]


def test_ordering_by_image_base(tmp_path, forged):
    carved, _ = carve(forged("clean"), tmp_path)
    bases = [c.image_base for c in carved]
    assert bases == sorted(bases)


def pe_header(data: bytes):
    """``read_pe_header`` over ``data`` at address 0; a spare byte makes ``b""`` a dump."""
    return read_pe_header(MemoryDump.from_regions([(0, data + bytes(1))]), 0, len(data))


def test_validate_pe_rejects_bad_offsets():
    assert pe_header(b"MZ" + bytes(0x100))[:2] == (False, 0)
    data = bytearray(0x200)
    data[:2] = b"MZ"
    struct.pack_into("<I", data, 0x3C, 0x1000)  # e_lfanew beyond buffer
    assert pe_header(bytes(data))[:2] == (False, 0)
    assert pe_header(b"")[:2] == (False, 0)


def test_validate_pe_accepts_minimal_build():
    pe = bytes(build_minimal_pe(0x1000))
    valid, machine, _ = pe_header(pe)
    assert valid and machine == 0x8664

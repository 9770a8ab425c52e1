import struct

import pytest

from uefiforensics.dump_model import MemoryDump
from uefiforensics.service_tables import (
    ENTRY_LEN,
    HEADER_LEN,
    TABLE_HEADER,
    TableKind,
    TableParseError,
    compute_table_crc32,
    crc32_ieee,
    find_table_candidates,
    locate_tables,
    parse_table,
    verify_table_integrity,
)
from uefiforensics.report import EXIT_CLEAN, analyze_dump, render_text

from helpers import crc32_reference


# Spot values frozen from the public UEFI 2.x / PI 1.x table orderings
# (cross-checked against the EDK II structure definitions).
def test_service_order_spot_checks():
    assert TableKind.BOOT.services[22] == "LoadImage"
    assert TableKind.RUNTIME.services[8] == "SetVariable"
    assert TableKind.DXE.services[16] == "ProcessFirmwareVolume"
    assert TableKind.BOOT.services[0] == "RaiseTPL"
    assert TableKind.BOOT.services[43] == "CreateEventEx"
    assert TableKind.BOOT.services[17] == "Reserved"
    assert TableKind.RUNTIME.services[0] == "GetTime"
    assert TableKind.RUNTIME.services[13] == "QueryVariableInfo"
    assert TableKind.DXE.services[0] == "AddMemorySpace"


def test_layout_totality():
    assert len(TableKind.BOOT.services) == 44
    assert len(TableKind.RUNTIME.services) == 14
    assert len(TableKind.DXE.services) == 17


def test_table_kind_invariants():
    kinds = list(TableKind)
    assert [k.value for k in kinds] == ["boot", "runtime", "dxe"]
    assert [k.rank for k in kinds] == [0, 1, 2]
    # One scan for the shared suffix finds every kind.
    signatures = [k.signature for k in kinds]
    assert all(len(sig) == 8 and sig.endswith(b"SERV") for sig in signatures)
    assert len(set(signatures)) == len(signatures)
    # The forge maps each service name to its one kind.
    names = [name for k in kinds for name in k.services]
    assert len(set(names)) == len(names) == 75
    for k in kinds:
        assert TableKind(k.value) is k


def table_bytes(kind: TableKind, pointers, revision=0x0002_0046, header_size=None, crc=0):
    names = kind.services
    if header_size is None:
        header_size = HEADER_LEN + 8 * len(names)
    buf = bytearray(TABLE_HEADER.pack(kind.signature, revision, header_size, crc, 0))
    for i in range(len(names)):
        buf += struct.pack("<Q", pointers.get(i, 0x1000 + i))
    return bytes(buf)


def dump_with(table: bytes, at=0x200, span=0x4000):
    buf = bytearray(span)
    buf[at:at + len(table)] = table
    return MemoryDump.from_regions([(0, bytes(buf))])


def test_parse_table_entry_offsets():
    # LoadImage pointer planted at header + 22 * 8 must surface by name.
    dump = dump_with(table_bytes(TableKind.BOOT, {22: 0x3E40_1000}), at=0x200)
    table = parse_table(dump, TableKind.BOOT, 0x200)
    assert table.pointer_of("LoadImage") == 0x3E40_1000
    assert table.entry("LoadImage").index == 22


def test_parse_table_header_fields():
    dump = dump_with(table_bytes(TableKind.RUNTIME, {}, revision=0x0002_0046))
    table = parse_table(dump, TableKind.RUNTIME, 0x200)
    assert table.header.revision == 0x0002_0046
    assert table.header.signature == b"RUNTSERV"
    assert len(table.entries) == 14


def test_parse_table_offset_law(forged):
    dump = forged("clean").dump
    tables, _ = locate_tables(dump)
    for table in tables:
        for entry in table.entries:
            addr = table.table_addr + HEADER_LEN + ENTRY_LEN * entry.index
            assert dump.read_u64(addr) == entry.pointer


def test_parse_round_trip_against_forge(forged):
    scenario = forged("clean")
    dump = scenario.dump
    for kind in TableKind:
        truth = scenario.truth.tables[kind.value]
        table = parse_table(dump, kind, truth.addr)
        assert {e.name: e.pointer for e in table.entries} == truth.final_pointers
        assert table.header.header_size == truth.header_size
        assert table.header.revision == truth.revision
        assert table.header.crc32 == truth.stored_crc


def test_header_size_sanity_bounds():
    dump = dump_with(table_bytes(TableKind.BOOT, {}, header_size=0))
    with pytest.raises(TableParseError):
        parse_table(dump, TableKind.BOOT, 0x200)
    dump = dump_with(table_bytes(TableKind.BOOT, {}, header_size=8192))
    with pytest.raises(TableParseError):
        parse_table(dump, TableKind.BOOT, 0x200)


def test_parse_table_with_the_wrong_kind_is_error():
    dump = dump_with(table_bytes(TableKind.BOOT, {}))
    with pytest.raises(TableParseError, match="signature mismatch"):
        parse_table(dump, TableKind.RUNTIME, 0x200)


def test_entry_of_unknown_service_is_key_error():
    table = parse_table(dump_with(table_bytes(TableKind.DXE, {})), TableKind.DXE, 0x200)
    with pytest.raises(KeyError):
        table.entry("LoadImage")


def test_signature_in_last_bytes_of_span_rejected():
    # BOOTSERV ends the span: no room for the rest of its header.
    dump = dump_with(TableKind.BOOT.signature, at=0x1000 - 8, span=0x1000)
    tables, anomalies = locate_tables(dump)
    assert tables == []
    (rejected,) = [a for a in anomalies if a.kind == "table_candidate_rejected"]
    assert rejected.addr == 0xFF8
    assert rejected.detail == "header at 0xff8 extends past dump span"
    assert analyze_dump(dump).exit_code == EXIT_CLEAN


def test_header_size_24_falls_back_to_canonical():
    dump = dump_with(table_bytes(TableKind.BOOT, {}, header_size=24))
    table = parse_table(dump, TableKind.BOOT, 0x200)
    assert len(table.entries) == 44
    assert "header_size_excludes_entries" in table.flags


def test_table_flags_rendered_in_its_block():
    dump = dump_with(table_bytes(TableKind.RUNTIME, {}, header_size=24))
    lines = render_text(analyze_dump(dump)).splitlines()
    block = lines.index("[runtime services table @ 0x200]")
    assert lines[block + 4] == "  flags: header_size_excludes_entries"


def test_short_header_size_truncates_entries():
    dump = dump_with(table_bytes(TableKind.BOOT, {}, header_size=24 + 8 * 10))
    table = parse_table(dump, TableKind.BOOT, 0x200)
    assert len(table.entries) == 10
    assert "entry_count_truncated_by_header_size" in table.flags


def test_truncated_entry_array_is_error():
    table = table_bytes(TableKind.BOOT, {})
    dump = dump_with(table[:100], at=0x200, span=0x200 + 100)
    with pytest.raises(TableParseError):
        parse_table(dump, TableKind.BOOT, 0x200)


def test_null_pointers_permitted_and_recorded():
    dump = dump_with(table_bytes(TableKind.RUNTIME, {8: 0}))
    table = parse_table(dump, TableKind.RUNTIME, 0x200)
    assert table.pointer_of("SetVariable") == 0
    assert [e.name for e in table.null_entries] == ["SetVariable"]


def test_locate_tables_clean_fixture(forged):
    scenario = forged("clean")
    tables, anomalies = locate_tables(scenario.dump)
    assert [t.kind.value for t in tables] == ["boot", "runtime", "dxe"]
    assert anomalies == []
    got = {t.kind.value: t.table_addr for t in tables}
    want = {k: v.addr for k, v in scenario.truth.tables.items()}
    assert got == want


def test_locate_tables_excludes_decoy(forged):
    scenario = forged("decoy-heavy")
    decoy_addrs = {d.addr for d in scenario.truth.decoys}
    candidates = find_table_candidates(scenario.dump)
    assert any(addr in decoy_addrs for _, addr in candidates)  # scan sees it
    tables, anomalies = locate_tables(scenario.dump)
    assert all(t.table_addr not in decoy_addrs for t in tables)
    rejected = [a for a in anomalies if a.kind == "table_candidate_rejected"]
    assert any(a.addr in decoy_addrs for a in rejected)


def test_locate_tables_multiple_of_one_kind_all_returned_and_flagged():
    table = table_bytes(TableKind.RUNTIME, {})
    buf = bytearray(0x4000)
    buf[0x800:0x800 + len(table)] = table
    buf[0x2000:0x2000 + len(table)] = table
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    tables, anomalies = locate_tables(dump)
    runtime = [t for t in tables if t.kind is TableKind.RUNTIME]
    assert [t.table_addr for t in runtime] == [0x800, 0x2000]
    assert any(a.kind == "duplicate_table" for a in anomalies)


def test_locate_tables_empty_dump():
    dump = MemoryDump.from_regions([(0, bytes(0x1000))])
    tables, anomalies = locate_tables(dump)
    assert tables == []
    assert sorted(a.detail for a in anomalies) == [
        "no valid boot table found",
        "no valid dxe table found",
        "no valid runtime table found",
    ]


# CRC-32 known answers: the standard check value for "123456789" and the
# empty-input init/final cancellation, both confirmed by the independent
# bitwise implementation in helpers.
def test_crc32_known_answers():
    assert crc32_ieee(b"123456789") == 0xCBF43926
    assert crc32_reference(b"123456789") == 0xCBF43926
    assert crc32_ieee(b"") == 0x00000000
    assert crc32_reference(b"") == 0x00000000


def test_table_crc_matches_forge_stored_value(forged):
    scenario = forged("clean")
    dump = scenario.dump
    tables, _ = locate_tables(dump)
    for table in tables:
        assert compute_table_crc32(dump, table) == table.header.crc32
        status = verify_table_integrity(dump, table)
        assert status.crc_ok and status.stored == status.computed


def test_corrupted_crc_detected_but_advisory(forged):
    from uefiforensics.forge import build_scenario, scenario_by_name
    from dataclasses import replace

    spec = replace(scenario_by_name("clean"), crc_policy="corrupted")
    scenario = build_scenario(spec)
    tables, _ = locate_tables(scenario.dump)
    for table in tables:
        assert not verify_table_integrity(scenario.dump, table).crc_ok


def test_crc_involution():
    # Re-storing the computed CRC and re-zeroing the field reproduces it.
    dump = dump_with(table_bytes(TableKind.DXE, {}))
    table = parse_table(dump, TableKind.DXE, 0x200)
    computed = compute_table_crc32(dump, table)
    rebuilt = table_bytes(TableKind.DXE, {}, crc=computed)
    dump2 = dump_with(rebuilt)
    table2 = parse_table(dump2, TableKind.DXE, 0x200)
    assert compute_table_crc32(dump2, table2) == computed
    assert verify_table_integrity(dump2, table2).crc_ok

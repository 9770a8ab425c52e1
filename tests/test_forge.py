import json
import struct
import tracemalloc
from dataclasses import replace

import pytest

from uefiforensics.carver import read_pe_header
from uefiforensics.dump_model import MemoryDump, load_dump
from uefiforensics.forge import (
    COMPACT_GEOMETRY,
    CORE_GUID,
    DEFAULT_GEOMETRY,
    LDRI_CELL_SIZE,
    MOONBOUNCE_PAYLOAD_BASE,
    STYLE_MOV_JMP,
    DecoySpec,
    ForgeError,
    ImageSpec,
    InlineHookSpec,
    PointerHookSpec,
    ScenarioSpec,
    build_minimal_pe,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)
from uefiforensics.image_registry import scan_loaded_images
from uefiforensics.report import analyze_dump
from uefiforensics.service_tables import TableKind, locate_tables


def test_minimal_pe_format():
    pe = bytes(build_minimal_pe(4096))
    assert len(pe) == 4096
    assert pe[0:2] == b"MZ"
    e_lfanew = struct.unpack_from("<I", pe, 0x3C)[0]
    assert pe[e_lfanew:e_lfanew + 4] == b"PE\x00\x00"
    assert struct.unpack_from("<H", pe, e_lfanew + 4)[0] == 0x8664
    assert read_pe_header(MemoryDump.from_regions([(0, pe)]), 0, len(pe))[:2] == (True, 0x8664)


def test_minimal_pe_deterministic():
    a = build_minimal_pe(4096, label="x")
    b = build_minimal_pe(4096, label="x")
    assert bytes(a) == bytes(b)
    assert bytes(a) != bytes(build_minimal_pe(4096, label="y"))


def test_minimal_pe_size_floor():
    with pytest.raises(ForgeError):
        build_minimal_pe(512)


def test_builtin_scenario_inventory():
    specs = builtin_scenarios()
    assert len(specs) == 10
    names = [s.name for s in specs]
    assert names == [
        "clean", "efiguard", "glupteba", "cosmicstrand", "thunderstrike",
        "moonbounce", "crc-recalc", "nested-3", "nested-4", "decoy-heavy",
    ]
    by_name = {s.name: s for s in specs}
    assert len(by_name["cosmicstrand"].pointer_hooks) == 5
    assert by_name["clean"].pointer_hooks == () and by_name["clean"].inline_hooks == ()
    assert by_name["moonbounce"].pointer_hooks == ()
    assert len(by_name["moonbounce"].inline_hooks) == 1
    assert by_name["nested-3"].inline_hooks[0].depth == 3
    assert by_name["nested-4"].inline_hooks[0].depth == 4
    assert len(by_name["decoy-heavy"].decoys) == 2


def test_unknown_scenario_name():
    with pytest.raises(ForgeError):
        scenario_by_name("unknown")


def test_forge_determinism_byte_identical(tmp_path):
    spec = replace(scenario_by_name("efiguard"), geometry=COMPACT_GEOMETRY)
    a = build_scenario(spec, seed=5)
    b = build_scenario(spec, seed=5)
    assert a.dump.read_bytes(0, a.dump.total_span) == b.dump.read_bytes(0, b.dump.total_span)
    assert a.truth == b.truth
    c = build_scenario(spec, seed=6)
    assert a.dump.read_bytes(0, a.dump.total_span) != c.dump.read_bytes(0, c.dump.total_span)


def test_emitted_files_round_trip(tmp_path):
    spec = replace(scenario_by_name("glupteba"), geometry=COMPACT_GEOMETRY)
    scenario = build_scenario(spec, seed=3)
    paths = scenario.write(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "glupteba.dump", "glupteba.map.json", "glupteba.truth.json",
    ]
    dump = load_dump(paths["dump"], paths["map"])
    assert dump.total_span == scenario.dump.total_span
    assert dump.read_bytes(0, dump.total_span) == scenario.dump.read_bytes(
        0, scenario.dump.total_span
    )
    truth_doc = json.loads(paths["truth"].read_text())
    assert truth_doc["scenario"] == "glupteba"
    assert truth_doc["tables"]["boot"]["final_pointers"]["LoadImage"] != (
        truth_doc["tables"]["boot"]["true_pointers"]["LoadImage"]
    )


def test_self_consistency_parse_recovers_truth(forged):
    for name in ("clean", "efiguard", "moonbounce"):
        scenario = forged(name)
        tables, anomalies = locate_tables(scenario.dump)
        assert [t.kind.value for t in tables] == ["boot", "runtime", "dxe"]
        for table in tables:
            truth = scenario.truth.tables[table.kind.value]
            assert table.table_addr == truth.addr
            assert {e.name: e.pointer for e in table.entries} == truth.final_pointers
        image_map = scan_loaded_images(scenario.dump)
        got = {(r.image_base, r.image_size, r.identity.guid, r.identity.file_path)
               for r in image_map.records}
        want = {(i.base, i.size, i.guid, i.path) for i in scenario.truth.images}
        assert got == want


def compact_spec(**kwargs):
    defaults = dict(
        name="t",
        images=(ImageSpec(guid=CORE_GUID, size=0x8000, role="core"),
                ImageSpec(path="\\EFI\\x.efi", size=0x2000)),
        geometry=COMPACT_GEOMETRY,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_lowercase_guid_accepted_and_normalized():
    lower = "b18322e1-a4d7-11ef-be59-000c2987bde4"
    spec = compact_spec(
        images=(ImageSpec(guid=CORE_GUID, size=0x8000, role="core"),
                ImageSpec(guid=lower, size=0x2000)),
        pointer_hooks=(PointerHookSpec(TableKind.BOOT, "LoadImage", lower),),
    )
    scenario = build_scenario(spec)
    image_map = scan_loaded_images(scenario.dump)
    assert image_map.by_guid(lower) is not None
    assert image_map.by_guid(lower).identity.guid == lower.upper()
    assert scenario.truth.pointer_hooks[0].target_key == lower


def test_validation_rejects_missing_core():
    with pytest.raises(ForgeError):
        build_scenario(compact_spec(images=(ImageSpec(path="\\EFI\\x.efi", size=0x2000),)))


def test_validation_rejects_unknown_service():
    spec = compact_spec(pointer_hooks=(PointerHookSpec(TableKind.BOOT, "NoSuch", "\\EFI\\x.efi"),))
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_validation_rejects_unknown_inline_service():
    spec = compact_spec(inline_hooks=(InlineHookSpec(service="NoSuch", payload="\\EFI\\x.efi"),))
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_validation_rejects_core_target():
    spec = compact_spec(
        pointer_hooks=(PointerHookSpec(TableKind.BOOT, "LoadImage", CORE_GUID),)
    )
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_validation_rejects_unknown_target_image():
    spec = compact_spec(
        pointer_hooks=(PointerHookSpec(TableKind.BOOT, "LoadImage", "\\EFI\\other.efi"),)
    )
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_validation_rejects_duplicate_hooks():
    spec = compact_spec(
        pointer_hooks=(
            PointerHookSpec(TableKind.BOOT, "LoadImage", "\\EFI\\x.efi"),
            PointerHookSpec(TableKind.BOOT, "LoadImage", "\\EFI\\x.efi"),
        )
    )
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_validation_rejects_mov_jmp_chain():
    spec = compact_spec(
        inline_hooks=(
            InlineHookSpec(service="CreateEventEx", style=STYLE_MOV_JMP, depth=2,
                           payload="\\EFI\\x.efi"),
        )
    )
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_validation_rejects_bad_decoy():
    with pytest.raises(ForgeError):
        build_scenario(compact_spec(decoys=(DecoySpec("bogus"),)))


def test_validation_rejects_hooked_null_service():
    spec = compact_spec(
        pointer_hooks=(PointerHookSpec(TableKind.BOOT, "LoadImage", "\\EFI\\x.efi"),),
        null_services=((TableKind.BOOT, "LoadImage"),),
    )
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_payload_offset_out_of_image_rejected():
    spec = compact_spec(
        inline_hooks=(
            InlineHookSpec(service="CreateEventEx", payload="\\EFI\\x.efi",
                           payload_offset=0x4000),
        )
    )
    with pytest.raises(ForgeError):
        build_scenario(spec)


def test_negative_cell_offset_rejected():
    hook = InlineHookSpec(service="CreateEventEx", payload="\\EFI\\x.efi", payload_offset=-0x40)
    with pytest.raises(ForgeError, match="does not fit inside image"):
        build_scenario(compact_spec(inline_hooks=(hook,)))


def test_pinned_base_gets_its_own_region(tmp_path):
    # moonbounce pins its payload at 0x3FAD0000, far above the compact
    # geometry: the file carries the low region, the compact cluster and
    # the payload, not the gigabyte of zeros between them.
    spec = replace(scenario_by_name("moonbounce"), geometry=COMPACT_GEOMETRY)
    scenario = build_scenario(spec)
    paths = scenario.write(tmp_path)
    assert paths["dump"].stat().st_size < 2 << 20
    regions = scenario.dump.regions
    assert len(regions) == 3
    assert regions[2].phys_start == MOONBOUNCE_PAYLOAD_BASE

    report = analyze_dump(load_dump(paths["dump"], paths["map"]))
    assert report.pointer_findings == []
    got = {(f.table_kind, f.service_name, f.hook_addr, f.final_target)
           for f in report.inline_findings}
    want = {(h.table, h.service, h.hook_addr, h.payload_addr)
            for h in scenario.truth.inline_hooks}
    assert len(want) == 1 and got == want


def test_forge_holds_each_byte_once():
    # The layout writes into one file-sized buffer and the dump keeps it,
    # so building costs the file once, not once per region copy as well.
    spec = compact_spec(images=(ImageSpec(guid=CORE_GUID, size=0x8000, role="core"),
                                ImageSpec(path="\\EFI\\big.efi", size=32 << 20)))
    tracemalloc.start()
    try:
        dump = build_scenario(spec).dump
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    file_size = sum(r.length for r in dump.regions)
    assert file_size > 32 << 20
    assert peak < 1.5 * file_size

    low, cluster = dump.regions[:2]
    assert low.phys_end < cluster.phys_start  # a gap follows the low region
    assert dump.read_bytes(0x10, 8) == b"LOWMEM\x00\x00"
    assert type(dump.read_bytes(cluster.phys_start, 0x100)) is bytes
    assert type(dump.read_bytes(low.phys_end - 8, 16)) is bytes


@pytest.mark.parametrize("geometry", [DEFAULT_GEOMETRY, COMPACT_GEOMETRY],
                         ids=["default", "compact"])
def test_truth_structures_lie_inside_one_region(geometry):
    for spec in builtin_scenarios():
        scenario = build_scenario(replace(spec, geometry=geometry))
        truth = scenario.truth
        extents = [(i.base, i.size) for i in truth.images]
        extents += [(i.record_addr, LDRI_CELL_SIZE) for i in truth.images]
        extents += [(t.addr, t.header_size) for t in truth.tables.values()]
        for start, size in extents:
            assert any(r.phys_start <= start and start + size <= r.phys_end
                       for r in scenario.dump.regions), (spec.name, hex(start))


def test_crc_policies_affect_only_stored_crc():
    base = compact_spec(
        pointer_hooks=(PointerHookSpec(TableKind.BOOT, "LoadImage", "\\EFI\\x.efi"),)
    )
    dumps = {}
    for policy in ("correct", "stale", "corrupted"):
        scenario = build_scenario(replace(base, crc_policy=policy))
        dumps[policy] = scenario
        truth = scenario.truth.tables["boot"]
        stored = truth.stored_crc
        tables, _ = locate_tables(scenario.dump)
        boot = next(t for t in tables if t.kind is TableKind.BOOT)
        assert boot.header.crc32 == stored
    assert dumps["correct"].truth.tables["boot"].stored_crc != (
        dumps["stale"].truth.tables["boot"].stored_crc
    )
    # Entry arrays are identical across policies.
    for policy in ("stale", "corrupted"):
        assert (
            dumps[policy].truth.tables["boot"].final_pointers
            == dumps["correct"].truth.tables["boot"].final_pointers
        )


def test_master_oracle_loop_all_builtins(forged):
    # Detector output must equal the injected hook sets for every scenario.
    from uefiforensics.report import analyze_dump

    for spec in builtin_scenarios():
        scenario = forged(spec.name)
        report = analyze_dump(scenario.dump)
        got_ptr = {(f.table_kind.value, f.service_name) for f in report.pointer_findings}
        assert got_ptr == scenario.truth.expected_pointer_findings(), spec.name
        want_inline = {
            (h.table.value, h.service, h.hook_addr)
            for h in scenario.truth.expected_inline_findings(max_depth=3)
        }
        got_inline = {
            (f.table_kind.value, f.service_name, f.hook_addr)
            for f in report.inline_findings
        }
        assert got_inline == want_inline, spec.name


def test_truth_json_serializable(forged):
    doc = forged("moonbounce").truth.to_json_dict()
    encoded = json.dumps(doc)
    parsed = json.loads(encoded)
    assert parsed["inline_hooks"][0]["payload_addr"] == "0x3fadba04"
    assert parsed["images"][0]["sha256"]

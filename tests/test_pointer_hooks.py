from dataclasses import replace

import pytest

from uefiforensics.forge import (
    COSMICSTRAND_GUID,
    EFIGUARD_PATH,
    OPROM_GUID,
    ImageSpec,
    ROLE_DRIVER,
    build_scenario,
    scenario_by_name,
)
from uefiforensics.image_registry import scan_loaded_images
from uefiforensics.pointer_hooks import (
    BaselineError,
    detect_pointer_hooks,
    infer_baseline,
)
from uefiforensics.report import AnalysisOptions, analyze_dump
from uefiforensics.service_tables import TableKind, locate_tables

from helpers import NOT_PE, random_guid
from random import Random


def analyze_pointers(scenario, override=None):
    dump = scenario.dump
    tables, _ = locate_tables(dump)
    image_map = scan_loaded_images(dump)
    findings = []
    for table in tables:
        baseline = infer_baseline(table, image_map, override)
        findings.extend(detect_pointer_hooks(table, image_map, baseline))
    return findings


def test_clean_baseline_high_confidence(forged):
    scenario = forged("clean")
    tables, _ = locate_tables(scenario.dump)
    image_map = scan_loaded_images(scenario.dump)
    core_base = scenario.truth.image_by_key(
        next(i.key for i in scenario.truth.images if i.role == "core")
    ).base
    for table in tables:
        baseline = infer_baseline(table, image_map)
        assert baseline.image.image_base == core_base
        assert baseline.confidence == "high"
        assert baseline.source == "majority"


def test_majority_holds_with_hooks_present(forged):
    scenario = forged("glupteba")
    tables, _ = locate_tables(scenario.dump)
    image_map = scan_loaded_images(scenario.dump)
    boot = next(t for t in tables if t.kind is TableKind.BOOT)
    baseline = infer_baseline(boot, image_map)
    assert baseline.confidence == "high"


def test_explicit_override_wins(forged):
    scenario = forged("cosmicstrand")
    tables, _ = locate_tables(scenario.dump)
    image_map = scan_loaded_images(scenario.dump)
    boot = next(t for t in tables if t.kind is TableKind.BOOT)
    baseline = infer_baseline(boot, image_map, override=image_map.by_guid(COSMICSTRAND_GUID))
    assert baseline.source == "override"
    assert baseline.image.identity.guid == COSMICSTRAND_GUID


def test_unknown_override_guid_is_error(forged):
    scenario = forged("clean")
    options = AnalysisOptions(baseline_guid=random_guid(Random(1)))
    with pytest.raises(BaselineError):
        analyze_dump(scenario.dump, options)


def test_plurality_without_majority_is_low_confidence():
    import uefiforensics.service_tables as st
    from uefiforensics.dump_model import MemoryDump
    from uefiforensics.image_registry import ImageIdentity, ImageMap, LoadedImageRecord
    import struct

    # 14 runtime pointers split 7/7 between two images: no strict majority.
    names = TableKind.RUNTIME.services
    pointers = [0x10_0000 + 8 * i if i < 7 else 0x20_0000 + 8 * i for i in range(len(names))]
    raw = st.TABLE_HEADER.pack(b"RUNTSERV", 1, 24 + 8 * len(names), 0, 0)
    raw += b"".join(struct.pack("<Q", p) for p in pointers)
    buf = bytearray(0x1000)
    buf[0x100:0x100 + len(raw)] = raw
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    table = st.parse_table(dump, TableKind.RUNTIME, 0x100)
    image_map = ImageMap([
        LoadedImageRecord(0, 0x10_0000, 0x1000, ImageIdentity(file_path="\\a.efi"), NOT_PE),
        LoadedImageRecord(1, 0x20_0000, 0x1000, ImageIdentity(file_path="\\b.efi"), NOT_PE),
    ])
    baseline = infer_baseline(table, image_map)
    assert baseline.confidence == "low"
    assert baseline.source == "plurality"
    # deterministic tie-break: lowest image base
    assert baseline.image.image_base == 0x10_0000


def test_no_resolvable_pointers_is_error():
    import uefiforensics.service_tables as st
    from uefiforensics.dump_model import MemoryDump
    from uefiforensics.image_registry import ImageMap
    import struct

    names = TableKind.RUNTIME.services
    raw = st.TABLE_HEADER.pack(b"RUNTSERV", 1, 24 + 8 * len(names), 0, 0)
    raw += b"".join(struct.pack("<Q", 0x9000 + i) for i in range(len(names)))
    buf = bytearray(0x2000)
    buf[0x100:0x100 + len(raw)] = raw
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    table = st.parse_table(dump, TableKind.RUNTIME, 0x100)
    with pytest.raises(BaselineError):
        infer_baseline(table, ImageMap([]))


def test_efiguard_findings_with_attribution(forged):
    findings = analyze_pointers(forged("efiguard"))
    got = {(f.table_kind.value, f.service_name) for f in findings}
    assert got == {("boot", "LoadImage"), ("runtime", "SetVariable")}
    for f in findings:
        assert f.severity == "suspicious"
        assert f.target_image is not None
        assert f.target_image.identity.file_path == EFIGUARD_PATH
        assert not f.expected_image.contains(f.pointer)
        assert f.target_image.contains(f.pointer)


def test_cosmicstrand_findings(forged):
    findings = analyze_pointers(forged("cosmicstrand"))
    got = {(f.table_kind.value, f.service_name) for f in findings}
    assert got == {
        ("boot", "AllocatePages"),
        ("boot", "LocateProtocol"),
        ("boot", "CreateEvent"),
        ("runtime", "GetVariable"),
        ("runtime", "SetVariable"),
    }
    assert {f.target_image.identity.guid for f in findings} == {COSMICSTRAND_GUID}


def test_thunderstrike_finding(forged):
    findings = analyze_pointers(forged("thunderstrike"))
    assert [(f.table_kind.value, f.service_name) for f in findings] == [
        ("dxe", "ProcessFirmwareVolume")
    ]
    assert findings[0].target_image.identity.guid == OPROM_GUID


def test_pointer_into_no_image_is_anomalous():
    # Hook target image present but pointer patched to unmapped space:
    # simulate by hooking then rebuilding a table entry against a smaller map.
    scenario = build_scenario(scenario_by_name("glupteba"))
    tables, _ = locate_tables(scenario.dump)
    image_map = scan_loaded_images(scenario.dump)
    boot = next(t for t in tables if t.kind is TableKind.BOOT)
    baseline = infer_baseline(boot, image_map)
    from uefiforensics.image_registry import ImageMap

    stripped = ImageMap([r for r in image_map.records if r.identity.file_path is None])
    findings = detect_pointer_hooks(boot, stripped, baseline)
    assert [f.severity for f in findings] == ["anomalous"]
    assert findings[0].target_image is None


def test_null_pointers_not_findings():
    spec = replace(
        scenario_by_name("clean"),
        null_services=((TableKind.RUNTIME, "UpdateCapsule"),),
    )
    scenario = build_scenario(spec)
    findings = analyze_pointers(scenario)
    assert findings == []
    tables, _ = locate_tables(scenario.dump)
    runtime = next(t for t in tables if t.kind is TableKind.RUNTIME)
    assert [e.name for e in runtime.null_entries] == ["UpdateCapsule"]


def test_zero_false_positives_on_clean(forged):
    assert analyze_pointers(forged("clean")) == []
    assert analyze_pointers(forged("decoy-heavy")) == []


def test_findings_ordered_by_service_index(forged):
    findings = analyze_pointers(forged("cosmicstrand"))
    boot = [f.service_index for f in findings if f.table_kind is TableKind.BOOT]
    assert boot == sorted(boot)


def test_crc_independence(forged):
    def key(findings):
        return [(f.table_kind.value, f.service_name, f.pointer) for f in findings]

    baseline = key(analyze_pointers(forged("cosmicstrand")))
    for policy in ("stale", "corrupted"):
        spec = replace(scenario_by_name("cosmicstrand"), crc_policy=policy)
        assert key(analyze_pointers(build_scenario(spec))) == baseline


def test_monotonicity_unrelated_image_changes_nothing():
    def key(findings):
        return [(f.table_kind.value, f.service_name, f.pointer) for f in findings]

    base_spec = scenario_by_name("efiguard")
    extra = ImageSpec(guid=random_guid(Random(7)), size=0x4000, role=ROLE_DRIVER)
    grown = replace(base_spec, images=base_spec.images + (extra,))
    assert key(analyze_pointers(build_scenario(base_spec))) == key(
        analyze_pointers(build_scenario(grown))
    )

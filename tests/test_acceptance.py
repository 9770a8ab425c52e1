"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines. Fixture dumps are the oracle: the forge records exactly what it
injected, and the detectors must reproduce those sets — nothing more,
nothing less.
"""

import hashlib
import struct
import time
from dataclasses import replace
from random import Random

from uefiforensics.carver import carve_images
from uefiforensics.dump_model import load_dump
from uefiforensics.forge import (
    COMPACT_GEOMETRY,
    CORE_GUID,
    ImageSpec,
    ScenarioSpec,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)
from uefiforensics.image_registry import scan_loaded_images
from uefiforensics.inline_hooks import TransferKind
from uefiforensics.report import AnalysisOptions, analyze_dump
from uefiforensics.service_tables import TableKind, crc32_ieee, parse_table

from helpers import brute_force_owner, random_scenario, sext


def pointer_set(report):
    return {(f.table_kind.value, f.service_name) for f in report.pointer_findings}


def finding_key(report):
    ptr = [(f.table_kind.value, f.service_name, f.pointer) for f in report.pointer_findings]
    inl = [
        (f.table_kind.value, f.service_name, f.hook_addr, f.final_target, f.indeterminate)
        for f in report.inline_findings
    ]
    return ptr, inl


def test_c01_efiguard_glupteba_reproduction(forged):
    efiguard = analyze_dump(forged("efiguard").dump)
    assert pointer_set(efiguard) == {("boot", "LoadImage"), ("runtime", "SetVariable")}
    assert all(
        f.target_image is not None
        and f.target_image.identity.file_path == "\\EFI\\Boot\\EfiGuardDxe.efi"
        for f in efiguard.pointer_findings
    )
    assert efiguard.inline_findings == []

    glupteba = analyze_dump(forged("glupteba").dump)
    assert pointer_set(glupteba) == {("boot", "LoadImage")}
    assert glupteba.pointer_findings[0].target_image.identity.file_path == (
        "\\EFI\\Boot\\EfiGuardDxe.efi"
    )
    assert glupteba.inline_findings == []
    print("ACCEPTANCE 1 PASS: efiguard={LoadImage,SetVariable}, glupteba={LoadImage}, "
          "attributed to \\EFI\\Boot\\EfiGuardDxe.efi, zero inline findings")


def test_c02_cosmicstrand_reproduction(forged):
    report = analyze_dump(forged("cosmicstrand").dump)
    assert pointer_set(report) == {
        ("boot", "AllocatePages"),
        ("boot", "LocateProtocol"),
        ("boot", "CreateEvent"),
        ("runtime", "GetVariable"),
        ("runtime", "SetVariable"),
    }
    assert len(report.pointer_findings) == 5
    assert {
        f.target_image.identity.guid for f in report.pointer_findings
    } == {"B18322E1-A4D7-11EF-BE59-000C2987BDE4"}
    print("ACCEPTANCE 2 PASS: cosmicstrand yields exactly 5 pointer findings "
          "attributed to GUID B18322E1-A4D7-11EF-BE59-000C2987BDE4")


def test_c03_thunderstrike_reproduction(forged):
    report = analyze_dump(forged("thunderstrike").dump)
    assert pointer_set(report) == {("dxe", "ProcessFirmwareVolume")}
    finding = report.pointer_findings[0]
    assert finding.target_image.identity.guid == "0000003C-0000-0000-0000-0000FF310000"
    print("ACCEPTANCE 3 PASS: thunderstrike yields exactly {Dxe:ProcessFirmwareVolume} "
          "attributed to GUID 0000003C-0000-0000-0000-0000FF310000")


def test_c04_moonbounce_reproduction(forged):
    scenario = forged("moonbounce")
    report = analyze_dump(scenario.dump)
    assert report.pointer_findings == []
    assert len(report.inline_findings) == 1
    finding = report.inline_findings[0]
    assert finding.service_name == "CreateEventEx"
    truth = scenario.truth.inline_hooks[0]
    first = finding.chain[0]
    assert first.kind is TransferKind.CALL_RELATIVE
    assert first.target == truth.payload_addr == 0x3FADBA04
    assert all(tr.crc.crc_ok for tr in report.tables)
    print("ACCEPTANCE 4 PASS: moonbounce yields one inline finding on CreateEventEx "
          "(call_relative -> 0x3fadba04), zero pointer findings, crc_ok=true")


def test_c05_false_positive_floor(forged):
    for name in ("clean", "decoy-heavy"):
        report = analyze_dump(forged(name).dump)
        assert report.pointer_findings == [] and report.inline_findings == [], name
    decoy_report = analyze_dump(forged("decoy-heavy").dump)
    decoy_addrs = {d.addr for d in forged("decoy-heavy").truth.decoys}
    anomaly_addrs = {a.addr for a in decoy_report.anomalies}
    assert decoy_addrs <= anomaly_addrs
    assert {a.kind for a in decoy_report.anomalies} == {
        "table_candidate_rejected", "ldri_candidate_rejected",
    }
    print("ACCEPTANCE 5 PASS: clean and decoy-heavy produce zero findings; "
          "decoys surface only as anomalies")


def test_c06_crc_independence(forged):
    recalc = analyze_dump(forged("crc-recalc").dump)
    corrupted_spec = replace(scenario_by_name("crc-recalc"), crc_policy="corrupted")
    corrupted = analyze_dump(build_scenario(corrupted_spec).dump)
    assert finding_key(recalc) == finding_key(corrupted)
    assert all(tr.crc.crc_ok for tr in recalc.tables)
    assert not any(tr.crc.crc_ok for tr in corrupted.tables)
    print("ACCEPTANCE 6 PASS: detection output identical for attacker-recalculated "
          "and corrupted CRC")


def test_c07_nesting_threshold_pair(forged):
    nested3 = analyze_dump(forged("nested-3").dump)
    nested4 = analyze_dump(forged("nested-4").dump)
    assert len(nested3.inline_findings) == 1
    assert len(nested3.inline_findings[0].chain) == 3
    assert nested4.inline_findings == [] and nested4.pointer_findings == []
    print("ACCEPTANCE 7 PASS: nested-3 detected with chain length 3, nested-4 "
          "(escape beyond depth limit) produces no finding")


def test_c08_carving_round_trip(forged, tmp_path):
    for spec in builtin_scenarios():
        scenario = forged(spec.name)
        out_dir = tmp_path / spec.name
        image_map = scan_loaded_images(scenario.dump)
        carved, _ = carve_images(scenario.dump, image_map, out_dir)
        truth_by_base = {i.base: i for i in scenario.truth.images}
        assert len(carved) == len(truth_by_base), spec.name
        for image in carved:
            truth = truth_by_base[image.image_base]
            file_digest = hashlib.sha256((out_dir / image.output_name).read_bytes()).hexdigest()
            assert file_digest == truth.sha256 == image.sha256, (spec.name, image.output_name)
    three = forged("thunderstrike")
    carved, _ = carve_images(
        three.dump, scan_loaded_images(three.dump), tmp_path / "three-source"
    )
    assert len(carved) == 3 and all(c.pe_valid for c in carved)
    print("ACCEPTANCE 8 PASS: carved files byte-identical to planted images in all "
          "10 scenarios; three-source fixture yields exactly 3 valid PEs")


def test_c09_crc32_known_answers():
    assert crc32_ieee(b"123456789") == 0xCBF43926
    assert crc32_ieee(b"") == 0x00000000
    print("ACCEPTANCE 9 PASS: CRC-32('123456789')=0xCBF43926, CRC-32('')=0x00000000")


N_RANDOM_DUMPS = 1000


def test_c10_structural_laws_over_randomized_dumps():
    rng = Random(0xACCE57)
    total_pointer = total_inline = 0
    for index in range(N_RANDOM_DUMPS):
        spec = random_scenario(rng, index)
        scenario = build_scenario(spec, seed=index)
        dump = scenario.dump
        truth = scenario.truth

        # Offset law: entry i is the little-endian u64 at table+24+8i.
        for kind, table_truth in truth.tables.items():
            table = parse_table(dump, TableKind(kind), table_truth.addr)
            for entry in table.entries:
                raw = dump.read_bytes(table_truth.addr + 24 + 8 * entry.index, 8)
                assert struct.unpack("<Q", raw)[0] == entry.pointer
                assert entry.pointer == table_truth.final_pointers[entry.name]

        # Relative-target law: recheck every forged transfer's displacement.
        for hook in truth.inline_hooks:
            for t in hook.chain:
                raw = dump.read_bytes(t.at, t.length)
                assert raw.hex() == t.encoding
                relative = t.kind in (TransferKind.CALL_RELATIVE, TransferKind.JMP_RELATIVE)
                if relative and t.target is not None:
                    disp = sext(struct.unpack("<i", raw[1:5])[0], 32)
                    assert (t.at + t.length + disp) & ((1 << 64) - 1) == t.target

        # resolve_owner agrees with a brute-force linear scan.
        image_map = scan_loaded_images(dump)
        probes = [0, dump.total_span - 1]
        for rec in image_map.records:
            probes += [rec.image_base - 1, rec.image_base, rec.image_end - 1, rec.image_end]
        probes += [rng.randrange(dump.total_span) for _ in range(8)]
        for addr in probes:
            if 0 <= addr < dump.total_span:
                assert image_map.resolve_owner(addr) == brute_force_owner(image_map.records, addr)

        # Oracle completeness: detector output equals the injected sets.
        report = analyze_dump(dump)
        assert pointer_set(report) == truth.expected_pointer_findings(), spec.name
        expected_inline = {
            (h.table.value, h.service, h.hook_addr) for h in truth.expected_inline_findings(3)
        }
        got_inline = {
            (f.table_kind.value, f.service_name, f.hook_addr) for f in report.inline_findings
        }
        assert got_inline == expected_inline, spec.name
        total_pointer += len(report.pointer_findings)
        total_inline += len(report.inline_findings)
    print(f"ACCEPTANCE 10 PASS: offset, relative-target, and ownership laws held over "
          f"{N_RANDOM_DUMPS} randomized dumps ({total_pointer} pointer / "
          f"{total_inline} inline findings reproduced)")


def test_c11_performance_envelope(tmp_path):
    spec = ScenarioSpec(
        name="big",
        images=(
            ImageSpec(guid=CORE_GUID, size=0x8000, role="core"),
            ImageSpec(path="\\EFI\\big\\blob1.efi", size=0x800_0000),
            ImageSpec(path="\\EFI\\big\\blob2.efi", size=0x800_0000),
        ),
        geometry=COMPACT_GEOMETRY,
    )
    scenario = build_scenario(spec)
    paths = scenario.write(tmp_path)
    dump_size = paths["dump"].stat().st_size
    assert dump_size >= 256 * 1024 * 1024

    start = time.perf_counter()
    dump = load_dump(paths["dump"], paths["map"])
    report = analyze_dump(dump, AnalysisOptions(carve_dir=str(tmp_path / "carved")))
    elapsed = time.perf_counter() - start
    assert report.pointer_findings == [] and report.inline_findings == []
    assert len(report.carved) == 3
    assert elapsed < 10.0, f"analyze took {elapsed:.2f}s"
    print(f"ACCEPTANCE 11 PASS: {dump_size / 2**20:.0f} MiB dump analyzed + carved "
          f"in {elapsed:.2f}s (< 10s)")

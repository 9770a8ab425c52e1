"""Attacker-shaped forged dumps: byte flips and misaligned structures.

A bootkit author shapes the memory the tool reads, so every structure the
parsers trust is fair game, at any byte offset. Flips land mostly where parsing decisions are
made (table headers and entries, ``ldri`` records, service prologues, the
hops of each inline hook's transfer chain, all located through the truth
manifest) and otherwise anywhere in the span.
"""

import struct
from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from uefiforensics.dump_model import MemoryDump
from uefiforensics.forge import (
    BOOTMGFW_PATH,
    COMPACT_GEOMETRY,
    EFIGUARD_PATH,
    build_scenario,
    scenario_by_name,
)
from uefiforensics.image_registry import LDRI_RECORD, LDRI_RECORD_LEN
from uefiforensics.pointer_hooks import SEVERITY_SUSPICIOUS
from uefiforensics.report import analyze_dump, render_text, to_json_dict
from uefiforensics.service_tables import ENTRY_LEN, HEADER_LEN, TableKind

SCENARIOS = ("clean", "efiguard", "nested-3", "decoy-heavy")
PROLOGUE_BYTES = 32


@lru_cache(maxsize=None)
def compact(name):
    return build_scenario(replace(scenario_by_name(name), geometry=COMPACT_GEOMETRY))


@lru_cache(maxsize=None)
def forged_compact(name):
    """(region list, (start, length) ranges to favour) for a compact build."""
    scenario = compact(name)
    truth = scenario.truth
    hot = [(t.addr, t.header_size) for t in truth.tables.values()]
    hot += [(image.record_addr, LDRI_RECORD_LEN) for image in truth.images]
    hot += [
        (addr, PROLOGUE_BYTES)
        for t in truth.tables.values() for addr in t.true_pointers.values() if addr
    ]
    hot += [(t.at, 5) for hook in truth.inline_hooks for t in hook.chain]
    regions = [
        (r.phys_start, scenario.dump.read_bytes(r.phys_start, r.length))
        for r in scenario.dump.regions
    ]
    return regions, tuple(hot)


flips_strategy = st.lists(
    st.tuples(
        st.booleans(),  # inside a favoured range, or anywhere in the span
        st.integers(0, 1 << 16),  # which favoured range, modulo their count
        st.integers(0, 1 << 32),  # offset, modulo the range length or the span
        st.integers(1, 255),  # xor mask
    ),
    min_size=1,
    max_size=16,
)


def flipped(name, flips) -> MemoryDump:
    regions, hot = forged_compact(name)
    span = max(start + len(buf) for start, buf in regions)
    bufs = [(start, bytearray(buf)) for start, buf in regions]
    for favoured, pick, offset, mask in flips:
        if favoured:
            start, length = hot[pick % len(hot)]
            addr = start + offset % length
        else:
            addr = offset % span
        for start, buf in bufs:
            if start <= addr < start + len(buf):
                buf[addr - start] ^= mask
    return MemoryDump.from_regions([(start, bytes(buf)) for start, buf in bufs])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SCENARIOS), flips_strategy)
def test_flipped_dump_never_raises(name, flips):
    report = analyze_dump(flipped(name, flips))
    to_json_dict(report)
    render_text(report)
    assert report.exit_code in (0, 2)


def patched(name, writes) -> MemoryDump:
    """The compact build of ``name`` with each (addr, bytes) written over it."""
    regions, _ = forged_compact(name)
    bufs = [(start, bytearray(buf)) for start, buf in regions]
    for addr, data in writes:
        start, buf = next((s, b) for s, b in bufs if s <= addr < s + len(b))
        buf[addr - start:addr - start + len(data)] = data
    return MemoryDump.from_regions([(start, bytes(buf)) for start, buf in bufs])


def test_misaligned_hooked_table_copy_found():
    # A copy of the boot table at 4 mod 8, LoadImage pointing into bootmgfw.efi.
    truth = compact("clean").truth
    boot = truth.tables["boot"]
    table = bytearray(compact("clean").dump.read_bytes(boot.addr, boot.header_size))
    slot = HEADER_LEN + ENTRY_LEN * TableKind.BOOT.services.index("LoadImage")
    struct.pack_into("<Q", table, slot, truth.image_by_key(BOOTMGFW_PATH).base + 0x400)
    report = analyze_dump(patched("clean", [(boot.addr + 0x804, table)]))
    assert report.exit_code == 2
    assert [(f.table_kind, f.service_name) for f in report.pointer_findings] == [
        (TableKind.BOOT, "LoadImage")]
    assert "duplicate_table" in [a.kind for a in report.anomalies]


def test_misaligned_image_record_found():
    # EfiGuardDxe's ldri record moved to 2 mod 4, the original zeroed.
    truth = compact("efiguard").truth
    addr = truth.image_by_key(EFIGUARD_PATH).record_addr
    record = compact("efiguard").dump.read_bytes(addr, LDRI_RECORD_LEN)
    report = analyze_dump(patched(
        "efiguard", [(addr, bytes(LDRI_RECORD_LEN)), (addr + 0x402, record)]))
    assert len(report.image_map) == 3
    assert len(report.pointer_findings) == 2
    for finding in report.pointer_findings:
        assert finding.severity == SEVERITY_SUSPICIOUS
        assert finding.target_image.identity.file_path == EFIGUARD_PATH


def test_dump_path_cannot_rewrite_text_report(text_from_document):
    # EfiGuardDxe's path erases the terminal line and prints a fake verdict.
    addr = compact("efiguard").truth.image_by_key(EFIGUARD_PATH).record_addr
    record = compact("efiguard").dump.read_bytes(addr, LDRI_RECORD_LEN)
    path_ptr = LDRI_RECORD.unpack(record)[4]
    path = "x\x1b[2K\rverdict: clean\n".encode("utf-16-le") + b"\x00\x00"
    report = analyze_dump(patched("efiguard", [(path_ptr, path)]))
    text = render_text(report)
    assert report.exit_code == 2
    assert [line for line in text.splitlines() if line.startswith("verdict:")] == [
        "verdict: findings"]
    assert "\x1b" not in text
    assert text_from_document(report) == text

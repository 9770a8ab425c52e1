"""Bytes the analysis did not read cannot change its report.

Every decision reads the dump through ``MemoryDump.read_bytes`` (``read_u64``
calls it); only the bulk passes (the signature scan's window loop, the hash
and the carve) use the file view or ``iter_range``. Every scanned signature
is non-empty and holds no zero byte, so zeroing bytes can remove a signature
hit but never create one. Zeroing every byte outside the recorded reads must
then leave the report as it was, apart from the content hash and ``meta``.
"""

from dataclasses import replace

import pytest

from uefiforensics.dump_model import MemoryDump
from uefiforensics.forge import COMPACT_GEOMETRY, build_scenario, builtin_scenarios
from uefiforensics.report import analyze_dump, to_json_dict


def record_reads(monkeypatch) -> list[tuple[int, int]]:
    """(addr, length) of every ``read_bytes`` call, in call order."""
    reads = []
    read_bytes = MemoryDump.read_bytes

    def recording(self, addr, length):
        reads.append((addr, length))
        return read_bytes(self, addr, length)

    monkeypatch.setattr(MemoryDump, "read_bytes", recording)
    return reads


def zeroed_outside(dump: MemoryDump, reads) -> MemoryDump:
    """A copy of ``dump``, same regions and name, with every byte no read covered zeroed."""
    pieces = []
    for region in dump.regions:
        buf = bytearray(region.length)
        for addr, length in reads:
            lo, hi = max(addr, region.phys_start), min(addr + length, region.phys_end)
            if lo < hi:
                buf[lo - region.phys_start:hi - region.phys_start] = dump.read_bytes(lo, hi - lo)
        pieces.append((region.phys_start, bytes(buf)))
    zeroed = MemoryDump.from_regions(pieces)
    zeroed.source_path = dump.source_path
    return zeroed


def comparable(doc: dict) -> dict:
    doc.pop("meta")
    doc["dump"].pop("sha256")
    return doc


@pytest.mark.parametrize("spec", builtin_scenarios(), ids=lambda spec: spec.name)
def test_bytes_not_read_cannot_change_the_report(monkeypatch, spec):
    dump = build_scenario(replace(spec, geometry=COMPACT_GEOMETRY)).dump
    reads = record_reads(monkeypatch)
    doc = to_json_dict(analyze_dump(dump))
    monkeypatch.undo()
    zeroed = to_json_dict(analyze_dump(zeroed_outside(dump, reads)))
    assert zeroed["dump"]["sha256"] != doc["dump"]["sha256"]  # something was zeroed
    assert comparable(zeroed) == comparable(doc)

"""Loaded-image registry built from in-memory `ldri` bookkeeping records.

Every image the firmware loader places in memory leaves a record marked by
the 4-byte `ldri` signature carrying the image base, size, and identity
(GUID and/or source file path). The registry validates candidates, rejects
decoys, and answers "which image owns this address" for the detectors and
the carver.

Record layout (40 bytes, little-endian), shared with the fixture forge and
isolated here so an alternative firmware profile can be swapped in:

    +0x00  signature  'ldri'
    +0x04  reserved   (4 bytes)
    +0x08  image_base (u64)
    +0x10  image_size (u64)
    +0x18  guid_ptr   (u64, 0 = absent; points at a 16-byte EFI GUID)
    +0x20  path_ptr   (u64, 0 = absent; points at UTF-16LE NUL-terminated text)
"""

from __future__ import annotations

import logging
import struct
import uuid
from bisect import bisect_right
from dataclasses import dataclass

from .dump_model import Anomaly, MemoryDump, OutOfBoundsRead, PhysAddr

logger = logging.getLogger(__name__)

LDRI_SIGNATURE = b"ldri"
LDRI_RECORD = struct.Struct("<4s4xQQQQ")
LDRI_RECORD_LEN = LDRI_RECORD.size  # 40
GUID_LEN = 16
MAX_PATH_CHARS = 255
PE_MAGIC = b"MZ"


@dataclass(frozen=True)
class ImageIdentity:
    """GUID and/or device-path identity; at least one is present."""

    guid: str | None = None
    file_path: str | None = None

    @property
    def label(self) -> str:
        return self.file_path or self.guid or "<unidentified>"


@dataclass(frozen=True)
class LoadedImageRecord:
    record_addr: PhysAddr
    image_base: PhysAddr
    image_size: int
    identity: ImageIdentity

    @property
    def image_end(self) -> PhysAddr:
        return self.image_base + self.image_size

    def contains(self, addr: PhysAddr) -> bool:
        return self.image_base <= addr < self.image_end


def format_guid(raw: bytes) -> str:
    """EFI in-memory GUID bytes to uppercase 8-4-4-4-12 text."""
    return str(uuid.UUID(bytes_le=raw)).upper()


class ImageMap:
    """Loaded images indexed by address range; immutable after build."""

    def __init__(self, records, anomalies=()):
        self.records: tuple[LoadedImageRecord, ...] = tuple(
            sorted(records, key=lambda r: (r.image_base, r.record_addr))
        )
        self._bases = [r.image_base for r in self.records]
        self._has_overlap = False
        anomalies = list(anomalies)
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.image_base < prev.image_end:
                self._has_overlap = True
                anomalies.append(
                    Anomaly(
                        "image_overlap",
                        cur.image_base,
                        f"{cur.identity.label} overlaps {prev.identity.label}",
                    )
                )
        self.anomalies: tuple[Anomaly, ...] = tuple(anomalies)

    def __len__(self) -> int:
        return len(self.records)

    def owners(self, addr: PhysAddr) -> list[LoadedImageRecord]:
        """All records whose [base, base+size) contains addr, by base."""
        i = bisect_right(self._bases, addr) - 1
        if not self._has_overlap:
            # Disjoint ranges: only the record straddling the insertion
            # point can contain addr.
            if i >= 0 and self.records[i].contains(addr):
                return [self.records[i]]
            return []
        out = []
        while i >= 0:
            if self.records[i].contains(addr):
                out.append(self.records[i])
            i -= 1
        out.reverse()
        return out

    def resolve_owner(self, addr: PhysAddr) -> LoadedImageRecord | None:
        """The owning record (lowest base when ranges overlap), or None."""
        owners = self.owners(addr)
        return owners[0] if owners else None

    def by_guid(self, guid: str) -> LoadedImageRecord | None:
        wanted = guid.upper()
        for rec in self.records:
            if rec.identity.guid == wanted:
                return rec
        return None


def _decode_path(dump: MemoryDump, ptr: PhysAddr) -> str:
    limit = min(2 * (MAX_PATH_CHARS + 1), dump.total_span - ptr)
    if limit < 2:
        raise ValueError("path pointer at end of span")
    raw = dump.read_bytes(ptr, limit)
    for i in range(0, len(raw) - 1, 2):
        if raw[i] == 0 and raw[i + 1] == 0:
            return raw[:i].decode("utf-16-le")
    raise ValueError("unterminated path string")


def _parse_record(dump: MemoryDump, addr: PhysAddr) -> LoadedImageRecord:
    raw = dump.read_bytes(addr, LDRI_RECORD_LEN)
    _, image_base, image_size, guid_ptr, path_ptr = LDRI_RECORD.unpack(raw)

    if image_size == 0:
        raise ValueError("image_size is zero")
    if image_base + image_size > dump.total_span:
        raise ValueError(
            f"image range [{image_base:#x}, {image_base + image_size:#x}) exceeds dump span"
        )
    if dump.read_bytes(image_base, 2) != PE_MAGIC:
        raise ValueError(f"no MZ magic at image base {image_base:#x}")

    guid = None
    if guid_ptr:
        if not dump.in_span(guid_ptr, GUID_LEN):
            raise ValueError(f"GUID pointer {guid_ptr:#x} outside span")
        guid = format_guid(dump.read_bytes(guid_ptr, GUID_LEN))
    file_path = None
    if path_ptr:
        if not dump.in_span(path_ptr, 2):
            raise ValueError(f"path pointer {path_ptr:#x} outside span")
        file_path = _decode_path(dump, path_ptr)
    if guid is None and file_path is None:
        raise ValueError("record carries neither GUID nor file path")

    return LoadedImageRecord(addr, image_base, image_size, ImageIdentity(guid, file_path))


def scan_loaded_images(dump: MemoryDump, alignment: int | None = None) -> ImageMap:
    """Scan for `ldri` records and build the validated image map.

    Candidates failing validation (size bounds, MZ magic, identity
    dereference) become anomalies, never exceptions: stray `ldri` bytes in
    file data are expected noise in real dumps.
    """
    records = []
    anomalies = []
    for addr in dump.find_signature(LDRI_SIGNATURE, alignment):
        try:
            records.append(_parse_record(dump, addr))
        except (ValueError, OutOfBoundsRead) as exc:
            anomalies.append(Anomaly("ldri_candidate_rejected", addr, str(exc)))
    logger.debug("image scan: %d record(s), %d anomaly(ies)", len(records), len(anomalies))
    return ImageMap(records, anomalies)

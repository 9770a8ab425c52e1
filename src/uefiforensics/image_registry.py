"""Loaded-image registry built from in-memory `ldri` bookkeeping records.

Every image the firmware loader places in memory leaves a record marked by
the 4-byte `ldri` signature carrying the image base, size, and identity
(GUID and/or source file path). The registry validates candidates, rejects
decoys, reads each accepted image's PE header, and answers "which image
owns this address" for the detectors and the carver.

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
from itertools import accumulate

from .dump_model import Anomaly, MemoryDump, OutOfBoundsRead, PhysAddr

logger = logging.getLogger(__name__)

LDRI_SIGNATURE = b"ldri"
LDRI_RECORD = struct.Struct("<4s4xQQQQ")
LDRI_RECORD_LEN = LDRI_RECORD.size  # 40
GUID_LEN = 16
MAX_PATH_CHARS = 255
PE_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
# SizeOfImage: offset 56 of the optional header, which follows the 4-byte PE
# signature and the 20-byte COFF header (same place in PE32 and PE32+).
SIZE_OF_IMAGE_OFFSET = 4 + 20 + 56


@dataclass(frozen=True)
class ImageIdentity:
    """GUID and/or device-path identity; at least one is present."""

    guid: str | None = None
    file_path: str | None = None

    @property
    def label(self) -> str:
        """Display name; non-printable characters from the dump are escaped."""
        name = self.file_path or self.guid or "<unidentified>"
        return "".join(c if c.isprintable() else ascii(c)[1:-1] for c in name)


@dataclass(frozen=True)
class LoadedImageRecord:
    record_addr: PhysAddr
    image_base: PhysAddr
    image_size: int
    identity: ImageIdentity
    pe_header: tuple[bool, int, int | None]  # read_pe_header of the image

    @property
    def image_end(self) -> PhysAddr:
        return self.image_base + self.image_size

    def contains(self, addr: PhysAddr) -> bool:
        return self.image_base <= addr < self.image_end


def format_guid(raw: bytes) -> str:
    """EFI in-memory GUID bytes to uppercase 8-4-4-4-12 text."""
    return str(uuid.UUID(bytes_le=raw)).upper()


def normalize_guid(text: str) -> str:
    """Any GUID text ``uuid.UUID`` reads as uppercase 8-4-4-4-12 text, else ``ValueError``."""
    return str(uuid.UUID(text)).upper()


class ImageMap:
    """Loaded images indexed by address range; immutable after build.

    ``records`` are in (image_base, record_addr) order, as reported and carved.
    """

    def __init__(self, records, anomalies=()):
        self.records: tuple[LoadedImageRecord, ...] = tuple(
            sorted(records, key=lambda r: (r.image_base, r.record_addr))
        )
        self._bases = [r.image_base for r in self.records]
        # Running maximum of image_end: non-decreasing, so bisectable.
        self._max_ends = list(accumulate((r.image_end for r in self.records), max))
        anomalies = list(anomalies)
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.image_base < prev.image_end:
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

    def resolve_owner(self, addr: PhysAddr) -> LoadedImageRecord | None:
        """The owning record (lowest base when ranges overlap), or None."""
        # Record j is the first to end past addr: it owns addr if any record does.
        j = bisect_right(self._max_ends, addr)
        return self.records[j] if j < bisect_right(self._bases, addr) else None

    def by_guid(self, guid: str) -> LoadedImageRecord | None:
        """The record with GUID ``guid``, in any form ``normalize_guid`` reads, or None."""
        wanted = normalize_guid(guid)
        for rec in self.records:
            if rec.identity.guid == wanted:
                return rec
        return None


def read_pe_header(dump: MemoryDump, base: PhysAddr, size: int) -> tuple[bool, int, int | None]:
    """An image's (valid, machine, SizeOfImage): its DOS and PE headers, read up to ``size``.

    Invalid: under 0x40 bytes, no ``MZ``, or ``e_lfanew + 6`` past the image
    or no ``PE\\0\\0`` there. ``SizeOfImage`` is None when it lies past the image.
    """
    if size < 0x40:
        return False, 0, None
    dos = dump.read_bytes(base, 0x40)
    e_lfanew = int.from_bytes(dos[0x3C:0x40], "little")
    if dos[:2] != PE_MAGIC or e_lfanew + 6 > size:
        return False, 0, None
    pe = dump.read_bytes(base + e_lfanew, min(SIZE_OF_IMAGE_OFFSET + 4, size - e_lfanew))
    if pe[:4] != PE_SIGNATURE:
        return False, 0, None
    field = pe[SIZE_OF_IMAGE_OFFSET:]
    size_of_image = int.from_bytes(field, "little") if len(field) == 4 else None
    return True, int.from_bytes(pe[4:6], "little"), size_of_image


def _decode_path(dump: MemoryDump, ptr: PhysAddr) -> str:
    """The NUL-terminated UTF-16LE path at ``ptr``; its first 2 bytes lie in the span."""
    raw = dump.read_bytes(ptr, min(2 * (MAX_PATH_CHARS + 1), dump.total_span - ptr))
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

    return LoadedImageRecord(
        addr, image_base, image_size, ImageIdentity(guid, file_path),
        read_pe_header(dump, image_base, image_size),
    )


def scan_loaded_images(dump: MemoryDump) -> ImageMap:
    """Scan for `ldri` records and build the validated image map.

    Candidates failing validation (size bounds, MZ magic, identity
    dereference) become anomalies, never exceptions: stray `ldri` bytes in
    file data are expected noise in real dumps.
    """
    records = []
    anomalies = []
    for addr in dump.find_signature(LDRI_SIGNATURE):
        try:
            records.append(_parse_record(dump, addr))
        except (ValueError, OutOfBoundsRead) as exc:
            anomalies.append(Anomaly("ldri_candidate_rejected", addr, str(exc)))
    logger.debug("image scan: %d record(s), %d anomaly(ies)", len(records), len(anomalies))
    return ImageMap(records, anomalies)

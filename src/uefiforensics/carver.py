"""Extraction of loaded PE/COFF images from a dump to standalone files.

Carving is driven exclusively by the validated loaded-image records: an
orphan MZ blob with no record is never carved. Each image is written
exactly as it lies in memory (image_size bytes from image_base); no
attempt is made to reconstruct the on-disk file layout. Images stream from
the dump in region slices and bounded zero runs, hashed as they are
written, so memory stays bounded whatever size a record claims.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .dump_model import Anomaly, MemoryDump, OutOfBoundsRead, PhysAddr
from .image_registry import ImageIdentity, ImageMap

logger = logging.getLogger(__name__)

MANIFEST_NAME = "carve_manifest.json"
PE_SIGNATURE = b"PE\x00\x00"
# SizeOfImage: offset 56 of the optional header, which follows the 4-byte PE
# signature and the 20-byte COFF header (same place in PE32 and PE32+).
SIZE_OF_IMAGE_OFFSET = 4 + 20 + 56
_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


@dataclass(frozen=True)
class CarvedImage:
    identity: ImageIdentity
    image_base: PhysAddr
    image_size: int
    output_name: str
    pe_valid: bool
    machine: int
    sha256: str


class _ImageBytes:
    """An image's bytes in a dump, read on demand by slice.

    ``validate_pe`` and ``_size_of_image`` take one in place of ``bytes``, so
    checking a header reads the header, not the whole image.
    """

    def __init__(self, dump: MemoryDump, base: PhysAddr, size: int):
        self._dump, self._base, self._size = dump, base, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key: slice) -> bytes:
        start, stop, _ = key.indices(self._size)
        return self._dump.read_bytes(self._base + start, stop - start) if stop > start else b""


def _e_lfanew(data) -> int | None:
    """Offset of the PE header named by an MZ DOS header, or None."""
    if len(data) < 0x40:
        return None
    dos = data[:0x40]
    return int.from_bytes(dos[0x3C:0x40], "little") if dos[:2] == b"MZ" else None


def validate_pe(data) -> tuple[bool, int]:
    """Check MZ magic and the PE signature chain; return (valid, machine).

    ``data`` is the image as ``bytes`` or as anything with ``len`` and
    slicing (the carver reads the dump on demand); only the DOS header and
    the six bytes at ``e_lfanew`` are read.
    """
    e_lfanew = _e_lfanew(data)
    if e_lfanew is None or e_lfanew + 6 > len(data):
        return False, 0
    pe = data[e_lfanew:e_lfanew + 6]
    if pe[:4] != PE_SIGNATURE:
        return False, 0
    return True, int.from_bytes(pe[4:6], "little")


def _size_of_image(data) -> int | None:
    """The optional header's ``SizeOfImage``, or None when it lies past the image."""
    e_lfanew = _e_lfanew(data)
    if e_lfanew is None or e_lfanew + SIZE_OF_IMAGE_OFFSET + 4 > len(data):
        return None
    field = e_lfanew + SIZE_OF_IMAGE_OFFSET
    return int.from_bytes(data[field:field + 4], "little")


def _sanitize_name(identity: ImageIdentity) -> str:
    if identity.file_path:
        base = identity.file_path.replace("\\", "/").rstrip("/").rsplit("/", 1)[-1]
    else:
        base = identity.guid or "image"
    base = _UNSAFE_CHARS.sub("_", base) or "image"
    if not base.lower().endswith(".efi"):
        base += ".efi"
    return base


def _unique_name(base: str, used: set[str]) -> str:
    if base not in used:
        used.add(base)
        return base
    stem, dot, ext = base.rpartition(".")
    n = 1
    while True:
        candidate = f"{stem}_{n}{dot}{ext}" if dot else f"{base}_{n}"
        if candidate not in used:
            used.add(candidate)
            return candidate
        n += 1


def carve_images(
    dump: MemoryDump, image_map: ImageMap, out_dir
) -> tuple[list[CarvedImage], list[Anomaly]]:
    """Write every recorded image to ``out_dir`` plus a JSON manifest.

    Files are named from the sanitized file path basename (or the GUID),
    with numeric suffixes on collision; ordering and naming are
    deterministic for a given dump. Records whose range falls outside the
    dump span are skipped with an anomaly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    carved: list[CarvedImage] = []
    anomalies: list[Anomaly] = []
    used_names: set[str] = set()
    for record in sorted(image_map.records, key=lambda r: (r.image_base, r.record_addr)):
        try:
            chunks = dump.iter_range(record.image_base, record.image_size)
        except OutOfBoundsRead as exc:
            anomalies.append(Anomaly("carve_skipped", record.image_base, str(exc)))
            continue
        image = _ImageBytes(dump, record.image_base, record.image_size)
        pe_valid, machine = validate_pe(image)
        if not pe_valid:
            anomalies.append(
                Anomaly(
                    "carved_image_invalid_pe",
                    record.image_base,
                    f"{record.identity.label}: bytes at image base fail PE validation",
                )
            )
        else:
            pe_size = _size_of_image(image)
            if pe_size is not None and pe_size != record.image_size:
                anomalies.append(
                    Anomaly(
                        "carved_image_size_mismatch",
                        record.image_base,
                        f"{record.identity.label}: ldri image_size {record.image_size:#x} "
                        f"!= PE SizeOfImage {pe_size:#x}",
                    )
                )
        name = _unique_name(_sanitize_name(record.identity), used_names)
        digest = hashlib.sha256()
        with open(out_dir / name, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        carved.append(
            CarvedImage(
                identity=record.identity,
                image_base=record.image_base,
                image_size=record.image_size,
                output_name=name,
                pe_valid=pe_valid,
                machine=machine,
                sha256=digest.hexdigest(),
            )
        )
    _write_manifest(out_dir / MANIFEST_NAME, carved)
    logger.info("carved %d image(s) into %s", len(carved), out_dir)
    return carved, anomalies


def manifest_entry(image: CarvedImage) -> dict:
    return {
        "guid": image.identity.guid,
        "file_path": image.identity.file_path,
        "image_base": f"0x{image.image_base:x}",
        "image_size": image.image_size,
        "pe_valid": image.pe_valid,
        "machine": f"0x{image.machine:x}",
        "sha256": image.sha256,
        "file": image.output_name,
    }


def _write_manifest(path: Path, carved: list[CarvedImage]) -> None:
    manifest = {"schema": 1, "images": [manifest_entry(c) for c in carved]}
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

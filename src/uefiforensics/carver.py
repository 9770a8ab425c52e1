"""Extraction of loaded PE/COFF images from a dump to standalone files.

Carving is driven exclusively by the validated loaded-image records: an
orphan MZ blob with no record is never carved. Each image is written
exactly as it lies in memory (image_size bytes from image_base); no
attempt is made to reconstruct the on-disk file layout. Images stream from
the dump in region slices and bounded zero runs, hashed as they are
written, so memory stays bounded whatever size a record claims. Gap bytes
are seeked over, not written, so the file is sparse and disk use is bounded
by the mapped bytes the record covers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from concurrent.futures import ThreadPoolExecutor
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
# Sanitized names are ASCII, so stem + "_<n>" + ".efi" stays under the
# 255-byte file-name limit.
MAX_STEM_CHARS = 200


@dataclass(frozen=True)
class CarvedImage:
    identity: ImageIdentity
    image_base: PhysAddr
    image_size: int
    output_name: str
    pe_valid: bool
    machine: int
    sha256: str


def read_pe_header(dump: MemoryDump, base: PhysAddr, size: int) -> tuple[bool, int, int | None]:
    """An image's (valid, machine, SizeOfImage): its DOS and PE headers, read up to ``size``.

    Invalid: under 0x40 bytes, no ``MZ``, or ``e_lfanew + 6`` past the image
    or no ``PE\\0\\0`` there. ``SizeOfImage`` is None when it lies past the image.
    """
    if size < 0x40:
        return False, 0, None
    dos = dump.read_bytes(base, 0x40)
    e_lfanew = int.from_bytes(dos[0x3C:0x40], "little")
    if dos[:2] != b"MZ" or e_lfanew + 6 > size:
        return False, 0, None
    pe = dump.read_bytes(base + e_lfanew, min(SIZE_OF_IMAGE_OFFSET + 4, size - e_lfanew))
    if pe[:4] != PE_SIGNATURE:
        return False, 0, None
    field = pe[SIZE_OF_IMAGE_OFFSET:]
    size_of_image = int.from_bytes(field, "little") if len(field) == 4 else None
    return True, int.from_bytes(pe[4:6], "little"), size_of_image


def _sanitize_name(identity: ImageIdentity) -> str:
    if identity.file_path:
        base = identity.file_path.replace("\\", "/").rstrip("/").rsplit("/", 1)[-1]
    else:
        base = identity.guid or "image"
    base = _UNSAFE_CHARS.sub("_", base) or "image"
    stem, ext = (base[:-4], base[-4:]) if base.lower().endswith(".efi") else (base, ".efi")
    return stem[:MAX_STEM_CHARS] + ext


def _unique_name(base: str, used: set[str]) -> str:
    if base not in used:
        used.add(base)
        return base
    stem, _, ext = base.rpartition(".")  # _sanitize_name always gives an extension
    n = 1
    while True:
        candidate = f"{stem}_{n}.{ext}"
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
    with ThreadPoolExecutor(max_workers=1) as hasher:
        for record in image_map.records:
            try:
                chunks = dump.iter_range(record.image_base, record.image_size)
            except OutOfBoundsRead as exc:
                anomalies.append(Anomaly("carve_skipped", record.image_base, str(exc)))
                continue
            pe_valid, machine, pe_size = read_pe_header(dump, record.image_base, record.image_size)
            if not pe_valid:
                anomalies.append(
                    Anomaly(
                        "carved_image_invalid_pe",
                        record.image_base,
                        f"{record.identity.label}: bytes at image base fail PE validation",
                    )
                )
            elif pe_size is not None and pe_size != record.image_size:
                anomalies.append(
                    Anomaly(
                        "carved_image_size_mismatch",
                        record.image_base,
                        f"{record.identity.label}: ldri image_size {record.image_size:#x} "
                        f"!= PE SizeOfImage {pe_size:#x}",
                    )
                )
            name = _unique_name(_sanitize_name(record.identity), used_names)
            carved.append(
                CarvedImage(
                    identity=record.identity,
                    image_base=record.image_base,
                    image_size=record.image_size,
                    output_name=name,
                    pe_valid=pe_valid,
                    machine=machine,
                    sha256=_write_hashed(out_dir / name, chunks, hasher),
                )
            )
    _write_manifest(out_dir / MANIFEST_NAME, carved)
    logger.info("carved %d image(s) into %s", len(carved), out_dir)
    return carved, anomalies


def _write_hashed(path: Path, chunks, hasher: ThreadPoolExecutor) -> str:
    """Write ``chunks`` to ``path``, seeking over gap runs; their SHA-256.

    Each chunk is hashed on ``hasher`` while this thread writes it (or seeks
    over it): SHA-256 and file writes both release the GIL. The next chunk
    starts once both are done, so one chunk is in flight at a time.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            hashed = hasher.submit(digest.update, chunk)
            if isinstance(chunk, bytes):  # a gap's zero run: leave a hole
                fh.seek(len(chunk), os.SEEK_CUR)
            else:
                fh.write(chunk)
            hashed.result()
        fh.truncate()
    return digest.hexdigest()


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

"""Independent oracles and generators shared across the test suite.

Everything here deliberately avoids the library's own code paths: brute
force search, bitwise CRC, manual file reassembly, and a by-hand record
scan give second opinions the implementation is checked against.
"""

from __future__ import annotations

import json
import uuid
from collections import deque
from pathlib import Path
from random import Random

from uefiforensics.forge import (
    COMPACT_GEOMETRY,
    CORE_GUID,
    CRC_POLICIES,
    DECOY_FAKE_LDRI,
    DECOY_FAKE_SIGNATURE,
    INLINE_STYLES,
    ROLE_APP,
    ROLE_CORE,
    ROLE_DRIVER,
    STYLE_MOV_JMP,
    DecoySpec,
    ImageSpec,
    InlineHookSpec,
    PointerHookSpec,
    ScenarioSpec,
)
from uefiforensics.inline_hooks import scan_prologue
from uefiforensics.service_tables import TableKind


def crc32_reference(data: bytes) -> int:
    """Bitwise CRC-32 (reflected 0xEDB88320), independent of binascii."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def brute_force_find(flat: bytes, sig: bytes) -> list[int]:
    """Byte-by-byte scan over a fully reassembled image."""
    return [i for i in range(len(flat) - len(sig) + 1) if flat[i:i + len(sig)] == sig]


def plain_find(buf: bytes, sig: bytes, start: int = 0, end: int | None = None) -> list[int]:
    """Every offset of ``sig`` in ``buf[start:end]`` by repeated ``bytes.find``: the
    plain scan the probe scan must equal, fast enough for images ``brute_force_find``
    would take minutes over."""
    hits, pos = [], buf.find(sig, start, end)
    while pos >= 0:
        hits.append(pos)
        pos = buf.find(sig, pos + 1, end)
    return hits


def reassemble_dump_file(dump_path, map_path=None) -> bytes:
    """Rebuild the flat physical image straight from file + sidecar JSON."""
    data = Path(dump_path).read_bytes()
    if map_path is None:
        return data
    records = json.loads(Path(map_path).read_text(encoding="utf-8"))
    regions = [
        (int(str(r["phys_start"]), 0), int(str(r["file_offset"]), 0), int(str(r["length"]), 0))
        for r in records
    ]
    span = max(p + ln for p, _, ln in regions)
    flat = bytearray(span)
    for phys, off, ln in regions:
        flat[phys:phys + ln] = data[off:off + ln]
    return bytes(flat)


# The PE header ``read_pe_header`` reports for bytes that hold no PE image:
# for hand-built loaded-image records in tests that carve nothing.
NOT_PE = (False, 0, None)


def brute_force_owners(records, addr):
    """Linear ownership scan over loaded-image records."""
    return [r for r in records if r.image_base <= addr < r.image_base + r.image_size]


def brute_force_owner(records, addr):
    """The first entry of ``brute_force_owners``, or None."""
    return next(iter(brute_force_owners(records, addr)), None)


def reference_inline_walk(dump, table, records, baseline_image, max_depth, window) -> list:
    """The inline walk with nothing saved between sweeps: breadth-first from each service
    pointer, a fresh ``scan_prologue`` of every address followed, each address followed
    once on its shortest chain, each escape edge ``(at, target)`` reported once per
    service. One ``(table, service, hook_addr, final_target, indeterminate, chain)`` per
    finding, in the order found; the owner is ``brute_force_owner``, else the baseline."""
    found = []
    for entry in table.entries:
        if entry.pointer == 0:
            continue
        owner = brute_force_owner(records, entry.pointer) or baseline_image
        seen, reported = {entry.pointer}, set()
        frontier = deque([(entry.pointer, ())])
        while frontier:
            addr, chain = frontier.popleft()
            if not dump.in_span(addr):
                continue
            for t in scan_prologue(dump, addr, window).transfers:
                extended = chain + (t,)
                if t.target is not None and brute_force_owners([owner], t.target):
                    if len(extended) < max_depth and t.target not in seen:
                        seen.add(t.target)
                        frontier.append((t.target, extended))
                elif (t.at, t.target) not in reported:
                    reported.add((t.at, t.target))
                    found.append((table.kind, entry.name, extended[0].at, t.target,
                                  t.target is None, extended))
    return found


def sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def random_guid(rng: Random) -> str:
    return str(uuid.UUID(int=rng.getrandbits(128))).upper()


def random_scenario(rng: Random, index: int) -> ScenarioSpec:
    """A small randomized scenario on the compact geometry.

    Pointer and inline hooks target only auxiliary images, so the forge's
    injected-hook list is exactly the detector's expected finding set.
    """
    images = [ImageSpec(guid=CORE_GUID, size=0x8000, role=ROLE_CORE)]
    for i in range(rng.randint(1, 4)):
        flavor = rng.choice(("guid", "path", "both"))
        guid = random_guid(rng) if flavor in ("guid", "both") else None
        path = f"\\EFI\\rand\\img{index}_{i}.efi" if flavor in ("path", "both") else None
        images.append(
            ImageSpec(
                guid=guid,
                path=path,
                size=rng.choice((0x1000, 0x2000, 0x4000)),
                role=rng.choice((ROLE_DRIVER, ROLE_APP)),
            )
        )
    aux_keys = [img.key for img in images[1:]]

    used: set[tuple[TableKind, str]] = set()
    pointer_hooks = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(tuple(TableKind))
        service = rng.choice(kind.services)
        if (kind, service) in used:
            continue
        used.add((kind, service))
        pointer_hooks.append(PointerHookSpec(kind, service, rng.choice(aux_keys)))
    inline_hooks = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(tuple(TableKind))
        service = rng.choice(kind.services)
        if (kind, service) in used:
            continue
        used.add((kind, service))
        style = rng.choice(INLINE_STYLES)
        depth = 1 if style == STYLE_MOV_JMP else rng.randint(1, 4)
        inline_hooks.append(
            InlineHookSpec(service=service, style=style, depth=depth,
                           payload=rng.choice(aux_keys))
        )
    null_services = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(tuple(TableKind))
        service = rng.choice(kind.services)
        if (kind, service) in used:
            continue
        used.add((kind, service))
        null_services.append((kind, service))
    decoys = []
    if rng.random() < 0.3:
        decoys.append(DecoySpec(DECOY_FAKE_SIGNATURE))
    if rng.random() < 0.3:
        decoys.append(DecoySpec(DECOY_FAKE_LDRI))

    return ScenarioSpec(
        name=f"rand-{index}",
        images=tuple(images),
        pointer_hooks=tuple(pointer_hooks),
        inline_hooks=tuple(inline_hooks),
        crc_policy=rng.choice(CRC_POLICIES),
        decoys=tuple(decoys),
        null_services=tuple(null_services),
        geometry=COMPACT_GEOMETRY,
    )

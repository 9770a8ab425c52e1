"""Fixture forge: synthesizes ground-truth UEFI memory dumps.

The forge lays out a small physical address space the way DXE-phase
firmware does — a core image providing stub service functions, the three
service tables pointing into it, loaded-image bookkeeping records, and
auxiliary images — then injects configurable attacks: table pointer
rewrites, inline prologue patches with nested transfer chains, checksum
policies, and decoy structures. Dump and ground-truth manifest are emitted
from one internal model, so the manifest exactly describes the bytes.

Builtin scenarios reproduce the memory effects of published bootkits
(EfiGuard, Glupteba, CosmicStrand, ThunderStrike, MoonBounce) alongside
clean, checksum-variation, nesting-threshold, and decoy-heavy corpora.
Live behaviours with no memory-dump footprint (for example TPL-elevated
patching) are outside what a dump can capture and are not modelled.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

from .dump_model import MemoryDump, Region
from .image_registry import LDRI_RECORD, LDRI_RECORD_LEN, LDRI_SIGNATURE
from .inline_hooks import DEFAULT_MAX_DEPTH
from .service_tables import (
    ENTRY_LEN,
    HEADER_LEN,
    TABLE_HEADER,
    TableKind,
    KIND_ORDER,
    canonical_layout,
    crc32_ieee,
)

logger = logging.getLogger(__name__)


class ForgeError(Exception):
    """Scenario specification is invalid or does not fit the layout."""


# Image roles; they pick the PE subsystem and how the image may be used.
ROLE_CORE = "core"
ROLE_DRIVER = "driver"
ROLE_APP = "app"
ROLE_OPROM = "oprom"
ROLE_PAYLOAD = "payload"

_SUBSYSTEM_BY_ROLE = {
    ROLE_CORE: 11,     # EFI boot service driver
    ROLE_DRIVER: 11,
    ROLE_APP: 10,      # EFI application
    ROLE_OPROM: 13,    # EFI ROM
    ROLE_PAYLOAD: 11,
}

MACHINE_X64 = 0x8664
MIN_PE_SIZE = 1024

# Hook encodings.
STYLE_CALL_REL32 = "call_rel32"
STYLE_JMP_REL32 = "jmp_rel32"
STYLE_MOV_JMP = "mov_jmp"
INLINE_STYLES = (STYLE_CALL_REL32, STYLE_JMP_REL32, STYLE_MOV_JMP)

CRC_CORRECT = "correct"
CRC_STALE = "stale"
CRC_CORRUPTED = "corrupted"
CRC_POLICIES = (CRC_CORRECT, CRC_STALE, CRC_CORRUPTED)
_CORRUPT_CRC = 0xDEADBEEF

DECOY_FAKE_SIGNATURE = "fake_signature"
DECOY_FAKE_LDRI = "fake_ldri"

BOOT_REVISION = 0x0002_0046   # UEFI 2.70
DXE_REVISION = 0x0001_0028    # PI 1.40

# Well-known identities used by the builtin scenarios.
CORE_GUID = "D6A2CB7F-6A18-4E2F-B43B-9920A733700A"
TERMINAL_GUID = "9E863906-A40F-4875-977F-5B93FF237FC6"
COSMICSTRAND_GUID = "B18322E1-A4D7-11EF-BE59-000C2987BDE4"
OPROM_GUID = "0000003C-0000-0000-0000-0000FF310000"
MOONBOUNCE_PAYLOAD_GUID = "7A7569B4-62F5-4C3D-A4C8-61891A9DDE51"
NESTED_PAYLOAD_GUID = "2DB4BE10-9D24-4A13-89E0-17B9B4C1C0E2"

EFIGUARD_PATH = "\\EFI\\Boot\\EfiGuardDxe.efi"
BOOTMGFW_PATH = "\\EFI\\Microsoft\\Boot\\bootmgfw.efi"
BOOTX64_PATH = "\\EFI\\Boot\\BootX64.efi"

MOONBOUNCE_PAYLOAD_BASE = 0x3FAD_0000
MOONBOUNCE_PAYLOAD_OFFSET = 0xBA04  # paper-style payload address 0x3fadba04

# Core-image internal layout (offsets from the core image base).
STUB_AREA_OFFSET = 0x1000
STUB_SIZE = 64
CHAIN_AREA_OFFSET = 0x2800
CHAIN_SITE_SIZE = 16
DECOY_SIG_OFFSET = 0x3800  # decoy table signature inside core file data

# Auxiliary-image internal layout: hook-target / payload cells.
AUX_CELL_BASE = 0x600
AUX_CELL_SIZE = 0x40

LDRI_CELL_SIZE = 128
_LDRI_GUID_OFFSET = LDRI_RECORD_LEN          # +40
_LDRI_PATH_OFFSET = LDRI_RECORD_LEN + 16     # +56
MAX_IDENTITY_PATH_CHARS = (LDRI_CELL_SIZE - _LDRI_PATH_OFFSET - 2) // 2


@dataclass(frozen=True)
class Geometry:
    """Physical placement of the synthetic address space.

    Defaults mirror a 1 GiB machine late in DXE: allocations live near the
    top of RAM, and the emitted file carries only the populated regions
    (the sidecar map restores their physical placement).
    """

    core_base: int = 0x3E40_0000
    core_size: int = 0x2_0000
    table_base: int = 0x3F00_0000
    table_stride: int = 0x1000
    ldri_base: int = 0x3F08_0000
    aux_base: int = 0x3F10_0000
    aux_align: int = 0x1_0000
    low_region_len: int = 0x2000
    region_align: int = 0x1_0000


DEFAULT_GEOMETRY = Geometry()

# Small address space for high-volume randomized testing.
COMPACT_GEOMETRY = Geometry(
    core_base=0x10_0000,
    core_size=0x8000,
    table_base=0x20_0000,
    table_stride=0x1000,
    ldri_base=0x20_8000,
    aux_base=0x21_0000,
    aux_align=0x1000,
    low_region_len=0x1000,
    region_align=0x1000,
)


@dataclass(frozen=True)
class ImageSpec:
    guid: str | None = None
    path: str | None = None
    size: int = 0x1_0000
    base: int | None = None
    role: str = ROLE_DRIVER

    @property
    def key(self) -> str:
        return self.path or self.guid or "<anonymous>"


@dataclass(frozen=True)
class PointerHookSpec:
    table: TableKind
    service: str
    target: str                      # key of the image receiving the pointer
    target_offset: int | None = None


@dataclass(frozen=True)
class InlineHookSpec:
    service: str
    style: str = STYLE_CALL_REL32
    depth: int = 1                   # total transfers in the chain (1..4)
    payload: str = ""                # key of the image holding the payload
    payload_offset: int | None = None
    table: TableKind | None = None   # inferred from the service name if None


@dataclass(frozen=True)
class DecoySpec:
    kind: str  # DECOY_FAKE_SIGNATURE | DECOY_FAKE_LDRI


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one synthetic dump and its injected attacks."""

    name: str
    images: tuple[ImageSpec, ...]
    pointer_hooks: tuple[PointerHookSpec, ...] = ()
    inline_hooks: tuple[InlineHookSpec, ...] = ()
    crc_policy: str = CRC_CORRECT
    decoys: tuple[DecoySpec, ...] = ()
    null_services: tuple[tuple[TableKind, str], ...] = ()
    geometry: Geometry = DEFAULT_GEOMETRY


@dataclass(frozen=True)
class TransferTruth:
    at: int
    kind: str
    length: int
    target: int | None
    encoding: str  # hex bytes of the instruction


@dataclass(frozen=True)
class ImageTruth:
    key: str
    guid: str | None
    path: str | None
    base: int
    size: int
    role: str
    record_addr: int
    sha256: str


@dataclass(frozen=True)
class TableTruth:
    kind: TableKind
    addr: int
    revision: int
    header_size: int
    stored_crc: int
    true_pointers: dict[str, int]
    final_pointers: dict[str, int]


@dataclass(frozen=True)
class PointerHookTruth:
    table: TableKind
    service: str
    index: int
    hooked_pointer: int
    target_key: str


@dataclass(frozen=True)
class InlineHookTruth:
    table: TableKind
    service: str
    function_addr: int
    hook_addr: int
    style: str
    chain: tuple[TransferTruth, ...]
    payload_addr: int
    payload_key: str
    indeterminate: bool


@dataclass(frozen=True)
class GroundTruth:
    """Machine-readable oracle exactly describing the emitted dump."""

    scenario: str
    seed: int
    crc_policy: str
    total_span: int
    tables: dict[str, TableTruth]
    images: tuple[ImageTruth, ...]
    pointer_hooks: tuple[PointerHookTruth, ...]
    inline_hooks: tuple[InlineHookTruth, ...]
    decoys: tuple[dict, ...]
    null_services: tuple[tuple[str, str], ...]
    stub_listings: dict[str, tuple[tuple[int, int, str], ...]]

    def expected_pointer_findings(self) -> set[tuple[str, str]]:
        return {(h.table.value, h.service) for h in self.pointer_hooks}

    def expected_inline_findings(self, max_depth: int = DEFAULT_MAX_DEPTH) -> list[InlineHookTruth]:
        return [h for h in self.inline_hooks if len(h.chain) <= max_depth]

    def image_by_key(self, key: str) -> ImageTruth:
        for img in self.images:
            if img.key == key:
                return img
        raise KeyError(key)

    def to_json_dict(self) -> dict:
        hx = lambda v: None if v is None else f"0x{v:x}"
        return {
            "schema": 1,
            "scenario": self.scenario,
            "seed": self.seed,
            "crc_policy": self.crc_policy,
            "total_span": hx(self.total_span),
            "tables": {
                name: {
                    "addr": hx(t.addr),
                    "revision": hx(t.revision),
                    "header_size": t.header_size,
                    "stored_crc": hx(t.stored_crc),
                    "true_pointers": {k: hx(v) for k, v in t.true_pointers.items()},
                    "final_pointers": {k: hx(v) for k, v in t.final_pointers.items()},
                }
                for name, t in self.tables.items()
            },
            "images": [
                {
                    "key": i.key, "guid": i.guid, "path": i.path,
                    "base": hx(i.base), "size": i.size, "role": i.role,
                    "record_addr": hx(i.record_addr), "sha256": i.sha256,
                }
                for i in self.images
            ],
            "pointer_hooks": [
                {
                    "table": h.table.value, "service": h.service, "index": h.index,
                    "hooked_pointer": hx(h.hooked_pointer), "target_key": h.target_key,
                }
                for h in self.pointer_hooks
            ],
            "inline_hooks": [
                {
                    "table": h.table.value, "service": h.service,
                    "function_addr": hx(h.function_addr), "hook_addr": hx(h.hook_addr),
                    "style": h.style, "payload_addr": hx(h.payload_addr),
                    "payload_key": h.payload_key, "indeterminate": h.indeterminate,
                    "chain": [
                        {
                            "at": hx(t.at), "kind": t.kind, "length": t.length,
                            "target": hx(t.target), "encoding": t.encoding,
                        }
                        for t in h.chain
                    ],
                }
                for h in self.inline_hooks
            ],
            "decoys": list(self.decoys),
            "null_services": [[k, s] for k, s in self.null_services],
            "stub_listings": {
                key: [{"at": hx(a), "length": ln, "encoding": enc} for a, ln, enc in listing]
                for key, listing in self.stub_listings.items()
            },
        }


def _derive_seed(*parts) -> int:
    material = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def build_minimal_pe(
    size: int,
    *,
    machine: int = MACHINE_X64,
    subsystem: int = 11,
    image_base: int = 0,
    label: str = "",
) -> bytearray:
    """Emit a minimal but well-formed PE32+ image of exactly ``size`` bytes.

    The header chain (MZ, e_lfanew at 0x3C, PE signature, COFF header, one
    section) is complete enough for any standard PE walker; the body is
    zero except for a label marker distinguishing the image's content.
    Deterministic for the same inputs.
    """
    if size < MIN_PE_SIZE:
        raise ForgeError(f"PE image size {size} below minimum {MIN_PE_SIZE}")
    buf = bytearray(size)

    e_lfanew = 0x80
    buf[0:2] = b"MZ"
    struct.pack_into("<I", buf, 0x3C, e_lfanew)

    pe = e_lfanew
    buf[pe:pe + 4] = b"PE\x00\x00"
    opt_size = 112 + 16 * 8  # PE32+ fixed part + 16 data directories
    struct.pack_into(
        "<HHIIIHH", buf, pe + 4,
        machine, 1, 0, 0, 0, opt_size, 0x0022,  # executable, large-address-aware
    )

    opt = pe + 24
    code_va = 0x200
    struct.pack_into(
        "<HBBIIIIIQIIHHHHHHIIIIHH",
        buf, opt,
        0x20B,            # PE32+ magic
        14, 0,            # linker version
        size - code_va,   # SizeOfCode
        0, 0,             # initialized / uninitialized data
        code_va,          # AddressOfEntryPoint
        code_va,          # BaseOfCode
        image_base,
        0x1000, 0x200,    # section / file alignment
        0, 0, 0, 0, 0, 0,  # OS / image / subsystem versions
        0,                # Win32VersionValue
        size,             # SizeOfImage
        code_va,          # SizeOfHeaders
        0,                # CheckSum
        subsystem, 0,     # Subsystem, DllCharacteristics
    )
    # Stack/heap reserves and commits (4 x u64), loader flags, dir count.
    struct.pack_into("<QQQQII", buf, opt + 72, 0, 0, 0, 0, 0, 16)

    sect = opt + opt_size
    struct.pack_into(
        "<8sIIIIIIHHI", buf, sect,
        b".text\x00\x00\x00",
        size - code_va,   # VirtualSize
        code_va,          # VirtualAddress
        size - code_va,   # SizeOfRawData
        code_va,          # PointerToRawData
        0, 0, 0, 0,
        0x6000_0020,      # code | execute | read
    )

    marker = b"IMG:" + label.encode("utf-8")[:200]
    buf[0x300:0x300 + len(marker)] = marker
    return buf


# Benign instruction pool for stub bodies: (encoding, length).
_STUB_POOL = (
    (bytes.fromhex("48895C2408"), 5),   # mov [rsp+8], rbx
    (bytes.fromhex("4883EC28"), 4),     # sub rsp, 0x28
    (b"\x53", 1),                       # push rbx
    (b"\x55", 1),                       # push rbp
    (b"\x90", 1),                       # nop
    (bytes.fromhex("31C0"), 2),         # xor eax, eax
    (bytes.fromhex("4831C9"), 3),       # xor rcx, rcx
    (bytes.fromhex("488BC1"), 3),       # mov rax, rcx
    (bytes.fromhex("4C8BD1"), 3),       # mov r10, rcx
    (bytes.fromhex("8BC2"), 2),         # mov eax, edx
    (bytes.fromhex("B801000000"), 5),   # mov eax, 1
    (bytes.fromhex("0F1F4000"), 4),     # nop dword [rax]
    (bytes.fromhex("4885C0"), 3),       # test rax, rax
)
_RET = (b"\xC3", 1)


def _benign_body(rng: Random, budget: int) -> list[tuple[bytes, int]]:
    """A few pool instructions fitting in ``budget`` bytes, then ret."""
    body = []
    remaining = budget - 1  # keep room for the ret
    for _ in range(rng.randint(2, 5)):
        enc, ln = _STUB_POOL[rng.randrange(len(_STUB_POOL))]
        if ln > remaining:
            break
        body.append((enc, ln))
        remaining -= ln
    body.append(_RET)
    return body


def _rel32(at: int, length: int, target: int) -> bytes:
    disp = target - (at + length)
    if not -(1 << 31) <= disp < (1 << 31):
        raise ForgeError(f"rel32 displacement from {at:#x} to {target:#x} out of range")
    return struct.pack("<i", disp)


class _Allocations:
    """Tracks placed [start, end) extents and rejects collisions."""

    def __init__(self):
        self.extents: list[tuple[int, int, str]] = []

    def add(self, start: int, size: int, what: str) -> None:
        end = start + size
        for s, e, name in self.extents:
            if start < e and s < end:
                raise ForgeError(
                    f"layout collision: {what} [{start:#x},{end:#x}) overlaps "
                    f"{name} [{s:#x},{e:#x})"
                )
        self.extents.append((start, end, what))

    @property
    def span(self) -> tuple[int, int]:
        return min(s for s, _, _ in self.extents), max(e for _, e, _ in self.extents)


def _normalize_guid(guid: str) -> str:
    try:
        return str(uuid.UUID(guid)).upper()
    except ValueError as exc:
        raise ForgeError(f"invalid GUID {guid!r}: {exc}") from exc


def _validate_spec(spec: ScenarioSpec) -> None:
    if not spec.images:
        raise ForgeError("scenario needs at least one image")
    cores = [i for i in spec.images if i.role == ROLE_CORE]
    if len(cores) != 1:
        raise ForgeError("scenario must contain exactly one core image")
    keys = [i.key for i in spec.images]
    if len(set(keys)) != len(keys):
        raise ForgeError("image keys must be unique")
    if spec.crc_policy not in CRC_POLICIES:
        raise ForgeError(f"unknown crc policy {spec.crc_policy!r}")

    for image in spec.images:
        if image.guid is None and image.path is None:
            raise ForgeError("image needs a GUID or a file path")
        if image.role not in _SUBSYSTEM_BY_ROLE:
            raise ForgeError(f"unknown image role {image.role!r}")
        if image.path and len(image.path) > MAX_IDENTITY_PATH_CHARS:
            raise ForgeError(
                f"image path {image.path!r} longer than {MAX_IDENTITY_PATH_CHARS} chars"
            )
        if image.size < 0x1000:
            raise ForgeError("forged images must be at least 4 KiB")
    core = cores[0]
    if core.size < CHAIN_AREA_OFFSET + 0x1000 + 0x800:
        raise ForgeError("core image too small for stub and chain areas")

    by_key = {i.key: i for i in spec.images}
    hooked: set[tuple[TableKind, str]] = set()
    for hook in spec.pointer_hooks:
        if hook.service not in canonical_layout(hook.table):
            raise ForgeError(f"unknown service {hook.service!r} for {hook.table.value} table")
        target = by_key.get(hook.target)
        if target is None:
            raise ForgeError(f"pointer hook target image {hook.target!r} not in scenario")
        if target.role == ROLE_CORE:
            raise ForgeError("pointer hooks must target a non-core image")
        key = (hook.table, hook.service)
        if key in hooked:
            raise ForgeError(f"duplicate hook on {hook.table.value}:{hook.service}")
        hooked.add(key)
    for hook in spec.inline_hooks:
        table = hook.table or _table_of_service(hook.service)
        if hook.service not in canonical_layout(table):
            raise ForgeError(f"unknown service {hook.service!r} for {table.value} table")
        if hook.style not in INLINE_STYLES:
            raise ForgeError(f"unknown inline hook style {hook.style!r}")
        if not 1 <= hook.depth <= 4:
            raise ForgeError("inline hook depth must be 1..4")
        if hook.style == STYLE_MOV_JMP and hook.depth != 1:
            raise ForgeError("mov_jmp hooks are single-hop (register-indirect transfer)")
        payload = by_key.get(hook.payload)
        if payload is None:
            raise ForgeError(f"inline hook payload image {hook.payload!r} not in scenario")
        if payload.role == ROLE_CORE:
            raise ForgeError("inline hook payload must live in a non-core image")
        key = (table, hook.service)
        if key in hooked:
            raise ForgeError(f"duplicate hook on {table.value}:{hook.service}")
        hooked.add(key)
    for kind, name in spec.null_services:
        if name not in canonical_layout(kind):
            raise ForgeError(f"unknown null service {name!r} for {kind.value} table")
        if (kind, name) in hooked:
            raise ForgeError(f"service {kind.value}:{name} cannot be both hooked and null")
    for decoy in spec.decoys:
        if decoy.kind not in (DECOY_FAKE_SIGNATURE, DECOY_FAKE_LDRI):
            raise ForgeError(f"unknown decoy kind {decoy.kind!r}")


def _table_of_service(service: str) -> TableKind:
    for kind in KIND_ORDER:
        if service in canonical_layout(kind):
            return kind
    raise ForgeError(f"service {service!r} not in any table layout")


@dataclass
class _PlacedImage:
    spec: ImageSpec
    base: int
    buf: bytearray
    next_cell: int = AUX_CELL_BASE

    def reserve_cell(self, offset: int | None, need: int = AUX_CELL_SIZE) -> int:
        if offset is None:
            offset = self.next_cell
            self.next_cell += AUX_CELL_SIZE
        if offset + need > self.spec.size:
            raise ForgeError(
                f"offset {offset:#x} does not fit inside image {self.spec.key!r}"
            )
        return offset


class ForgedScenario:
    """A built scenario: in-memory dump, ground truth, and file emission."""

    def __init__(self, spec: ScenarioSpec, seed: int, dump: MemoryDump, truth: GroundTruth):
        self.spec = spec
        self.seed = seed
        self.dump = dump
        self.truth = truth

    def write(self, out_dir) -> dict[str, Path]:
        """Emit ``<name>.dump``, ``<name>.map.json``, ``<name>.truth.json``."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = self.spec.name
        dump_path = out_dir / f"{name}.dump"
        map_path = out_dir / f"{name}.map.json"
        truth_path = out_dir / f"{name}.truth.json"
        self.dump.save(dump_path, map_path)
        truth_path.write_text(
            json.dumps(self.truth.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        logger.info("forged scenario %r -> %s", name, dump_path)
        return {"dump": dump_path, "map": map_path, "truth": truth_path}


def build_scenario(spec: ScenarioSpec, seed: int = 0) -> ForgedScenario:
    """Build the scenario in memory; byte-identical for equal (spec, seed)."""
    _validate_spec(spec)
    geom = spec.geometry
    rng = Random(_derive_seed(seed, spec.name))

    # --- place images ---------------------------------------------------
    allocations = _Allocations()
    table_span = geom.table_stride * len(KIND_ORDER)
    allocations.add(geom.table_base, table_span, "service tables")
    ldri_span = LDRI_CELL_SIZE * len(spec.images) + 0x1800
    allocations.add(geom.ldri_base, ldri_span, "image records")

    placed: dict[str, _PlacedImage] = {}
    auto_base = geom.aux_base
    for image in spec.images:
        key = image.key  # hooks and truth reference the spec's original key
        image = replace(image, guid=_normalize_guid(image.guid) if image.guid else None)
        if image.role == ROLE_CORE:
            base = image.base if image.base is not None else geom.core_base
            image = replace(image, size=max(image.size, geom.core_size))
        elif image.base is not None:
            base = image.base
        else:
            base = auto_base
            auto_base = -(-(base + image.size) // geom.aux_align) * geom.aux_align
        allocations.add(base, image.size, f"image {key!r}")
        buf = build_minimal_pe(
            image.size,
            subsystem=_SUBSYSTEM_BY_ROLE[image.role],
            image_base=base,
            label=key,
        )
        placed[key] = _PlacedImage(image, base, buf)

    core = next(p for p in placed.values() if p.spec.role == ROLE_CORE)

    # --- inline hook pre-pass: pick chain sites and payload cells --------
    inline_by_service: dict[tuple[TableKind, str], dict] = {}
    chain_cursor = 0
    for hook in spec.inline_hooks:
        table = hook.table or _table_of_service(hook.service)
        payload_img = placed[hook.payload]
        payload_off = payload_img.reserve_cell(hook.payload_offset)
        payload_addr = payload_img.base + payload_off
        sites = []
        for _ in range(hook.depth - 1):
            off = CHAIN_AREA_OFFSET + chain_cursor * CHAIN_SITE_SIZE
            chain_cursor += 1
            if off + CHAIN_SITE_SIZE > DECOY_SIG_OFFSET:
                raise ForgeError("chain site area exhausted")
            sites.append(core.base + off)
        inline_by_service[(table, hook.service)] = {
            "spec": hook,
            "table": table,
            "payload_addr": payload_addr,
            "payload_img": payload_img,
            "sites": sites,
        }

    # --- write service stubs into the core image -------------------------
    stub_addrs: dict[tuple[TableKind, str], int] = {}
    stub_listings: dict[str, tuple[tuple[int, int, str], ...]] = {}
    inline_truths: list[InlineHookTruth] = []
    cell = 0
    for kind in KIND_ORDER:
        for name in canonical_layout(kind):
            offset = STUB_AREA_OFFSET + cell * STUB_SIZE
            cell += 1
            addr = core.base + offset
            stub_addrs[(kind, name)] = addr
            hook_info = inline_by_service.get((kind, name))
            listing, truth = _write_stub(core, offset, rng, hook_info)
            stub_listings[f"{kind.value}/{name}"] = tuple(listing)
            if truth is not None:
                inline_truths.append(truth)
    if STUB_AREA_OFFSET + cell * STUB_SIZE > CHAIN_AREA_OFFSET:
        raise ForgeError("stub area overflows into chain area")

    # --- payload cells ----------------------------------------------------
    for info in inline_by_service.values():
        img = info["payload_img"]
        off = info["payload_addr"] - img.base
        img.buf[off:off + 3] = b"\x90\x90\xC3"  # inert payload marker

    # --- pointer hook target cells ----------------------------------------
    pointer_truths: list[PointerHookTruth] = []
    pointer_targets: dict[tuple[TableKind, str], int] = {}
    for hook in spec.pointer_hooks:
        img = placed[hook.target]
        off = img.reserve_cell(hook.target_offset)
        addr = img.base + off
        body = _benign_body(rng, AUX_CELL_SIZE)
        pos = off
        for enc, _ in body:
            img.buf[pos:pos + len(enc)] = enc
            pos += len(enc)
        pointer_targets[(hook.table, hook.service)] = addr
        index = canonical_layout(hook.table).index(hook.service)
        pointer_truths.append(
            PointerHookTruth(hook.table, hook.service, index, addr, hook.target)
        )

    # --- tables -------------------------------------------------------------
    table_truths: dict[str, TableTruth] = {}
    table_bufs: dict[TableKind, bytearray] = {}
    nulls = set(spec.null_services)
    for pos, kind in enumerate(KIND_ORDER):
        names = canonical_layout(kind)
        addr = geom.table_base + pos * geom.table_stride
        header_size = HEADER_LEN + ENTRY_LEN * len(names)
        if header_size > geom.table_stride:
            raise ForgeError("table stride too small for entry array")
        revision = DXE_REVISION if kind is TableKind.DXE else BOOT_REVISION

        true_pointers = {
            name: 0 if (kind, name) in nulls else stub_addrs[(kind, name)] for name in names
        }
        final_pointers = dict(true_pointers)
        for (hkind, service), target in pointer_targets.items():
            if hkind is kind:
                final_pointers[service] = target

        def render(pointers: dict[str, int], crc: int) -> bytearray:
            buf = bytearray(TABLE_HEADER.pack(kind.signature, revision, header_size, crc, 0))
            for name in names:
                buf += struct.pack("<Q", pointers[name])
            return buf

        crc_pre = crc32_ieee(bytes(render(true_pointers, 0)))
        crc_post = crc32_ieee(bytes(render(final_pointers, 0)))
        stored = {CRC_CORRECT: crc_post, CRC_STALE: crc_pre, CRC_CORRUPTED: _CORRUPT_CRC}[
            spec.crc_policy
        ]
        table_bufs[kind] = render(final_pointers, stored)
        table_truths[kind.value] = TableTruth(
            kind, addr, revision, header_size, stored, true_pointers, final_pointers
        )

    # --- loaded-image records ----------------------------------------------
    image_truths: list[ImageTruth] = []
    ldri_area = bytearray(ldri_span)
    for idx, image in enumerate(spec.images):
        p = placed[image.key]
        cell_off = idx * LDRI_CELL_SIZE
        record_addr = geom.ldri_base + cell_off
        guid_ptr = path_ptr = 0
        if p.spec.guid:
            guid_ptr = record_addr + _LDRI_GUID_OFFSET
            ldri_area[cell_off + _LDRI_GUID_OFFSET:cell_off + _LDRI_GUID_OFFSET + 16] = (
                uuid.UUID(p.spec.guid).bytes_le
            )
        if p.spec.path:
            encoded = p.spec.path.encode("utf-16-le") + b"\x00\x00"
            path_ptr = record_addr + _LDRI_PATH_OFFSET
            ldri_area[cell_off + _LDRI_PATH_OFFSET:cell_off + _LDRI_PATH_OFFSET + len(encoded)] = encoded
        ldri_area[cell_off:cell_off + LDRI_RECORD_LEN] = LDRI_RECORD.pack(
            LDRI_SIGNATURE, p.base, p.spec.size, guid_ptr, path_ptr
        )
        image_truths.append(
            ImageTruth(
                key=image.key, guid=p.spec.guid, path=p.spec.path, base=p.base,
                size=p.spec.size, role=p.spec.role, record_addr=record_addr,
                sha256="",  # filled once the image bytes are final
            )
        )

    # --- decoys ---------------------------------------------------------------
    decoy_truths: list[dict] = []
    for decoy in spec.decoys:
        if decoy.kind == DECOY_FAKE_SIGNATURE:
            # Table signature inside image file data with an insane header.
            off = DECOY_SIG_OFFSET
            addr = core.base + off
            core.buf[off:off + HEADER_LEN] = TABLE_HEADER.pack(
                b"BOOTSERV", BOOT_REVISION, 0, 0, 0
            )
        else:
            # ldri bytes whose size field cannot possibly be a real image.
            off = ldri_span - 0x800
            addr = geom.ldri_base + off
            ldri_area[off:off + LDRI_RECORD_LEN] = LDRI_RECORD.pack(
                LDRI_SIGNATURE, 0x1000, 0xFFFF_FFFF_0000, 0, 0
            )
        decoy_truths.append({"kind": decoy.kind, "addr": f"0x{addr:x}"})

    # --- finalize image digests -------------------------------------------
    image_truths = [
        replace(t, sha256=hashlib.sha256(bytes(placed[t.key].buf)).hexdigest())
        for t in image_truths
    ]

    # --- assemble the file: the low region, then the high region ----------
    pieces = [(p.base, p.buf) for p in placed.values()]
    pieces += [
        (geom.table_base + pos * geom.table_stride, table_bufs[kind])
        for pos, kind in enumerate(KIND_ORDER)
    ]
    pieces.append((geom.ldri_base, ldri_area))

    lo, hi = allocations.span
    region_start = (lo // geom.region_align) * geom.region_align
    total_span = -(-hi // geom.region_align) * geom.region_align
    if region_start < geom.low_region_len:
        raise ForgeError("allocations collide with the low memory region")
    regions = [
        Region(0, 0, geom.low_region_len),
        Region(region_start, geom.low_region_len, total_span - region_start),
    ]
    file_bytes = bytearray(geom.low_region_len + total_span - region_start)
    file_bytes[0x10:0x18] = b"LOWMEM\x00\x00"
    for start, data in pieces:
        off = start - region_start + geom.low_region_len
        file_bytes[off:off + len(data)] = data
    dump = MemoryDump(file_bytes, regions, source_path=f"<forged:{spec.name}>")

    truth = GroundTruth(
        scenario=spec.name,
        seed=seed,
        crc_policy=spec.crc_policy,
        total_span=total_span,
        tables=table_truths,
        images=tuple(image_truths),
        pointer_hooks=tuple(pointer_truths),
        inline_hooks=tuple(inline_truths),
        decoys=tuple(decoy_truths),
        null_services=tuple((k.value, s) for k, s in spec.null_services),
        stub_listings=stub_listings,
    )
    return ForgedScenario(spec, seed, dump, truth)


def _write_stub(core: _PlacedImage, offset: int, rng: Random, hook_info) -> tuple[list, InlineHookTruth | None]:
    """Compose one 64-byte service stub, optionally hooked, into the core.

    Returns the instruction listing [(addr, length, hex)] and, for hooked
    stubs, the detector-visible transfer chain as ground truth.
    """
    addr = core.base + offset
    instructions: list[tuple[bytes, int]] = []
    chain: list[TransferTruth] = []
    truth = None

    if hook_info is not None:
        hook: InlineHookSpec = hook_info["spec"]
        first_hop = hook_info["sites"][0] if hook_info["sites"] else hook_info["payload_addr"]
        if hook.style == STYLE_CALL_REL32:
            enc = b"\xE8" + _rel32(addr, 5, first_hop)
            instructions.append((enc, 5))
            chain.append(TransferTruth(addr, "call_relative", 5, first_hop, enc.hex()))
        elif hook.style == STYLE_JMP_REL32:
            enc = b"\xE9" + _rel32(addr, 5, first_hop)
            instructions.append((enc, 5))
            chain.append(TransferTruth(addr, "jmp_relative", 5, first_hop, enc.hex()))
        else:  # mov_jmp: mov rax, imm64; jmp rax
            mov = b"\x48\xB8" + struct.pack("<Q", hook_info["payload_addr"])
            jmp = b"\xFF\xE0"
            instructions.append((mov, 10))
            instructions.append((jmp, 2))
            chain.append(TransferTruth(addr + 10, "jmp_indirect", 2, None, jmp.hex()))

        # Chain sites: each hop's bytes and its truth share one encoding.
        sites = hook_info["sites"]
        hops = sites[1:] + [hook_info["payload_addr"]]
        for site_addr, hop_target in zip(sites, hops):
            enc = b"\xE9" + _rel32(site_addr, 5, hop_target)
            off = site_addr - core.base
            core.buf[off:off + 5] = enc
            core.buf[off + 5:off + CHAIN_SITE_SIZE] = b"\xCC" * (CHAIN_SITE_SIZE - 5)
            chain.append(TransferTruth(site_addr, "jmp_relative", 5, hop_target, enc.hex()))

        truth = InlineHookTruth(
            table=hook_info["table"],
            service=hook.service,
            function_addr=addr,
            hook_addr=chain[0].at,
            style=hook.style,
            chain=tuple(chain),
            payload_addr=hook_info["payload_addr"],
            payload_key=hook.payload,
            indeterminate=hook.style == STYLE_MOV_JMP,
        )

    used = sum(ln for _, ln in instructions)
    # A jmp-style hook diverts flow unconditionally: nothing after it runs,
    # and the sweep stops there too. call-style hooks return, so give them
    # a benign tail like the real patched function would keep.
    diverts = bool(instructions) and (
        instructions[-1][0][:1] == b"\xE9" or instructions[-1][0] == b"\xFF\xE0"
    )
    if not diverts:
        instructions += _benign_body(rng, STUB_SIZE - used)

    listing = []
    pos = offset
    for enc, ln in instructions:
        core.buf[pos:pos + len(enc)] = enc
        listing.append((core.base + pos, ln, enc.hex()))
        pos += ln
    end = offset + STUB_SIZE
    core.buf[pos:end] = b"\xCC" * (end - pos)
    return listing, truth


def forge_dump(spec: ScenarioSpec, out_dir, seed: int = 0) -> GroundTruth:
    """Build a scenario and write dump, sidecar map, and truth manifest."""
    scenario = build_scenario(spec, seed)
    scenario.write(out_dir)
    return scenario.truth


def builtin_scenarios() -> list[ScenarioSpec]:
    """The canned evaluation corpus: five bootkit re-creations plus
    clean/CRC/nesting/decoy variants (ten scenarios total)."""
    core = ImageSpec(guid=CORE_GUID, size=0x2_0000, role=ROLE_CORE)
    bootmgr = ImageSpec(path=BOOTMGFW_PATH, size=0x1_8000, role=ROLE_APP)
    terminal = ImageSpec(guid=TERMINAL_GUID, size=0x8000, role=ROLE_DRIVER)
    efiguard = ImageSpec(path=EFIGUARD_PATH, size=0x1_0000, role=ROLE_DRIVER)
    cosmic = ImageSpec(guid=COSMICSTRAND_GUID, size=0x1_0000, role=ROLE_DRIVER)
    oprom = ImageSpec(guid=OPROM_GUID, size=0x8000, role=ROLE_OPROM)
    bootx64 = ImageSpec(path=BOOTX64_PATH, size=0x1_0000, role=ROLE_APP)
    moon_payload = ImageSpec(
        guid=MOONBOUNCE_PAYLOAD_GUID, size=0xD000, base=MOONBOUNCE_PAYLOAD_BASE,
        role=ROLE_PAYLOAD,
    )
    nested_payload = ImageSpec(guid=NESTED_PAYLOAD_GUID, size=0x8000, role=ROLE_PAYLOAD)

    cosmic_hooks = (
        PointerHookSpec(TableKind.BOOT, "AllocatePages", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.BOOT, "LocateProtocol", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.BOOT, "CreateEvent", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.RUNTIME, "GetVariable", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.RUNTIME, "SetVariable", COSMICSTRAND_GUID),
    )

    return [
        ScenarioSpec("clean", images=(core, bootmgr, terminal)),
        ScenarioSpec(
            "efiguard",
            images=(core, bootmgr, efiguard),
            pointer_hooks=(
                PointerHookSpec(TableKind.BOOT, "LoadImage", EFIGUARD_PATH),
                PointerHookSpec(TableKind.RUNTIME, "SetVariable", EFIGUARD_PATH),
            ),
        ),
        ScenarioSpec(
            "glupteba",
            images=(core, bootmgr, efiguard),
            pointer_hooks=(
                PointerHookSpec(TableKind.BOOT, "LoadImage", EFIGUARD_PATH),
            ),
        ),
        ScenarioSpec("cosmicstrand", images=(core, cosmic), pointer_hooks=cosmic_hooks),
        ScenarioSpec(
            "thunderstrike",
            # Exactly three images, one per loading source: firmware-embedded
            # core, ESP application, PCI option ROM.
            images=(core, bootx64, oprom),
            pointer_hooks=(
                PointerHookSpec(TableKind.DXE, "ProcessFirmwareVolume", OPROM_GUID),
            ),
        ),
        ScenarioSpec(
            "moonbounce",
            images=(core, moon_payload),
            inline_hooks=(
                InlineHookSpec(
                    service="CreateEventEx",
                    style=STYLE_CALL_REL32,
                    depth=1,
                    payload=MOONBOUNCE_PAYLOAD_GUID,
                    payload_offset=MOONBOUNCE_PAYLOAD_OFFSET,
                ),
            ),
        ),
        ScenarioSpec("crc-recalc", images=(core, cosmic), pointer_hooks=cosmic_hooks,
                     crc_policy=CRC_CORRECT),
        ScenarioSpec(
            "nested-3",
            images=(core, nested_payload),
            inline_hooks=(
                InlineHookSpec(service="CreateEventEx", style=STYLE_JMP_REL32,
                               depth=3, payload=NESTED_PAYLOAD_GUID),
            ),
        ),
        ScenarioSpec(
            "nested-4",
            images=(core, nested_payload),
            inline_hooks=(
                InlineHookSpec(service="CreateEventEx", style=STYLE_JMP_REL32,
                               depth=4, payload=NESTED_PAYLOAD_GUID),
            ),
        ),
        ScenarioSpec(
            "decoy-heavy",
            images=(core, bootmgr, terminal),
            decoys=(DecoySpec(DECOY_FAKE_SIGNATURE), DecoySpec(DECOY_FAKE_LDRI)),
        ),
    ]


def scenario_by_name(name: str) -> ScenarioSpec:
    for spec in builtin_scenarios():
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in builtin_scenarios())
    raise ForgeError(f"unknown scenario {name!r} (builtin: {known})")

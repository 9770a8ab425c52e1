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
import logging
import struct
import uuid
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from random import Random

from .dump_model import MemoryDump, Region, write_json
from .image_registry import LDRI_RECORD, LDRI_RECORD_LEN, LDRI_SIGNATURE, normalize_guid
from .inline_hooks import TransferKind
from .service_tables import (
    ENTRY_LEN,
    HEADER_LEN,
    TABLE_HEADER,
    TableKind,
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
TABLE_STRIDE = 0x1000         # between service tables; the longest is 376 bytes

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

# Sorted allocations, each rounded out to ``Geometry.region_align``, share
# one file region while the gap to the one before is under this; one
# farther away (a pinned base, say) starts a region of its own.
MAX_REGION_GAP = 0x400_0000


@dataclass(frozen=True)
class Geometry:
    """Physical placement of the synthetic address space.

    Defaults mirror a 1 GiB machine late in DXE: allocations live near the
    top of RAM, and the emitted file carries only the populated regions
    (the sidecar map restores their physical placement).
    """

    core_base: int = 0x3E40_0000
    table_base: int = 0x3F00_0000
    ldri_base: int = 0x3F08_0000
    aux_base: int = 0x3F10_0000
    low_region_len: int = 0x2000
    region_align: int = 0x1_0000


DEFAULT_GEOMETRY = Geometry()

# Small address space for high-volume randomized testing.
COMPACT_GEOMETRY = Geometry(
    core_base=0x10_0000,
    table_base=0x20_0000,
    ldri_base=0x20_8000,
    aux_base=0x21_0000,
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


@dataclass(frozen=True)
class InlineHookSpec:
    service: str
    style: str = STYLE_CALL_REL32
    depth: int = 1                   # total transfers in the chain (1..4)
    payload: str = ""                # key of the image holding the payload
    payload_offset: int | None = None


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
    kind: TransferKind
    length: int
    target: int | None
    encoding: str  # hex bytes of the instruction


@dataclass(frozen=True)
class StubInstruction:
    at: int
    length: int
    encoding: str  # hex bytes of the instruction


@dataclass(frozen=True)
class DecoyTruth:
    kind: str
    addr: int


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
    payload_addr: int
    payload_key: str
    indeterminate: bool
    chain: tuple[TransferTruth, ...]


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
    decoys: tuple[DecoyTruth, ...]
    null_services: tuple[tuple[str, str], ...]
    stub_listings: dict[str, tuple[StubInstruction, ...]]

    def expected_pointer_findings(self) -> set[tuple[str, str]]:
        return {(h.table.value, h.service) for h in self.pointer_hooks}

    def expected_inline_findings(self, max_depth: int) -> list[InlineHookTruth]:
        return [h for h in self.inline_hooks if len(h.chain) <= max_depth]

    def image_by_key(self, key: str) -> ImageTruth:
        for img in self.images:
            if img.key == key:
                return img
        raise KeyError(key)

    def to_json_dict(self) -> dict:
        return {"schema": 1, **_to_json(self, "")}


# Truth integers written in decimal; every other one is an address or a raw
# field value and is written in hex.
_DECIMAL_FIELDS = {"seed", "size", "header_size", "index", "length"}


def _to_json(value, field: str):
    """``value`` as JSON data; dict values and tuple items take ``field``'s name."""
    if type(value) is int:  # not bool
        return value if field in _DECIMAL_FIELDS else f"0x{value:x}"
    if isinstance(value, dict):
        return {k: _to_json(v, field) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_to_json(v, field) for v in value]
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name), f.name) for f in fields(value)}
    return value


def _derive_seed(seed: int, name: str) -> int:
    material = f"{seed}:{name}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def build_minimal_pe(size: int, *, label: str = "") -> bytearray:
    """Emit a minimal but well-formed PE32+ image of exactly ``size`` bytes.

    The header chain (MZ, e_lfanew at 0x3C, PE signature, COFF header, one
    section) is complete enough for any standard PE walker; the body is
    zero except for a label marker distinguishing the image's content.
    Deterministic for the same inputs.
    """
    if size < MIN_PE_SIZE:
        raise ForgeError(f"PE image size {size} below minimum {MIN_PE_SIZE}")
    buf = bytearray(size)
    _write_pe(buf, _SUBSYSTEM_BY_ROLE[ROLE_DRIVER], 0, label)
    return buf


def _write_pe(buf, subsystem: int, image_base: int, label: str) -> None:
    """Write the PE32+ headers and label of a ``len(buf)``-byte image into zeroed ``buf``."""
    size = len(buf)
    e_lfanew = 0x80
    buf[0:2] = b"MZ"
    struct.pack_into("<I", buf, 0x3C, e_lfanew)

    pe = e_lfanew
    buf[pe:pe + 4] = b"PE\x00\x00"
    opt_size = 112 + 16 * 8  # PE32+ fixed part + 16 data directories
    struct.pack_into(
        "<HHIIIHH", buf, pe + 4,
        MACHINE_X64, 1, 0, 0, 0, opt_size, 0x0022,  # executable, large-address-aware
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


# Benign instruction pool for stub bodies; an instruction is its bytes.
_STUB_POOL = (
    bytes.fromhex("48895C2408"),   # mov [rsp+8], rbx
    bytes.fromhex("4883EC28"),     # sub rsp, 0x28
    b"\x53",                       # push rbx
    b"\x55",                       # push rbp
    b"\x90",                       # nop
    bytes.fromhex("31C0"),         # xor eax, eax
    bytes.fromhex("4831C9"),       # xor rcx, rcx
    bytes.fromhex("488BC1"),       # mov rax, rcx
    bytes.fromhex("4C8BD1"),       # mov r10, rcx
    bytes.fromhex("8BC2"),         # mov eax, edx
    bytes.fromhex("B801000000"),   # mov eax, 1
    bytes.fromhex("0F1F4000"),     # nop dword [rax]
    bytes.fromhex("4885C0"),       # test rax, rax
)
_RET = b"\xC3"


def _benign_body(rng: Random) -> list[bytes]:
    """Two to five pool instructions, then ret: at most 26 bytes."""
    return [_STUB_POOL[rng.randrange(len(_STUB_POOL))] for _ in range(rng.randint(2, 5))] + [_RET]


def _rel32(at: int, target: int) -> bytes:
    """The displacement of a 5-byte rel32 transfer at ``at`` to ``target``."""
    disp = target - (at + 5)
    if not -(1 << 31) <= disp < (1 << 31):
        raise ForgeError(f"rel32 displacement from {at:#x} to {target:#x} out of range")
    return struct.pack("<i", disp)


class _Layout:
    """The physical placement of one scenario, then its file.

    ``place`` records each allocation and rejects collisions. ``build``
    groups the allocations into regions (see ``MAX_REGION_GAP``) after the
    low region ``[0, low_region_len)`` and lays the regions end to end over
    one zeroed file buffer ``buf``, as the ``Region``s the sidecar records.
    From then on every pass writes by physical address, inside what it
    placed, and ``buf`` with ``regions`` becomes the :class:`MemoryDump`.
    """

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.extents: list[tuple[int, int, str]] = []
        self.regions: list[Region] = []
        self.buf = bytearray()

    def place(self, start: int, size: int, what: str) -> None:
        end = start + size
        for s, e, name in self.extents:
            if start < e and s < end:
                raise ForgeError(
                    f"layout collision: {what} [{start:#x},{end:#x}) overlaps "
                    f"{name} [{s:#x},{e:#x})"
                )
        self.extents.append((start, end, what))

    def build(self) -> None:
        align = self.geom.region_align
        spans: list[list[int]] = []
        for start, end, _ in sorted(self.extents):
            start, end = start // align * align, -(-end // align) * align
            if spans and start - spans[-1][1] < MAX_REGION_GAP:
                spans[-1][1] = max(spans[-1][1], end)
            else:
                spans.append([start, end])
        if spans[0][0] < self.geom.low_region_len:
            raise ForgeError("allocations collide with the low memory region")
        offset = 0
        for start, end in [[0, self.geom.low_region_len]] + spans:
            self.regions.append(Region(phys_start=start, file_offset=offset, length=end - start))
            offset += end - start
        self.buf = bytearray(offset)
        self.write(0x10, b"LOWMEM\x00\x00")

    def view(self, addr: int, size: int) -> memoryview:
        """Writable view of ``[addr, addr + size)``, which must lie in one region."""
        r = self.regions[bisect_right(self.regions, addr, key=lambda g: g.phys_start) - 1]
        run = memoryview(self.buf)[r.file_offset:r.file_offset + r.length]
        return run[addr - r.phys_start:addr - r.phys_start + size]

    def write(self, addr: int, data: bytes) -> None:
        self.view(addr, len(data))[:] = data


def _normalize_guid(guid: str) -> str:
    try:
        return normalize_guid(guid)
    except ValueError as exc:
        raise ForgeError(f"invalid GUID {guid!r}: {exc}") from exc


def _validate_spec(spec: ScenarioSpec) -> None:
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
    if cores[0].size < CHAIN_AREA_OFFSET + 0x1000 + 0x800:
        raise ForgeError("core image too small for stub and chain areas")

    for hook in spec.inline_hooks:
        if hook.style not in INLINE_STYLES:
            raise ForgeError(f"unknown inline hook style {hook.style!r}")
        if not 1 <= hook.depth <= 4:
            raise ForgeError("inline hook depth must be 1..4")
        if hook.style == STYLE_MOV_JMP and hook.depth != 1:
            raise ForgeError("mov_jmp hooks are single-hop (register-indirect transfer)")
    by_key = {i.key: i for i in spec.images}
    hooks = [(h.table, h.service, h.target, "pointer hook target") for h in spec.pointer_hooks]
    hooks += [
        (_table_of_service(h.service), h.service, h.payload, "inline hook payload")
        for h in spec.inline_hooks
    ]
    hooked: set[tuple[TableKind, str]] = set()
    for table, service, key, what in hooks:
        if service not in table.services:
            raise ForgeError(f"unknown service {service!r} for {table.value} table")
        if key not in by_key:
            raise ForgeError(f"{what} image {key!r} not in scenario")
        if by_key[key].role == ROLE_CORE:
            raise ForgeError(f"{what} must be a non-core image")
        if (table, service) in hooked:
            raise ForgeError(f"duplicate hook on {table.value}:{service}")
        hooked.add((table, service))
    for kind, name in spec.null_services:
        if name not in kind.services:
            raise ForgeError(f"unknown null service {name!r} for {kind.value} table")
        if (kind, name) in hooked:
            raise ForgeError(f"service {kind.value}:{name} cannot be both hooked and null")
    for decoy in spec.decoys:
        if decoy.kind not in (DECOY_FAKE_SIGNATURE, DECOY_FAKE_LDRI):
            raise ForgeError(f"unknown decoy kind {decoy.kind!r}")


# Every service, in the order of its stub in the core's stub area.
_SERVICES = tuple((kind, name) for kind in TableKind for name in kind.services)
_KIND_BY_SERVICE = {name: kind for kind, name in _SERVICES}


def _table_of_service(service: str) -> TableKind:
    try:
        return _KIND_BY_SERVICE[service]
    except KeyError:
        raise ForgeError(f"service {service!r} not in any table layout") from None


def _ldri_span(spec: ScenarioSpec) -> int:
    return LDRI_CELL_SIZE * len(spec.images) + 0x1800


@dataclass
class _PlacedImage:
    spec: ImageSpec
    base: int
    record_addr: int
    next_cell: int = AUX_CELL_BASE

    def reserve_cell(self, offset: int | None = None) -> int:
        """Address of a hook cell at ``offset`` into the image, or of the next free one."""
        if offset is None:
            offset = self.next_cell
            self.next_cell += AUX_CELL_SIZE
        if not 0 <= offset <= self.spec.size - AUX_CELL_SIZE:
            raise ForgeError(
                f"offset {offset:#x} does not fit inside image {self.spec.key!r}"
            )
        return self.base + offset


@dataclass(frozen=True)
class ForgedScenario:
    """A built scenario: in-memory dump, ground truth, and file emission."""

    dump: MemoryDump
    truth: GroundTruth

    def write(self, out_dir) -> dict[str, Path]:
        """Emit ``<name>.dump``, ``<name>.map.json``, ``<name>.truth.json``."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = self.truth.scenario
        dump_path = out_dir / f"{name}.dump"
        map_path = out_dir / f"{name}.map.json"
        truth_path = out_dir / f"{name}.truth.json"
        self.dump.save(dump_path, map_path)
        write_json(truth_path, self.truth.to_json_dict())
        logger.info("forged scenario %r -> %s", name, dump_path)
        return {"dump": dump_path, "map": map_path, "truth": truth_path}


def build_scenario(spec: ScenarioSpec, seed: int = 0) -> ForgedScenario:
    """Build the scenario in memory; byte-identical for equal (spec, seed)."""
    _validate_spec(spec)
    rng = Random(_derive_seed(seed, spec.name))
    layout, placed = _place(spec)
    core = next(p for p in placed.values() if p.spec.role == ROLE_CORE)
    stub_addrs = {
        key: core.base + STUB_AREA_OFFSET + i * STUB_SIZE for i, key in enumerate(_SERVICES)
    }
    hooks = _write_hooks(layout, spec, placed, core, stub_addrs)
    stub_listings, inline_truths = _write_stubs(layout, rng, stub_addrs, hooks)
    pointer_truths = _write_cells(layout, spec, placed, rng)
    table_truths = _write_tables(layout, spec, stub_addrs, pointer_truths)
    _write_records(layout, placed)
    decoy_truths = _write_decoys(layout, spec, core)

    image_truths = tuple(
        ImageTruth(
            key=key, guid=p.spec.guid, path=p.spec.path, base=p.base, size=p.spec.size,
            role=p.spec.role, record_addr=p.record_addr,
            sha256=hashlib.sha256(layout.view(p.base, p.spec.size)).hexdigest(),
        )
        for key, p in placed.items()
    )
    dump = MemoryDump(layout.buf, layout.regions, source_path=f"<forged:{spec.name}>")
    truth = GroundTruth(
        scenario=spec.name,
        seed=seed,
        crc_policy=spec.crc_policy,
        total_span=dump.total_span,
        tables=table_truths,
        images=image_truths,
        pointer_hooks=tuple(pointer_truths),
        inline_hooks=tuple(inline_truths),
        decoys=tuple(decoy_truths),
        null_services=tuple((k.value, s) for k, s in spec.null_services),
        stub_listings=stub_listings,
    )
    return ForgedScenario(dump, truth)


def _place(spec: ScenarioSpec) -> tuple[_Layout, dict[str, _PlacedImage]]:
    """Place the tables, the records and every image; write each image's PE headers."""
    geom = spec.geometry
    layout = _Layout(geom)
    layout.place(geom.table_base, TABLE_STRIDE * len(TableKind), "service tables")
    layout.place(geom.ldri_base, _ldri_span(spec), "image records")
    placed: dict[str, _PlacedImage] = {}
    auto_base = geom.aux_base
    for idx, image in enumerate(spec.images):
        key = image.key  # hooks and truth reference the spec's original key
        image = replace(image, guid=_normalize_guid(image.guid) if image.guid else None)
        if image.role == ROLE_CORE:
            base = image.base if image.base is not None else geom.core_base
        elif image.base is not None:
            base = image.base
        else:
            base = auto_base
            auto_base = -(-(base + image.size) // geom.region_align) * geom.region_align
        layout.place(base, image.size, f"image {key!r}")
        placed[key] = _PlacedImage(image, base, geom.ldri_base + idx * LDRI_CELL_SIZE)
    layout.build()
    for key, p in placed.items():
        _write_pe(layout.view(p.base, p.spec.size), _SUBSYSTEM_BY_ROLE[p.spec.role], p.base, key)
    return layout, placed


def _write_hooks(layout, spec, placed, core, stub_addrs):
    """Write each inline hook's chain sites and payload marker, in spec order.

    Each hook reserves its payload cell, then takes the next free chain
    sites in the core. Returns, per hooked ``(kind, service)``, the hook
    instructions its stub opens with and the detector-visible transfer
    chain as ground truth.
    """
    site = core.base + CHAIN_AREA_OFFSET
    hooks: dict[tuple[TableKind, str], tuple[list[bytes], InlineHookTruth]] = {}
    for hook in spec.inline_hooks:
        key = (_table_of_service(hook.service), hook.service)
        addr = stub_addrs[key]
        payload_addr = placed[hook.payload].reserve_cell(hook.payload_offset)
        sites = range(site, site + (hook.depth - 1) * CHAIN_SITE_SIZE, CHAIN_SITE_SIZE)
        site = sites.stop
        hops = (*sites, payload_addr)
        if hook.style == STYLE_MOV_JMP:  # mov rax, imm64; jmp rax
            jmp = b"\xFF\xE0"
            instructions = [b"\x48\xB8" + struct.pack("<Q", payload_addr), jmp]
            chain = [TransferTruth(addr + 10, TransferKind.JMP_INDIRECT, 2, None, jmp.hex())]
        else:
            opcode, kind = ((b"\xE8", TransferKind.CALL_RELATIVE) if hook.style == STYLE_CALL_REL32
                            else (b"\xE9", TransferKind.JMP_RELATIVE))
            enc = opcode + _rel32(addr, hops[0])
            instructions = [enc]
            chain = [TransferTruth(addr, kind, 5, hops[0], enc.hex())]
        # Chain sites: each hop's bytes and its truth share one encoding.
        for at, target in zip(sites, hops[1:]):
            enc = b"\xE9" + _rel32(at, target)
            layout.write(at, enc.ljust(CHAIN_SITE_SIZE, b"\xCC"))
            chain.append(TransferTruth(at, TransferKind.JMP_RELATIVE, 5, target, enc.hex()))
        layout.write(payload_addr, b"\x90\x90\xC3")  # inert payload marker
        hooks[key] = instructions, InlineHookTruth(
            table=key[0],
            service=hook.service,
            function_addr=addr,
            hook_addr=chain[0].at,
            style=hook.style,
            payload_addr=payload_addr,
            payload_key=hook.payload,
            indeterminate=hook.style == STYLE_MOV_JMP,
            chain=tuple(chain),
        )
    return hooks


def _write_stubs(layout, rng, stub_addrs, hooks):
    """Write every service's 64-byte stub into the core, a hooked one after its hook.

    Returns each stub's instruction listing and the inline hook truths, in
    service order.
    """
    listings: dict[str, tuple[StubInstruction, ...]] = {}
    truths: list[InlineHookTruth] = []
    for (kind, name), addr in stub_addrs.items():
        instructions, truth = hooks.get((kind, name), ([], None))
        if truth is not None:
            truths.append(truth)
        # A jmp-style hook diverts flow unconditionally: nothing after it
        # runs, and the sweep stops there too. call-style hooks return, so
        # give them a benign tail like the real patched function would keep.
        if truth is None or truth.style == STYLE_CALL_REL32:
            instructions += _benign_body(rng)
        layout.write(addr, b"".join(instructions).ljust(STUB_SIZE, b"\xCC"))
        listing, at = [], addr
        for insn in instructions:
            listing.append(StubInstruction(at, len(insn), insn.hex()))
            at += len(insn)
        listings[f"{kind.value}/{name}"] = tuple(listing)
    return listings, truths


def _write_cells(layout, spec, placed, rng) -> list[PointerHookTruth]:
    """Fill each pointer hook's target cell with a benign body."""
    truths = []
    for hook in spec.pointer_hooks:
        addr = placed[hook.target].reserve_cell()
        layout.write(addr, b"".join(_benign_body(rng)))
        index = hook.table.services.index(hook.service)
        truths.append(PointerHookTruth(hook.table, hook.service, index, addr, hook.target))
    return truths


def _write_tables(layout, spec, stub_addrs, pointer_truths) -> dict[str, TableTruth]:
    """Write the three service tables, each CRC stored as the policy says."""
    geom = spec.geometry
    nulls = set(spec.null_services)
    truths = {}
    for kind in TableKind:
        names = kind.services
        addr = geom.table_base + kind.rank * TABLE_STRIDE
        header_size = HEADER_LEN + ENTRY_LEN * len(names)
        revision = DXE_REVISION if kind is TableKind.DXE else BOOT_REVISION

        true_pointers = {
            name: 0 if (kind, name) in nulls else stub_addrs[(kind, name)] for name in names
        }
        final_pointers = dict(true_pointers)
        final_pointers.update((h.service, h.hooked_pointer) for h in pointer_truths
                              if h.table is kind)

        def render(pointers: dict[str, int], crc: int) -> bytes:
            header = TABLE_HEADER.pack(kind.signature, revision, header_size, crc, 0)
            return header + struct.pack(f"<{len(names)}Q", *(pointers[n] for n in names))

        stored = {
            CRC_CORRECT: crc32_ieee(render(final_pointers, 0)),
            CRC_STALE: crc32_ieee(render(true_pointers, 0)),
            CRC_CORRUPTED: _CORRUPT_CRC,
        }[spec.crc_policy]
        layout.write(addr, render(final_pointers, stored))
        truths[kind.value] = TableTruth(
            addr, revision, header_size, stored, true_pointers, final_pointers
        )
    return truths


def _write_records(layout, placed) -> None:
    """Write one ``ldri`` record per image, its GUID and UTF-16 path after it."""
    for p in placed.values():
        guid_ptr = path_ptr = 0
        if p.spec.guid:
            guid_ptr = p.record_addr + _LDRI_GUID_OFFSET
            layout.write(guid_ptr, uuid.UUID(p.spec.guid).bytes_le)
        if p.spec.path:
            path_ptr = p.record_addr + _LDRI_PATH_OFFSET
            layout.write(path_ptr, p.spec.path.encode("utf-16-le") + b"\x00\x00")
        layout.write(p.record_addr, LDRI_RECORD.pack(
            LDRI_SIGNATURE, p.base, p.spec.size, guid_ptr, path_ptr
        ))


def _write_decoys(layout, spec, core) -> list[DecoyTruth]:
    truths = []
    for decoy in spec.decoys:
        if decoy.kind == DECOY_FAKE_SIGNATURE:
            # Table signature inside image file data with an insane header.
            addr = core.base + DECOY_SIG_OFFSET
            layout.write(addr, TABLE_HEADER.pack(TableKind.BOOT.signature, BOOT_REVISION, 0, 0, 0))
        else:
            # ldri bytes whose size field cannot possibly be a real image.
            addr = spec.geometry.ldri_base + _ldri_span(spec) - 0x800
            layout.write(addr, LDRI_RECORD.pack(LDRI_SIGNATURE, 0x1000, 0xFFFF_FFFF_0000, 0, 0))
        truths.append(DecoyTruth(decoy.kind, addr))
    return truths


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
    moon_payload = ImageSpec(guid=MOONBOUNCE_PAYLOAD_GUID, size=0xD000,
                             base=MOONBOUNCE_PAYLOAD_BASE, role=ROLE_PAYLOAD)
    nested_payload = ImageSpec(guid=NESTED_PAYLOAD_GUID, size=0x8000, role=ROLE_PAYLOAD)

    efiguard_hooks = (PointerHookSpec(TableKind.BOOT, "LoadImage", EFIGUARD_PATH),
                      PointerHookSpec(TableKind.RUNTIME, "SetVariable", EFIGUARD_PATH))
    cosmic_hooks = (
        PointerHookSpec(TableKind.BOOT, "AllocatePages", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.BOOT, "LocateProtocol", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.BOOT, "CreateEvent", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.RUNTIME, "GetVariable", COSMICSTRAND_GUID),
        PointerHookSpec(TableKind.RUNTIME, "SetVariable", COSMICSTRAND_GUID),
    )

    moon_hook = InlineHookSpec(service="CreateEventEx", style=STYLE_CALL_REL32, depth=1,
                               payload=MOONBOUNCE_PAYLOAD_GUID,
                               payload_offset=MOONBOUNCE_PAYLOAD_OFFSET)

    def nested(depth: int) -> ScenarioSpec:
        hook = InlineHookSpec(service="CreateEventEx", style=STYLE_JMP_REL32, depth=depth,
                              payload=NESTED_PAYLOAD_GUID)
        return ScenarioSpec(f"nested-{depth}", images=(core, nested_payload), inline_hooks=(hook,))

    return [
        ScenarioSpec("clean", images=(core, bootmgr, terminal)),
        ScenarioSpec("efiguard", images=(core, bootmgr, efiguard), pointer_hooks=efiguard_hooks),
        ScenarioSpec("glupteba", images=(core, bootmgr, efiguard),
                     pointer_hooks=efiguard_hooks[:1]),
        ScenarioSpec("cosmicstrand", images=(core, cosmic), pointer_hooks=cosmic_hooks),
        ScenarioSpec(
            "thunderstrike",
            # Exactly three images, one per loading source: firmware-embedded
            # core, ESP application, PCI option ROM.
            images=(core, bootx64, oprom),
            pointer_hooks=(PointerHookSpec(TableKind.DXE, "ProcessFirmwareVolume", OPROM_GUID),),
        ),
        ScenarioSpec("moonbounce", images=(core, moon_payload), inline_hooks=(moon_hook,)),
        ScenarioSpec("crc-recalc", images=(core, cosmic), pointer_hooks=cosmic_hooks,
                     crc_policy=CRC_CORRECT),
        nested(3),
        nested(4),
        ScenarioSpec("decoy-heavy", images=(core, bootmgr, terminal),
                     decoys=(DecoySpec(DECOY_FAKE_SIGNATURE), DecoySpec(DECOY_FAKE_LDRI))),
    ]


def scenario_by_name(name: str) -> ScenarioSpec:
    for spec in builtin_scenarios():
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in builtin_scenarios())
    raise ForgeError(f"unknown scenario {name!r} (builtin: {known})")

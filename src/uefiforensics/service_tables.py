"""EFI Boot / Runtime / DXE service table location and parsing.

Each table starts with a 24-byte header (8-byte ASCII signature, revision,
header size, CRC32, reserved) followed by an array of 8-byte little-endian
function pointers whose order is fixed across UEFI-compliant firmware. The
canonical orderings embedded here follow the public UEFI 2.x and PI 1.x
specifications, matching EDK II's table definitions.
"""

from __future__ import annotations

import binascii
import enum
import struct
from dataclasses import dataclass

from .dump_model import Anomaly, MemoryDump, OutOfBoundsRead, PhysAddr

TABLE_HEADER = struct.Struct("<8sIIII")
HEADER_LEN = TABLE_HEADER.size  # 24
ENTRY_LEN = 8
MAX_HEADER_SIZE = 4096
CRC_FIELD_OFFSET = 16


class TableKind(enum.Enum):
    """One service table kind, the one place its facts are stated.

    ``.value`` is the report name, ``.signature`` the 8-byte table
    signature, ``.services`` the spec's service order and ``.rank`` the
    report order, which is also the order the members iterate in.
    """

    signature: bytes
    services: tuple[str, ...]
    rank: int

    def __new__(cls, value: str, signature: bytes, services: tuple[str, ...]):
        member = object.__new__(cls)
        member._value_ = value
        member.signature = signature
        member.services = services
        member.rank = len(cls.__members__)
        return member

    BOOT = "boot", b"BOOTSERV", (
        "RaiseTPL",
        "RestoreTPL",
        "AllocatePages",
        "FreePages",
        "GetMemoryMap",
        "AllocatePool",
        "FreePool",
        "CreateEvent",
        "SetTimer",
        "WaitForEvent",
        "SignalEvent",
        "CloseEvent",
        "CheckEvent",
        "InstallProtocolInterface",
        "ReinstallProtocolInterface",
        "UninstallProtocolInterface",
        "HandleProtocol",
        "Reserved",
        "RegisterProtocolNotify",
        "LocateHandle",
        "LocateDevicePath",
        "InstallConfigurationTable",
        "LoadImage",
        "StartImage",
        "Exit",
        "UnloadImage",
        "ExitBootServices",
        "GetNextMonotonicCount",
        "Stall",
        "SetWatchdogTimer",
        "ConnectController",
        "DisconnectController",
        "OpenProtocol",
        "CloseProtocol",
        "OpenProtocolInformation",
        "ProtocolsPerHandle",
        "LocateHandleBuffer",
        "LocateProtocol",
        "InstallMultipleProtocolInterfaces",
        "UninstallMultipleProtocolInterfaces",
        "CalculateCrc32",
        "CopyMem",
        "SetMem",
        "CreateEventEx",
    )
    RUNTIME = "runtime", b"RUNTSERV", (
        "GetTime",
        "SetTime",
        "GetWakeupTime",
        "SetWakeupTime",
        "SetVirtualAddressMap",
        "ConvertPointer",
        "GetVariable",
        "GetNextVariableName",
        "SetVariable",
        "GetNextHighMonotonicCount",
        "ResetSystem",
        "UpdateCapsule",
        "QueryCapsuleCapabilities",
        "QueryVariableInfo",
    )
    DXE = "dxe", b"DXE_SERV", (
        "AddMemorySpace",
        "AllocateMemorySpace",
        "FreeMemorySpace",
        "RemoveMemorySpace",
        "GetMemorySpaceDescriptor",
        "SetMemorySpaceAttributes",
        "GetMemorySpaceMap",
        "AddIoSpace",
        "AllocateIoSpace",
        "FreeIoSpace",
        "RemoveIoSpace",
        "GetIoSpaceDescriptor",
        "GetIoSpaceMap",
        "Dispatch",
        "Schedule",
        "Trust",
        "ProcessFirmwareVolume",
    )


_KIND_BY_SIGNATURE = {kind.signature: kind for kind in TableKind}
# Every table signature ends in this suffix, so one scan for it finds all three.
_SUFFIX = b"SERV"
_SIGNATURE_LEN = 8
_PREFIX_LEN = _SIGNATURE_LEN - len(_SUFFIX)


class TableParseError(Exception):
    """Candidate table bytes failed structural validation."""


@dataclass(frozen=True)
class TableHeader:
    signature: bytes
    revision: int
    header_size: int
    crc32: int


@dataclass(frozen=True)
class ServiceEntry:
    index: int
    name: str
    pointer: PhysAddr


@dataclass(frozen=True)
class ServiceTable:
    kind: TableKind
    table_addr: PhysAddr
    header: TableHeader
    entries: tuple[ServiceEntry, ...]
    flags: tuple[str, ...] = ()

    def entry(self, name: str) -> ServiceEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def pointer_of(self, name: str) -> PhysAddr:
        return self.entry(name).pointer

    @property
    def null_entries(self) -> tuple[ServiceEntry, ...]:
        return tuple(e for e in self.entries if e.pointer == 0)


def parse_table(dump: MemoryDump, kind: TableKind, addr: PhysAddr) -> ServiceTable:
    """Decode the table at ``addr``; raises TableParseError on bad structure.

    Firmware disagrees on whether header_size covers the pointer array. A
    header_size of exactly 24 therefore falls back to the canonical entry
    count (flagged); a header_size implying fewer entries than canonical
    parses only what the header claims (flagged).
    """
    try:
        raw = dump.read_bytes(addr, HEADER_LEN)
    except OutOfBoundsRead as exc:
        raise TableParseError(f"header at {addr:#x} extends past dump span") from exc
    signature, revision, header_size, crc32, _ = TABLE_HEADER.unpack(raw)
    if signature != kind.signature:
        raise TableParseError(
            f"signature mismatch at {addr:#x}: {signature!r} != {kind.signature!r}"
        )
    if not HEADER_LEN <= header_size <= MAX_HEADER_SIZE:
        raise TableParseError(f"header_size {header_size} at {addr:#x} out of sanity bounds")

    names = kind.services
    flags: list[str] = []
    full_size = HEADER_LEN + ENTRY_LEN * len(names)
    if header_size == HEADER_LEN:
        count = len(names)
        flags.append("header_size_excludes_entries")
    elif header_size < full_size:
        count = (header_size - HEADER_LEN) // ENTRY_LEN
        flags.append("entry_count_truncated_by_header_size")
    else:
        count = len(names)

    try:
        raw_entries = dump.read_bytes(addr + HEADER_LEN, ENTRY_LEN * count) if count else b""
    except OutOfBoundsRead as exc:
        raise TableParseError(f"entry array at {addr:#x} extends past dump span") from exc
    pointers = struct.unpack(f"<{count}Q", raw_entries)
    entries = tuple(ServiceEntry(i, names[i], ptr) for i, ptr in enumerate(pointers))

    header = TableHeader(signature, revision, header_size, crc32)
    return ServiceTable(kind, addr, header, entries, tuple(flags))


def find_table_candidates(dump: MemoryDump) -> list[tuple[TableKind, PhysAddr]]:
    """Signature-scan for table candidates, in (kind, address) order, unvalidated.

    One scan for ``SERV`` finds all three kinds: a hit is a candidate when
    the 8 bytes starting 4 before it are a table signature.
    """
    candidates = []
    for suffix_addr in dump.find_signature(_SUFFIX):
        addr = suffix_addr - _PREFIX_LEN
        if addr >= 0:
            kind = _KIND_BY_SIGNATURE.get(dump.read_bytes(addr, _SIGNATURE_LEN))
            if kind is not None:
                candidates.append((kind, addr))
    return sorted(candidates, key=lambda c: (c[0].rank, c[1]))


def locate_tables(dump: MemoryDump) -> tuple[list[ServiceTable], list[Anomaly]]:
    """Locate and parse all service tables, collecting parse anomalies.

    Candidates that fail validation are reported, not raised. Tables come
    back in (kind, address) order, which the report keeps. Multiple
    validated tables of one kind are all returned and flagged; a kind with
    no validated table is flagged as missing.
    """
    tables: list[ServiceTable] = []
    anomalies: list[Anomaly] = []
    for kind, addr in find_table_candidates(dump):
        try:
            tables.append(parse_table(dump, kind, addr))
        except TableParseError as exc:
            anomalies.append(Anomaly("table_candidate_rejected", addr, str(exc)))
    for kind in TableKind:
        of_kind = [t for t in tables if t.kind is kind]
        if not of_kind:
            anomalies.append(Anomaly("table_missing", None, f"no valid {kind.value} table found"))
        elif len(of_kind) > 1:
            addrs = ", ".join(f"{t.table_addr:#x}" for t in of_kind)
            anomalies.append(
                Anomaly("duplicate_table", of_kind[0].table_addr,
                        f"{len(of_kind)} validated {kind.value} tables: {addrs}")
            )
    return tables, anomalies


def crc32_ieee(data: bytes) -> int:
    """Standard CRC-32 (reflected 0xEDB88320, init/xorout 0xFFFFFFFF)."""
    return binascii.crc32(data)


def compute_table_crc32(dump: MemoryDump, table: ServiceTable) -> int:
    """CRC over header_size bytes at the table base, CRC field read as zero."""
    buf = bytearray(dump.read_bytes(table.table_addr, table.header.header_size))
    buf[CRC_FIELD_OFFSET:CRC_FIELD_OFFSET + 4] = b"\x00\x00\x00\x00"
    return crc32_ieee(bytes(buf))


@dataclass(frozen=True)
class CrcStatus:
    crc_ok: bool
    stored: int
    computed: int | None  # None: the header_size range runs past the dump span


def verify_table_integrity(dump: MemoryDump, table: ServiceTable) -> CrcStatus:
    """Compare stored vs recomputed CRC.

    Advisory metadata only: bootkits routinely recalculate the checksum
    after patching pointers, so detection never keys off this result.
    """
    stored = table.header.crc32
    if not dump.in_span(table.table_addr, table.header.header_size):
        return CrcStatus(crc_ok=False, stored=stored, computed=None)
    computed = compute_table_crc32(dump, table)
    return CrcStatus(crc_ok=(stored == computed), stored=stored, computed=computed)

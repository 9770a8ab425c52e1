"""Raw memory dump model.

A dump is an immutable, randomly addressable physical address space: one
file buffer, kept as given, and the ``Region``s that map it. Regions may
be sparse: bytes between regions read as zero (acquisition tools commonly
skip reserved ranges and either zero-fill them or describe the holes in a
sidecar map).
"""

from __future__ import annotations

import json
import logging
import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

# Physical addresses are plain ints (byte offsets into the physical space).
PhysAddr = int

# Longest zero run ``MemoryDump.iter_range`` yields for a gap.
ZERO_RUN = 1 << 20
_ZEROS = bytes(ZERO_RUN)


class DumpLoadError(Exception):
    """Dump file or region sidecar could not be loaded."""


class OutOfBoundsRead(Exception):
    """Read extends past the dump's physical span."""


@dataclass(frozen=True)
class Region:
    """One mapped run of physical memory backed by file bytes."""

    phys_start: PhysAddr
    file_offset: int
    length: int

    @property
    def phys_end(self) -> PhysAddr:
        return self.phys_start + self.length


@dataclass(frozen=True)
class Anomaly:
    """A structural oddity worth reporting; never a hook finding by itself."""

    kind: str
    addr: PhysAddr | None
    detail: str

    def __str__(self) -> str:
        where = f" @ {self.addr:#x}" if self.addr is not None else ""
        return f"{self.kind}{where}: {self.detail}"


class MemoryDump:
    """Immutable view of a raw physical memory dump.

    The dump keeps the file buffer it is given; each region maps a run of
    its bytes to physical addresses. Regions are sorted and non-overlapping.
    ``read_bytes`` assembles across regions, filling gaps with zeros, and
    ``iter_range`` yields the same bytes as read-only file-buffer views and
    zero runs, without copying; any read past ``total_span`` raises
    :class:`OutOfBoundsRead`. Instances are safe to share across threads.
    """

    def __init__(self, data, regions, source_path: str = "<memory>"):
        """``data``: the file bytes, kept as given (a ``bytearray`` is handed over:
        the caller must not write to it afterwards); ``regions``: Regions in it."""
        self._data = data
        self._view = memoryview(data).toreadonly()
        self._regions = tuple(sorted(regions, key=lambda r: r.phys_start))
        if not self._regions:
            raise DumpLoadError("dump has no regions")
        prev_end = 0
        for region in self._regions:
            if region.length <= 0:
                raise DumpLoadError(f"region at {region.phys_start:#x} has non-positive length")
            if region.file_offset < 0 or region.file_offset + region.length > len(self._data):
                raise DumpLoadError(f"region at {region.phys_start:#x} maps outside the file")
            if region.phys_start < prev_end:
                raise DumpLoadError(f"regions overlap at {region.phys_start:#x}")
            prev_end = region.phys_end
        self._starts = [r.phys_start for r in self._regions]
        self.total_span: int = self._regions[-1].phys_end
        self.source_path = str(source_path)

    @property
    def regions(self) -> tuple[Region, ...]:
        return self._regions

    @classmethod
    def from_regions(cls, pieces, source_path: str = "<memory>") -> "MemoryDump":
        """Build a dump from (phys_start, bytes) pairs without touching disk.

        The pieces are laid end to end, in the order given, as the file.
        """
        pieces = list(pieces)
        regions, offset = [], 0
        for start, buf in pieces:
            regions.append(Region(phys_start=start, file_offset=offset, length=len(buf)))
            offset += len(buf)
        return cls(b"".join(buf for _, buf in pieces), regions, source_path=source_path)

    def save(self, dump_path, map_path) -> None:
        """Write the file bytes and the region-map sidecar that ``load_dump`` reads."""
        Path(dump_path).write_bytes(self._data)
        records = [
            {
                "phys_start": f"0x{r.phys_start:x}",
                "file_offset": f"0x{r.file_offset:x}",
                "length": f"0x{r.length:x}",
            }
            for r in self._regions
        ]
        Path(map_path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")

    def read_bytes(self, addr: PhysAddr, length: int) -> bytes:
        """Read exactly ``length`` bytes at ``addr``; gap bytes are zero."""
        self._check_read(addr, length)
        end = addr + length
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            region = self._regions[i]
            # Fast path: read served entirely by one region.
            if end <= region.phys_end:
                off = region.file_offset + addr - region.phys_start
                return self._view[off:off + length].tobytes()
        return b"".join(self._walk(addr, end))

    def iter_range(self, addr: PhysAddr, length: int):
        """Yield ``[addr, addr + length)`` in physical order, without copying.

        Region bytes come as ``memoryview`` slices of the file buffer, gap
        bytes as zero ``bytes`` runs of at most ``ZERO_RUN`` bytes; joined,
        the chunks equal ``read_bytes(addr, length)``. The range is checked
        before this returns, with the errors ``read_bytes`` raises.
        """
        self._check_read(addr, length)
        return self._walk(addr, addr + length)

    def _check_read(self, addr: PhysAddr, length: int) -> None:
        if length <= 0:
            raise ValueError("read length must be positive")
        if addr < 0 or addr + length > self.total_span:
            raise OutOfBoundsRead(
                f"read [{addr:#x}, {addr + length:#x}) outside span {self.total_span:#x}"
            )

    def _walk(self, pos: PhysAddr, end: PhysAddr):
        for region in self._regions[max(bisect_right(self._starts, pos) - 1, 0):]:
            if pos >= end:
                break
            gap_end = min(region.phys_start, end)
            while pos < gap_end:
                run = _ZEROS[:gap_end - pos]
                yield run
                pos += len(run)
            hi = min(end, region.phys_end)
            if pos < hi:
                off = region.file_offset + pos - region.phys_start
                yield self._view[off:off + hi - pos]
                pos = hi

    def read_u64(self, addr: PhysAddr) -> int:
        return struct.unpack("<Q", self.read_bytes(addr, 8))[0]

    def in_span(self, addr: PhysAddr, length: int = 1) -> bool:
        return 0 <= addr and addr + length <= self.total_span

    def find_signature(self, sig: bytes) -> list[PhysAddr]:
        """Addresses of every occurrence of ``sig``, at any byte offset, ascending.

        Matches straddling region boundaries are honoured, so the result is
        identical to scanning the fully reassembled image. An all-zero
        ``sig`` is refused: it would also match throughout every gap.
        """
        sig = bytes(sig)
        if not any(sig):
            raise ValueError("signature must hold a nonzero byte")

        pad = len(sig) - 1
        found: set[int] = set()
        for region in self._regions:
            # Matches inside the region, found where its bytes lie in the file.
            shift = region.phys_start - region.file_offset
            found.update(pos + shift for pos in _find_all(
                self._data, sig, region.file_offset, region.file_offset + region.length))
            # Matches crossing an edge of the region lie in the pad bytes
            # either side of it, reassembled with whatever borders it.
            for edge in (region.phys_start, region.phys_end):
                lo, hi = max(edge - pad, 0), min(edge + pad, self.total_span)
                if hi - lo > pad:
                    found.update(lo + pos for pos in _find_all(self.read_bytes(lo, hi - lo), sig))
        hits = sorted(found)
        logger.debug("signature %r: %d hit(s)", sig, len(hits))
        return hits

    def __repr__(self) -> str:
        return (
            f"MemoryDump(span={self.total_span:#x}, regions={len(self._regions)}, "
            f"source={self.source_path!r})"
        )


def _find_all(buf: bytes, sig: bytes, start: int = 0, end: int | None = None):
    pos = buf.find(sig, start, end)
    while pos >= 0:
        yield pos
        pos = buf.find(sig, pos + 1, end)


def _parse_map_field(obj: dict, key: str) -> int:
    try:
        raw = obj[key]
    except KeyError:
        raise DumpLoadError(f"sidecar record missing field {key!r}") from None
    if isinstance(raw, int) and not isinstance(raw, bool):
        value = raw
    elif isinstance(raw, str):
        try:
            value = int(raw, 0)
        except ValueError:
            raise DumpLoadError(f"sidecar field {key!r} is not a number: {raw!r}") from None
    else:
        raise DumpLoadError(f"sidecar field {key!r} has unsupported type {type(raw).__name__}")
    if value < 0:
        raise DumpLoadError(f"sidecar field {key!r} is negative")
    return value


def _load_sidecar(map_path: Path) -> list[Region]:
    try:
        records = json.loads(map_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise DumpLoadError(f"cannot parse sidecar {map_path}: {exc}") from exc
    if not isinstance(records, list) or not records:
        raise DumpLoadError(f"sidecar {map_path} must be a non-empty JSON array")
    if not all(isinstance(obj, dict) for obj in records):
        raise DumpLoadError(f"sidecar {map_path}: records must be objects")
    return [
        Region(
            phys_start=_parse_map_field(obj, "phys_start"),
            file_offset=_parse_map_field(obj, "file_offset"),
            length=_parse_map_field(obj, "length"),
        )
        for obj in records
    ]


def load_dump(path, map_path=None) -> MemoryDump:
    """Load a raw dump file, applying a region-map sidecar when present.

    Without a sidecar the file is one region at physical address 0. When
    ``map_path`` is not given, ``<stem>.map.json`` next to the dump (and
    ``<path>.map.json``) are probed automatically.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DumpLoadError(f"cannot read dump {path}: {exc}") from exc
    if not data:
        raise DumpLoadError(f"dump {path} is empty")

    if map_path is not None:
        map_path = Path(map_path)
        if not map_path.is_file():
            raise DumpLoadError(f"sidecar {map_path} does not exist")
    else:
        for candidate in (path.with_suffix(".map.json"), Path(str(path) + ".map.json")):
            if candidate != path and candidate.is_file():
                map_path = candidate
                break

    if map_path is None:
        regions = [Region(phys_start=0, file_offset=0, length=len(data))]
    else:
        regions = _load_sidecar(map_path)
        logger.info("loaded sidecar %s (%d regions)", map_path, len(regions))
    try:
        return MemoryDump(data, regions, source_path=str(path))
    except DumpLoadError as exc:
        raise DumpLoadError(f"sidecar {map_path}: {exc}") from None

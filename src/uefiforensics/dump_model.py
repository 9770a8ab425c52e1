"""Raw memory dump model.

A dump is an immutable, randomly addressable physical address space backed
by one or more file regions. Regions may be sparse: bytes between regions
read as zero (acquisition tools commonly skip reserved ranges and either
zero-fill them or describe the holes in a sidecar map).
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

SIGNATURE_LENGTHS = (4, 8)


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
class SignatureHit:
    signature: bytes
    addr: PhysAddr


@dataclass(frozen=True)
class Anomaly:
    """A structural oddity worth reporting; never a hook finding by itself."""

    kind: str
    addr: PhysAddr | None
    detail: str


class MemoryDump:
    """Immutable view of a raw physical memory dump.

    Regions are sorted and non-overlapping. ``read_bytes`` assembles across
    regions, filling gaps with zeros; any read past ``total_span`` raises
    :class:`OutOfBoundsRead`. Instances are safe to share across threads.
    """

    def __init__(self, pieces, source_path: str = "<memory>"):
        """``pieces``: iterable of (Region, bytes-like) pairs."""
        items = sorted(pieces, key=lambda p: p[0].phys_start)
        prev_end = 0
        for region, buf in items:
            if region.length <= 0:
                raise DumpLoadError(f"region at {region.phys_start:#x} has non-positive length")
            if len(buf) != region.length:
                raise DumpLoadError(
                    f"region at {region.phys_start:#x}: buffer length {len(buf)} != {region.length}"
                )
            if region.phys_start < prev_end:
                raise DumpLoadError(f"regions overlap at {region.phys_start:#x}")
            prev_end = region.phys_end
        if not items:
            raise DumpLoadError("dump has no regions")
        self._regions = tuple(r for r, _ in items)
        self._buffers = tuple(bytes(b) for _, b in items)
        self._starts = [r.phys_start for r in self._regions]
        self.total_span: int = self._regions[-1].phys_end
        self.source_path = str(source_path)

    @property
    def regions(self) -> tuple[Region, ...]:
        return self._regions

    @classmethod
    def from_regions(cls, pieces, source_path: str = "<memory>") -> "MemoryDump":
        """Build a dump from (phys_start, bytes) pairs without touching disk."""
        wrapped = [
            (Region(phys_start=start, file_offset=0, length=len(buf)), buf)
            for start, buf in pieces
        ]
        return cls(wrapped, source_path=source_path)

    def read_bytes(self, addr: PhysAddr, length: int) -> bytes:
        """Read exactly ``length`` bytes at ``addr``; gap bytes are zero."""
        if length <= 0:
            raise ValueError("read length must be positive")
        if addr < 0 or addr + length > self.total_span:
            raise OutOfBoundsRead(
                f"read [{addr:#x}, {addr + length:#x}) outside span {self.total_span:#x}"
            )
        end = addr + length
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            region = self._regions[i]
            # Fast path: read served entirely by one region.
            if region.phys_start <= addr and end <= region.phys_end:
                off = addr - region.phys_start
                return self._buffers[i][off:off + length]
        out = bytearray(length)
        j = max(i, 0)
        while j < len(self._regions) and self._regions[j].phys_start < end:
            region = self._regions[j]
            lo = max(addr, region.phys_start)
            hi = min(end, region.phys_end)
            if lo < hi:
                src = lo - region.phys_start
                out[lo - addr:hi - addr] = self._buffers[j][src:src + (hi - lo)]
            j += 1
        return bytes(out)

    def read_u64(self, addr: PhysAddr) -> int:
        return struct.unpack("<Q", self.read_bytes(addr, 8))[0]

    def in_span(self, addr: PhysAddr, length: int = 1) -> bool:
        return 0 <= addr and addr + length <= self.total_span

    def find_signature(self, sig: bytes, alignment: int | None = None) -> list[SignatureHit]:
        """Find every aligned occurrence of ``sig``, in ascending address order.

        ``alignment`` defaults to the signature length (table structures are
        naturally aligned allocations); pass 1 to scan every byte offset.
        Matches straddling region boundaries and, for all-zero signatures,
        matches lying wholly inside gaps are both honoured, so the result is
        identical to scanning the fully reassembled image.
        """
        sig = bytes(sig)
        if len(sig) not in SIGNATURE_LENGTHS:
            raise ValueError(f"signature length must be one of {SIGNATURE_LENGTHS}")
        if alignment is None:
            alignment = len(sig)
        if alignment < 1 or alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")

        pad = len(sig) - 1
        found: set[int] = set()
        for region in self._regions:
            lo = max(region.phys_start - pad, 0)
            hi = min(region.phys_end + pad, self.total_span)
            window = self.read_bytes(lo, hi - lo)
            pos = window.find(sig)
            while pos >= 0:
                addr = lo + pos
                # Claim only matches touching this region; gap-interior
                # matches are handled below, once.
                if addr % alignment == 0 and addr < region.phys_end and addr + len(sig) > region.phys_start:
                    found.add(addr)
                pos = window.find(sig, pos + 1)
        if sig.count(0) == len(sig):
            found.update(self._zero_sig_gap_hits(len(sig), alignment))
        logger.debug("signature %r: %d hit(s)", sig, len(found))
        return [SignatureHit(sig, addr) for addr in sorted(found)]

    def _zero_sig_gap_hits(self, siglen: int, alignment: int):
        gap_start = 0
        for region in self._regions:
            yield from _aligned_range(gap_start, region.phys_start, siglen, alignment)
            gap_start = region.phys_end

    def __repr__(self) -> str:
        return (
            f"MemoryDump(span={self.total_span:#x}, regions={len(self._regions)}, "
            f"source={self.source_path!r})"
        )


def _aligned_range(lo: int, hi: int, siglen: int, alignment: int):
    first = -(-lo // alignment) * alignment
    addr = first
    while addr + siglen <= hi:
        yield addr
        addr += alignment


def _parse_map_field(obj: dict, key: str) -> int:
    try:
        raw = obj[key]
    except KeyError:
        raise DumpLoadError(f"sidecar record missing field {key!r}") from None
    if isinstance(raw, int):
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


def _load_sidecar(map_path: Path, file_size: int) -> list[Region]:
    try:
        records = json.loads(map_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DumpLoadError(f"cannot parse sidecar {map_path}: {exc}") from exc
    if not isinstance(records, list) or not records:
        raise DumpLoadError(f"sidecar {map_path} must be a non-empty JSON array")
    regions = []
    for obj in records:
        if not isinstance(obj, dict):
            raise DumpLoadError(f"sidecar {map_path}: records must be objects")
        region = Region(
            phys_start=_parse_map_field(obj, "phys_start"),
            file_offset=_parse_map_field(obj, "file_offset"),
            length=_parse_map_field(obj, "length"),
        )
        if region.length == 0:
            raise DumpLoadError(f"sidecar {map_path}: zero-length region at {region.phys_start:#x}")
        if region.file_offset + region.length > file_size:
            raise DumpLoadError(
                f"sidecar {map_path}: region at {region.phys_start:#x} maps past end of file"
            )
        regions.append(region)
    regions.sort(key=lambda r: r.phys_start)
    for prev, cur in zip(regions, regions[1:]):
        if cur.phys_start < prev.phys_end:
            raise DumpLoadError(
                f"sidecar {map_path}: regions at {prev.phys_start:#x} and {cur.phys_start:#x} overlap"
            )
    return regions


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
        regions = _load_sidecar(map_path, len(data))
        logger.info("loaded sidecar %s (%d regions)", map_path, len(regions))

    pieces = [(r, data[r.file_offset:r.file_offset + r.length]) for r in regions]
    return MemoryDump(pieces, source_path=str(path))

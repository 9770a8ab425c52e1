"""Raw memory dump model.

A dump is an immutable, randomly addressable physical address space: one
file buffer, kept as given, and the ``Region``s that map it. Regions may
be sparse: bytes between regions read as zero (acquisition tools commonly
skip reserved ranges and either zero-fill them or describe the holes in a
sidecar map).

``load_dump`` maps the file read-only rather than reading it. The bulk
passes (signature scan, content hash, carve) walk file bytes one
``WINDOW`` at a time and, on a mapping, drop each window's pages once they
leave it, so resident memory is bounded by the windows in flight, not by
the file. The file must not shrink while a dump maps it: touching a page
past its new end raises ``SIGBUS``, which kills the process.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

# Physical addresses are plain ints (byte offsets into the physical space).
PhysAddr = int

# Longest zero run ``MemoryDump.iter_range`` yields for a gap.
ZERO_RUN = 1 << 20
# File bytes a bulk pass handles at a time: the longest view ``iter_range``
# yields and the stride of ``find_signature``. A multiple of any page size.
WINDOW = 4 << 20
# Probe hits one signature-scan window checks one by one before it hands the
# rest of the window to a plain ``bytes.find`` of the whole signature.
LEAD_HITS = 64
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
    ``iter_range`` yields the same bytes as read-only file-buffer views of
    at most ``WINDOW`` bytes and zero runs, without copying; any read past
    ``total_span`` raises :class:`OutOfBoundsRead`. Instances are safe to
    share across threads: a page one thread drops while another reads it
    faults back in from the page cache with the same bytes.
    """

    def __init__(self, data, regions, source_path: str = "<memory>"):
        """``data``: the file bytes, kept as given: ``bytes``, a ``bytearray`` (handed
        over: the caller must not write to it afterwards) or a read-only ``mmap``;
        ``regions``: Regions in it."""
        self._regions = tuple(sorted(regions, key=lambda r: r.phys_start))
        if not self._regions:
            raise DumpLoadError("dump has no regions")
        prev_end = 0
        for region in self._regions:
            if region.length <= 0:
                raise DumpLoadError(f"region at {region.phys_start:#x} has non-positive length")
            if region.file_offset < 0 or region.file_offset + region.length > len(data):
                raise DumpLoadError(f"region at {region.phys_start:#x} maps outside the file")
            if region.phys_start < prev_end:
                raise DumpLoadError(f"regions overlap at {region.phys_start:#x}")
            prev_end = region.phys_end
        # Held only once the regions are accepted: a refused mapping can be closed.
        self._data = data
        self._view = memoryview(data).toreadonly()
        self._droppable = isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")
        self._starts = [r.phys_start for r in self._regions]
        self.total_span: int = self._regions[-1].phys_end
        self.source_path = str(source_path)

    @property
    def regions(self) -> tuple[Region, ...]:
        return self._regions

    @classmethod
    def from_regions(cls, pieces) -> "MemoryDump":
        """Build a dump from (phys_start, bytes) pairs without touching disk.

        The pieces are laid end to end, in the order given, as the file.
        """
        pieces = list(pieces)
        regions, offset = [], 0
        for start, buf in pieces:
            regions.append(Region(phys_start=start, file_offset=offset, length=len(buf)))
            offset += len(buf)
        return cls(b"".join(buf for _, buf in pieces), regions)

    def save(self, dump_path, map_path) -> None:
        """Write the file bytes and the region-map sidecar that ``load_dump`` reads.

        A mapped dump refuses, with ``ValueError``, to write over the file it
        maps: truncating that file would destroy the bytes being written.
        """
        if isinstance(self._data, mmap.mmap):
            for target in (dump_path, map_path):
                try:
                    same = os.path.samefile(target, self.source_path)
                except OSError:  # either file is missing: not the same file
                    same = False
                if same:
                    raise ValueError(f"{target} is the file this dump maps")
        with open(dump_path, "wb") as fh:  # one window at a time, like the bulk passes
            for off in range(0, len(self._data), WINDOW):
                fh.write(self._view[off:off + WINDOW])
                self._drop(off, WINDOW)  # madvise stops at the end of the mapping
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

        Region bytes come as ``memoryview`` slices of the file buffer of at
        most ``WINDOW`` bytes, gap bytes as zero ``bytes`` runs of at most
        ``ZERO_RUN`` bytes; joined, the chunks equal ``read_bytes(addr,
        length)``. Each view's pages are dropped when the next chunk is asked
        for. The range is checked before this returns, with the errors
        ``read_bytes`` raises.
        """
        self._check_read(addr, length)
        return self._walk(addr, addr + length, drop=True)

    def _check_read(self, addr: PhysAddr, length: int) -> None:
        if length <= 0:
            raise ValueError("read length must be positive")
        if not self.in_span(addr, length):
            raise OutOfBoundsRead(
                f"read [{addr:#x}, {addr + length:#x}) outside span {self.total_span:#x}"
            )

    def _walk(self, pos: PhysAddr, end: PhysAddr, drop: bool = False):
        for region in self._regions[max(bisect_right(self._starts, pos) - 1, 0):]:
            if pos >= end:
                break
            gap_end = min(region.phys_start, end)
            while pos < gap_end:
                run = _ZEROS[:gap_end - pos]
                yield run
                pos += len(run)
            hi = min(end, region.phys_end)
            while pos < hi:
                off = region.file_offset + pos - region.phys_start
                n = min(hi - pos, WINDOW)
                yield self._view[off:off + n]
                if drop:
                    self._drop(off, n)
                pos += n

    def _drop(self, off: int, length: int) -> None:
        """Release the pages of file bytes ``[off, off + length)`` of a mapping.

        Advisory: a dropped page faults back in from the page cache when next
        read. On a ``bytes`` or ``bytearray`` buffer this does nothing.
        """
        if self._droppable:
            start = off - off % mmap.PAGESIZE
            self._data.madvise(mmap.MADV_DONTNEED, start, off + length - start)

    def read_u64(self, addr: PhysAddr) -> int:
        return struct.unpack("<Q", self.read_bytes(addr, 8))[0]

    def in_span(self, addr: PhysAddr, length: int = 1) -> bool:
        return 0 <= addr and addr + length <= self.total_span

    def find_signature(self, sig: bytes) -> list[PhysAddr]:
        """Addresses of every occurrence of ``sig``, at any byte offset, ascending.

        Matches straddling region boundaries are honoured, so the result is
        identical to scanning the fully reassembled image. ``sig`` must be
        non-empty and hold no zero byte, so no match touches a gap: each one
        starts in one region and lies whole in it or runs on into the next.
        """
        sig = bytes(sig)
        if not sig or 0 in sig:
            raise ValueError("signature must be non-empty and hold no zero byte")

        pad = len(sig) - 1
        hits: list[int] = []
        for region in self._regions:
            # Matches inside the region, found where its bytes lie in the file,
            # one window at a time; windows overlap by ``pad`` bytes, so a match
            # across a window edge is found whole.
            shift = region.phys_start - region.file_offset
            end = region.file_offset + region.length
            for lo in range(region.file_offset, end, WINDOW):
                hits.extend(pos + shift for pos in _find_all(
                    self._data, sig, lo, min(lo + WINDOW + pad, end)))
                self._drop(lo, min(WINDOW, end - lo))
            # Matches running past the region's end start in its last ``pad``
            # bytes, reassembled with whatever follows.
            lo = max(region.phys_start, region.phys_end - pad)
            hi = min(region.phys_end + pad, self.total_span)
            if hi - lo > pad:
                edge = self.read_bytes(lo, hi - lo)
                hits.extend(lo + pos for pos in _find_all(edge, sig, 0, len(edge)))
        logger.debug("signature %r: %d hit(s)", sig, len(hits))
        return hits

    def __repr__(self) -> str:
        return (
            f"MemoryDump(span={self.total_span:#x}, regions={len(self._regions)}, "
            f"source={self.source_path!r})"
        )


def _find_all(buf, sig: bytes, start: int, end: int):
    """Offsets of every ``sig`` lying whole in ``buf[start:end]``, ascending.

    Probe, then compare: a one-byte ``find`` of the signature's first byte
    is a ``memchr``, and the whole signature is compared only where the
    probe lies. After ``LEAD_HITS`` probe hits the rest of the range goes to
    one plain ``find`` of the signature, so that probe-dense (or hostile)
    bytes cost no more than that ``find`` would alone.
    """
    if end - start < len(sig):  # else ``stop`` could go negative and count from the end
        return
    probe = sig[:1]
    # A probe at ``stop`` or past it leaves no room for the signature's tail.
    stop = end - len(sig) + 1
    pos = start
    for _ in range(LEAD_HITS):
        pos = buf.find(probe, pos, stop)
        if pos < 0:
            return
        if buf[pos:pos + len(sig)] == sig:
            yield pos
        pos += 1
    pos = buf.find(sig, pos, end)
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

    The file is mapped read-only, not read, and a dump it refuses leaves
    no mapping. Without a sidecar it is one region at physical address 0.
    When ``map_path`` is not given, ``<stem>.map.json`` next to the dump
    (and ``<path>.map.json``) are probed automatically.
    """
    path = Path(path)
    if map_path is not None:
        map_path = Path(map_path)
        if not map_path.is_file():
            raise DumpLoadError(f"sidecar {map_path} does not exist")
    else:
        for candidate in (path.with_suffix(".map.json"), Path(str(path) + ".map.json")):
            if candidate.is_file():
                map_path = candidate
                break
    if map_path is not None:
        regions = _load_sidecar(map_path)
        logger.info("loaded sidecar %s (%d regions)", map_path, len(regions))
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:
                raise DumpLoadError(f"dump {path} is empty")
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise DumpLoadError(f"cannot read dump {path}: {exc}") from exc
    if map_path is None:
        regions = [Region(phys_start=0, file_offset=0, length=len(data))]
    try:
        return MemoryDump(data, regions, source_path=str(path))
    except DumpLoadError as exc:
        data.close()
        raise DumpLoadError(f"sidecar {map_path}: {exc}") from None

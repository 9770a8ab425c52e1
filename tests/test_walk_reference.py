"""The inline walk against ``helpers.reference_inline_walk``, on generated gadget dumps
and on forged ones.

Each gadget dump holds two images and code sites built from gadgets: ``je +0`` ladders,
rel32 ``call``/``jmp``/``jcc`` to other sites or anywhere, short branches, near and
far pointer-slot forms, register-indirect forms and random bytes. One or two tables
of one to five services each point at the sites, so services share sites and the
sweeps and transfers behind them. The forged dumps are the builtins at
``COMPACT_GEOMETRY`` and the first 40 specs of the random corpus.
"""

import struct
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from uefiforensics.dump_model import MemoryDump
from uefiforensics.forge import COMPACT_GEOMETRY, build_scenario, builtin_scenarios
from uefiforensics.image_registry import (
    ImageIdentity,
    ImageMap,
    LoadedImageRecord,
    scan_loaded_images,
)
from uefiforensics.inline_hooks import DEFAULT_PROLOGUE_WINDOW, detect_inline_hooks
from uefiforensics.pointer_hooks import BaselineError, OwnershipBaseline, infer_baseline
from uefiforensics.service_tables import (
    ServiceEntry,
    ServiceTable,
    TableHeader,
    TableKind,
    locate_tables,
)

from helpers import NOT_PE, random_scenario, reference_inline_walk

SPAN = 0x4000
OWNER = LoadedImageRecord(0, 0x1000, 0x1000, ImageIdentity(file_path="\\owner.efi"), NOT_PE)
OTHER = LoadedImageRecord(0, 0x2000, 0x800, ImageIdentity(file_path="\\other.efi"), NOT_PE)
# Eight sites in the owner, two in the other image, one in no image.
SITES = (*range(0x1100, 0x1300, 0x40), 0x2100, 0x2140, 0x3100)
SITE_BYTES = 0x40
SLOTS = 0x1F00  # four 8-byte pointer slots in the owner
UNMAPPED = SPAN + 0x100

# Owner sites are drawn most often, so that chains run deep before they leave.
_OWNER_SITES = st.tuples(st.sampled_from(SITES[:8]), st.sampled_from((0, 0, 2, 5))).map(sum)
_TARGETS = st.one_of(_OWNER_SITES, _OWNER_SITES, _OWNER_SITES, st.sampled_from(SITES),
                     st.integers(0, SPAN + 0x200))
# call and jcc, which the sweep continues past, three times as often as jmp.
_REL32 = st.tuples(
    st.sampled_from((b"\xE8", b"\xE9", b"\x0F\x84", b"\x0F\x85", b"\xE8", b"\x0F\x84")), _TARGETS
)
# A piece is its bytes, (rel32 opcode, target) or (FF mod/rm byte, slot index or None).
_PIECES = st.one_of(
    st.integers(1, 8).map(lambda n: b"\x74\x00" * n),
    _REL32,
    _REL32,
    _REL32,
    st.tuples(st.sampled_from((0xEB, 0x74, 0x75)), st.integers(0, 255)).map(bytes),
    st.tuples(st.sampled_from((0x15, 0x25, 0x1D, 0x2D)), st.sampled_from((0, 1, 2, 3, None))),
    st.sampled_from((b"\xFF\xD0", b"\xFF\xE0", b"\x90", b"\xC3", b"\x48\x89\x5C\x24\x08")),
    st.binary(min_size=1, max_size=4),
)
_POINTERS = st.sampled_from((*SITES, 0, 0x1804, UNMAPPED))


def encode(piece, at: int) -> bytes:
    """``piece``'s bytes when it starts at ``at``."""
    if isinstance(piece, bytes):
        return piece
    op, arg = piece
    if isinstance(op, bytes):
        return op + struct.pack("<i", arg - (at + len(op) + 4))
    slot = UNMAPPED if arg is None else SLOTS + 8 * arg
    return bytes((0xFF, op)) + struct.pack("<i", slot - (at + 6))


def gadget_dump(sites_code, slot_targets) -> MemoryDump:
    buf = bytearray(SPAN)
    for site, pieces in zip(SITES, sites_code):
        code = b""
        for piece in pieces:
            code += encode(piece, site + len(code))
        code = code[:SITE_BYTES]
        buf[site:site + len(code)] = code
    for i, target in enumerate(slot_targets):
        struct.pack_into("<Q", buf, SLOTS + 8 * i, target)
    return MemoryDump.from_regions([(0, bytes(buf))])


def service_table(kind: TableKind, pointers) -> ServiceTable:
    entries = tuple(ServiceEntry(i, name, p) for i, (name, p) in
                    enumerate(zip(kind.services, pointers)))
    return ServiceTable(kind, 0x10, TableHeader(kind.signature, 1, 24, 0), entries)


@pytest.mark.parametrize("max_depth", [1, 3, 5])
@settings(max_examples=150, deadline=None)
@given(
    sites_code=st.lists(st.lists(_PIECES, max_size=12), min_size=len(SITES), max_size=len(SITES)),
    slot_targets=st.lists(_TARGETS, min_size=4, max_size=4),
    tables=st.lists(st.lists(_POINTERS, min_size=1, max_size=5), min_size=1, max_size=2),
    window=st.sampled_from((8, 32, 64)),
)
def test_walk_matches_the_reference_walk(max_depth, sites_code, slot_targets, tables, window):
    dump = gadget_dump(sites_code, slot_targets)
    image_map = ImageMap([OWNER, OTHER])
    baseline = OwnershipBaseline(OWNER, confidence="high", source="override")
    for kind, pointers in zip((TableKind.BOOT, TableKind.RUNTIME), tables):
        table = service_table(kind, pointers)
        assert walk(dump, table, image_map, baseline, max_depth, window) == \
            reference_inline_walk(dump, table, image_map.records, OWNER, max_depth, window)


def walk(dump, table, image_map, baseline, max_depth, window) -> list:
    return [
        (f.table_kind, f.service_name, f.hook_addr, f.final_target, f.indeterminate, f.chain)
        for f in detect_inline_hooks(dump, table, image_map, baseline, max_depth, window)
    ]


@pytest.fixture(scope="module")
def forged_tables():
    """(dump, table, image map, baseline) for every table with a baseline in the builtins
    at ``COMPACT_GEOMETRY`` and in ``random_scenario(Random(12), i)`` built at seed i, i < 40."""
    rng = Random(12)
    specs = [(replace(spec, geometry=COMPACT_GEOMETRY), 0) for spec in builtin_scenarios()]
    specs += [(random_scenario(rng, i), i) for i in range(40)]
    cases = []
    for spec, seed in specs:
        dump = build_scenario(spec, seed).dump
        image_map = scan_loaded_images(dump)
        for table in locate_tables(dump)[0]:
            try:
                cases.append((dump, table, image_map, infer_baseline(table, image_map)))
            except BaselineError:
                pass
    return cases


@pytest.mark.parametrize("max_depth", [1, 3, 5])
def test_walk_matches_the_reference_walk_on_forged_dumps(forged_tables, max_depth):
    found = 0
    for dump, table, image_map, baseline in forged_tables:
        walked = walk(dump, table, image_map, baseline, max_depth, DEFAULT_PROLOGUE_WINDOW)
        assert walked == reference_inline_walk(dump, table, image_map.records, baseline.image,
                                               max_depth, DEFAULT_PROLOGUE_WINDOW)
        found += len(walked)
    assert found  # the corpus holds inline hooks at every depth

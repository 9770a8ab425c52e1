"""Byte-flipped forged dumps: the analyzer reports, it never raises.

A bootkit author shapes the memory the tool reads, so every structure the
parsers trust is fair game. Flips land mostly where parsing decisions are
made (table headers and entries, ``ldri`` records, service prologues, all
located through the truth manifest) and otherwise anywhere in the span.
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from uefiforensics.dump_model import MemoryDump
from uefiforensics.forge import COMPACT_GEOMETRY, build_scenario, scenario_by_name
from uefiforensics.image_registry import LDRI_RECORD_LEN
from uefiforensics.report import analyze_dump, render_text, to_json_dict

SCENARIOS = ("clean", "efiguard", "nested-3", "decoy-heavy")
PROLOGUE_BYTES = 32


@lru_cache(maxsize=None)
def forged_compact(name):
    """(region list, (start, length) ranges to favour) for a compact build."""
    scenario = build_scenario(replace(scenario_by_name(name), geometry=COMPACT_GEOMETRY))
    truth = scenario.truth
    hot = [(t.addr, t.header_size) for t in truth.tables.values()]
    hot += [(image.record_addr, LDRI_RECORD_LEN) for image in truth.images]
    hot += [
        (addr, PROLOGUE_BYTES)
        for t in truth.tables.values() for addr in t.true_pointers.values() if addr
    ]
    regions = [
        (r.phys_start, scenario.dump.read_bytes(r.phys_start, r.length))
        for r in scenario.dump.regions
    ]
    return regions, tuple(hot)


flips_strategy = st.lists(
    st.tuples(
        st.booleans(),  # inside a favoured range, or anywhere in the span
        st.integers(0, 1 << 16),  # which favoured range, modulo their count
        st.integers(0, 1 << 32),  # offset, modulo the range length or the span
        st.integers(1, 255),  # xor mask
    ),
    min_size=1,
    max_size=16,
)


def flipped(name, flips) -> MemoryDump:
    regions, hot = forged_compact(name)
    span = max(start + len(buf) for start, buf in regions)
    bufs = [(start, bytearray(buf)) for start, buf in regions]
    for favoured, pick, offset, mask in flips:
        if favoured:
            start, length = hot[pick % len(hot)]
            addr = start + offset % length
        else:
            addr = offset % span
        for start, buf in bufs:
            if start <= addr < start + len(buf):
                buf[addr - start] ^= mask
    return MemoryDump.from_regions([(start, bytes(buf)) for start, buf in bufs])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SCENARIOS), flips_strategy)
def test_flipped_dump_never_raises(name, flips):
    report = analyze_dump(flipped(name, flips))
    to_json_dict(report)
    render_text(report)
    assert report.exit_code in (0, 2)

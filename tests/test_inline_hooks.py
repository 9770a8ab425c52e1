import struct
import time
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, strategies as st

from uefiforensics import inline_hooks, report as report_module
from uefiforensics.dump_model import MemoryDump, OutOfBoundsRead
from uefiforensics.forge import (
    BOOTMGFW_PATH,
    COMPACT_GEOMETRY,
    CORE_GUID,
    EFIGUARD_PATH,
    MOONBOUNCE_PAYLOAD_GUID,
    STYLE_MOV_JMP,
    InlineHookSpec,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)
from uefiforensics.image_registry import (
    ImageIdentity,
    ImageMap,
    LoadedImageRecord,
    scan_loaded_images,
)
from uefiforensics.inline_hooks import (
    MAX_DEPTH_LIMIT,
    PROLOGUE_WINDOW_LIMIT,
    STOP_JMP,
    STOP_OPAQUE,
    STOP_RET,
    STOP_WINDOW,
    TransferKind,
    decode_instruction,
    detect_inline_hooks,
    scan_prologue,
)
from uefiforensics.pointer_hooks import infer_baseline
from uefiforensics.report import AnalysisOptions, analyze_dump
from uefiforensics.service_tables import (
    ServiceEntry,
    ServiceTable,
    TableHeader,
    TableKind,
    locate_tables,
)

from helpers import NOT_PE, sext


def test_decode_call_rel32():
    length, kind, target, slot = decode_instruction(bytes.fromhex("E800100000") + bytes(11), 0x1000)
    assert kind is TransferKind.CALL_RELATIVE
    assert length == 5
    assert target == 0x2005  # 0x1000 + 5 + 0x1000
    assert slot is None


def test_decode_self_jump():
    length, kind, target, _ = decode_instruction(b"\xEB\xFE" + bytes(14), 0x1000)
    assert kind is TransferKind.JMP_RELATIVE
    assert length == 2
    assert target == 0x1000


def test_decode_jmp_rel32_negative_displacement():
    _, _, target, _ = decode_instruction(b"\xE9" + struct.pack("<i", -0x20) + bytes(11), 0x5000)
    assert target == 0x5000 + 5 - 0x20


def test_decode_jcc_short_and_long():
    length, kind, target, _ = decode_instruction(b"\x74\x10" + bytes(14), 0x100)
    assert kind is TransferKind.JCC_RELATIVE and length == 2 and target == 0x112
    length, kind, target, _ = decode_instruction(
        b"\x0F\x85" + struct.pack("<i", 0x40) + bytes(10), 0x100
    )
    assert kind is TransferKind.JCC_RELATIVE and length == 6 and target == 0x146


def test_decode_rex_prefixed_transfer():
    length, kind, target, _ = decode_instruction(b"\x48\xE9" + struct.pack("<i", 8) + bytes(10), 0)
    assert kind is TransferKind.JMP_RELATIVE and length == 6 and target == 6 + 8


def test_decode_indirect_register_unresolved():
    length, kind, target, slot = decode_instruction(b"\xFF\xE0" + bytes(14), 0x10)
    assert kind is TransferKind.JMP_INDIRECT
    assert length == 2
    assert target is None and slot is None
    _, kind, _, _ = decode_instruction(b"\xFF\xD1" + bytes(14), 0x10)
    assert kind is TransferKind.CALL_INDIRECT


def test_decode_indirect_rip_relative_reports_slot():
    window = b"\xFF\x25" + struct.pack("<i", 0x100) + bytes(10)
    length, kind, _, slot = decode_instruction(window, 0x2000)
    assert kind is TransferKind.JMP_INDIRECT
    assert length == 6
    assert slot == 0x2000 + 6 + 0x100


def test_decode_ret_and_skip_lengths():
    # The forge stub pool's skip lengths are checked in test_decoder_differential.
    assert decode_instruction(b"\xC3" + bytes(15), 0)[1] == "ret"
    assert decode_instruction(b"\xC2\x08\x00" + bytes(13), 0)[:2] == (3, "ret")
    for encoding, length in (
        ("48B8" + "00" * 8, 10),  # mov rax, imm64
        ("F30F1EFA", 4),          # endbr64
        ("0F1808", 3),            # prefetcht0 [rax]
        ("480F44C1", 4),          # cmove rax, rcx
        ("0F94C0", 3),            # sete al
        ("D1E0", 2),              # shl eax, 1
        ("48D3E8", 3),            # shr rax, cl
        ("F00FB10A", 4),          # lock cmpxchg [rdx], ecx
        ("F348AB", 3),            # rep stosq
        ("F2F32E48818424" + "00" * 8, 15),  # add qword [rsp+0], 0 with 3 prefixes
    ):
        d = decode_instruction(bytes.fromhex(encoding) + bytes(16), 0)
        assert d is not None and d[:2] == (length, "skip"), encoding


def test_decode_opaque():
    for encoding in (
        "0F0B",          # ud2
        "D800",          # x87
        # Forms a CPU rejects end the sweep too.
        "FFD9",          # far call through a register (FF /3, mod = 3)
        "FFE9",          # far jmp through a register (FF /5, mod = 3)
        "8DC0",          # lea from a register
        "C60801",        # C6 /1
        "C6C801",        # C6 /1, register form
        "C7C801000000",  # C7 /1
        "F0F2F32E48818424" + "00" * 8,  # the add above with 4 prefixes: 16 bytes
    ):
        assert decode_instruction(bytes.fromhex(encoding) + bytes(16), 0) is None, encoding


def patch_dump(dump: MemoryDump, patches: dict[int, bytes]) -> MemoryDump:
    """A copy of ``dump`` with each ``code`` of ``patches`` written at its physical address."""
    pieces = []
    for region in dump.regions:
        buf = bytearray(dump.read_bytes(region.phys_start, region.length))
        for addr, code in patches.items():
            offset = addr - region.phys_start
            if 0 <= offset <= region.length - len(code):
                buf[offset:offset + len(code)] = code
        pieces.append((region.phys_start, bytes(buf)))
    patched = MemoryDump.from_regions(pieces)
    for addr, code in patches.items():
        assert patched.read_bytes(addr, len(code)) == code
    return patched


def make_code_dump(code: bytes, at=0x1000, span=0x4000):
    buf = bytearray(span)
    buf[at:at + len(code)] = code
    return MemoryDump.from_regions([(0, bytes(buf))])


def test_scan_prologue_skips_then_collects_call():
    code = bytes.fromhex("48895C2408") + b"\xE8" + struct.pack("<i", 0x100) + b"\xC3"
    dump = make_code_dump(code)
    scan = scan_prologue(dump, 0x1000)
    assert [t.kind for t in scan.transfers] == [TransferKind.CALL_RELATIVE]
    assert scan.transfers[0].at == 0x1005
    assert scan.transfers[0].target == 0x1005 + 5 + 0x100
    assert scan.stop_reason == STOP_RET


def test_scan_prologue_immediate_ret():
    scan = scan_prologue(make_code_dump(b"\xC3"), 0x1000)
    assert scan.transfers == ()
    assert scan.stop_reason == STOP_RET
    assert scan.end_addr == 0x1001  # the ret is consumed


def test_scan_prologue_opaque_stop():
    scan = scan_prologue(make_code_dump(b"\x0F\x0B"), 0x1000)
    assert scan.transfers == ()
    assert scan.stop_reason == STOP_OPAQUE
    assert scan.end_addr == 0x1000  # opaque bytes are not consumed


def test_scan_prologue_stops_after_unconditional_jmp():
    # jmp; then a call that must NOT be reached by the sweep
    code = b"\xE9" + struct.pack("<i", 0x50) + b"\xE8" + struct.pack("<i", 0x60)
    scan = scan_prologue(make_code_dump(code), 0x1000)
    assert [t.kind for t in scan.transfers] == [TransferKind.JMP_RELATIVE]
    assert scan.stop_reason == STOP_JMP
    assert scan.end_addr == 0x1005


def test_scan_prologue_continues_past_conditional():
    code = b"\x74\x02" + b"\xE8" + struct.pack("<i", 0x10) + b"\xC3"
    scan = scan_prologue(make_code_dump(code), 0x1000)
    assert [t.kind for t in scan.transfers] == [
        TransferKind.JCC_RELATIVE,
        TransferKind.CALL_RELATIVE,
    ]


def test_scan_prologue_window_bound():
    code = b"\x90" * 32 + b"\xE8" + struct.pack("<i", 0)
    scan = scan_prologue(make_code_dump(code), 0x1000, window=32)
    assert scan.transfers == ()
    assert scan.stop_reason == STOP_WINDOW
    assert scan.end_addr == 0x1020
    wide = scan_prologue(make_code_dump(code), 0x1000, window=64)
    assert len(wide.transfers) == 1


def test_scan_prologue_zero_pads_at_dump_edge():
    dump = make_code_dump(b"\x90\x90", at=0xFFE, span=0x1000)
    scan = scan_prologue(dump, 0xFFE)
    assert scan.stop_reason == STOP_OPAQUE  # the zero padding past the end is not code
    assert scan.end_addr == 0x1000


def test_scan_prologue_call_cut_by_dump_end_is_opaque():
    # call rel32 whose displacement lies past the end of a 0x100-byte dump
    dump = make_code_dump(b"\x90\x90\x90\xE8", at=0xFC, span=0x100)
    scan = scan_prologue(dump, 0xFC)
    assert scan.transfers == ()
    assert scan.stop_reason == STOP_OPAQUE
    assert scan.end_addr == 0xFF


def test_scan_prologue_unreadable_address():
    dump = make_code_dump(b"\x90")
    with pytest.raises(OutOfBoundsRead):
        scan_prologue(dump, 0x4000)


# Each value AnalysisOptions refuses for the field the parameter feeds.
BAD_WINDOWS = [0, 32.0, True, "32", PROLOGUE_WINDOW_LIMIT + 1, 1 << 24]
BAD_DEPTHS = [0, 2.5, False, MAX_DEPTH_LIMIT + 1]


@pytest.mark.parametrize("window", BAD_WINDOWS)
def test_scan_prologue_refuses_a_window_analysis_options_refuses(window):
    with pytest.raises(ValueError, match="prologue_window"):
        AnalysisOptions(prologue_window=window)
    with pytest.raises(ValueError, match="window"):
        scan_prologue(make_code_dump(b"\xC3"), 0x1000, window=window)


@pytest.mark.parametrize("field, value", [
    *(("window", v) for v in BAD_WINDOWS),
    *(("max_depth", v) for v in BAD_DEPTHS),
])
def test_detect_inline_hooks_refuses_what_analysis_options_refuses(forged, field, value):
    dump = forged("clean").dump
    table, image_map = raise_tpl_only(dump)
    with pytest.raises(ValueError, match=field):
        detect_inline_hooks(dump, table, image_map, infer_baseline(table, image_map),
                            **{field: value})


def test_scan_resolves_rip_relative_slot_through_dump():
    # jmp [rip+disp32]; 8-byte pointer slot holds the final target
    code = b"\xFF\x25" + struct.pack("<i", 0x100)
    dump_buf = bytearray(0x4000)
    dump_buf[0x1000:0x1000 + 6] = code
    slot = 0x1000 + 6 + 0x100
    struct.pack_into("<Q", dump_buf, slot, 0x2345)
    dump = MemoryDump.from_regions([(0, bytes(dump_buf))])
    scan = scan_prologue(dump, 0x1000)
    assert len(scan.transfers) == 1
    t = scan.transfers[0]
    assert t.kind is TransferKind.JMP_INDIRECT
    assert t.indirect_slot == slot
    assert t.target == 0x2345
    assert scan.stop_reason == STOP_JMP


def test_scan_unmapped_slot_stays_unresolved():
    # slot beyond the dump span: target must remain unknown
    code = b"\xFF\x15" + struct.pack("<i", 0x7000)
    dump = make_code_dump(code, at=0x1000, span=0x2000)
    scan = scan_prologue(dump, 0x1000)
    t = scan.transfers[0]
    assert t.kind is TransferKind.CALL_INDIRECT
    assert t.target is None and t.indirect_slot == 0x1000 + 6 + 0x7000


def record_steps(monkeypatch) -> list[tuple[int, tuple]]:
    """(address, step) of each call to _step, in call order."""
    stepped = []
    step = inline_hooks._step

    def recording(dump, code, at):
        stepped.append((at, step(dump, code, at)))
        return stepped[-1][1]

    monkeypatch.setattr(inline_hooks, "_step", recording)
    return stepped


def assert_memo_equivalent(dump, sweeps):
    """Each (addr, window) swept through one shared run memo equals a fresh sweep, and
    the shared sweeps step each instruction the fresh ones step, once. Returns the
    shared sweeps' steps by address."""
    fresh_at, shared, runs = set(), [], {}
    with pytest.MonkeyPatch.context() as mp:
        stepped = record_steps(mp)
        for addr, window in sweeps:
            fresh = scan_prologue(dump, addr, window)
            fresh_at.update(at for at, _ in stepped)
            stepped.clear()
            assert scan_prologue(dump, addr, window, runs) == fresh
            shared += stepped
            stepped.clear()
    steps = dict(shared)
    assert len(steps) == len(shared) and steps.keys() == fresh_at
    return steps


def test_step_memo_matches_fresh_sweeps_on_builtins(forged):
    for spec in builtin_scenarios():
        scenario = forged(spec.name)
        pointers = sorted({
            p for t in scenario.truth.tables.values()
            for p in (*t.true_pointers.values(), *t.final_pointers.values())
            if p and scenario.dump.in_span(p)
        })
        assert pointers, spec.name
        assert_memo_equivalent(scenario.dump, [
            (p + delta, window) for window in (32, 1, 256, 7) for p in pointers for delta in (0, 1)
        ])


_CODE_PIECES = st.sampled_from([
    b"\x90", b"\xC3", b"\x74\x00", b"\x74\x02", b"\xEB\xFE", b"\x0F\x84\x00\x00\x00\x00",
    b"\xE8\x10\x00\x00\x00", b"\xFF\x15\x08\x00\x00\x00", b"\xFF\x25\xF0\xFF\xFF\xFF",
    b"\x48\x89\x5C\x24\x08", b"\xFF\xD0", b"\x0F\x0B",
]) | st.binary(min_size=1, max_size=4)


@given(
    st.lists(_CODE_PIECES, min_size=1, max_size=40).map(b"".join),
    st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from((1, 7, 32, 256))),
             min_size=1, max_size=30),
)
def test_step_memo_matches_fresh_sweeps_on_random_code(code, picks):
    # The dump is the code alone, so the wider sweeps are cut by the dump end.
    dump = MemoryDump.from_regions([(0, code)])
    assert_memo_equivalent(dump, [(at % len(code), window) for at, window in picks])


def test_step_memo_keeps_call_cut_by_dump_end_opaque():
    # The sweep from span-0x10 caches the cut-off call at span-4 as opaque.
    dump = make_code_dump(b"\x90" * 12 + b"\xE8", at=0xF0, span=0x100)
    steps = assert_memo_equivalent(dump, [(0xF0, 32), (0xFC, 32), (0xFB, 1)])
    assert steps[0xFC] == (0, STOP_OPAQUE, None)
    assert scan_prologue(dump, 0xFC, 32).end_addr == 0xFC


def test_run_memo_reads_a_stop_past_the_window_end_as_window_exhausted():
    # The first sweep steps the run on to the opaque ud2 at +20. The sweeps that end
    # before it read window_exhausted from the run; the last reaches it.
    dump = make_code_dump(b"\x90" * 20 + b"\x0F\x0B")
    runs = {}
    assert scan_prologue(dump, 0x1000, 32, runs) == ((), STOP_OPAQUE, 0x1014)
    for addr, window in ((0x1000, 7), (0x1003, 17), (0x1010, 4), (0x1013, 1)):
        assert scan_prologue(dump, addr, window, runs) == ((), STOP_WINDOW, addr + window)
    assert scan_prologue(dump, 0x1010, 5, runs) == ((), STOP_OPAQUE, 0x1014)
    assert_memo_equivalent(dump, [(0x1000, 32), (0x1000, 7), (0x1013, 1), (0x1014, 1),
                                  (0x1008, 12), (0x1008, 13), (0x1002, 256)])


def test_run_memo_joins_the_run_a_sweep_reaches(monkeypatch):
    # Swept from +6 first, then from the start: the second run joins the first at +6
    # and steps nothing it holds; a sweep across both reads the steps of each.
    code = b"\x90" * 6 + b"\x74\x00" * 4 + b"\xC3"
    dump = make_code_dump(code)
    stepped, runs = record_steps(monkeypatch), {}
    late = scan_prologue(dump, 0x1006, 32, runs)
    assert [t.at for t in late.transfers] == [0x1006, 0x1008, 0x100A, 0x100C]
    assert late[1:] == (STOP_RET, 0x100F)
    stepped.clear()
    assert scan_prologue(dump, 0x1000, 32, runs) == late
    assert [at for at, _ in stepped] == list(range(0x1000, 0x1006))
    assert runs[0x1000].link is runs[0x1006]
    assert scan_prologue(dump, 0x1004, 6, runs) == (late.transfers[:2], STOP_WINDOW, 0x100A)
    assert len(stepped) == 6


def test_relative_target_law_against_dump_bytes(forged):
    scenario = forged("nested-3")
    dump = scenario.dump
    for hook in scenario.truth.inline_hooks:
        for t in hook.chain:
            raw = dump.read_bytes(t.at, t.length)
            assert raw.hex() == t.encoding
            if t.kind in (TransferKind.CALL_RELATIVE, TransferKind.JMP_RELATIVE) and t.length == 5:
                disp = sext(struct.unpack("<i", raw[1:5])[0], 32)
                assert (t.at + t.length + disp) & ((1 << 64) - 1) == t.target


def analyze_inline(scenario, max_depth=3, window=32):
    dump = scenario.dump
    tables, _ = locate_tables(dump)
    image_map = scan_loaded_images(dump)
    findings = []
    for table in tables:
        baseline = infer_baseline(table, image_map)
        findings.extend(
            detect_inline_hooks(dump, table, image_map, baseline,
                                max_depth=max_depth, window=window)
        )
    return findings


def test_moonbounce_single_call_finding(forged):
    scenario = forged("moonbounce")
    findings = analyze_inline(scenario)
    assert len(findings) == 1
    f = findings[0]
    truth = scenario.truth.inline_hooks[0]
    assert f.service_name == "CreateEventEx"
    assert f.table_kind is TableKind.BOOT
    assert f.function_addr == truth.function_addr
    assert f.hook_addr == truth.hook_addr
    assert len(f.chain) == 1
    assert f.chain[0].kind is TransferKind.CALL_RELATIVE
    assert f.final_target == truth.payload_addr == 0x3FADBA04
    assert f.target_image.identity.guid == MOONBOUNCE_PAYLOAD_GUID
    assert not f.indeterminate


def test_nested_3_chain(forged):
    findings = analyze_inline(forged("nested-3"))
    assert len(findings) == 1
    f = findings[0]
    assert len(f.chain) == 3
    truth_chain = forged("nested-3").truth.inline_hooks[0].chain
    assert [(t.at, t.kind, t.target) for t in f.chain] == [
        (t.at, t.kind, t.target) for t in truth_chain
    ]


def test_nested_4_beyond_depth_produces_nothing(forged):
    assert analyze_inline(forged("nested-4")) == []


def test_nested_4_found_with_higher_depth(forged):
    findings = analyze_inline(forged("nested-4"), max_depth=4)
    assert len(findings) == 1
    assert len(findings[0].chain) == 4


def test_depth_bound_never_exceeded(forged):
    for name in ("moonbounce", "nested-3", "nested-4"):
        for f in analyze_inline(forged(name)):
            assert len(f.chain) <= 3


def test_mov_jmp_hook_is_indeterminate():
    spec = scenario_by_name("moonbounce")
    hook = InlineHookSpec(
        service="CreateEventEx", style=STYLE_MOV_JMP, depth=1,
        payload=MOONBOUNCE_PAYLOAD_GUID,
    )
    scenario = build_scenario(replace(spec, inline_hooks=(hook,)))
    findings = analyze_inline(scenario)
    assert len(findings) == 1
    f = findings[0]
    assert f.indeterminate
    assert f.final_target is None
    assert f.chain[0].kind is TransferKind.JMP_INDIRECT
    assert f.hook_addr == scenario.truth.inline_hooks[0].hook_addr


def test_clean_fixture_no_findings(forged):
    assert analyze_inline(forged("clean")) == []
    assert analyze_inline(forged("decoy-heavy")) == []


def test_pointer_hooked_dump_stays_inline_clean(forged):
    # Table-pointer rewrites alone must not trip the prologue scanner.
    assert analyze_inline(forged("efiguard")) == []
    assert analyze_inline(forged("cosmicstrand")) == []


def make_synthetic_table(pointer, kind=TableKind.BOOT):
    header = TableHeader(kind.signature, 1, 24, 0)
    entries = (ServiceEntry(0, "RaiseTPL", pointer),)
    return ServiceTable(kind, 0x10, header, entries)


def test_in_image_transfers_alone_are_clean():
    # Function jumps within its own image and returns: no finding.
    buf = bytearray(0x2000)
    buf[0x1000:0x1002] = b"MZ"
    code = b"\xE9" + struct.pack("<i", 0x10)      # jmp +0x10 (in-image)
    buf[0x1100:0x1100 + 5] = code
    buf[0x1115:0x1116] = b"\xC3"                  # landing site returns
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    record = LoadedImageRecord(0, 0x1000, 0x1000, ImageIdentity(file_path="\\a.efi"), NOT_PE)
    image_map = ImageMap([record])
    table = make_synthetic_table(0x1100)
    assert detect_inline_hooks(dump, table, image_map, infer_baseline(table, image_map)) == []


def test_escape_from_in_image_site_detected():
    buf = bytearray(0x4000)
    buf[0x1000:0x1002] = b"MZ"
    # prologue jmps in-image, site jmps out of image
    buf[0x1100:0x1105] = b"\xE9" + struct.pack("<i", 0x10)
    site = 0x1115
    buf[site:site + 5] = b"\xE9" + struct.pack("<i", 0x3000 - (site + 5))
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    record = LoadedImageRecord(0, 0x1000, 0x1000, ImageIdentity(file_path="\\a.efi"), NOT_PE)
    table, image_map = make_synthetic_table(0x1100), ImageMap([record])
    findings = detect_inline_hooks(dump, table, image_map, infer_baseline(table, image_map))
    assert len(findings) == 1
    assert len(findings[0].chain) == 2
    assert findings[0].final_target == 0x3000
    assert findings[0].target_image is None and findings[0].note is None


def test_decoder_lengths_match_forge_listings(forged):
    for name in ("clean", "moonbounce", "nested-3"):
        scenario = forged(name)
        dump = scenario.dump
        for key, listing in scenario.truth.stub_listings.items():
            for insn in listing:
                window = dump.read_bytes(insn.at, 16)
                decoded = decode_instruction(window, insn.at)
                assert decoded is not None, f"{name}:{key} opaque at {insn.at:#x}"
                assert decoded[0] == insn.length, f"{name}:{key} at {insn.at:#x}"
                assert window[:insn.length].hex() == insn.encoding


def test_hook_after_endbr64_found(forged):
    # CET-built functions open with endbr64; the hook sits right after it.
    scenario = forged("efiguard")
    function_addr = scenario.truth.tables["boot"].true_pointers["CreateEventEx"]
    payload = scenario.truth.image_by_key(EFIGUARD_PATH).base + 0x400
    jmp_at = function_addr + 4
    code = bytes.fromhex("F30F1EFA") + b"\xE9" + struct.pack("<i", payload - (jmp_at + 5))
    dump = patch_dump(scenario.dump, {function_addr: code})
    (finding,) = analyze_dump(dump).inline_findings
    assert finding.service_name == "CreateEventEx"
    assert finding.hook_addr == function_addr + 4
    assert finding.chain[0].kind is TransferKind.JMP_RELATIVE
    assert finding.final_target == payload
    assert finding.target_image.identity.file_path == EFIGUARD_PATH


def test_register_far_call_is_not_a_transfer(forged):
    # FF D9 (call far through rbx) raises #UD: the sweep stops, no finding.
    scenario = forged("clean")
    function_addr = scenario.truth.tables["boot"].true_pointers["RaiseTPL"]
    dump = patch_dump(scenario.dump, {function_addr: b"\xFF\xD9"})
    assert scan_prologue(dump, function_addr).stop_reason == STOP_OPAQUE
    report = analyze_dump(dump)
    assert report.inline_findings == []
    assert report.exit_code == 0


def test_far_transfers_through_memory_are_indeterminate(forged):
    # call/jmp far [rip+0x1A]: the slot at +0x20 is an m16:32 pointer
    # (offset 0x2000, selector 0x38), not an 8-byte near target.
    scenario = forged("clean")
    function_addr = scenario.truth.tables["boot"].true_pointers["RaiseTPL"]
    for modrm in (0x1D, 0x2D):
        code = bytes([0xFF, modrm]) + struct.pack("<i", 0x1A) + b"\xC3"
        code += bytes(0x20 - len(code)) + struct.pack("<IH", 0x2000, 0x38)
        report = analyze_dump(patch_dump(scenario.dump, {function_addr: code}))
        (finding,) = report.inline_findings
        assert finding.hook_addr == function_addr
        assert finding.indeterminate and finding.final_target is None
        assert report.exit_code == 2


LADDER = b"\x74\x00" * 16  # je +0: each targets the next instruction, in-image


def record_sweeps(monkeypatch) -> list[int]:
    """Addresses passed to scan_prologue, in call order."""
    swept = []
    scan = inline_hooks.scan_prologue

    def recording(dump, addr, *args):
        swept.append(addr)
        return scan(dump, addr, *args)

    monkeypatch.setattr(inline_hooks, "scan_prologue", recording)
    return swept


def record_sweeps_per_table(monkeypatch) -> list[list[int]]:
    """Addresses passed to scan_prologue by each detect_inline_hooks call of analyze_dump."""
    swept, per_table = record_sweeps(monkeypatch), []
    detect = report_module.detect_inline_hooks

    def recording(*args, **kwargs):
        swept.clear()
        findings = detect(*args, **kwargs)
        per_table.append(list(swept))
        return findings

    monkeypatch.setattr(report_module, "detect_inline_hooks", recording)
    return per_table


def raise_tpl_only(dump):
    """The dump's boot table cut down to RaiseTPL, and the dump's image map."""
    tables, _ = locate_tables(dump)
    (boot,) = [t for t in tables if t.kind is TableKind.BOOT]
    entries = tuple(e for e in boot.entries if e.name == "RaiseTPL")
    return replace(boot, entries=entries), scan_loaded_images(dump)


@pytest.mark.parametrize("max_depth", [3, 6])
def test_ladder_sweeps_each_address_once(forged, monkeypatch, max_depth):
    # Every je lands in-image on the next one, so an unmemoised walk sweeps
    # the ladder once per path: 137 times at depth 3, 6,885 at depth 6.
    scenario = forged("clean")
    function_addr = scenario.truth.tables["boot"].true_pointers["RaiseTPL"]
    dump = patch_dump(scenario.dump, {function_addr: LADDER})
    table, image_map = raise_tpl_only(dump)
    swept = record_sweeps(monkeypatch)
    baseline = infer_baseline(table, image_map)
    assert detect_inline_hooks(dump, table, image_map, baseline, max_depth=max_depth) == []
    assert len(swept) == 17  # the entry and the 16 je targets
    swept.clear()
    assert analyze_dump(dump, AnalysisOptions(max_depth=max_depth)).inline_findings == []
    assert len(swept) == len(set(swept))


@pytest.mark.parametrize("max_depth", [3, 6])
def test_escape_behind_ladder_reported_once(forged, max_depth):
    # The window ends at +32, so the jmp there is first swept from +2.
    scenario = forged("clean")
    function_addr = scenario.truth.tables["boot"].true_pointers["RaiseTPL"]
    payload = scenario.truth.image_by_key(BOOTMGFW_PATH).base + 0x400
    jmp_at = function_addr + len(LADDER)
    code = LADDER + b"\xE9" + struct.pack("<i", payload - (jmp_at + 5))
    dump = patch_dump(scenario.dump, {function_addr: code})
    table, image_map = raise_tpl_only(dump)
    baseline = infer_baseline(table, image_map)
    (finding,) = detect_inline_hooks(dump, table, image_map, baseline, max_depth=max_depth)
    assert len(finding.chain) == 2
    assert finding.hook_addr == function_addr
    assert finding.chain[-1].at == jmp_at and finding.final_target == payload


@pytest.mark.parametrize("max_depth", [3, 6])
def test_ladder_decodes_each_address_once(forged, monkeypatch, max_depth):
    # The 17 ladder sweeps overlap; each instruction is decoded by the first.
    scenario = forged("clean")
    function_addr = scenario.truth.tables["boot"].true_pointers["RaiseTPL"]
    dump = patch_dump(scenario.dump, {function_addr: LADDER})
    table, image_map = raise_tpl_only(dump)
    decoded = []
    decode = inline_hooks.decode_instruction

    def recording(window, at):
        decoded.append(at)
        return decode(window, at)

    monkeypatch.setattr(inline_hooks, "decode_instruction", recording)
    baseline = infer_baseline(table, image_map)
    assert detect_inline_hooks(dump, table, image_map, baseline, max_depth=max_depth) == []
    assert function_addr + len(LADDER) - 2 in decoded
    assert len(decoded) == len(set(decoded))


@pytest.mark.parametrize("max_depth", [3, 6])
def test_ladder_steps_each_address_once(forged, monkeypatch, max_depth):
    # The 17 ladder sweeps overlap. Each instruction is stepped by the first sweep
    # that reaches it; the later ones read their steps as slices of that run.
    scenario = forged("clean")
    function_addr = scenario.truth.tables["boot"].true_pointers["RaiseTPL"]
    dump = patch_dump(scenario.dump, {function_addr: LADDER})
    table, image_map = raise_tpl_only(dump)
    swept, stepped = record_sweeps(monkeypatch), record_steps(monkeypatch)
    baseline = infer_baseline(table, image_map)
    assert detect_inline_hooks(dump, table, image_map, baseline, max_depth=max_depth) == []
    assert len(swept) == 17
    stepped_at = [at for at, _ in stepped]
    assert function_addr + len(LADDER) - 2 in stepped_at
    assert len(stepped_at) == len(set(stepped_at))


def test_services_share_the_sweep_of_a_common_site(monkeypatch):
    # Two services jz to one in-image helper that jmps out of the image:
    # the helper is swept once, and each service keeps its own finding.
    buf = bytearray(0x4000)
    helper = 0x1800
    for function_addr in (0x1100, 0x1200):
        buf[function_addr:function_addr + 7] = (
            b"\x0F\x84" + struct.pack("<i", helper - (function_addr + 6)) + b"\xC3"
        )
    buf[helper:helper + 5] = b"\xE9" + struct.pack("<i", 0x3000 - (helper + 5))
    dump = MemoryDump.from_regions([(0, bytes(buf))])
    record = LoadedImageRecord(0, 0x1000, 0x1000, ImageIdentity(file_path="\\a.efi"), NOT_PE)
    table = replace(
        make_synthetic_table(0x1100),
        entries=(ServiceEntry(0, "RaiseTPL", 0x1100), ServiceEntry(1, "RestoreTPL", 0x1200)),
    )
    swept = record_sweeps(monkeypatch)
    image_map = ImageMap([record])
    findings = detect_inline_hooks(dump, table, image_map, infer_baseline(table, image_map))
    assert swept == [0x1100, helper, 0x1200]
    assert [(f.service_name, f.hook_addr, f.chain[-1].at) for f in findings] == [
        ("RaiseTPL", 0x1100, helper),
        ("RestoreTPL", 0x1200, helper),
    ]
    assert all(f.final_target == 0x3000 for f in findings)


def chain_bomb() -> MemoryDump:
    """Compact ``clean`` with five ``jz rel32`` to random sites at each service prologue
    and at each of 512 32-byte sites at core offsets 0x4000-0x8000: every site is in the
    core image, so every chain stays in-image and a walk reaches each site many times."""
    rng = Random(0)
    scenario = build_scenario(replace(scenario_by_name("clean"), geometry=COMPACT_GEOMETRY))
    core = scenario.truth.image_by_key(CORE_GUID).base
    sites = [core + 0x4000 + 32 * i for i in range(512)]
    prologues = {p for t in scenario.truth.tables.values() for p in t.true_pointers.values()}
    patches = {}
    for start in sorted(prologues) + sites:
        patches[start] = b"".join(
            b"\x0F\x84" + struct.pack("<i", site - (start + 6 * k + 6))
            for k, site in enumerate(rng.choices(sites, k=5))
        )
    return patch_dump(scenario.dump, patches)


@pytest.mark.parametrize("name", sorted(spec.name for spec in builtin_scenarios()))
def test_no_address_is_swept_twice_within_a_table(forged, monkeypatch, name):
    # Within one table the sweeps are at most the distinct addresses swept.
    per_table = record_sweeps_per_table(monkeypatch)
    report = analyze_dump(forged(name).dump)
    assert len(per_table) == sum(t.baseline is not None for t in report.tables) > 0
    assert all(len(swept) == len(set(swept)) for swept in per_table)


@pytest.mark.slow
def test_chain_bomb_is_clean_and_bounded(monkeypatch):
    # Each transfer is examined once per service: at the widest window and deepest
    # chain the walk's cost is the distinct transfers each service reaches. The 512
    # sites are shared by every table, so each table may sweep them once.
    dump = chain_bomb()
    per_table = record_sweeps_per_table(monkeypatch)
    assert analyze_dump(dump).inline_findings == []
    assert len(per_table) == 3 and all(len(swept) == len(set(swept)) for swept in per_table)
    per_table.clear()
    start = time.perf_counter()
    report = analyze_dump(dump, AnalysisOptions(prologue_window=PROLOGUE_WINDOW_LIMIT,
                                                max_depth=MAX_DEPTH_LIMIT))
    elapsed = time.perf_counter() - start
    assert report.inline_findings == []
    assert report.exit_code == 0
    assert elapsed < 5.0, f"chain-bomb took {elapsed:.2f}s"
    assert len(per_table) == 3 and all(len(swept) == len(set(swept)) for swept in per_table)

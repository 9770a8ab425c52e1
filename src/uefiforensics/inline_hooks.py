"""Inline hook detection via prologue control-flow analysis.

Inline hooks patch the first instructions of a target function with a
control transfer into attacker code. The detector linearly sweeps each
service function's prologue, classifies control transfers, and follows
benign-looking in-image transfers breadth-first through a bounded number of
nesting levels (attackers chain in-image jumps to defeat single-hop checks).

The decoder is one opcode map (Intel SDM Vol. 2, Appendix A): after up to
four legacy prefixes and a REX byte, the one-byte or ``0F`` opcode selects
a form (mod/rm operand or not, immediate width, kind), and every
instruction takes the same path through it. Control transfers (``call``,
``jmp``, ``jcc``, the ``FF`` indirect forms; far ones get no target) are
decoded in full; common straight-line instructions are length-decoded and
skipped, among them ``endbr64`` and the other hint NOPs, ``cmovcc``,
``setcc``, the ``D0``-``D3`` shifts, ``cmpxchg`` and ``stos``. Opaque,
which ends the sweep, is anything else: opcodes not in the map, forms a
CPU rejects (register operands of ``lea`` and far ``call``/``jmp``,
``C6``/``C7`` other than ``mov``) and encodings longer than 15 bytes. The
decoder returns a plain ``(length, kind, target, slot)`` tuple, or None
when opaque; a sweep builds one ``ControlTransfer`` per transfer it keeps.
A full-fidelity disassembler returning that tuple can be dropped in behind
``decode_instruction`` without touching the detection logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .dump_model import MemoryDump, OutOfBoundsRead, PhysAddr
from .image_registry import ImageMap, LoadedImageRecord
from .pointer_hooks import OwnershipBaseline
from .service_tables import ServiceTable, TableKind

DEFAULT_PROLOGUE_WINDOW = 32
DEFAULT_MAX_DEPTH = 3
PROLOGUE_WINDOW_LIMIT = 4096  # one page
MAX_DEPTH_LIMIT = 8  # twice the forge's deepest chain
DECODE_WINDOW = 16
_MASK64 = (1 << 64) - 1

CROSS_IMAGE_NOTE = (
    "target lies within another loaded image; a legitimate cross-image "
    "transfer can look identical, so analyst triage is advised"
)


class TransferKind(enum.Enum):
    CALL_RELATIVE = "call_relative"
    JMP_RELATIVE = "jmp_relative"
    JCC_RELATIVE = "jcc_relative"
    CALL_INDIRECT = "call_indirect"
    JMP_INDIRECT = "jmp_indirect"


@dataclass(frozen=True)
class ControlTransfer:
    at: PhysAddr
    kind: TransferKind
    length: int
    target: PhysAddr | None
    # For RIP-relative indirect forms: address of the 8-byte pointer slot.
    indirect_slot: PhysAddr | None = None


# Stop reasons for the linear sweep.
STOP_WINDOW = "window_exhausted"
STOP_RET = "ret"
STOP_JMP = "unconditional_jmp"
STOP_OPAQUE = "opaque"


@dataclass(frozen=True)
class PrologueScan:
    transfers: tuple[ControlTransfer, ...]
    stop_reason: str
    end_addr: PhysAddr


@dataclass(frozen=True)
class InlineHookFinding:
    table_kind: TableKind
    service_name: str
    function_addr: PhysAddr
    hook_addr: PhysAddr
    final_target: PhysAddr | None
    chain: tuple[ControlTransfer, ...]
    target_image: LoadedImageRecord | None
    indeterminate: bool
    note: str | None = None


_LEGACY_PREFIXES = frozenset({0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0, 0xF2, 0xF3})
_MAX_INSTRUCTION_LENGTH = 15  # architectural limit; longer encodings raise #GP

# Immediate widths set by prefixes. A 16/32-bit immediate ("Iz") is opaque
# under 0x66, which would shrink it; mov reg, imm ("Iv") is imm32, or imm64
# with REX.W, and is opaque under 0x66 too.
_IMM_Z = -1
_IMM_V = -2

# Kinds of the group opcodes by mod/rm reg field; None is an undefined form.
_GROUP_MOV = ("skip",) + (None,) * 7
_GROUP_FE = ("skip", "skip") + (None,) * 6
_GROUP_FF = (
    "skip", "skip",  # inc, dec
    TransferKind.CALL_INDIRECT, TransferKind.CALL_INDIRECT,  # near, far
    TransferKind.JMP_INDIRECT, TransferKind.JMP_INDIRECT,  # near, far
    "skip", None,  # push
)

# The opcode map (Intel SDM Vol. 2, Appendix A): opcode -> (has_modrm,
# imm_bytes, kind). Two-byte opcodes are keyed 0x0Fxx. ``kind`` is "skip",
# "ret", a TransferKind or a group row; a relative transfer's immediate is
# its displacement, and a transfer with a mod/rm operand is indirect.
# Anything absent is opaque.
_ALU = range(0x00, 0x40, 8)  # add, or, adc, sbb, and, sub, xor, cmp
_FORMS = (
    ((False, 0, "skip"), (
        *range(0x50, 0x60), 0x90, 0x98, 0x99, 0xAA, 0xAB, 0xC9, 0xCC, 0xF4, 0xF5,
        *range(0xF8, 0xFE), 0x0F05,
    )),
    ((True, 0, "skip"), (
        *(base + op for base in _ALU for op in range(4)), 0x63, *range(0x84, 0x8C), 0x8D,
        *range(0xD0, 0xD4), 0x0F18, 0x0F19, *range(0x0F1C, 0x0F20), *range(0x0F40, 0x0F50),
        *range(0x0F90, 0x0FA0), 0x0FAF, 0x0FB0, 0x0FB1, 0x0FB6, 0x0FB7, 0x0FBE, 0x0FBF,
    )),
    ((True, 1, "skip"), (0x6B, 0x80, 0x83, 0xC0, 0xC1)),
    ((True, _IMM_Z, "skip"), (0x69, 0x81)),
    ((False, 1, "skip"), (*(base + 4 for base in _ALU), 0x6A, 0xA8, *range(0xB0, 0xB8))),
    ((False, _IMM_Z, "skip"), (*(base + 5 for base in _ALU), 0x68, 0xA9)),
    ((False, _IMM_V, "skip"), range(0xB8, 0xC0)),
    ((False, 0, "ret"), (0xC3,)),
    ((False, 2, "ret"), (0xC2,)),
    ((False, 1, TransferKind.JCC_RELATIVE), range(0x70, 0x80)),
    ((False, 4, TransferKind.JCC_RELATIVE), range(0x0F80, 0x0F90)),
    ((False, 4, TransferKind.CALL_RELATIVE), (0xE8,)),
    ((False, 4, TransferKind.JMP_RELATIVE), (0xE9,)),
    ((False, 1, TransferKind.JMP_RELATIVE), (0xEB,)),
    ((True, 1, _GROUP_MOV), (0xC6,)),
    ((True, _IMM_Z, _GROUP_MOV), (0xC7,)),
    ((True, 0, _GROUP_FE), (0xFE,)),
    ((True, 0, _GROUP_FF), (0xFF,)),
)
_OPCODE_MAP = {op: form for form, ops in _FORMS for op in ops}

# (opcode, reg) forms whose operand must be memory: mod = 3 is undefined
# (lea, far call, far jmp).
_MEMORY_ONLY = frozenset({(0x8D, reg) for reg in range(8)} | {(0xFF, 3), (0xFF, 5)})


def _modrm_operand_len(window: bytes, i: int) -> tuple[int, int, int]:
    """Operand byte count at window[i], plus (mod, rm) of the mod/rm byte."""
    modrm = window[i]
    mod = modrm >> 6
    rm = modrm & 7
    n = 1
    if mod == 3:
        return n, mod, rm
    has_sib = rm == 4
    if has_sib:
        n += 1
    if mod == 1:
        n += 1
    elif mod == 2:
        n += 4
    elif mod == 0:
        if rm == 5:
            n += 4  # RIP-relative disp32
        elif has_sib and (window[i + 1] & 7) == 5:
            n += 4
    return n, mod, rm


def decode_instruction(window: bytes, at: PhysAddr) -> tuple | None:
    """Classify the instruction at ``at``, whose bytes start ``window``.

    Returns None when the bytes cannot be length-decoded (opaque), else
    ``(length, kind, target, slot)``. ``kind`` is ``"skip"``, ``"ret"`` or
    a :class:`TransferKind`. ``target`` is set for relative transfers;
    ``slot`` is the address of the 8-byte pointer a near RIP-relative
    indirect transfer goes through. Both are None otherwise. ``window`` is
    zero-padded to the 16 bytes instruction decoding may need.
    """
    if len(window) < DECODE_WINDOW:
        window = bytes(window) + b"\x00" * (DECODE_WINDOW - len(window))

    i = 0
    while window[i] in _LEGACY_PREFIXES and i < 4:
        i += 1
    prefixes = window[:i]
    rex = 0
    if 0x40 <= window[i] <= 0x4F:
        rex = window[i]
        i += 1

    op = window[i]
    if op == 0x0F:
        i += 1
        op = 0x0F00 | window[i]
    form = _OPCODE_MAP.get(op)
    if form is None:
        return None
    i += 1

    has_modrm, imm, kind = form
    if has_modrm:
        reg = (window[i] >> 3) & 7
        n, mod, rm = _modrm_operand_len(window, i)
        if type(kind) is tuple:
            kind = kind[reg]
        if kind is None or (mod == 3 and (op, reg) in _MEMORY_ONLY):
            return None
        i += n
    if imm < 0:
        if 0x66 in prefixes:
            return None
        imm = 8 if imm == _IMM_V and rex & 0x08 else 4
    length = i + imm
    if length > _MAX_INSTRUCTION_LENGTH:
        return None

    if type(kind) is str:
        return length, kind, None, None
    target = slot = None
    if not has_modrm:
        target = (at + length + int.from_bytes(window[i:length], "little", signed=True)) & _MASK64
    elif mod == 0 and rm == 5 and (op, reg) not in _MEMORY_ONLY:
        slot = (at + length + int.from_bytes(window[i - 4:i], "little", signed=True)) & _MASK64
    return length, kind, target, slot


def scan_prologue(
    dump: MemoryDump, function_addr: PhysAddr, window: int = DEFAULT_PROLOGUE_WINDOW
) -> PrologueScan:
    """Linear sweep from ``function_addr``, collecting control transfers.

    Stops at the first of: window exhausted, a return, an unconditional
    jmp (the sweep cannot soundly continue past it), or opaque bytes.
    Conditional branches do not stop the sweep (fallthrough is reachable).
    RIP-relative indirect targets are resolved through the dump when the
    pointer slot is mapped.
    """
    if window < 1:
        raise ValueError("prologue window must be positive")
    if not dump.in_span(function_addr):
        raise OutOfBoundsRead(f"function address {function_addr:#x} outside dump span")

    avail = min(window + DECODE_WINDOW, dump.total_span - function_addr)
    code = dump.read_bytes(function_addr, avail)

    transfers: list[ControlTransfer] = []
    cursor = 0
    stop = STOP_WINDOW
    while cursor < window:
        at = function_addr + cursor
        decoded = decode_instruction(code[cursor:cursor + DECODE_WINDOW], at)
        if decoded is None:
            stop = STOP_OPAQUE
            break
        length, kind, target, slot = decoded
        cursor += length
        if kind == "skip":
            continue
        if kind == "ret":
            stop = STOP_RET
            break
        if slot is not None and dump.in_span(slot, 8):
            target = dump.read_u64(slot)
        transfers.append(ControlTransfer(at, kind, length, target, slot))
        if kind in (TransferKind.JMP_RELATIVE, TransferKind.JMP_INDIRECT):
            stop = STOP_JMP
            break
    return PrologueScan(tuple(transfers), stop, function_addr + cursor)


def detect_inline_hooks(
    dump: MemoryDump,
    table: ServiceTable,
    image_map: ImageMap,
    baseline: OwnershipBaseline | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    window: int = DEFAULT_PROLOGUE_WINDOW,
) -> list[InlineHookFinding]:
    """Scan every non-null service target for prologue control hijacks.

    A finding is raised when a transfer chain escapes the image owning the
    service function within ``max_depth`` nested transfers (the initial
    transfer counts as level 1), or when an indirect transfer cannot be
    statically resolved (``indeterminate``). Chains that remain in-image
    through the depth limit are considered benign.

    When the function address resolves to no loaded image, the table
    baseline (if given) stands in as the expected range; with neither, the
    entry is skipped here because the pointer detector already owns it.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    findings: list[InlineHookFinding] = []

    for entry in table.entries:
        if entry.pointer == 0:
            continue
        owner = image_map.resolve_owner(entry.pointer)
        if owner is None and baseline is not None:
            owner = baseline.image
        if owner is None:
            continue

        # Breadth-first over a worklist that grows as it is read: each address
        # is swept once, on its shortest chain; each escape is reported once.
        swept = {entry.pointer}
        reported: set[tuple[PhysAddr, PhysAddr | None]] = set()
        frontier: list[tuple[PhysAddr, tuple[ControlTransfer, ...]]] = [(entry.pointer, ())]
        for addr, chain in frontier:
            if not dump.in_span(addr):
                continue
            for t in scan_prologue(dump, addr, window).transfers:
                extended = chain + (t,)
                if t.target is not None and owner.contains(t.target):
                    if len(extended) < max_depth and t.target not in swept:
                        swept.add(t.target)
                        frontier.append((t.target, extended))
                    continue
                if (t.at, t.target) in reported:
                    continue
                reported.add((t.at, t.target))
                target_image = image_map.resolve_owner(t.target) if t.target is not None else None
                findings.append(
                    InlineHookFinding(
                        table_kind=table.kind,
                        service_name=entry.name,
                        function_addr=entry.pointer,
                        hook_addr=extended[0].at,
                        final_target=t.target,
                        chain=extended,
                        target_image=target_image,
                        indeterminate=t.target is None,
                        note=CROSS_IMAGE_NOTE if target_image is not None else None,
                    )
                )

    return findings

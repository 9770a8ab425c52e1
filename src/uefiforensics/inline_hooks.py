"""Inline hook detection via prologue control-flow analysis.

Inline hooks patch the first instructions of a target function with a
control transfer into attacker code. The detector linearly sweeps each
service function's prologue, classifies control transfers, and follows
benign-looking in-image transfers breadth-first through a bounded number of
nesting levels (attackers chain in-image jumps to defeat single-hop checks).
Within one table, each address is swept once and each instruction is
decoded once and stepped once, through the runs its services share: a sweep
reads the steps earlier sweeps took as slices of linear runs, and steps on
only where no sweep has been. Chains and findings stay per service. Each
transfer is examined once per service, on its shortest chain, so a
service's walk costs at most the distinct transfers it reaches.

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
when opaque; a sweep step builds one ``ControlTransfer`` per transfer.
A full-fidelity disassembler returning that tuple can be dropped in behind
``decode_instruction`` without touching the detection logic.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

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


def check_limit(name: str, value, limit: int) -> None:
    """Refuse, with a ``ValueError`` naming ``name``, anything but an ``int`` (not a
    ``bool``) from 1 to ``limit``: the rule for a prologue window and a chain depth."""
    if type(value) is not int or not 1 <= value <= limit:
        raise ValueError(f"{name} must be an integer from 1 to {limit}, got {value!r}")


class TransferKind(enum.Enum):
    CALL_RELATIVE = "call_relative"
    JMP_RELATIVE = "jmp_relative"
    JCC_RELATIVE = "jcc_relative"
    CALL_INDIRECT = "call_indirect"
    JMP_INDIRECT = "jmp_indirect"


class ControlTransfer(NamedTuple):
    at: PhysAddr
    kind: TransferKind
    length: int
    target: PhysAddr | None
    # For RIP-relative indirect forms: address of the 8-byte pointer slot.
    indirect_slot: PhysAddr | None = None


_JMP_RELATIVE = TransferKind.JMP_RELATIVE
_JMP_INDIRECT = TransferKind.JMP_INDIRECT
# Builds a ControlTransfer or PrologueScan without the NamedTuple's Python-level __new__.
_new_tuple = tuple.__new__
# Bytes a run reads past what a sweep needs, for the sweeps that extend it next.
_READ_AHEAD = 64

# Stop reasons for the linear sweep.
STOP_WINDOW = "window_exhausted"
STOP_RET = "ret"
STOP_JMP = "unconditional_jmp"
STOP_OPAQUE = "opaque"


class PrologueScan(NamedTuple):
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
_REL8 = tuple(b - 256 if b > 127 else b for b in range(256))  # signed value of a byte

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
    n_prefixes = i
    rex = window[i]
    if 0x40 <= rex <= 0x4F:
        i += 1
    else:
        rex = 0

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
        if 0x66 in window[:n_prefixes]:
            return None
        imm = 8 if imm == _IMM_V and rex & 0x08 else 4
    length = i + imm
    if length > _MAX_INSTRUCTION_LENGTH:
        return None

    if type(kind) is str:
        return length, kind, None, None
    if not has_modrm:
        disp = _REL8[window[i]] if imm == 1 else int.from_bytes(window[i:length], "little", signed=True)
        return length, kind, (at + length + disp) & _MASK64, None
    if mod == 0 and rm == 5 and (op, reg) not in _MEMORY_ONLY:
        disp = int.from_bytes(window[i - 4:i], "little", signed=True)
        return length, kind, None, (at + length + disp) & _MASK64
    return length, kind, None, None


def _step(dump: MemoryDump, code: bytes, at: PhysAddr) -> tuple:
    """The sweep's step at ``at``: ``(length, stop reason or None, transfer or None)``.

    ``code`` is the dump's bytes from ``at``, up to 16 of them; an opaque
    step has length 0. The step depends only on the dump and ``at``.
    """
    decoded = decode_instruction(code, at)
    # Opaque bytes, or an instruction running into the padding past the dump end.
    if decoded is None or at + decoded[0] > dump.total_span:
        return 0, STOP_OPAQUE, None
    length, kind, target, slot = decoded
    if type(kind) is str:
        return length, STOP_RET if kind == "ret" else None, None
    if slot is not None and dump.in_span(slot, 8):
        target = dump.read_u64(slot)
    stop = STOP_JMP if kind is _JMP_RELATIVE or kind is _JMP_INDIRECT else None
    return length, stop, _new_tuple(ControlTransfer, (at, kind, length, target, slot))


class _Run:
    """The steps a sweep takes from one address, as far as sweeps have needed them.

    ``addrs`` holds the step addresses, ascending, and ``transfer_at`` and
    ``transfers`` the steps that are transfers; a stop can only be the last
    step. ``end`` is the address after the last step. The run is closed by
    a ``stop`` reason, or by a ``link`` to the run that holds the step at
    ``end``; while it is open, ``code`` holds the dump's bytes from
    ``code_at`` that the next steps are decoded from.
    """

    __slots__ = ("addrs", "transfer_at", "transfers", "end", "stop", "link", "code", "code_at")

    def __init__(self, start: PhysAddr):
        self.addrs: list[PhysAddr] = []
        self.transfer_at: list[PhysAddr] = []
        self.transfers: list[ControlTransfer] = []
        self.end = self.code_at = start
        self.stop: str | None = None
        self.link: _Run | None = None
        self.code = b""

    def extend(self, dump: MemoryDump, runs: dict, limit: PhysAddr) -> None:
        """Step on from ``end`` up to ``limit``, until a stop or a step another run holds."""
        at = self.end
        code, start = self.code, self.code_at
        if start + len(code) < min(limit + DECODE_WINDOW, dump.total_span):
            start = self.code_at = at
            code = self.code = dump.read_bytes(
                at, min(limit + DECODE_WINDOW + _READ_AHEAD, dump.total_span) - at
            )
        addrs, transfer_at, transfers = self.addrs, self.transfer_at, self.transfers
        while at < limit:
            link = runs.setdefault(at, self)
            if link is not self:
                self.link = link
                break
            addrs.append(at)
            offset = at - start
            length, stop, transfer = _step(dump, code[offset:offset + DECODE_WINDOW], at)
            at += length
            if transfer is not None:
                transfer_at.append(transfer.at)
                transfers.append(transfer)
            if stop is not None:
                self.stop = stop
                break
        self.end = at
        if self.stop or self.link:
            self.code = b""


def scan_prologue(
    dump: MemoryDump,
    function_addr: PhysAddr,
    window: int = DEFAULT_PROLOGUE_WINDOW,
    runs: dict[PhysAddr, _Run] | None = None,
) -> PrologueScan:
    """Linear sweep from ``function_addr``, collecting control transfers.

    Stops at the first of: window exhausted, a return, an unconditional
    jmp (the sweep cannot soundly continue past it), or opaque bytes. An
    instruction that runs past the end of the dump is opaque.
    Conditional branches do not stop the sweep (fallthrough is reachable).
    RIP-relative indirect targets are resolved through the dump when the
    pointer slot is mapped.

    ``runs`` memoizes the sequences of steps taken from each address across
    sweeps of the same dump, so that a sweep steps only the instructions no
    sweep has reached and reads the rest as slices of runs. The result is
    the same with or without it. A ``window`` that ``check_limit`` refuses
    raises ``ValueError``.
    """
    check_limit("window", window, PROLOGUE_WINDOW_LIMIT)
    if not dump.in_span(function_addr):
        raise OutOfBoundsRead(f"function address {function_addr:#x} outside dump span")
    if runs is None:
        runs = {}

    # The sweep is the steps of the run holding ``function_addr`` from there,
    # and of the runs it links to, up to ``end``: each run is stepped on only
    # where no sweep has been, and read as a slice.
    at, end = function_addr, function_addr + window
    run = runs.get(at) or _Run(at)
    transfers: tuple[ControlTransfer, ...] = ()
    while True:
        if run.end < end and run.stop is None and run.link is None:
            run.extend(dump, runs, end)
        addrs, transfer_at = run.addrs, run.transfer_at
        i = bisect_left(addrs, end, bisect_left(addrs, at))
        lo = bisect_left(transfer_at, at)
        transfers += tuple(run.transfers[lo:bisect_left(transfer_at, end, lo)])
        # A step at or past ``end`` ends the sweep by its window, even where the
        # run stops later on.
        if i < len(addrs):
            return _new_tuple(PrologueScan, (transfers, STOP_WINDOW, addrs[i]))
        if run.stop is not None:
            return _new_tuple(PrologueScan, (transfers, run.stop, run.end))
        if run.end >= end:
            return _new_tuple(PrologueScan, (transfers, STOP_WINDOW, run.end))
        at, run = run.end, run.link


def detect_inline_hooks(
    dump: MemoryDump,
    table: ServiceTable,
    image_map: ImageMap,
    baseline: OwnershipBaseline,
    max_depth: int = DEFAULT_MAX_DEPTH,
    window: int = DEFAULT_PROLOGUE_WINDOW,
) -> list[InlineHookFinding]:
    """Scan every non-null service target for prologue control hijacks.

    A finding is raised when a transfer chain escapes the image owning the
    service function within ``max_depth`` nested transfers (the initial
    transfer counts as level 1), or when an indirect transfer cannot be
    statically resolved (``indeterminate``). Chains that remain in-image
    through the depth limit are considered benign.

    A service's owner is the loaded image holding its function address, or
    the table's ``baseline`` image when none does (a pointer the pointer
    detector already flags). A ``max_depth`` or ``window`` that
    ``check_limit`` refuses raises ``ValueError`` before any sweep.
    """
    check_limit("max_depth", max_depth, MAX_DEPTH_LIMIT)
    check_limit("window", window, PROLOGUE_WINDOW_LIMIT)
    findings: list[InlineHookFinding] = []
    # Shared by every service of the table: a run, or a sweep at this window,
    # depends only on the dump and its address, never on the chain that reached it.
    runs: dict[PhysAddr, _Run] = {}
    scans: dict[PhysAddr, PrologueScan] = {}

    for entry in table.entries:
        if entry.pointer == 0:
            continue
        owner = image_map.resolve_owner(entry.pointer) or baseline.image
        owner_base, owner_end = owner.image_base, owner.image_end

        # Breadth-first over a worklist that grows as it is read: each address
        # is followed once, on its shortest chain. Each transfer is examined
        # once: a step depends only on its address, and a later examination,
        # on a chain no shorter, could only repeat a finding or a queued target.
        seen = {entry.pointer}
        examined: set[PhysAddr] = set()
        frontier: list[tuple[PhysAddr, tuple[ControlTransfer, ...]]] = [(entry.pointer, ())]
        for addr, chain in frontier:
            scan = scans.get(addr)
            if scan is None:
                if not dump.in_span(addr):
                    continue
                scan = scans[addr] = scan_prologue(dump, addr, window, runs)
            follow = len(chain) + 1 < max_depth
            for t in scan.transfers:
                at = t.at
                if at in examined:
                    continue
                examined.add(at)
                target = t.target
                if target is not None and owner_base <= target < owner_end:
                    if follow and target not in seen:
                        seen.add(target)
                        frontier.append((target, chain + (t,)))
                    continue
                extended = chain + (t,)
                target_image = image_map.resolve_owner(target) if target is not None else None
                findings.append(
                    InlineHookFinding(
                        table_kind=table.kind,
                        service_name=entry.name,
                        function_addr=entry.pointer,
                        hook_addr=extended[0].at,
                        final_target=target,
                        chain=extended,
                        target_image=target_image,
                        indeterminate=target is None,
                        note=CROSS_IMAGE_NOTE if target_image is not None else None,
                    )
                )

    return findings

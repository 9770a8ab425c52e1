"""Analysis orchestration and deterministic report assembly.

Runs the full pipeline — table parsing, image registry, pointer and inline
hook detection, optional carving — and renders the result as stable JSON
(fixed key order, lowercase hex addresses, sorted findings) and as a
human-readable text block per table. Wall-clock time lives only in
``meta.generated_at`` so the rest of the report is byte-reproducible.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .carver import CarvedImage, carve_images, manifest_entry
from .dump_model import Anomaly, MemoryDump
from .image_registry import ImageMap, LoadedImageRecord, normalize_guid, scan_loaded_images
from .inline_hooks import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_PROLOGUE_WINDOW,
    MAX_DEPTH_LIMIT,
    PROLOGUE_WINDOW_LIMIT,
    InlineHookFinding,
    check_limit,
    detect_inline_hooks,
)
from .pointer_hooks import (
    BaselineError,
    OwnershipBaseline,
    PointerHookFinding,
    detect_pointer_hooks,
    infer_baseline,
)
from .service_tables import (
    CrcStatus,
    ServiceTable,
    locate_tables,
    verify_table_integrity,
)

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2


@dataclass(frozen=True)
class AnalysisOptions:
    """What an analysis accepts, all checked here: ``prologue_window`` and ``max_depth`` an
    ``int`` (not a ``bool``) from 1 to its ``*_LIMIT``; ``baseline_guid`` None or any form
    ``normalize_guid`` reads, kept canonical; ``carve_dir`` None or a non-empty path.
    Anything else is a ``ValueError`` naming the field, raised before any scan or carve."""

    baseline_guid: str | None = None
    prologue_window: int = DEFAULT_PROLOGUE_WINDOW
    max_depth: int = DEFAULT_MAX_DEPTH
    carve_dir: str | None = None

    def __post_init__(self):
        for name, limit in (("prologue_window", PROLOGUE_WINDOW_LIMIT),
                            ("max_depth", MAX_DEPTH_LIMIT)):
            check_limit(name, getattr(self, name), limit)
        if self.baseline_guid is not None:
            try:
                object.__setattr__(self, "baseline_guid", normalize_guid(self.baseline_guid))
            except (AttributeError, TypeError, ValueError):  # uuid.UUID's refusals
                raise ValueError(f"baseline_guid is not a GUID: {self.baseline_guid!r}") from None
        if self.carve_dir == "" or not isinstance(self.carve_dir, (str, os.PathLike, type(None))):
            raise ValueError(f"carve_dir must be None or a non-empty path, got {self.carve_dir!r}")


@dataclass(frozen=True)
class TableReport:
    table: ServiceTable
    crc: CrcStatus
    baseline: OwnershipBaseline | None
    baseline_error: str | None


@dataclass(frozen=True)
class AnalysisReport:
    dump: MemoryDump
    sha256: str  # content_sha256 of the dump
    tables: list[TableReport]
    image_map: ImageMap
    pointer_findings: list[PointerHookFinding]
    inline_findings: list[InlineHookFinding]
    anomalies: list[Anomaly]
    carved: list[CarvedImage]
    carve_dir: str | None

    @property
    def has_findings(self) -> bool:
        return bool(self.pointer_findings or self.inline_findings)

    @property
    def exit_classification(self) -> str:
        return "findings" if self.has_findings else "clean"

    @property
    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.has_findings else EXIT_CLEAN


def _hx(value: int | None) -> str | None:
    return None if value is None else f"0x{value:x}"


def content_sha256(dump: MemoryDump) -> str:
    """Digest of the mapped region contents in physical order."""
    h = hashlib.sha256()
    for region in dump.regions:
        for chunk in dump.iter_range(region.phys_start, region.length):
            h.update(chunk)
    return h.hexdigest()


def _inspect_tables(
    dump: MemoryDump, image_map: ImageMap, override: LoadedImageRecord | None,
    options: AnalysisOptions,
) -> tuple[list[TableReport], list[PointerHookFinding], list[InlineHookFinding], list[Anomaly]]:
    """Locate, check and sweep every service table; findings and anomalies sorted."""
    tables, table_anomalies = locate_tables(dump)
    anomalies = list(table_anomalies) + list(image_map.anomalies)

    table_reports: list[TableReport] = []
    pointer_findings: list[PointerHookFinding] = []
    inline_findings: list[InlineHookFinding] = []
    for table in tables:
        crc = verify_table_integrity(dump, table)
        if crc.computed is None:
            detail = f"header_size {table.header.header_size} runs past the dump span"
            anomalies.append(Anomaly("crc_unverifiable", table.table_addr, detail))
        baseline = None
        baseline_error = None
        try:
            baseline = infer_baseline(table, image_map, override)
        except BaselineError as exc:
            baseline_error = str(exc)
            anomalies.append(Anomaly("no_baseline", table.table_addr, str(exc)))
        table_reports.append(TableReport(table, crc, baseline, baseline_error))
        if baseline is None:
            continue
        pointer_findings.extend(detect_pointer_hooks(table, image_map, baseline))
        inline_findings.extend(
            detect_inline_hooks(
                dump, table, image_map, baseline,
                max_depth=options.max_depth, window=options.prologue_window,
            )
        )

    pointer_findings.sort(key=lambda f: (f.table_kind.rank, f.service_index))
    inline_findings.sort(key=lambda f: (f.table_kind.rank, f.service_name, f.hook_addr))
    anomalies.sort(key=lambda a: (a.kind, a.addr if a.addr is not None else -1, a.detail))
    return table_reports, pointer_findings, inline_findings, anomalies


def analyze_dump(dump: MemoryDump, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Run parse -> detect -> (optionally) carve over a loaded dump.

    A ``baseline_guid`` naming no loaded image raises ``BaselineError``
    before anything is carved. The content hash and the carve run on two
    worker threads while this one scans and detects: SHA-256 and file
    writes release the GIL, the scan's ``find`` calls (its one-byte probes
    too) hold it. Carve anomalies follow the sorted ones.
    """
    options = options or AnalysisOptions()
    with ThreadPoolExecutor(max_workers=2) as pool:
        digest = pool.submit(content_sha256, dump)
        image_map = scan_loaded_images(dump)
        override = None
        if options.baseline_guid is not None:
            override = image_map.by_guid(options.baseline_guid)
            if override is None:
                raise BaselineError(f"no loaded image has GUID {options.baseline_guid}")
        carving = (
            pool.submit(carve_images, dump, image_map, options.carve_dir)
            if options.carve_dir else None
        )
        tables, pointer_findings, inline_findings, anomalies = _inspect_tables(
            dump, image_map, override, options
        )
        carved, carve_anomalies = carving.result() if carving is not None else ([], [])
        return AnalysisReport(
            dump=dump,
            sha256=digest.result(),
            tables=tables,
            image_map=image_map,
            pointer_findings=pointer_findings,
            inline_findings=inline_findings,
            anomalies=anomalies + carve_anomalies,
            carved=carved,
            carve_dir=options.carve_dir,
        )


def _image_ref(record: LoadedImageRecord | None) -> dict | None:
    if record is None:
        return None
    return {
        "guid": record.identity.guid,
        "file_path": record.identity.file_path,
        "base": _hx(record.image_base),
        "size": record.image_size,
    }


def to_json_dict(report: AnalysisReport) -> dict:
    """Stable JSON form; only ``meta.generated_at`` varies between runs."""
    dump = report.dump
    doc = {
        "schema": 1,
        "tool_version": __version__,
        "dump": {
            "path": dump.source_path,
            "total_span": _hx(dump.total_span),
            "regions": [
                {"phys_start": _hx(r.phys_start), "length": r.length} for r in dump.regions
            ],
            "sha256": report.sha256,
        },
        "tables": [
            {
                "kind": tr.table.kind.value,
                "addr": _hx(tr.table.table_addr),
                "revision": _hx(tr.table.header.revision),
                "header_size": tr.table.header.header_size,
                "entry_count": len(tr.table.entries),
                "null_entries": len(tr.table.null_entries),
                "flags": list(tr.table.flags),
                "crc": {
                    "stored": _hx(tr.crc.stored),
                    "computed": _hx(tr.crc.computed),
                    "ok": tr.crc.crc_ok,
                },
                "baseline": (
                    None
                    if tr.baseline is None
                    else {
                        "image": _image_ref(tr.baseline.image),
                        "confidence": tr.baseline.confidence,
                        "source": tr.baseline.source,
                    }
                ),
            }
            for tr in report.tables
        ],
        "images": {
            "count": len(report.image_map),
            "records": [
                {**_image_ref(r), "record_addr": _hx(r.record_addr)}
                for r in report.image_map.records
            ],
        },
        "pointer_findings": [
            {
                "table": f.table_kind.value,
                "service": f.service_name,
                "index": f.service_index,
                "pointer": _hx(f.pointer),
                "severity": f.severity,
                "expected_image": _image_ref(f.expected_image),
                "target_image": _image_ref(f.target_image),
            }
            for f in report.pointer_findings
        ],
        "inline_findings": [
            {
                "table": f.table_kind.value,
                "service": f.service_name,
                "function_addr": _hx(f.function_addr),
                "hook_addr": _hx(f.hook_addr),
                "final_target": _hx(f.final_target),
                "indeterminate": f.indeterminate,
                "target_image": _image_ref(f.target_image),
                "note": f.note,
                "chain": [
                    {
                        "at": _hx(t.at),
                        "kind": t.kind.value,
                        "length": t.length,
                        "target": _hx(t.target),
                    }
                    for t in f.chain
                ],
            }
            for f in report.inline_findings
        ],
        "anomalies": [
            {"kind": a.kind, "addr": _hx(a.addr), "detail": a.detail} for a in report.anomalies
        ],
        "carve": (
            None
            if report.carve_dir is None
            else {
                "out_dir": str(report.carve_dir),
                "images": [manifest_entry(c) for c in report.carved],
            }
        ),
        "exit_classification": report.exit_classification,
        "meta": {"generated_at": datetime.now(timezone.utc).isoformat()},
    }
    return doc


def _describe_image(record: LoadedImageRecord | None) -> str:
    if record is None:
        return "<no loaded image>"
    return f"{record.identity.label} [{record.image_base:#x}..{record.image_end:#x})"


def render_text(report: AnalysisReport) -> str:
    """Figure-style text report: one block per table, then findings."""
    lines = []
    dump = report.dump
    lines.append(f"dump {dump.source_path}")
    lines.append(
        f"  span {dump.total_span:#x} in {len(dump.regions)} region(s), "
        f"{len(report.image_map)} loaded image(s)"
    )
    for tr in report.tables:
        t = tr.table
        lines.append(f"[{t.kind.value} services table @ {t.table_addr:#x}]")
        lines.append(
            f"  revision={t.header.revision:#x} header_size={t.header.header_size}"
            f" entries={len(t.entries)} null={len(t.null_entries)}"
        )
        if tr.crc.computed is None:
            checked = "UNVERIFIABLE (range past dump end)"
        else:
            checked = f"computed={tr.crc.computed:#010x} {'ok' if tr.crc.crc_ok else 'MISMATCH'}"
        lines.append(f"  crc32 stored={tr.crc.stored:#010x} {checked} (advisory)")
        if tr.baseline is not None:
            b = tr.baseline
            lines.append(
                f"  baseline {_describe_image(b.image)}"
                f" confidence={b.confidence} source={b.source}"
            )
        else:
            lines.append(f"  baseline unavailable: {tr.baseline_error}")
        if t.flags:
            lines.append(f"  flags: {', '.join(t.flags)}")

    lines.append(f"pointer hook findings ({len(report.pointer_findings)}):")
    for f in report.pointer_findings:
        lines.append(
            f"  [{f.table_kind.value}] {f.service_name} (#{f.service_index})"
            f" -> {f.pointer:#x} in {_describe_image(f.target_image)}"
            f" severity={f.severity}"
        )
    lines.append(f"inline hook findings ({len(report.inline_findings)}):")
    for f in report.inline_findings:
        first = f.chain[0]
        target = f"{f.final_target:#x}" if f.final_target is not None else "<unresolved>"
        lines.append(
            f"  [{f.table_kind.value}] {f.service_name} @ {f.function_addr:#x}:"
            f" {first.kind.value} at {f.hook_addr:#x} -> {target}"
            f" in {_describe_image(f.target_image)}"
            f" chain={len(f.chain)}{' indeterminate' if f.indeterminate else ''}"
        )
    lines.append(f"anomalies ({len(report.anomalies)}):")
    lines.extend(f"  {a}" for a in report.anomalies)
    if report.carve_dir is not None:
        lines.append(f"carved {len(report.carved)} image(s) -> {report.carve_dir}")
    lines.append(f"verdict: {report.exit_classification}")
    return "\n".join(lines) + "\n"

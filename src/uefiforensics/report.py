"""Analysis orchestration and deterministic report assembly.

Runs the full pipeline in order — image registry, table parsing, pointer and
inline hook detection, then optional carving — and states the result once, as
the stable ``to_json_dict`` document (fixed key order, lowercase hex addresses,
sorted findings). The text report is a view of that document and reads
nothing else. Wall-clock time lives only in ``meta.generated_at``.
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
from .image_registry import (
    ImageIdentity,
    ImageMap,
    LoadedImageRecord,
    normalize_guid,
    scan_loaded_images,
)
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
_EXIT_CODES = {"clean": EXIT_CLEAN, "findings": EXIT_FINDINGS}  # by exit_classification


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
    baseline: OwnershipBaseline | None  # None: a no_baseline anomaly at the table says why


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
    def exit_classification(self) -> str:
        return "findings" if self.pointer_findings or self.inline_findings else "clean"

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.exit_classification]


def _hx(value: int | None) -> str | None:
    return None if value is None else f"0x{value:x}"


def content_sha256(dump: MemoryDump) -> str:
    """Digest of the mapped region contents in physical order, hashed as ``iter_contents``
    yields them: whole windows of file runs, so that each GIL release by the hash worker
    of ``analyze_dump`` covers a full ``WINDOW``, not the few KiB of a short region."""
    h = hashlib.sha256()
    for chunk in dump.iter_contents():
        h.update(chunk)
    return h.hexdigest()


def analyze_dump(dump: MemoryDump, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Run the pipeline over a loaded dump, in order, on the calling thread:
    scan the images and resolve ``baseline_guid``, so that one naming no loaded
    image raises ``BaselineError`` before anything is carved; locate, check and
    sweep every table; then carve, when ``carve_dir`` is set. One worker hashes
    the dump beside the stages (SHA-256 releases the GIL, the scans' ``find``
    holds it). Findings and anomalies are sorted; carve anomalies follow them.
    """
    options = options or AnalysisOptions()
    with ThreadPoolExecutor(max_workers=1) as pool:
        digest = pool.submit(content_sha256, dump)
        image_map = scan_loaded_images(dump)
        override = None
        if options.baseline_guid is not None:
            override = image_map.by_guid(options.baseline_guid)
            if override is None:
                raise BaselineError(f"no loaded image has GUID {options.baseline_guid}")
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
            try:
                baseline = infer_baseline(table, image_map, override)
            except BaselineError as exc:
                anomalies.append(Anomaly("no_baseline", table.table_addr, str(exc)))
            table_reports.append(TableReport(table, crc, baseline))
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
        carved, carve_anomalies = (
            carve_images(dump, image_map, options.carve_dir) if options.carve_dir else ([], [])
        )
        return AnalysisReport(
            dump=dump,
            sha256=digest.result(),
            tables=table_reports,
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
    """The report's one document, stable JSON; only ``meta.generated_at`` varies between runs."""
    dump = report.dump
    return {
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


def _describe_image(ref: dict | None) -> str:
    if ref is None:
        return "<no loaded image>"
    label = ImageIdentity(ref["guid"], ref["file_path"]).label
    return f"{label} [{ref['base']}..{int(ref['base'], 16) + ref['size']:#x})"


def render_text(report: AnalysisReport) -> str:
    """Figure-style text report: a view of the ``to_json_dict`` document, reading nothing else."""
    doc = to_json_dict(report)
    lines = [
        f"dump {doc['dump']['path']}",
        f"  span {doc['dump']['total_span']} in {len(doc['dump']['regions'])} region(s), "
        f"{doc['images']['count']} loaded image(s)",
    ]
    no_baseline = {a["addr"]: a["detail"] for a in doc["anomalies"] if a["kind"] == "no_baseline"}
    for t in doc["tables"]:
        lines.append(f"[{t['kind']} services table @ {t['addr']}]")
        lines.append(f"  revision={t['revision']} header_size={t['header_size']}"
                     f" entries={t['entry_count']} null={t['null_entries']}")
        crc = t["crc"]
        checked = "UNVERIFIABLE (range past dump end)"
        if crc["computed"] is not None:
            ok = "ok" if crc["ok"] else "MISMATCH"
            checked = f"computed={int(crc['computed'], 16):#010x} {ok}"
        lines.append(f"  crc32 stored={int(crc['stored'], 16):#010x} {checked} (advisory)")
        b = t["baseline"]
        if b is None:
            lines.append(f"  baseline unavailable: {no_baseline[t['addr']]}")
        else:
            lines.append(f"  baseline {_describe_image(b['image'])}"
                         f" confidence={b['confidence']} source={b['source']}")
        if t["flags"]:
            lines.append(f"  flags: {', '.join(t['flags'])}")

    lines.append(f"pointer hook findings ({len(doc['pointer_findings'])}):")
    for f in doc["pointer_findings"]:
        lines.append(f"  [{f['table']}] {f['service']} (#{f['index']}) -> {f['pointer']}"
                     f" in {_describe_image(f['target_image'])} severity={f['severity']}")
    lines.append(f"inline hook findings ({len(doc['inline_findings'])}):")
    for f in doc["inline_findings"]:
        lines.append(f"  [{f['table']}] {f['service']} @ {f['function_addr']}:"
                     f" {f['chain'][0]['kind']} at {f['hook_addr']}"
                     f" -> {f['final_target'] or '<unresolved>'}"
                     f" in {_describe_image(f['target_image'])}"
                     f" chain={len(f['chain'])}{' indeterminate' if f['indeterminate'] else ''}")
    lines.append(f"anomalies ({len(doc['anomalies'])}):")
    for a in doc["anomalies"]:  # as Anomaly.__str__ writes it
        where = f" @ {a['addr']}" if a["addr"] is not None else ""
        lines.append(f"  {a['kind']}{where}: {a['detail']}")
    if doc["carve"] is not None:
        lines.append(f"carved {len(doc['carve']['images'])} image(s) -> {doc['carve']['out_dir']}")
    lines.append(f"verdict: {doc['exit_classification']}")
    return "\n".join(lines) + "\n"

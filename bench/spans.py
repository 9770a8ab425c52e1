"""Span recorder for the benchmark's traced run, and the layer table it uses.

The tracer wraps public functions of the package from outside, under the
name each caller looks the function up by (``report.locate_tables`` is the
binding ``analyze_dump`` calls, ``MemoryDump.read_bytes`` the method every
reader goes through), so nothing under ``src/`` changes. Each call becomes
one span: name, start, end, parent span and trace id (one id per verdict).
Spans stay in flat arrays in memory and are written once, at the end.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

from uefiforensics import dump_model, image_registry, inline_hooks, report


def _mib_returned(args, result):
    return {"dump_model.read_bytes_mib": len(result) / 2**20}


def _tables(args, result):
    tables, anomalies = result
    rejected = sum(a.kind == "table_candidate_rejected" for a in anomalies)
    return {"service_tables.accepted": len(tables),
            "service_tables.candidates": len(tables) + rejected}


def _images(args, result):
    rejected = sum(a.kind == "ldri_candidate_rejected" for a in result.anomalies)
    return {"image_registry.accepted": len(result),
            "image_registry.candidates": len(result) + rejected}


def _pointer_findings(args, result):
    return {"pointer_hooks.findings": len(result)}


def _inline_findings(args, result):
    table = args[1]
    return {"inline_hooks.findings": len(result),
            "inline_hooks.services": sum(1 for e in table.entries if e.pointer)}


def _carved(args, result):
    carved, _ = result
    return {"carver.images": len(carved),
            "carver.mib_written": sum(c.image_size for c in carved) / 2**20}


# (owner, attribute, span name, counter hook or None). The owner is the
# namespace the caller resolves the name in at call time.
TARGETS = (
    (dump_model, "load_dump", "dump_model.load_dump", None),
    (dump_model.MemoryDump, "read_bytes", "MemoryDump.read_bytes", _mib_returned),
    (dump_model.MemoryDump, "find_signature", "MemoryDump.find_signature", None),
    (report, "analyze_dump", "report.analyze_dump", None),
    (report, "locate_tables", "report.locate_tables", _tables),
    (report, "verify_table_integrity", "report.verify_table_integrity", None),
    (report, "scan_loaded_images", "report.scan_loaded_images", _images),
    (image_registry.ImageMap, "resolve_owner", "ImageMap.resolve_owner", None),
    (report, "infer_baseline", "report.infer_baseline", None),
    (report, "detect_pointer_hooks", "report.detect_pointer_hooks", _pointer_findings),
    (report, "detect_inline_hooks", "report.detect_inline_hooks", _inline_findings),
    (inline_hooks, "scan_prologue", "inline_hooks.scan_prologue", None),
    (inline_hooks, "decode_instruction", "inline_hooks.decode_instruction", None),
    (report, "carve_images", "report.carve_images", _carved),
    (report, "to_json_dict", "report.to_json_dict", None),
    (report, "content_sha256", "report.content_sha256", None),
    (report, "render_text", "report.render_text", None),
)
CARVE_SPAN = "report.carve_images"

# Per-layer metric -> (statistic, span name). "total" is summed span
# duration, "self" excludes time covered by child spans.
SPAN_METRICS = {
    "dump_model.load_s": ("total", "dump_model.load_dump"),
    "dump_model.find_signature_s": ("total", "MemoryDump.find_signature"),
    "dump_model.find_signature_calls": ("calls", "MemoryDump.find_signature"),
    "dump_model.read_bytes_calls": ("calls", "MemoryDump.read_bytes"),
    "service_tables.locate_s": ("self", "report.locate_tables"),
    "service_tables.crc_s": ("total", "report.verify_table_integrity"),
    "image_registry.scan_s": ("self", "report.scan_loaded_images"),
    "image_registry.resolve_owner_calls": ("calls", "ImageMap.resolve_owner"),
    "pointer_hooks.baseline_s": ("total", "report.infer_baseline"),
    "pointer_hooks.detect_s": ("total", "report.detect_pointer_hooks"),
    "inline_hooks.detect_s": ("total", "report.detect_inline_hooks"),
    "inline_hooks.scan_prologue_s": ("total", "inline_hooks.scan_prologue"),
    "inline_hooks.scan_prologue_calls": ("calls", "inline_hooks.scan_prologue"),
    "inline_hooks.decode_calls": ("calls", "inline_hooks.decode_instruction"),
    "carver.carve_s": ("total", "report.carve_images"),
    "report.analyze_s": ("self", "report.analyze_dump"),
    "report.content_sha256_s": ("total", "report.content_sha256"),
    "report.to_json_s": ("self", "report.to_json_dict"),
    "report.render_text_s": ("total", "report.render_text"),
}
COUNTER_METRICS = (
    "dump_model.read_bytes_mib",
    "service_tables.candidates",
    "service_tables.accepted",
    "image_registry.candidates",
    "image_registry.accepted",
    "pointer_hooks.findings",
    "inline_hooks.findings",
    "carver.images",
    "carver.mib_written",
)


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.names = [name for _, _, name, _ in TARGETS]
        self.name_ix = array("i")
        self.parent = array("i")
        self.trace_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._stack = [-1]
        self._trace = -1
        self._wrappers = [
            self._wrap(getattr(owner, attr), ix, count)
            for ix, (owner, attr, _, count) in enumerate(TARGETS)
        ]

    def _wrap(self, fn, ix, count):
        name_ix, parent, trace_id = self.name_ix, self.parent, self.trace_id
        start, end, stack, counters = self.start, self.end, self._stack, self.counters

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ix)
            name_ix.append(ix)
            parent.append(stack[-1])
            trace_id.append(self._trace)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if count is not None:
                for key, value in count(args, result).items():
                    counters[self._trace, key] += value
            return result

        return traced

    def install(self, trace: int) -> None:
        """Route every target through its recording wrapper."""
        self._trace = trace
        for (owner, attr, _, _), wrapper in zip(TARGETS, self._wrappers):
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions."""
        for (owner, attr, _, _), wrapper in zip(TARGETS, self._wrappers):
            setattr(owner, attr, wrapper.__wrapped__)

    def per_trace(self) -> dict[int, dict[str, dict[str, float]]]:
        """trace id -> span name -> {"calls", "total", "self"} (seconds)."""
        n = len(self.name_ix)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i in range(n):
            stats = out.setdefault(self.trace_id[i], {}).setdefault(
                self.names[self.name_ix[i]], {"calls": 0, "total": 0.0, "self": 0.0}
            )
            dur = self.end[i] - self.start[i]
            stats["calls"] += 1
            stats["total"] += dur / 1e9
            stats["self"] += (dur - child[i]) / 1e9
        return out

    def layer_metrics(self, trace: int, spans: dict[str, dict[str, float]]) -> dict[str, float]:
        """The per-layer metrics of one traced verdict."""
        zero = {"calls": 0, "total": 0.0, "self": 0.0}
        out = {
            metric: spans.get(name, zero)[stat]
            for metric, (stat, name) in SPAN_METRICS.items()
        }
        for key in COUNTER_METRICS:
            out[key] = self.counters.get((trace, key), 0)
        services = self.counters.get((trace, "inline_hooks.services"), 0)
        out["inline_hooks.scans_per_service"] = (
            out["inline_hooks.scan_prologue_calls"] / services if services else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """Write spans as ``<path>.bin`` (five little-endian columns) and a JSON index."""
        with path.with_suffix(".bin").open("wb") as fh:
            for column in (self.name_ix, self.parent, self.trace_id, self.start, self.end):
                column.tofile(fh)
        index = {
            "names": self.names,
            "spans": len(self.name_ix),
            "columns": [["name_ix", "i"], ["parent", "i"], ["trace_id", "i"],
                        ["start_ns", "q"], ["end_ns", "q"]],
            "counters": [[t, k, v] for (t, k), v in sorted(self.counters.items())],
        }
        path.with_suffix(".json").write_text(json.dumps(index) + "\n", encoding="utf-8")

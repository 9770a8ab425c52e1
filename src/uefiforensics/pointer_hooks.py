"""Service-table function pointer hook detection.

A service pointer is expected to land inside the image that legitimately
implements that table's services. On compliant firmware the DXE core
populates all three tables, so the image owning the majority of a table's
pointers is taken as that table's baseline; an explicit GUID override is
available for firmware that splits services across drivers (which would
otherwise make the majority vote low-confidence).

Detection deliberately ignores table CRC state: attackers recalculate the
checksum after patching, so a valid CRC proves nothing.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

from .dump_model import PhysAddr
from .image_registry import ImageMap, LoadedImageRecord
from .service_tables import ServiceTable, TableKind

logger = logging.getLogger(__name__)

SEVERITY_SUSPICIOUS = "suspicious"  # pointer lands in a different loaded image
SEVERITY_ANOMALOUS = "anomalous"    # pointer lands in no loaded image at all


class BaselineError(Exception):
    """No ownership baseline for a table, or no loaded image has the override GUID."""


@dataclass(frozen=True)
class OwnershipBaseline:
    """The image designated as a table's legitimate service implementer."""

    image: LoadedImageRecord
    confidence: str  # "high" | "low"
    source: str      # "majority" | "plurality" | "override"


@dataclass(frozen=True)
class PointerHookFinding:
    table_kind: TableKind
    service_name: str
    service_index: int
    pointer: PhysAddr
    expected_image: LoadedImageRecord
    target_image: LoadedImageRecord | None
    severity: str


def infer_baseline(
    table: ServiceTable,
    image_map: ImageMap,
    override: LoadedImageRecord | None = None,
) -> OwnershipBaseline:
    """Choose the baseline image for a table.

    Strict majority of non-null pointers wins with high confidence;
    otherwise the plurality image is chosen and flagged low-confidence.
    An ``override`` record short-circuits inference entirely.
    """
    if override is not None:
        return OwnershipBaseline(override, confidence="high", source="override")

    non_null = [e for e in table.entries if e.pointer != 0]
    counts: Counter[LoadedImageRecord] = Counter()
    for entry in non_null:
        owner = image_map.resolve_owner(entry.pointer)
        if owner is not None:
            counts[owner] += 1
    if not counts:
        raise BaselineError(
            f"{table.kind.value} table at {table.table_addr:#x}: no service pointer "
            f"resolves to a loaded image"
        )

    best, best_count = min(
        counts.items(), key=lambda item: (-item[1], item[0].image_base)
    )
    if 2 * best_count > len(non_null):
        confidence, source = "high", "majority"
    else:
        confidence, source = "low", "plurality"
        logger.warning(
            "%s table baseline is low-confidence: %s owns %d of %d pointers",
            table.kind.value, best.identity.label, best_count, len(non_null),
        )
    return OwnershipBaseline(best, confidence=confidence, source=source)


def detect_pointer_hooks(
    table: ServiceTable,
    image_map: ImageMap,
    baseline: OwnershipBaseline,
) -> list[PointerHookFinding]:
    """Flag every non-null entry whose pointer escapes the baseline image.

    Null pointers are not findings (legitimately unimplemented services
    exist); the report surfaces them separately. Findings come back in
    service-index order.
    """
    expected = baseline.image
    findings = []
    for entry in table.entries:
        if entry.pointer == 0:
            continue
        if expected.contains(entry.pointer):
            continue
        target = image_map.resolve_owner(entry.pointer)
        findings.append(
            PointerHookFinding(
                table_kind=table.kind,
                service_name=entry.name,
                service_index=entry.index,
                pointer=entry.pointer,
                expected_image=expected,
                target_image=target,
                severity=SEVERITY_SUSPICIOUS if target is not None else SEVERITY_ANOMALOUS,
            )
        )
    return findings

"""Forensic analysis of raw UEFI pre-boot memory dumps.

Parses service tables and loaded-image records out of a physical memory
image, detects function-pointer and inline hooking of UEFI services,
carves loaded PE/COFF images, and forges ground-truth fixture dumps that
reproduce the memory effects of known bootkits.
"""

__version__ = "0.1.0"

from .dump_model import (  # noqa: E402,F401
    Anomaly,
    DumpLoadError,
    MemoryDump,
    OutOfBoundsRead,
    Region,
    load_dump,
)
from .service_tables import (  # noqa: F401
    ServiceTable,
    TableKind,
    TableParseError,
    compute_table_crc32,
    crc32_ieee,
    locate_tables,
    parse_table,
    verify_table_integrity,
)
from .image_registry import (  # noqa: F401
    ImageIdentity,
    ImageMap,
    LoadedImageRecord,
    scan_loaded_images,
)
from .pointer_hooks import (  # noqa: F401
    BaselineError,
    OwnershipBaseline,
    PointerHookFinding,
    detect_pointer_hooks,
    infer_baseline,
)
from .inline_hooks import (  # noqa: F401
    ControlTransfer,
    InlineHookFinding,
    TransferKind,
    decode_instruction,
    detect_inline_hooks,
    scan_prologue,
)
from .carver import CarvedImage, carve_images  # noqa: F401
from .forge import (  # noqa: F401
    ForgeError,
    GroundTruth,
    ScenarioSpec,
    build_minimal_pe,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)
from .report import (  # noqa: F401
    AnalysisOptions,
    AnalysisReport,
    analyze_dump,
    render_text,
    to_json_dict,
)

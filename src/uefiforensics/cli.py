"""Command-line interface: analyze, carve, forge, tables.

Exit codes: 0 = completed with no findings, 2 = findings present,
1 = operational error (unreadable dump, bad arguments, IO failure).
Log verbosity comes from the UEFIFORENSICS_LOG environment variable
(DEBUG, INFO, WARNING, ERROR; default WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .carver import carve_images
from .dump_model import DumpLoadError, load_dump
from .forge import ForgeError, build_scenario, builtin_scenarios, scenario_by_name
from .image_registry import scan_loaded_images
from .inline_hooks import MAX_DEPTH_LIMIT, PROLOGUE_WINDOW_LIMIT
from .pointer_hooks import BaselineError
from .report import (
    EXIT_CLEAN,
    EXIT_ERROR,
    AnalysisOptions,
    analyze_dump,
    render_text,
    to_json_dict,
)
from .service_tables import locate_tables

LOG_ENV_VAR = "UEFIFORENSICS_LOG"


def _configure_logging() -> None:
    level_name = os.environ.get(LOG_ENV_VAR, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR; argparse's own 2 means findings here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_dump_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dump", help="raw memory dump file")
    parser.add_argument("--map", dest="map_path", metavar="MAP",
                        help="region-map sidecar (default: <stem>.map.json, then "
                             "<dump>.map.json, if present)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uefiforensics",
        description="Hook detection and image carving for raw UEFI pre-boot memory dumps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full detection pipeline on a dump")
    _add_dump_args(p)
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.add_argument("--baseline-guid",
                   help="override baseline inference with this loaded image's GUID")
    p.add_argument("--prologue-window", type=int, default=AnalysisOptions.prologue_window,
                   help=f"prologue sweep bytes, 1-{PROLOGUE_WINDOW_LIMIT} (default %(default)s)")
    p.add_argument("--max-depth", type=int, default=AnalysisOptions.max_depth,
                   help=f"nested transfer levels, 1-{MAX_DEPTH_LIMIT} (default %(default)s)")
    p.add_argument("--carve-out", dest="carve_dir", metavar="DIR",
                   help="also carve images into DIR")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("carve", help="extract loaded images from a dump")
    _add_dump_args(p)
    p.add_argument("out_dir", help="directory receiving carved .efi files")
    p.set_defaults(func=cmd_carve)

    p = sub.add_parser("tables", help="dump parsed service tables only")
    _add_dump_args(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("forge", help="synthesize a ground-truth fixture dump")
    p.add_argument("--scenario", help="builtin scenario name")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="determinism seed (default 0)")
    p.add_argument("--list", action="store_true", help="list builtin scenarios and exit")
    p.set_defaults(func=cmd_forge)
    return parser


def _options(**fields) -> AnalysisOptions:
    """A command's options from ``AnalysisOptions``, asked for before the dump is opened
    so that a bad flag is named even for a missing dump; a refused option exits 1."""
    try:
        return AnalysisOptions(**fields)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR) from None


def cmd_analyze(args) -> int:
    options = _options(baseline_guid=args.baseline_guid, prologue_window=args.prologue_window,
                       max_depth=args.max_depth, carve_dir=args.carve_dir)
    dump = load_dump(args.dump, args.map_path)
    report = analyze_dump(dump, options)
    sys.stdout.write(render_text(report))
    if args.json:
        Path(args.json).write_text(
            json.dumps(to_json_dict(report), indent=2) + "\n", encoding="utf-8"
        )
    return report.exit_code


def cmd_carve(args) -> int:
    out_dir = _options(carve_dir=args.out_dir).carve_dir
    dump = load_dump(args.dump, args.map_path)
    image_map = scan_loaded_images(dump)
    carved, anomalies = carve_images(dump, image_map, out_dir)
    for image in carved:
        flag = "" if image.pe_valid else "  [invalid PE]"
        print(f"{image.output_name}  base={image.image_base:#x} size={image.image_size:#x} "
              f"sha256={image.sha256}{flag}")
    for anomaly in anomalies:
        print(f"anomaly: {anomaly}")
    print(f"carved {len(carved)} image(s) -> {out_dir}")
    return EXIT_CLEAN


def cmd_tables(args) -> int:
    dump = load_dump(args.dump, args.map_path)
    tables, anomalies = locate_tables(dump)
    for table in tables:
        h = table.header
        print(f"[{table.kind.value} services table @ {table.table_addr:#x}]")
        print(f"  signature={h.signature.decode('ascii')} revision={h.revision:#x} "
              f"header_size={h.header_size} crc32={h.crc32:#010x}")
        for entry in table.entries:
            print(f"  {entry.index:3d}  {entry.name:<40} {entry.pointer:#018x}")
    for anomaly in anomalies:
        print(f"anomaly: {anomaly}")
    return EXIT_CLEAN


def cmd_forge(args) -> int:
    if args.list:
        for spec in builtin_scenarios():
            summary = [f"{len(items)} {label}(s)" for items, label in (
                (spec.pointer_hooks, "pointer hook"), (spec.inline_hooks, "inline hook"),
                (spec.decoys, "decoy")) if items]
            print(f"{spec.name:<16} {', '.join(summary) or 'clean'}")
        return EXIT_CLEAN
    if not args.scenario or not args.out:
        raise ForgeError("forge requires --scenario and --out (or --list)")
    scenario = build_scenario(scenario_by_name(args.scenario), seed=args.seed)
    paths = scenario.write(args.out)
    for label, path in paths.items():
        print(f"{label}: {path}")
    return EXIT_CLEAN


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BaselineError, DumpLoadError, ForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

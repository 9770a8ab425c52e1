"""Set-up process of the benchmark: forge one workload's corpus to disk.

Usage: python3 bench/corpus.py --workload NAME --seed N --out DIR

Writes each dump with its sidecar map and truth manifest into DIR, plus
``corpus.json`` listing them, and prints one JSON line with the seconds
spent. It runs in its own process so that forging (near 1 GiB peak for
the 256 MiB acceptance dump) never counts toward the analyzer's peak RSS.
"""

import time

# Taken before the package import, so import-time work shows in setup_s.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uefiforensics.dump_model import load_dump  # noqa: E402
from uefiforensics.forge import (  # noqa: E402
    COMPACT_GEOMETRY,
    CORE_GUID,
    ImageSpec,
    ScenarioSpec,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)

BLOB_SIZE = 0x800_0000  # 128 MiB
# Sixteen `je +0`: every one is an in-image transfer to the next
# instruction, so each scan recurses into 16 overlapping sweeps per level.
LADDER_PATCH = bytes.fromhex("7400") * 16


def _acceptance_specs():
    """The core image plus two 128 MiB blobs, as in the c11 envelope test."""
    return [
        ScenarioSpec(
            name="acceptance-256m",
            images=(
                ImageSpec(guid=CORE_GUID, size=0x8000, role="core"),
                ImageSpec(path="\\EFI\\big\\blob1.efi", size=BLOB_SIZE),
                ImageSpec(path="\\EFI\\big\\blob2.efi", size=BLOB_SIZE),
            ),
            geometry=COMPACT_GEOMETRY,
        )
    ]


def _ladder_specs():
    return [replace(scenario_by_name("clean"), name="chain-ladder", geometry=COMPACT_GEOMETRY)]


def _file_offset(regions, addr: int) -> int:
    for r in regions:
        start, length = int(r["phys_start"], 16), int(r["length"], 16)
        if start <= addr and addr + len(LADDER_PATCH) <= start + length:
            return int(r["file_offset"], 16) + addr - start
    raise ValueError(f"service function {addr:#x} is not mapped by the sidecar")


def _patch_ladder(paths) -> None:
    """Overwrite the first 32 bytes of every true service function.

    The functions are located through the sidecar map, as an attacker
    editing the acquired file would. The truth manifest is rewritten to
    match: no hooks are injected, so the expected findings stay empty, but
    the core image's SHA-256 and stub listings change.
    """
    regions = json.loads(paths["map"].read_text(encoding="utf-8"))
    truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
    functions = sorted(
        {
            int(ptr, 16)
            for table in truth["tables"].values()
            for ptr in table["true_pointers"].values()
            if int(ptr, 16)
        }
    )
    with paths["dump"].open("r+b") as fh:
        for addr in functions:
            fh.seek(_file_offset(regions, addr))
            fh.write(LADDER_PATCH)
    dump = load_dump(paths["dump"], paths["map"])
    for image in truth["images"]:
        data = dump.read_bytes(int(image["base"], 16), image["size"])
        image["sha256"] = hashlib.sha256(data).hexdigest()
    truth["stub_listings"] = {}
    truth["ladder_patch"] = {
        "bytes": LADDER_PATCH.hex(),
        "functions": [f"0x{a:x}" for a in functions],
    }
    paths["truth"].write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")


# name -> (scenario specs, carve, post-write patch)
WORKLOADS = {
    "acceptance-256m": (_acceptance_specs, True, None),
    "builtin-corpus": (builtin_scenarios, True, None),
    "chain-ladder": (_ladder_specs, False, _patch_ladder),
}


def forge_corpus(workload: str, seed: int, out_dir: Path) -> dict:
    specs, carve, patch = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    build_s = write_s = 0.0
    dumps = []
    for spec in specs():
        t0 = time.perf_counter()
        scenario = build_scenario(spec, seed=seed)
        t1 = time.perf_counter()
        paths = scenario.write(out_dir)
        if patch is not None:
            patch(paths)
        del scenario
        build_s += t1 - t0
        write_s += time.perf_counter() - t1
        dumps.append(
            {
                "name": spec.name,
                "dump": paths["dump"].name,
                "map": paths["map"].name,
                "truth": paths["truth"].name,
                "bytes": paths["dump"].stat().st_size,
            }
        )
    manifest = {"workload": workload, "seed": seed, "carve": carve, "dumps": dumps}
    (out_dir / "corpus.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return {"build_s": build_s, "write_s": write_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    timings = forge_corpus(args.workload, args.seed, args.out)
    timings["setup_s"] = time.perf_counter() - _T0
    print(json.dumps(timings))


if __name__ == "__main__":
    main()

import json
import logging
import os
import struct
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from uefiforensics import cli
from uefiforensics.cli import LOG_ENV_VAR, _configure_logging, main
from uefiforensics.carver import MANIFEST_NAME
from uefiforensics.dump_model import load_dump
from uefiforensics.forge import COMPACT_GEOMETRY, build_minimal_pe, build_scenario, scenario_by_name
from uefiforensics.image_registry import LDRI_RECORD, LDRI_SIGNATURE, MAX_PATH_CHARS
from uefiforensics.inline_hooks import MAX_DEPTH_LIMIT, PROLOGUE_WINDOW_LIMIT
from uefiforensics.report import analyze_dump, to_json_dict
from uefiforensics.service_tables import TABLE_HEADER, TableKind


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Compact efiguard + clean dumps written once for CLI runs."""
    root = tmp_path_factory.mktemp("cli-fixtures")
    for name in ("efiguard", "clean", "thunderstrike"):
        spec = replace(scenario_by_name(name), geometry=COMPACT_GEOMETRY)
        build_scenario(spec).write(root)
    return root


def test_analyze_clean_exit_0(fixture_dir, capsys):
    rc = main(["analyze", str(fixture_dir / "clean.dump")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pointer hook findings (0)" in out
    assert "verdict: clean" in out


def test_analyze_efiguard_exit_2_and_findings(fixture_dir, capsys):
    rc = main(["analyze", str(fixture_dir / "efiguard.dump"),
               "--map", str(fixture_dir / "efiguard.map.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "LoadImage" in out and "SetVariable" in out
    assert "\\EFI\\Boot\\EfiGuardDxe.efi" in out


def test_analyze_missing_file_exit_1(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.dump")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_deeply_nested_sidecar_exit_1(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    blob = tmp_path / "nested.dump"
    blob.write_bytes(bytes(0x100))
    (tmp_path / "nested.map.json").write_text("[" * 100000)
    rc = main(["analyze", str(blob)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_json_report(fixture_dir, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    rc = main(["analyze", str(fixture_dir / "efiguard.dump"), "--json", str(out_json)])
    capsys.readouterr()
    assert rc == 2
    doc = json.loads(out_json.read_text())
    assert doc["schema"] == 1
    services = [(f["table"], f["service"]) for f in doc["pointer_findings"]]
    assert services == [("boot", "LoadImage"), ("runtime", "SetVariable")]
    assert doc["exit_classification"] == "findings"
    assert all(f["pointer"].startswith("0x") for f in doc["pointer_findings"])


@pytest.mark.parametrize("flags, target", [
    ([], "ev.dump"),
    (["--map", "ev.map.json"], "ev.map.json"),
    ([], "link.json"),  # a symlink to the dump
    ([], "ev.map.json"),  # the sidecar load_dump finds without --map
])
def test_json_refuses_to_overwrite_the_evidence(fixture_dir, tmp_path, monkeypatch, capsys,
                                                flags, target):
    monkeypatch.chdir(tmp_path)
    inputs = {"ev.dump": fixture_dir / "efiguard.dump",
              "ev.map.json": fixture_dir / "efiguard.map.json"}
    for name, source in inputs.items():
        (tmp_path / name).write_bytes(source.read_bytes())
    (tmp_path / "link.json").symlink_to("ev.dump")
    rc = main(["analyze", "ev.dump", *flags, "--json", target])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {target} would overwrite an input file\n"
    for name, source in inputs.items():
        assert (tmp_path / name).read_bytes() == source.read_bytes()


@pytest.mark.parametrize("command, sidecar", [
    (["carve", "k/bootmgfw.efi", "k"], "k/bootmgfw.map.json"),
    (["analyze", "k/bootmgfw.efi", "--carve-out", "k"], "k/bootmgfw.map.json"),
    (["carve", "ev.dump", "k"], "ev.map.json"),  # k/bootmgfw.efi links to the dump
], ids=["carve", "carve-out", "symlink"])
def test_carve_refuses_to_overwrite_the_evidence(fixture_dir, tmp_path, command, sidecar):
    # In a subprocess: truncating the file a dump maps kills the process with SIGBUS.
    (tmp_path / "k").mkdir()
    inputs = {command[1]: fixture_dir / "efiguard.dump", sidecar: fixture_dir / "efiguard.map.json"}
    for name, source in inputs.items():
        (tmp_path / name).write_bytes(source.read_bytes())
    if command[1] == "ev.dump":
        (tmp_path / "k" / "bootmgfw.efi").symlink_to("../ev.dump")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "uefiforensics.cli", *command], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: k/bootmgfw.efi would overwrite an input file\n"
    for name, source in inputs.items():
        assert (tmp_path / name).read_bytes() == source.read_bytes()
    # Every name is refused before the first is written: no image carved ahead of
    # the refused one in record order, and no manifest.
    left = {p.relative_to(tmp_path).as_posix() for p in (tmp_path / "k").iterdir()}
    assert left == {name for name in (*inputs, "k/bootmgfw.efi") if name.startswith("k/")}


@pytest.mark.parametrize("target", [
    f"k2/{MANIFEST_NAME}", "k2/bootmgfw.efi", "k2/../k2/Other.EFI",
])
def test_json_naming_a_carve_output_refused_before_the_dump_is_opened(tmp_path, monkeypatch,
                                                                      capsys, target):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "missing.dump", "--carve-out", "k2", "--json", target])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {target} would overwrite a carved file\n"
    assert list(tmp_path.iterdir()) == []


def test_json_beside_the_carved_files(fixture_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["analyze", str(fixture_dir / "efiguard.dump"), "--carve-out", "k2",
               "--json", "k2/report.json"])
    assert rc == 2
    assert json.loads((tmp_path / "k2" / MANIFEST_NAME).read_text())["schema"] == 1
    assert json.loads((tmp_path / "k2" / "report.json").read_text())["exit_classification"]


def test_report_json_deterministic(fixture_dir):
    scenario = build_scenario(replace(scenario_by_name("efiguard"), geometry=COMPACT_GEOMETRY))
    docs = []
    for _ in range(2):
        doc = to_json_dict(analyze_dump(scenario.dump))
        doc.pop("meta")  # generated_at is the one explicitly-excluded field
        docs.append(json.dumps(doc, sort_keys=False))
    assert docs[0] == docs[1]


def test_carve_command(fixture_dir, tmp_path, capsys):
    out_dir = tmp_path / "carved"
    rc = main(["carve", str(fixture_dir / "thunderstrike.dump"), str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "carved 3 image(s)" in out
    assert (out_dir / "carve_manifest.json").exists()
    assert len(list(out_dir.glob("*.efi"))) == 3
    manifest = json.loads((out_dir / "carve_manifest.json").read_text())
    assert out.splitlines()[:-1] == [
        f"{image['file']}  base={image['image_base']} size={image['image_size']:#x} "
        f"sha256={image['sha256']}" for image in manifest["images"]
    ]
    assert all(image["pe_valid"] for image in manifest["images"])


def test_carve_prints_anomaly_address(tmp_path, capsys):
    # An e_lfanew past the image end keeps MZ (the record is accepted) but
    # fails PE validation when carved.
    scenario = build_scenario(replace(scenario_by_name("clean"), geometry=COMPACT_GEOMETRY))
    paths = scenario.write(tmp_path)
    base = scenario.truth.images[0].base
    (region,) = [r for r in scenario.dump.regions if r.phys_start <= base < r.phys_end]
    with open(paths["dump"], "r+b") as fh:
        fh.seek(region.file_offset + base - region.phys_start + 0x3C)
        fh.write(struct.pack("<I", 0xFFFF_FFF0))
    rc = main(["carve", str(paths["dump"]), str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"anomaly: carved_image_invalid_pe @ {base:#x}: " in out


def test_carve_empty_map_exit_0(tmp_path, capsys):
    blob = tmp_path / "empty-ish.dump"
    blob.write_bytes(bytes(0x1000))
    rc = main(["carve", str(blob), str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "carved 0 image(s)" in out
    manifest = json.loads((tmp_path / "out" / "carve_manifest.json").read_text())
    assert manifest["images"] == []


def test_carve_unwritable_out_dir_exit_1(fixture_dir, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a dir")
    rc = main(["carve", str(fixture_dir / "clean.dump"), str(blocker)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_tables_command(fixture_dir, capsys):
    rc = main(["tables", str(fixture_dir / "clean.dump")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[boot services table @" in out
    assert "LoadImage" in out and "ProcessFirmwareVolume" in out


def test_tables_prints_anomalies(tmp_path, capsys):
    blob = tmp_path / "blank.dump"
    blob.write_bytes(bytes(0x1000))
    rc = main(["tables", str(blob)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        f"anomaly: table_missing: no valid {kind} table found" for kind in ("boot", "runtime", "dxe")
    ]


def test_missing_map_exit_1(fixture_dir, tmp_path, capsys):
    rc = main(["tables", str(fixture_dir / "clean.dump"), "--map", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["forge", "--scenario", "clean"], ["forge", "--out", "x"]])
def test_forge_without_scenario_or_out_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "forge requires --scenario and --out" in capsys.readouterr().err


@pytest.mark.parametrize("value, level", [
    ("debug", logging.DEBUG), ("VERBOSE", logging.WARNING), ("basic_format", logging.WARNING),
])
def test_log_level_from_environment_falls_back_to_warning(monkeypatch, value, level):
    # basicConfig does nothing once the root logger has handlers: record its level.
    seen = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.append(kw["level"]))
    monkeypatch.setenv(LOG_ENV_VAR, value)
    _configure_logging()
    assert seen == [level]


def test_forge_command_and_analyze_round_trip(tmp_path, capsys):
    rc = main(["forge", "--scenario", "glupteba", "--out", str(tmp_path), "--seed", "2"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["analyze", str(tmp_path / "glupteba.dump")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "LoadImage" in out


def test_forge_list(capsys):
    rc = main(["forge", "--list"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("clean", "efiguard", "moonbounce", "decoy-heavy"):
        assert name in out


def test_forge_unknown_scenario_exit_1(tmp_path, capsys):
    rc = main(["forge", "--scenario", "bogus", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_baseline_guid_flag(fixture_dir, capsys):
    from uefiforensics.forge import CORE_GUID

    rc = main(["analyze", str(fixture_dir / "clean.dump"), "--baseline-guid", CORE_GUID])
    out = capsys.readouterr().out
    assert rc == 0
    assert "source=override" in out


def test_baseline_guid_naming_no_image_exit_1(fixture_dir, capsys):
    # A GUID that names no loaded image must not turn an infected dump clean.
    zero = "00000000-0000-0000-0000-000000000000"
    rc = main(["analyze", str(fixture_dir / "efiguard.dump"), "--baseline-guid", zero])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verdict" not in captured.out
    assert f"error: no loaded image has GUID {zero}" in captured.err


def test_baseline_guid_naming_no_image_carves_nothing(fixture_dir, tmp_path, capsys):
    zero = "00000000-0000-0000-0000-000000000000"
    carve_dir = tmp_path / "carved"
    rc = main(["analyze", str(fixture_dir / "efiguard.dump"), "--baseline-guid", zero,
               "--carve-out", str(carve_dir)])
    assert rc == 1
    assert f"error: no loaded image has GUID {zero}" in capsys.readouterr().err
    assert not carve_dir.exists()


def test_carve_out_onto_a_file_exit_1_and_joins_workers(fixture_dir, tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_bytes(b"")
    before = threading.active_count()
    rc = main(["analyze", str(fixture_dir / "efiguard.dump"), "--carve-out", str(blocker)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verdict" not in captured.out
    assert "error:" in captured.err
    assert threading.active_count() == before


def test_baseline_guid_accepts_braced_lowercase(fixture_dir, capsys):
    from uefiforensics.forge import CORE_GUID

    def pointer_findings(argv):
        rc = main(["analyze", str(fixture_dir / "efiguard.dump"), *argv])
        out = capsys.readouterr().out
        return rc, out[out.index("pointer hook findings"):out.index("inline hook findings")]

    rc, braced = pointer_findings(["--baseline-guid", "{" + CORE_GUID.lower() + "}"])
    assert rc == 2
    assert "pointer hook findings (2)" in braced
    assert (rc, braced) == pointer_findings([])


def test_exit_code_contract_across_all_builtins(forged):
    from uefiforensics.forge import builtin_scenarios

    hooked = {"efiguard", "glupteba", "cosmicstrand", "thunderstrike",
              "moonbounce", "crc-recalc", "nested-3"}
    for spec in builtin_scenarios():
        report = analyze_dump(forged(spec.name).dump)
        expected = 2 if spec.name in hooked else 0
        assert report.exit_code == expected, spec.name


def test_max_depth_flag(tmp_path, capsys):
    spec = replace(scenario_by_name("nested-4"), geometry=COMPACT_GEOMETRY)
    build_scenario(spec).write(tmp_path)
    rc = main(["analyze", str(tmp_path / "nested-4.dump")])
    capsys.readouterr()
    assert rc == 0
    rc = main(["analyze", str(tmp_path / "nested-4.dump"), "--max-depth", "4"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "CreateEventEx" in out


@pytest.mark.parametrize("argv", [
    [],
    ["analyze"],
    ["analyze", "x.dump", "--bogus-flag"],
    ["analyze", "x.dump", "--max-depth", "0"],
    ["analyze", "x.dump", "--prologue-window", "0"],
    ["analyze", "x.dump", "--max-depth", "-2"],
    ["analyze", "x.dump", "--prologue-window", "many"],
    ["analyze", "x.dump", "--max-depth", str(MAX_DEPTH_LIMIT + 1)],
    ["analyze", "x.dump", "--prologue-window", str(PROLOGUE_WINDOW_LIMIT + 1)],
    ["analyze", "x.dump", "--baseline-guid", "not-a-guid"],
    ["analyze", "x.dump", "--scan-unaligned"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1  # 2 would read as "findings present"
    assert "error:" in capsys.readouterr().err


def test_flag_limits_accepted_and_shown(fixture_dir, capsys):
    rc = main(["analyze", str(fixture_dir / "clean.dump"),
               "--max-depth", str(MAX_DEPTH_LIMIT),
               "--prologue-window", str(PROLOGUE_WINDOW_LIMIT)])
    assert rc == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"1-{MAX_DEPTH_LIMIT} (default 3)" in help_text
    assert f"1-{PROLOGUE_WINDOW_LIMIT} (default 32)" in help_text


@pytest.mark.parametrize("flags, field", [
    (["--max-depth", "0"], "max_depth"),
    (["--prologue-window", str(PROLOGUE_WINDOW_LIMIT + 1)], "prologue_window"),
    (["--baseline-guid", "not-a-guid"], "baseline_guid"),
    (["--carve-out", ""], "carve_dir"),
    (["--json", ""], "--json"),
])
def test_bad_option_named_before_the_dump_is_opened(tmp_path, capsys, flags, field):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path / "missing.dump"), *flags])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert "missing.dump" not in err


def test_carve_to_empty_dir_refused_before_the_dump_is_opened(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["carve", str(tmp_path / "missing.dump"), ""])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: carve_dir ")
    assert "missing.dump" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["--version"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_crc_range_past_dump_end_is_unverifiable(tmp_path, capsys, text_from_document):
    # The entry array fits, so the table parses; its header_size runs the
    # CRC range 0xC00 bytes past the end of the 0x1000-byte dump.
    data = bytearray(0x1000)
    data[0xC00:0xC00 + TABLE_HEADER.size] = TABLE_HEADER.pack(
        TableKind.BOOT.signature, 0x0002_0046, 4096, 0x1234_5678, 0
    )
    blob = tmp_path / "inflated.dump"
    blob.write_bytes(bytes(data))
    out_json = tmp_path / "report.json"
    rc = main(["analyze", str(blob), "--json", str(out_json)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "crc32 stored=0x12345678 UNVERIFIABLE (range past dump end)" in out
    assert "\n  baseline unavailable: boot table at 0xc00: no service pointer resolves to a " \
        "loaded image\n" in out
    assert text_from_document(analyze_dump(load_dump(blob))) == out
    doc = json.loads(out_json.read_text())
    (table,) = doc["tables"]
    assert (table["kind"], table["addr"], table["entry_count"]) == ("boot", "0xc00", 44)
    assert table["crc"] == {"stored": "0x12345678", "computed": None, "ok": False}
    assert {"kind": "crc_unverifiable", "addr": "0xc00",
            "detail": "header_size 4096 runs past the dump span"} in doc["anomalies"]
    # Detection still ran on the table: it found no image to baseline against.
    assert any(a["kind"] == "no_baseline" and a["addr"] == "0xc00" for a in doc["anomalies"])


def test_longest_record_path_carves(tmp_path, capsys):
    # Two records name the same 255-character path with no separator: the
    # carved names must stay within the 255-byte file-name limit.
    data = bytearray(0x6000)
    data[0x5400:0x5600] = ("A" * MAX_PATH_CHARS).encode("utf-16-le") + b"\x00\x00"
    for i, base in enumerate((0x1000, 0x3000)):
        data[base:base + 0x1000] = build_minimal_pe(0x1000)
        record = 0x5000 + 0x80 * i
        data[record:record + LDRI_RECORD.size] = LDRI_RECORD.pack(
            LDRI_SIGNATURE, base, 0x1000, 0, 0x5400)
    blob = tmp_path / "long-path.dump"
    blob.write_bytes(bytes(data))
    out_dir = tmp_path / "carved"
    rc = main(["analyze", str(blob), "--carve-out", str(out_dir)])
    assert rc == 0
    assert "carved 2 image(s)" in capsys.readouterr().out
    manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
    names = [image["file"] for image in manifest["images"]]
    assert len(set(names)) == 2
    assert all(len(name.encode()) <= 255 and (out_dir / name).exists() for name in names)

"""``analyze_dump`` runs its stages in order on the calling thread and hashes
the dump on one worker thread beside them.

The worker must not show in the result: the content hash is computed once
per analysis, the carve comes after detection, on the caller's thread, carve
anomalies follow the sorted ones, carved images come in record order, an
error reaches the caller unchanged and the worker is joined when the call
returns, on the error paths too.
"""

import hashlib
import struct
import sys
import threading
from dataclasses import replace

import pytest

from uefiforensics import report
from uefiforensics.carver import carve_images
from uefiforensics.dump_model import load_dump
from uefiforensics.forge import (
    COMPACT_GEOMETRY,
    CORE_GUID,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)
from uefiforensics.image_registry import scan_loaded_images
from uefiforensics.inline_hooks import MAX_DEPTH_LIMIT, PROLOGUE_WINDOW_LIMIT
from uefiforensics.pointer_hooks import BaselineError
from uefiforensics.report import AnalysisOptions, analyze_dump, render_text, to_json_dict


@pytest.fixture(scope="module")
def compact_efiguard():
    return build_scenario(replace(scenario_by_name("efiguard"), geometry=COMPACT_GEOMETRY))


def test_content_hashed_once_per_analysis(monkeypatch, compact_efiguard):
    dump = compact_efiguard.dump
    calls = []
    real = report.content_sha256

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(report, "content_sha256", counting)
    rep = analyze_dump(dump)
    first, second = to_json_dict(rep), to_json_dict(rep)
    render_text(rep)
    assert calls == [dump]
    assert rep.sha256 == real(dump) == first["dump"]["sha256"] == second["dump"]["sha256"]


def test_carve_runs_last_on_the_calling_thread(monkeypatch, tmp_path, compact_efiguard):
    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return real(*args, **kwargs)
        return call

    for name in ("detect_inline_hooks", "carve_images"):
        monkeypatch.setattr(report, name, recording(name, getattr(report, name)))
    rep = analyze_dump(compact_efiguard.dump, AnalysisOptions(carve_dir=str(tmp_path / "k")))
    names = [name for name, _ in calls]
    assert rep.carved and names == ["detect_inline_hooks"] * len(rep.tables) + ["carve_images"]
    assert calls[-1][1] == threading.get_ident()


def test_carve_dir_on_a_file_raises_and_joins_workers(tmp_path, compact_efiguard):
    blocker = tmp_path / "not-a-dir"
    blocker.write_bytes(b"")
    before = threading.active_count()
    with pytest.raises(FileExistsError):
        analyze_dump(compact_efiguard.dump, AnalysisOptions(carve_dir=str(blocker)))
    assert threading.active_count() == before


def test_unknown_baseline_guid_carves_nothing_and_joins_workers(tmp_path, compact_efiguard):
    carve_dir = tmp_path / "carved"
    before = threading.active_count()
    with pytest.raises(BaselineError):
        analyze_dump(
            compact_efiguard.dump,
            AnalysisOptions(baseline_guid="00000000-0000-0000-0000-000000000000",
                            carve_dir=str(carve_dir)),
        )
    assert threading.active_count() == before
    assert not carve_dir.exists()


@pytest.mark.parametrize("bad", [
    {"max_depth": 0}, {"max_depth": MAX_DEPTH_LIMIT + 1},
    {"prologue_window": 0}, {"prologue_window": 1 << 20},
])
def test_out_of_range_options_raise_before_any_carve(tmp_path, compact_efiguard, bad):
    carve_dir = tmp_path / "carved"
    with pytest.raises(ValueError):
        analyze_dump(compact_efiguard.dump, AnalysisOptions(carve_dir=str(carve_dir), **bad))
    assert not carve_dir.exists()
    with pytest.raises(ValueError):
        AnalysisOptions(**bad)


@pytest.mark.parametrize("field, value", [
    ("baseline_guid", "not-a-guid"),
    ("baseline_guid", 0x1234),
    ("prologue_window", 32.0),
    ("prologue_window", True),
    ("prologue_window", "32"),
    ("max_depth", 2.5),
    ("max_depth", False),
    ("carve_dir", ""),
    ("carve_dir", 5),
])
def test_malformed_options_raise_naming_the_field_before_any_carve(
    tmp_path, compact_efiguard, field, value
):
    carve_dir = tmp_path / "carved"
    options = {"carve_dir": str(carve_dir), field: value}
    with pytest.raises(ValueError, match=field):
        analyze_dump(compact_efiguard.dump, AnalysisOptions(**options))
    assert not carve_dir.exists()
    with pytest.raises(ValueError, match=field):
        AnalysisOptions(**{field: value})


@pytest.mark.parametrize("form", [
    "{" + CORE_GUID + "}",
    "urn:uuid:" + CORE_GUID,
    CORE_GUID.lower(),
    CORE_GUID.replace("-", ""),
])
def test_baseline_guid_any_form_picks_the_same_override(compact_efiguard, form):
    def report_doc(guid):
        doc = to_json_dict(analyze_dump(compact_efiguard.dump, AnalysisOptions(baseline_guid=guid)))
        doc.pop("meta")
        return doc

    assert AnalysisOptions(baseline_guid=form).baseline_guid == CORE_GUID
    doc = report_doc(form)
    assert {t["baseline"]["source"] for t in doc["tables"]} == {"override"}
    assert {t["baseline"]["image"]["guid"] for t in doc["tables"]} == {CORE_GUID}
    assert doc == report_doc(CORE_GUID)


def test_option_limits_are_inclusive():
    AnalysisOptions(max_depth=1, prologue_window=1)
    AnalysisOptions(max_depth=MAX_DEPTH_LIMIT, prologue_window=PROLOGUE_WINDOW_LIMIT)


@pytest.mark.parametrize("name", sorted(spec.name for spec in builtin_scenarios()))
def test_carving_appends_its_anomalies_and_keeps_record_order(tmp_path, forged, name):
    scenario = forged(name)
    dump = scenario.dump
    plain = analyze_dump(dump)
    carved = analyze_dump(dump, AnalysisOptions(carve_dir=str(tmp_path / "carved")))
    _, carve_anomalies = carve_images(dump, scan_loaded_images(dump), tmp_path / "alone")

    assert carved.anomalies == plain.anomalies + carve_anomalies
    assert [c.image_base for c in carved.carved] == \
        [r.image_base for r in carved.image_map.records]
    truth = {i.base: i.sha256 for i in scenario.truth.images}
    for image in carved.carved:
        on_disk = (tmp_path / "carved" / image.output_name).read_bytes()
        assert image.sha256 == truth[image.image_base] == hashlib.sha256(on_disk).hexdigest()


def test_carve_anomaly_follows_the_sorted_list(tmp_path):
    # An e_lfanew past the image end fails PE validation when carved; its kind
    # sorts before the decoys' rejected-candidate anomalies, yet it comes last.
    scenario = build_scenario(replace(scenario_by_name("decoy-heavy"), geometry=COMPACT_GEOMETRY))
    paths = scenario.write(tmp_path)
    base = scenario.truth.images[0].base
    (region,) = [r for r in scenario.dump.regions if r.phys_start <= base < r.phys_end]
    with open(paths["dump"], "r+b") as fh:
        fh.seek(region.file_offset + base - region.phys_start + 0x3C)
        fh.write(struct.pack("<I", 0xFFFF_FFF0))
    dump = load_dump(paths["dump"], paths["map"])
    plain = analyze_dump(dump)
    carved = analyze_dump(dump, AnalysisOptions(carve_dir=str(tmp_path / "carved")))
    kinds = [a.kind for a in carved.anomalies]
    assert kinds[-1] == "carved_image_invalid_pe" and sorted(kinds) != kinds
    assert carved.anomalies[:-1] == plain.anomalies


def test_concurrent_analyses_under_fast_thread_switching(tmp_path, compact_efiguard):
    # Four callers at once, each with its own hash worker and carve helper,
    # under a 1 us switch interval: more threads than cores, switching often.
    # Every report and carved digest matches the one a lone call gives.
    dump = compact_efiguard.dump
    want = to_json_dict(analyze_dump(dump))
    del want["meta"], want["carve"]
    truth = {i.base: i.sha256 for i in compact_efiguard.truth.images}
    results, errors = {}, []

    def run(i):
        try:
            results[i] = analyze_dump(dump, AnalysisOptions(carve_dir=str(tmp_path / str(i))))
        except Exception as exc:  # a thread's exception would be lost otherwise
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == [] and sorted(results) == [0, 1, 2, 3]
    for i, rep in results.items():
        doc = to_json_dict(rep)
        doc.pop("meta")
        assert doc.pop("carve")["out_dir"] == str(tmp_path / str(i))
        assert doc == want
        for image in rep.carved:
            on_disk = (tmp_path / str(i) / image.output_name).read_bytes()
            assert image.sha256 == truth[image.image_base] == hashlib.sha256(on_disk).hexdigest()

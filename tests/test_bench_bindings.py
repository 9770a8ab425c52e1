"""The benchmark reads the package through names a refactor could break.

``bench/spans.py`` replaces each name in its ``TARGETS`` table with a
recording wrapper; a refactor that calls a function through another
binding would leave that span at zero calls. ``bench/corpus.py`` forges
through the forge's spec and file API, and ``bench/worker.py``'s truth gate
reads finding, carve and truth-manifest fields by name. These tests run
the worker's user path under the tracer and check that every span fired,
then run the set-up and the gated, traced worker on every workload.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from uefiforensics import dump_model, report
from uefiforensics.forge import COMPACT_GEOMETRY, build_scenario, scenario_by_name

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_called(tmp_path):
    spans = _load_bench("spans")
    paths = build_scenario(
        replace(scenario_by_name("efiguard"), geometry=COMPACT_GEOMETRY)
    ).write(tmp_path)
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        dump = dump_model.load_dump(paths["dump"], paths["map"])
        rep = report.analyze_dump(
            dump, report.AnalysisOptions(carve_dir=str(tmp_path / "carved"))
        )
        report.to_json_dict(rep)
        report.render_text(rep)
    finally:
        tracer.uninstall()
    calls = {name: stats["calls"] for name, stats in tracer.per_trace().get(0, {}).items()}
    missing = [name for _, _, name, _ in spans.TARGETS if not calls.get(name)]
    assert missing == []


@pytest.mark.parametrize("workload", ["builtin-corpus", "chain-ladder", "acceptance-256m"])
def test_benchmark_truth_gate_passes(tmp_path, monkeypatch, workload):
    # worker.py imports spans by module name, as it does when run from bench/.
    monkeypatch.syspath_prepend(str(BENCH))
    corpus, worker = _load_bench("corpus"), _load_bench("worker")
    # The acceptance specs with 64 KiB blobs: the same images and roles,
    # carved and gated, without forging 257 MiB.
    monkeypatch.setattr(corpus, "BLOB_SIZE", 0x1_0000)
    corpus.forge_corpus(workload, 1, tmp_path / "corpus")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    analyzer = worker.Analyzer(tmp_path / "corpus", scratch, True)
    # spans.py's wrappers append to shared arrays without a lock, and
    # analyze_dump runs the traced content_sha256 on its hash worker
    # thread, so a forced thread switch inside one wrapper can raise
    # IndexError. With forced switches off, each wrapper's bookkeeping
    # runs whole and this checks the names the gate reads.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(60)
    try:
        samples = [analyzer.verdict() for _ in range(2 * len(analyzer.entries))]
    finally:
        sys.setswitchinterval(interval)
    assert [s["traced"] for s in samples] == [False, True] * len(analyzer.entries)
    assert [s["errors"] for s in samples if s["errors"]] == []
    summary = analyzer.summary()
    assert summary["self_check"]["failed"] == summary["self_check"]["manifests"] > 0
    assert summary["missing_spans"] == []

"""The traced benchmark wraps package functions by module attribute.

``bench/spans.py`` replaces each name in its ``TARGETS`` table with a
recording wrapper; a refactor that calls a function through another
binding would leave that span at zero calls. This runs the benchmark
worker's user path once under the tracer and checks that every span fired.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from uefiforensics import dump_model, report
from uefiforensics.forge import COMPACT_GEOMETRY, build_scenario, scenario_by_name

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_called(tmp_path):
    spans = _load_spans()
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

from __future__ import annotations

import json

import pytest

from uefiforensics import report as report_module
from uefiforensics.forge import ForgedScenario, build_scenario, scenario_by_name


@pytest.fixture(scope="session")
def forged():
    """Builtin scenarios built once per session: forged('efiguard')."""
    cache: dict[tuple[str, int], ForgedScenario] = {}

    def get(name: str, seed: int = 0) -> ForgedScenario:
        key = (name, seed)
        if key not in cache:
            cache[key] = build_scenario(scenario_by_name(name), seed=seed)
        return cache[key]

    return get


@pytest.fixture
def text_from_document(monkeypatch):
    """``render_text`` as the report's JSON document alone gives it: ``to_json_dict``
    returns the document after a JSON round trip, and ``render_text`` gets a stub with
    no attributes, so any read of the report itself raises ``AttributeError``."""
    to_json_dict = report_module.to_json_dict

    def render(report) -> str:
        doc = json.loads(json.dumps(to_json_dict(report)))
        with monkeypatch.context() as patch:
            patch.setattr(report_module, "to_json_dict", lambda stub: doc)
            return report_module.render_text(object())

    return render

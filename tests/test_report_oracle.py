"""Behaviour oracle: the reports of every builtin scenario, pinned by digest.

A refactor must leave the analyzer's output byte-identical. For each
builtin scenario at seed 0 this holds the SHA-256 of the report JSON
(``meta`` removed, ``indent=2``) and of the text report. A digest that
changes means the reports changed; update it only for an intended change
of report content, and say why where the change is recorded.
"""

import hashlib
import json

import pytest

from uefiforensics.forge import builtin_scenarios
from uefiforensics.report import analyze_dump, render_text, to_json_dict

# scenario -> (report JSON digest, text report digest)
REPORT_DIGESTS = {
    "clean": (
        "046a80c4d7b57424546f4ce1c41879494d4e37cd594dc5da0c74a175dcf10985",
        "71f0278f45034d2fa59793a5c3323159663eba871c204417b4ce225e9b305b27",
    ),
    "efiguard": (
        "9eab746373b037d4cf076d1bbf7cbcd28fa916aa14242d8e859fdc304904c6d1",
        "f39ea7b211bd5ba2d8b645a962ab0d7ad5d8311b5618021ae1b8bf05eea339b8",
    ),
    "glupteba": (
        "b62792d9e5c836543de26eb32bb96551e4e2f8021628e62701670339ee7bd929",
        "a09f4344d1586b4ac96df311743b30e81d45be34b8e259eafb9422ad6a6d0ddd",
    ),
    "cosmicstrand": (
        "7b2a8f6f3071c20841587b3b5b5aaafe8867a8e3113fdc15dc4ba52e48d09d8c",
        "3cf5bcedcc61cbd58d8385e402dddbaff3d5660ad8f3bd4f794634761841f567",
    ),
    "thunderstrike": (
        "52567b7e8e613ed76110b6abf56e4e9289c81b2e98bad82ad49d0015da3735ae",
        "d4811c38abb1e403b7ae6a7bab2009b44798233301598a4d02945ea1998e83da",
    ),
    "moonbounce": (
        "53688ab279654fa781ed48b5c902a2a2c7d99f918c1e66e29cac4b1e34eea62d",
        "304b962aebf9e5104e4ad7bd2c6577f6a3a5599406ce2515d54efa783951fabc",
    ),
    "crc-recalc": (
        "3c10a63767dd8de91083db245d8ce7b7c262c46c497e321c3dc8bf183d9b513e",
        "aff47610d1d70314f1056b4964170124e6163108b5a2e429fc838282d8c1d0b9",
    ),
    "nested-3": (
        "404332146df9d1a95a9b46d7986cbc7fed916745251104602ff216e9cd2c3b91",
        "0935f4669b983463358373d5e73e6bb2c05b9ce99816ecd2a0acef41fb8c81eb",
    ),
    "nested-4": (
        "c71a9549737155c61ff598b4d0e157b30781b090555b4aa7cdfcff82b3f2e211",
        "4fc484d38551ba36d9bc00cbd859bf8d24c4a6db6050b45a16bbcc6638ab56c2",
    ),
    "decoy-heavy": (
        "20e416d0d3f389f88ff7a7aaacea9050bc040a0dc9a8a6f124f18ff652d7b7f9",
        "4fc217ca2a14f1a50eb77855291a51f63e4d859ad7d34dda7f2462650a1fa3f2",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_digests_cover_every_builtin():
    assert sorted(REPORT_DIGESTS) == sorted(spec.name for spec in builtin_scenarios())


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_unchanged(forged, name):
    report = analyze_dump(forged(name).dump)
    doc = to_json_dict(report)
    doc.pop("meta")  # generated_at is the one field allowed to vary
    assert (_sha256(json.dumps(doc, indent=2)), _sha256(render_text(report))) == \
        REPORT_DIGESTS[name]

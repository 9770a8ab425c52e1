"""Behaviour oracle: the reports of every builtin scenario, pinned by digest.

A refactor must leave the analyzer's output byte-identical. For each
builtin scenario at seed 0 this holds the SHA-256 of the report JSON
(``meta`` removed, ``indent=2``) and of the text report. A digest that
changes means the reports changed; update it only for an intended change
of report content, and say why where the change is recorded. The forged
files (dump, sidecar and truth manifest) are pinned the same way, at seed 0
and seed 1 and at both geometries, so a change to the forge or the sidecar
writer shows up here too. ``RANDOM_CORPUS_DIGEST`` pins 100 randomized
specs, which reach forge paths no builtin does: automatic payload cells,
``mov_jmp`` hooks, null services and decoys on the compact geometry.
"""

import hashlib
import json
from dataclasses import replace
from random import Random

import pytest

from uefiforensics.forge import (
    COMPACT_GEOMETRY,
    DEFAULT_GEOMETRY,
    build_scenario,
    builtin_scenarios,
    scenario_by_name,
)
from uefiforensics.report import AnalysisOptions, analyze_dump, render_text, to_json_dict

from helpers import random_scenario

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

# scenario -> (.dump, .map.json, .truth.json) digests of ForgedScenario.write
FILE_DIGESTS = {
    "clean": (
        "09b5b571e12d6092115eb054d8b07b7f7b7c00049a2f456f61178cf03224d87a",
        "1b6b8026f302d3d510219bed164f49c3005239ab0dbe91416ba1e4d0d19f98a6",
        "d0e2c489115d4447993654b9a84338797a240441f7eec6ce3d1be4c38c86cedd",
    ),
    "efiguard": (
        "ee7c4ca4c0f562eba59abb4a1b6487a520f867e7f3be87555bff50378733583e",
        "1b6b8026f302d3d510219bed164f49c3005239ab0dbe91416ba1e4d0d19f98a6",
        "578817ed00a67c31b73d9e3cfe4b828d6c1d1c8ff5efe7b5b3bc29453cde57ca",
    ),
    "glupteba": (
        "83be826b1c794ef77cde669c0f58dffde5759caa6ac3be9fff9b0d708baec4c2",
        "1b6b8026f302d3d510219bed164f49c3005239ab0dbe91416ba1e4d0d19f98a6",
        "c440e197e8266cea1cccd29fe6595ee91e4cf1d2d6416c48f91f1b2c5d5c6a98",
    ),
    "cosmicstrand": (
        "410cc5ab6af521904b28aba5baab3882f84212afd7333eb54215fd4ac2e513be",
        "f537e0259cda5c7495114ca9d28a9ad06a00f2a656b22170091ab21cf6f556da",
        "a9fbbc3062e65c746dc4a24ced1490e51c259936c091d2b12014780fde1c5ba6",
    ),
    "thunderstrike": (
        "648bd1d229c71f5d077fa9f8d9a0e6c5f13361e1909ef4048624b7923a941772",
        "fa897ba2f26a4076a6612aca410a9ba50b6f18c40a5287beac4c693d45bc5351",
        "bb7272c5a9c88df01e05b265e3c7d0b2af9b97d6ffde11e0f4f6665b8174315b",
    ),
    "moonbounce": (
        "e57a4cd9c61757083a6d0a93719de30ec4d8f83df549c65e85fe6f04caf4cd5f",
        "8d22a758ad2edcee781f8be1d50a9e1c57ca77fb6ce9f1d8e4417dce683052c8",
        "7febba5f27f6bd2161f78f2b8a8466d402bc159329ce97f27c5f5323dee4763f",
    ),
    "crc-recalc": (
        "bef4a96e43ec4aec97c242677b4021e1d9c23e74b15ccd9233a1ef740dcdf055",
        "f537e0259cda5c7495114ca9d28a9ad06a00f2a656b22170091ab21cf6f556da",
        "719fdc4ff0640d081161b2fe6ce2e739948d30670d213264b7f2810455e067c6",
    ),
    "nested-3": (
        "122fcac7eab6bf6f89b74471402b5976783575614b8703a722ea7ac6b8f193ae",
        "f537e0259cda5c7495114ca9d28a9ad06a00f2a656b22170091ab21cf6f556da",
        "4335488a40a265e9183a38d4a325e564cb069541c7d04d81080eca1217cb9583",
    ),
    "nested-4": (
        "f9fd4df31758e890674dc7560c8eca59fcfb26bc11694e71704d6a1f788d4422",
        "f537e0259cda5c7495114ca9d28a9ad06a00f2a656b22170091ab21cf6f556da",
        "ba322cd2b3e55bc570dd88bc28ad33890a7c8cdbe1a66fc890165733b037db4e",
    ),
    "decoy-heavy": (
        "ecfa911f74f7c6e77ead898e01028ec1cfefbd5f6b284795a8036708e45e2c69",
        "1b6b8026f302d3d510219bed164f49c3005239ab0dbe91416ba1e4d0d19f98a6",
        "f42ba5a0c737bc097ee8251ef88f03849ad779d80994a16f0dcc68894983294b",
    ),
}


# scenario -> _combined(.dump, .map.json, .truth.json digests), seed 1
SEED1_FILE_DIGESTS = {
    "clean": "2997c5e9023b204949b82ba9ff9500b4a150ec156129753bbe68a9824c565867",
    "efiguard": "c0356471035e7154c8a0f6bbec0522e4f4ab2a2c62bb813262de479bc3cfe707",
    "glupteba": "e33d2e0ccde3a0746853f0f815ce59a25ff9201af12f04d7935c512505b2e593",
    "cosmicstrand": "bb0cb8fc2f3c389a9049e35797660a04f9abc164b64eef91d0c9dd307f646843",
    "thunderstrike": "29297ff47be2a235c0d0e4bf38f9394d694944e99058e89c9a799f4bc8c5951f",
    "moonbounce": "cfa10dce81c0dcc9f63f786acde4c1d0b4f1f689d45d4c2d13449d18297277c3",
    "crc-recalc": "65305f8e3c43c52d069381af7e89017979c4c4542f7034d5480ab68a7d531067",
    "nested-3": "4ce91db10b9fc4b486a40b2605e7d07728aa55535a4e9213928fed4d1afde49c",
    "nested-4": "250dc4301cd001b792ffab7ac85a12c00db76e55cc3687725d444bde6b6658e1",
    "decoy-heavy": "5c0102537bf6e1823d483d262d3801777bbf85e330faefdc00759face7e12dbc",
}

# scenario -> _combined(...) at COMPACT_GEOMETRY, seed 0. moonbounce pins its
# payload at 0x3FAD0000, far above this geometry: the payload gets a region
# of its own, and the file is 1.1 MiB, not 1,017 MiB of mostly zeros.
COMPACT_FILE_DIGESTS = {
    "clean": "0b0e0798c91ebb24d4d8e09721d3cdadf24473d21ec082515642dbdf4cef5e84",
    "efiguard": "32b3427c91c35b875a24937ef0c46a14baeb2d12a2fdb2ea2c06cedd491f3406",
    "glupteba": "8e8f3ae00f272aae249f18bd19e001ae0637dffd4d7f784fa7c6f42ec74d0774",
    "cosmicstrand": "825a1bb1e209bce4b2c8837328065899f85fd831fdd8720af9f2e0bd59a5a615",
    "thunderstrike": "f2e18de3b672a0142ae9807822200228354baef8a16397dfb09a4e30649b6077",
    "moonbounce": "425c73617bfaa0d11dc9deb9353e30be3649ced3e3871beb6031a8cd5f4861ba",
    "crc-recalc": "6b5b7c6eaae26b5a18b0235fbc538ee32b80f444b8fc589609811cc2b649749f",
    "nested-3": "46b85adb45e2916259d767d72ba1ec7f00fc7e4d0947eae23448d880e500f684",
    "nested-4": "9825ac99a89ac9a66e07b23a3036e79d887aef2e2024cd2cf00ef130d50d7bed",
    "decoy-heavy": "d33e3ced05127cac1fdddb47eb841690142c601fad0ded5d6f69c9936c1da065",
}

# One SHA-256 over random_scenario(Random(12), i) built at seed i, i < 100:
# each region's bytes in address order, then the truth JSON (indent=2).
RANDOM_CORPUS_DIGEST = "b5a7613134d5e33890309e406b61fb221f8d58789c5900e14791d85508cd5c4c"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _combined(digests) -> str:
    """One digest for a case's three file digests."""
    return _sha256(" ".join(digests))


def test_digests_cover_every_builtin():
    names = sorted(spec.name for spec in builtin_scenarios())
    assert sorted(REPORT_DIGESTS) == sorted(FILE_DIGESTS) == names
    assert sorted(SEED1_FILE_DIGESTS) == sorted(COMPACT_FILE_DIGESTS) == names


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_unchanged(forged, name):
    report = analyze_dump(forged(name).dump)
    doc = to_json_dict(report)
    doc.pop("meta")  # generated_at is the one field allowed to vary
    assert (_sha256(json.dumps(doc, indent=2)), _sha256(render_text(report))) == \
        REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_text_reads_nothing_but_the_json_document(forged, text_from_document, name):
    report = analyze_dump(forged(name).dump)
    assert text_from_document(report) == render_text(report)


def test_carved_text_reads_nothing_but_the_json_document(text_from_document, tmp_path):
    spec = replace(scenario_by_name("thunderstrike"), geometry=COMPACT_GEOMETRY)
    report = analyze_dump(build_scenario(spec).dump, AnalysisOptions(carve_dir=str(tmp_path)))
    text = render_text(report)
    assert f"carved 3 image(s) -> {tmp_path}\n" in text
    assert text_from_document(report) == text


FILE_CASES = (
    [pytest.param(name, 0, DEFAULT_GEOMETRY, _combined(digests), id=name)
     for name, digests in sorted(FILE_DIGESTS.items())]
    + [pytest.param(name, 1, DEFAULT_GEOMETRY, digest, id=f"seed1-{name}")
       for name, digest in sorted(SEED1_FILE_DIGESTS.items())]
    + [pytest.param(name, 0, COMPACT_GEOMETRY, digest, id=f"compact-{name}")
       for name, digest in sorted(COMPACT_FILE_DIGESTS.items())]
)


@pytest.mark.parametrize("name, seed, geometry, expected", FILE_CASES)
def test_forged_files_unchanged(tmp_path, name, seed, geometry, expected):
    spec = replace(scenario_by_name(name), geometry=geometry)
    paths = build_scenario(spec, seed).write(tmp_path)
    digests = [hashlib.sha256(paths[kind].read_bytes()).hexdigest()
               for kind in ("dump", "map", "truth")]
    for path in paths.values():
        path.unlink()  # the dumps are megabytes each
    assert _combined(digests) == expected


def test_random_corpus_unchanged():
    rng = Random(12)
    digest = hashlib.sha256()
    for i in range(100):
        scenario = build_scenario(random_scenario(rng, i), i)
        for region in scenario.dump.regions:
            digest.update(scenario.dump.read_bytes(region.phys_start, region.length))
        digest.update(json.dumps(scenario.truth.to_json_dict(), indent=2).encode())
    assert digest.hexdigest() == RANDOM_CORPUS_DIGEST

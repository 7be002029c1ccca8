import importlib
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from rendergov.governor import GovernorConfig
from rendergov.scenario import ScenarioError, load_scenario, scenario_from_dict
from rendergov.simgpu import (
    CurveSpec,
    FrameSynthesizer,
    HiddenPowerOracle,
    PassDegradation,
    ProbeOptions,
    TraceEvent,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _demo_doc():
    return json.loads((SCENARIO_DIR / "demo.json").read_text())


def test_bundled_scenarios_load():
    for name in ("demo.json", "mini.json", "regime_change.json"):
        sc = load_scenario(SCENARIO_DIR / name)
        assert sc.trace.frame_count > 0
        assert sc.roster.size >= 1


def test_missing_file_is_scenario_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.json")


def test_invalid_json_is_scenario_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_missing_section_reports_path():
    doc = _demo_doc()
    del doc["oracle"]
    with pytest.raises(ScenarioError, match="oracle"):
        scenario_from_dict(doc)


def test_cost_table_must_cover_every_model_pass():
    doc = _demo_doc()
    del doc["cost_table"]["metals"]
    with pytest.raises(ScenarioError, match="metals"):
        scenario_from_dict(doc)


def test_cost_table_rejects_unknown_pass():
    doc = _demo_doc()
    doc["cost_table"]["bloom"] = {"ins_v": 1, "ins_f": [1, 1, 1], "tex_f": [0, 0, 0]}
    with pytest.raises(ScenarioError, match="bloom"):
        scenario_from_dict(doc)


def test_cost_table_rejects_increasing_cost_with_level():
    doc = _demo_doc()
    doc["cost_table"]["metals"]["ins_f"] = [100, 200, 300]
    with pytest.raises(ScenarioError, match="cost_table"):
        scenario_from_dict(doc)


def test_uses_string_is_validated():
    doc = _demo_doc()
    doc["roster"][1]["uses"] = "bvq"
    with pytest.raises(ScenarioError, match="uses"):
        scenario_from_dict(doc)


def test_level_scale_length_must_match_levels():
    doc = _demo_doc()
    doc["trace"]["passes"]["shadows"]["level_scale_fragments"] = [1, 0.5]
    with pytest.raises(ScenarioError, match="level_scale_fragments"):
        scenario_from_dict(doc)


def test_event_with_unknown_pass_rejected():
    doc = _demo_doc()
    doc["trace"]["events"] = [{"frame": 1, "pass": "resolution", "cost_scale": 2.0}]
    with pytest.raises(ScenarioError, match="resolution"):
        scenario_from_dict(doc)


def test_governor_overrides_validated():
    doc = _demo_doc()
    doc["governor"]["budget_percent"] = 1.5
    with pytest.raises(ScenarioError, match="governor"):
        scenario_from_dict(doc)


def test_initial_config_list_is_validated():
    doc = _demo_doc()
    doc["governor"]["initial_config"] = [0, 0, 0, 0, 0, 9]
    with pytest.raises(ScenarioError, match="initial_config"):
        scenario_from_dict(doc)


def test_synthesizer_strengths_must_match_level_count():
    doc = _demo_doc()
    doc["synthesizer"]["passes"]["metals"]["strength"] = [0, 0.1]
    with pytest.raises(ScenarioError, match="metals|strength"):
        scenario_from_dict(doc)


def test_initial_fit_mode_is_checked():
    doc = _demo_doc()
    doc["governor"]["initial_fit"] = "psychic"
    with pytest.raises(ScenarioError, match="initial_fit"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "option, value",
    [
        ("frames_per_reading", 0),
        ("frames_per_reading", -2),
        ("min_power_frames", 0),
        ("start_count", 0),
        ("start_count", -1),
        ("start_count", float("inf")),
        ("max_doublings", -1),
    ],
)
def test_invalid_probe_options_rejected_at_load(option, value):
    # Each of these used to load and then fail inside harness.initialize.
    doc = _demo_doc()
    doc["probe"] = {option: value}
    with pytest.raises(ScenarioError, match=f"probe.{option}"):
        scenario_from_dict(doc)


def test_smallest_valid_probe_options_load():
    doc = _demo_doc()
    doc["probe"] = {
        "frames_per_reading": 1, "min_power_frames": 1, "start_count": 0.5, "max_doublings": 0
    }
    probe = scenario_from_dict(doc).probe
    assert (
        probe.frames_per_reading, probe.min_power_frames, probe.start_count, probe.max_doublings
    ) == (1, 1, 0.5, 0)


# Per dataclass the loader reads options of: its object in the demo document,
# the loaded object, and the fields the loader reads by name.
OPTION_SECTIONS = {
    GovernorConfig: (lambda doc: doc["governor"], lambda sc: sc.governor, {"mode", "initial_fit"}),
    ProbeOptions: (lambda doc: doc.setdefault("probe", {}), lambda sc: sc.probe, set()),
    CurveSpec: (
        lambda doc: doc["trace"]["passes"]["base_shading"]["batches"],
        lambda sc: sc.trace.curves[0][0],
        {"base"},
    ),
    TraceEvent: (
        lambda doc: doc["trace"]["events"][0],
        lambda sc: sc.trace.events[0],
        {"frame", "pass_name"},
    ),
}


def _non_default(default):
    """A valid value other than an option's default: one more than an
    integer, half of a nonzero number, 0.25 otherwise."""
    if isinstance(default, int):
        return default + 1
    return default / 2 if default else 0.25


@pytest.mark.parametrize(
    "cls, name",
    [
        (cls, f.name)
        for cls, (_, _, by_name) in OPTION_SECTIONS.items()
        for f in fields(cls)
        if f.name not in by_name
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_every_option_loads_its_value_or_its_default(cls, name):
    # Every other field is read from the dataclass's own fields, so a field
    # whose annotation the loader does not check would be skipped silently.
    section, loaded, _ = OPTION_SECTIONS[cls]
    default = next(f.default for f in fields(cls) if f.name == name)
    doc = _demo_doc()
    section(doc).pop(name, None)
    assert getattr(loaded(scenario_from_dict(doc)), name) == default
    value = _non_default(default)
    section(doc)[name] = value
    got = getattr(loaded(scenario_from_dict(doc)), name)
    assert (got, type(got)) == (value, type(value))


# Keys the loader reads by hand: the section of the demo document holding the
# key, the key, a valid value other than the default, and the loaded value with
# its dataclass default.
HAND_READ_KEYS = [
    (
        lambda doc: doc["oracle"],
        "cost_distortion",
        1.5,
        lambda sc: (sc.oracle.cost_distortion, HiddenPowerOracle.cost_distortion),
    ),
    (
        lambda doc: doc["oracle"],
        "noise_sigma",
        0.5,
        lambda sc: (sc.oracle.noise_sigma, HiddenPowerOracle.noise_sigma),
    ),
    (
        lambda doc: doc["synthesizer"],
        "size",
        64,
        lambda sc: (
            (sc.synthesizer.height, sc.synthesizer.width),
            (FrameSynthesizer.height, FrameSynthesizer.width),
        ),
    ),
    (
        lambda doc: doc["synthesizer"]["passes"]["reflections"],
        "amplitude",
        0.5,
        lambda sc: (sc.synthesizer.degradations[2].amplitude, PassDegradation.amplitude),
    ),
]


@pytest.mark.parametrize(
    "section, key, value, loaded", HAND_READ_KEYS, ids=[key for _, key, _, _ in HAND_READ_KEYS]
)
def test_omitted_key_loads_the_dataclass_default(section, key, value, loaded):
    doc = _demo_doc()
    assert doc["roster"][2]["name"] == "reflections"
    section(doc)[key] = value
    got, default = loaded(scenario_from_dict(doc))
    assert got != default
    section(doc).pop(key, None)
    got, default = loaded(scenario_from_dict(doc))
    assert got == default and type(got) is type(default)


def test_negative_seed_is_rejected_at_load():
    doc = _demo_doc()
    doc["seed"] = -3
    with pytest.raises(ScenarioError, match="seed: expected a non-negative integer, got -3"):
        scenario_from_dict(doc)


# A misspelt key in each section read through the option dataclasses, and
# the name of a field that the document spells otherwise ("pass").
MISSPELT_KEYS = [
    (lambda doc: doc["governor"], "governor", "selection_perod"),
    (lambda doc: doc.setdefault("probe", {}), "probe", "max_doubling"),
    (
        lambda doc: doc["trace"]["passes"]["base_shading"]["batches"],
        "trace.passes.base_shading.batches",
        "jiter_amp",
    ),
    (lambda doc: doc["trace"]["events"][0], "trace.events[0]", "pass_name"),
    (
        lambda doc: doc["synthesizer"]["passes"]["reflections"],
        "synthesizer.passes.reflections",
        "amplitde",
    ),
]


@pytest.mark.parametrize(
    "section, where, key", MISSPELT_KEYS, ids=[key for _, _, key in MISSPELT_KEYS]
)
def test_unknown_option_key_is_rejected(section, where, key):
    doc = _demo_doc()
    section(doc)[key] = 3
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == f"{where}: unknown keys [{key!r}]"


# A misspelt key in each section the loader reads by hand, with the keys of
# one kind of roster entry used on the other kind.
UNKNOWN_SECTION_KEYS = [
    (lambda doc: doc, "scenario", "error_sample_evry", 3),
    (lambda doc: doc["roster"][0], "roster[0]", "uses", "f"),
    (lambda doc: doc["roster"][1], "roster[1]", "fragment_scale", [1.0, 0.5, 0.25]),
    (lambda doc: doc["roster"][2], "roster[2]", "level", 3),
    (lambda doc: doc["cost_table"]["metals"], "cost_table.metals", "tex_v", 2.0),
    (lambda doc: doc["oracle"], "oracle", "noise_sigm", 0.5),
    (lambda doc: doc["oracle"]["passes"]["shadows"], "oracle.passes.shadows", "kb", 0.5),
    (lambda doc: doc["trace"], "trace", "event", []),
    (
        lambda doc: doc["trace"]["passes"]["shadows"],
        "trace.passes.shadows",
        "level_scale_fragment",
        [1.0, 0.5, 0.25],
    ),
    (lambda doc: doc["synthesizer"], "synthesizer", "sise", 64),
    (lambda doc: doc["calibration"], "calibration", "frame", [1]),
]


@pytest.mark.parametrize(
    "section, where, key, value",
    UNKNOWN_SECTION_KEYS,
    ids=[where for _, where, _, _ in UNKNOWN_SECTION_KEYS],
)
def test_unknown_key_is_rejected_in_every_section(section, where, key, value):
    doc = _demo_doc()
    section(doc)[key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == f"{where}: unknown keys [{key!r}]"


def test_benchmark_lattice_document_loads(monkeypatch):
    """The benchmark's 8-pass document holds only keys the loader reads."""
    monkeypatch.syspath_prepend(str(SCENARIO_DIR.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    scenario = scenario_from_dict(workloads.lattice_document(_demo_doc(), 5))
    assert scenario.roster.config_count == 3**8


@pytest.mark.parametrize("key", ["cost_distortion", "noise_sigma"])
def test_oracle_option_type_error_names_its_path_once(key):
    doc = _demo_doc()
    doc["oracle"][key] = "x"
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == f"oracle.{key}: expected a number, got 'x'"


# The README's scenario-schema bullets that document option defaults as
# `key` (default) or "key" (default), and the dataclasses that hold them.
README_DEFAULTS = {
    "governor": (GovernorConfig,),
    "probe": (ProbeOptions,),
    "trace": (CurveSpec, TraceEvent),
}


def test_readme_schema_defaults_are_the_dataclass_defaults():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    schema = readme.split("## Scenario schema", 1)[1].split("\n## ", 1)[0]
    bullets = {
        match.group(1): match.group(0)
        for match in re.finditer(r"^- `(\w+)`.*?(?=^- |\Z)", schema, re.M | re.S)
    }
    for section, classes in README_DEFAULTS.items():
        defaults = {f.name: f.default for cls in classes for f in fields(cls)}
        documented = re.findall(r"[`\"](\w+)[`\"]\s+\((?:default )?([-0-9.]+)", bullets[section])
        assert documented, section
        for key, value in documented:
            assert float(value) == defaults[key], (section, key)
        # Every number-valued option of these sections is documented.
        options = {
            name
            for name, default in defaults.items()
            if isinstance(default, (int, float)) and not isinstance(default, bool)
        }
        assert {key for key, _ in documented} == options, section

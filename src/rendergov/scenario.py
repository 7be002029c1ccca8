"""Scenario files: one JSON document describing a complete simulated experiment.

Top-level sections: ``roster``, ``cost_table``, ``oracle``, ``trace``,
``synthesizer``, ``governor``, plus ``seed`` and optional ``calibration``,
``probe``, and ``error_sample_every``. Pass names must agree across sections;
the loader validates the whole document and reports the offending path. The
exact schema is documented in the repository README.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .configspace import PassDescriptor, PassRoster, RenderingConfiguration
from .governor import GovernorConfig
from .powermodel import CostTable, SaturationConstants, UnitCosts
from .simgpu import (
    CurveSpec,
    FrameSynthesizer,
    HiddenPowerOracle,
    PassDegradation,
    ProbeOptions,
    SceneTrace,
    TraceEvent,
)


class ScenarioError(ValueError):
    """A scenario document is malformed or internally inconsistent."""


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return section[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


# The checks of the int and float fields of the option dataclasses, by
# annotation: every module here postpones annotations, so each is a string.
_CHECKS = {"int": _int, "float": _number}


def _known(raw: dict, where: str, reads) -> None:
    """Reject every key of ``raw`` that is not one of ``reads``, the keys its
    section reads, so a misspelt key is an error, not a silent default."""
    unknown = [key for key in raw if key not in reads]
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown}")


def _options(cls, raw: dict, where: str, reads: tuple[str, ...] = ()) -> dict:
    """Each int and float option of dataclass ``cls`` that ``raw`` sets,
    checked by its annotation; an option left out keeps its default. Any other
    key of ``raw`` must be one of ``reads``, the keys its section reads by
    name (:func:`_known`)."""
    options = {
        f.name: _CHECKS[f.type]
        for f in fields(cls)
        if f.type in _CHECKS and f.default is not MISSING
    }
    _known(raw, where, (*options, *reads))
    return {
        name: check(raw[name], f"{where}.{name}") for name, check in options.items() if name in raw
    }


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object")
    return raw


def _built(where: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, with the ValueError it raises reported at
    ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list of numbers")
    return tuple(_number(v, where) for v in value)


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs, already validated and built."""

    name: str
    seed: int
    roster: PassRoster
    cost_table: CostTable
    oracle: HiddenPowerOracle
    trace: SceneTrace
    synthesizer: FrameSynthesizer
    governor: GovernorConfig
    initial_config: RenderingConfiguration
    calibration_frames: tuple[int, ...] = ()
    probe: ProbeOptions = field(default_factory=ProbeOptions)
    error_sample_every: int = 1


def _build_roster(raw, where: str = "roster") -> PassRoster:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{where}: expected a nonempty list of passes")
    passes = []
    for i, entry in enumerate(raw):
        here = f"{where}[{i}]"
        name = _require(_object(entry, here), "name", here)
        levels = _int(_require(entry, "levels", here), f"{here}.levels")
        resolution = entry.get("resolution", False)
        own = "fragment_scale" if resolution else "uses"
        _known(entry, here, ("name", "levels", "resolution", own))
        if resolution:
            scales = _numbers(_require(entry, "fragment_scale", here), f"{here}.fragment_scale")
            desc = PassDescriptor(
                name, levels, is_resolution=True, fragment_scale_per_level=scales
            )
        else:
            uses = entry.get("uses", "")
            if not isinstance(uses, str) or set(uses) - set("bvf"):
                raise ScenarioError(f"{here}.uses: expected a string drawn from 'bvf'")
            desc = PassDescriptor(
                name,
                levels,
                uses_batches="b" in uses,
                uses_vertices="v" in uses,
                uses_fragments="f" in uses,
            )
        passes.append(desc)
    return _built(where, PassRoster, tuple(passes))


def _per_pass_section(raw, roster: PassRoster, where: str, model_only: bool) -> list[dict]:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object keyed by pass name")
    names = [p.name for p in (roster.model_passes if model_only else roster.passes)]
    missing = [n for n in names if n not in raw]
    extra = [n for n in raw if n not in names]
    if missing:
        raise ScenarioError(f"{where}: missing passes {missing}")
    if extra:
        raise ScenarioError(f"{where}: unknown passes {extra}")
    return [raw[n] for n in names]


def _build_cost_table(raw, roster: PassRoster, where: str = "cost_table") -> CostTable:
    entries = _per_pass_section(raw, roster, where, model_only=True)
    ins_v, ins_f, tex_f = [], [], []
    for entry, ri in zip(entries, roster.model_pass_indices):
        name = roster.passes[ri].name
        here = f"{where}.{name}"
        _known(entry, here, ("ins_v", "ins_f", "tex_f"))
        levels = roster.passes[ri].level_count
        ins_v.append(_number(_require(entry, "ins_v", here), f"{here}.ins_v"))
        for key, dest in (("ins_f", ins_f), ("tex_f", tex_f)):
            row = _numbers(_require(entry, key, here), f"{here}.{key}")
            if len(row) != levels:
                raise ScenarioError(f"{here}.{key}: expected {levels} per-level entries")
            dest.append(row)
    return _built(where, CostTable, tuple(ins_v), tuple(ins_f), tuple(tex_f))


def _build_oracle(
    raw, roster: PassRoster, cost_table: CostTable, seed: int, where: str = "oracle"
) -> HiddenPowerOracle:
    keys = ("p_min", "p_max", "chi", "psi", "cost_distortion", "noise_sigma", "passes")
    _known(_object(raw, where), where, keys)
    p_min = _number(_require(raw, "p_min", where), f"{where}.p_min")
    p_max = _number(_require(raw, "p_max", where), f"{where}.p_max")
    chi = _number(_require(raw, "chi", where), f"{where}.chi")
    psi = _number(_require(raw, "psi", where), f"{where}.psi")
    entries = _per_pass_section(_require(raw, "passes", where), roster, f"{where}.passes", True)
    k_b, per_pass = [], []
    for entry, ri in zip(entries, roster.model_pass_indices):
        here = f"{where}.passes.{roster.passes[ri].name}"
        _known(entry, here, ("k_b", "saturation"))
        k_b.append(_number(_require(entry, "k_b", here), f"{here}.k_b"))
        sat = _numbers(_require(entry, "saturation", here), f"{here}.saturation")
        if len(sat) != 3:
            raise ScenarioError(f"{here}.saturation: expected [B, V, F]")
        per_pass.append(sat)
    # A dataclass's class attribute holds its field's default.
    distortion = _number(
        raw.get("cost_distortion", HiddenPowerOracle.cost_distortion), f"{where}.cost_distortion"
    )
    sigma = _number(raw.get("noise_sigma", HiddenPowerOracle.noise_sigma), f"{where}.noise_sigma")
    return _built(
        where,
        lambda: HiddenPowerOracle(
            roster=roster,
            saturation=SaturationConstants(p_min, p_max, tuple(per_pass)),
            k_b=tuple(k_b),
            unit_costs=UnitCosts(chi, psi),
            public_costs=cost_table,
            cost_distortion=distortion,
            noise_sigma=sigma,
            seed=seed,
        ),
    )


def _build_curve(raw, where: str) -> CurveSpec:
    base = _number(_require(_object(raw, where), "base", where), f"{where}.base")
    return _built(where, CurveSpec, base=base, **_options(CurveSpec, raw, where, reads=("base",)))


def _build_trace(raw, roster: PassRoster, where: str = "trace") -> SceneTrace:
    _known(_object(raw, where), where, ("frames", "passes", "events"))
    frames = _int(_require(raw, "frames", where), f"{where}.frames")
    entries = _per_pass_section(_require(raw, "passes", where), roster, f"{where}.passes", True)
    curves, ls_b, ls_v, ls_f = [], [], [], []
    scale_keys = ("level_scale_batches", "level_scale_vertices", "level_scale_fragments")
    for entry, ri in zip(entries, roster.model_pass_indices):
        p = roster.passes[ri]
        here = f"{where}.passes.{p.name}"
        _known(entry, here, ("batches", "vertices", "fragments", *scale_keys))
        curves.append(
            (
                _build_curve(_require(entry, "batches", here), f"{here}.batches"),
                _build_curve(_require(entry, "vertices", here), f"{here}.vertices"),
                _build_curve(_require(entry, "fragments", here), f"{here}.fragments"),
            )
        )
        ones = tuple(1.0 for _ in range(p.level_count))
        for key, dest in zip(scale_keys, (ls_b, ls_v, ls_f)):
            if key in entry:
                row = _numbers(entry[key], f"{here}.{key}")
                if len(row) != p.level_count:
                    raise ScenarioError(f"{here}.{key}: expected {p.level_count} entries")
                dest.append(row)
            else:
                dest.append(ones)
    events = []
    model_names = {roster.passes[i].name for i in roster.model_pass_indices}
    for i, entry in enumerate(raw.get("events", [])):
        here = f"{where}.events[{i}]"
        pass_name = _require(_object(entry, here), "pass", here)
        if pass_name not in model_names:
            raise ScenarioError(f"{here}.pass: unknown model pass {pass_name!r}")
        events.append(
            TraceEvent(
                frame=_int(_require(entry, "frame", here), f"{here}.frame"),
                pass_name=pass_name,
                **_options(TraceEvent, entry, here, reads=("frame", "pass")),
            )
        )
    return _built(
        where,
        SceneTrace,
        frame_count=frames,
        curves=tuple(curves),
        level_scale_batches=tuple(ls_b),
        level_scale_vertices=tuple(ls_v),
        level_scale_fragments=tuple(ls_f),
        events=tuple(sorted(events, key=lambda e: e.frame)),
    )


def _build_synthesizer(
    raw, roster: PassRoster, seed: int, where: str = "synthesizer"
) -> FrameSynthesizer:
    _known(_object(raw, where), where, ("size", "passes"))
    size = _int(raw.get("size", FrameSynthesizer.height), f"{where}.size")
    entries = _per_pass_section(_require(raw, "passes", where), roster, f"{where}.passes", False)
    degradations = []
    for entry, p in zip(entries, roster.passes):
        here = f"{where}.passes.{p.name}"
        op = _require(entry, "op", here)
        strength = _numbers(_require(entry, "strength", here), f"{here}.strength")
        options = _options(PassDegradation, entry, here, reads=("op", "strength"))
        degradations.append(_built(here, PassDegradation, op=op, strength=strength, **options))
    return _built(
        where,
        FrameSynthesizer,
        roster=roster,
        degradations=tuple(degradations),
        height=size,
        width=size,
        seed=seed,
    )


def _build_governor(raw, where: str = "governor") -> tuple[GovernorConfig, object]:
    initial_fit = _object(raw, where).get("initial_fit", "window")
    if initial_fit not in ("window", "generic"):
        raise ScenarioError(f"{where}.initial_fit: expected 'window' or 'generic'")
    kwargs = _options(
        GovernorConfig, raw, where, reads=("mode", "initial_fit", "initial_config")
    )
    if "mode" in raw:
        kwargs["mode"] = raw["mode"]
    config = _built(where, GovernorConfig, **kwargs, initial_fit=initial_fit == "window")
    return config, raw.get("initial_config", "best")


def _build_initial_config(spec, roster: PassRoster, where: str) -> RenderingConfiguration:
    if spec == "best":
        return roster.best_config()
    if spec == "worst":
        return roster.worst_config()
    if isinstance(spec, list):
        cfg = RenderingConfiguration(tuple(_int(v, where) for v in spec))
        _built(where, roster.validate_config, cfg)
        return cfg
    raise ScenarioError(f"{where}: expected 'best', 'worst', or a level list")


def scenario_from_dict(doc: dict, name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    sections = ("roster", "cost_table", "oracle", "trace", "synthesizer", "governor", "calibration")
    _known(doc, "scenario", ("name", "seed", *sections, "probe", "error_sample_every"))
    name = doc.get("name", name)
    seed = _int(_require(doc, "seed", "scenario"), "seed")
    if seed < 0:
        raise ScenarioError(f"seed: expected a non-negative integer, got {seed}")
    roster = _build_roster(_require(doc, "roster", "scenario"))
    cost_table = _build_cost_table(_require(doc, "cost_table", "scenario"), roster)
    oracle = _build_oracle(_require(doc, "oracle", "scenario"), roster, cost_table, seed)
    trace = _build_trace(_require(doc, "trace", "scenario"), roster)
    synthesizer = _build_synthesizer(_require(doc, "synthesizer", "scenario"), roster, seed)
    governor, initial_config_spec = _build_governor(_require(doc, "governor", "scenario"))
    initial_config = _build_initial_config(
        initial_config_spec, roster, "governor.initial_config"
    )

    calibration = _object(doc.get("calibration", {}), "calibration")
    _known(calibration, "calibration", ("frames",))
    frames = calibration.get("frames", [trace.frame_count + 911 + 37 * i for i in range(3)])
    calibration_frames = tuple(_int(f, "calibration.frames") for f in frames)
    if not calibration_frames:
        raise ScenarioError("calibration.frames: needs at least one frame")

    probe_raw = _object(doc.get("probe", {}), "probe")
    probe = ProbeOptions(**_options(ProbeOptions, probe_raw, "probe"))
    for name_ in ("min_power_frames", "frames_per_reading"):
        if getattr(probe, name_) < 1:
            raise ScenarioError(f"probe.{name_} must be >= 1")
    if probe.max_doublings < 0:
        raise ScenarioError("probe.max_doublings must be >= 0")
    if not 0.0 < probe.start_count < math.inf:
        raise ScenarioError("probe.start_count must be a positive finite number")

    every = _int(doc.get("error_sample_every", 1), "error_sample_every")
    if every < 1:
        raise ScenarioError("error_sample_every must be >= 1")

    return Scenario(
        name=name,
        seed=seed,
        roster=roster,
        cost_table=cost_table,
        oracle=oracle,
        trace=trace,
        synthesizer=synthesizer,
        governor=governor,
        initial_config=initial_config,
        calibration_frames=calibration_frames,
        probe=probe,
        error_sample_every=every,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(doc, name=path.stem)

"""YAML config schemas for cross-sections, actuator specs, brace layouts
and gait schedules.

Schema summary (all keys lowercase):

cross-section::

    kind: circle | equilateral_triangle | square | rectangle | rounded_rectangle
    radius_mm / side_mm / width_mm, height_mm / + corner_radius_mm

loss model::

    form: linear            |  form: exponential
    slope_per_kpa: -0.005   |  amplitude: 0.993
    intercept: 0.522        |  decay_per_kpa: 0.07
    valid_range_kpa: [30, 60]

actuator spec::

    cross_section: {...}
    loss_model: {...}
    max_pressure_kpa: 60
    stroke_mm: 5

shapes file: ``shapes: {<shape_id>: <cross-section>, ...}``
layout file: ``actuators: [{id, site, side, lever_arm_m, direction, spec}, ...]``
schedule file: ``phases: [{name, fraction, pressures: {<id>: kPa}}, ...]``
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any

import yaml

from .brace import (
    ActuatorPlacement,
    BraceLayout,
    ForceDirection,
    GaitPhase,
    GaitSchedule,
    Side,
    Site,
)
from .geometry import (
    Circle,
    CrossSection,
    EquilateralTriangle,
    Rectangle,
    RoundedRectangle,
    Square,
)
from .loss import ActuatorSpec, ExponentialLoss, LinearLoss, LossModel


class ConfigError(ValueError):
    """Config file is malformed or names an unknown kind/form."""


_CROSS_SECTIONS = {
    "circle": Circle,
    "equilateral_triangle": EquilateralTriangle,
    "square": Square,
    "rectangle": Rectangle,
    "rounded_rectangle": RoundedRectangle,
}
_LOSS_MODELS = {"linear": LinearLoss, "exponential": ExponentialLoss}
_DIRECTIONS = {d.name.lower(): d for d in ForceDirection}


def _lookup(table: dict[str, Any], name: Any, what: str) -> Any:
    found = next((value for key, value in table.items() if key == name), None)
    if found is None:
        raise ConfigError(f"unknown {what} {name!r}")
    return found


def _name_of(table: dict[str, type], obj: Any) -> str:
    return next(name for name, cls in table.items() if isinstance(obj, cls))


def cross_section_from_dict(d: dict[str, Any]) -> CrossSection:
    try:
        cls = _lookup(_CROSS_SECTIONS, d["kind"], "cross-section kind")
        return cls(*(float(d[f.name]) for f in fields(cls)))
    except KeyError as exc:
        raise ConfigError(f"cross-section config missing key {exc}") from exc


def cross_section_to_dict(cs: CrossSection) -> dict[str, Any]:
    return {"kind": _name_of(_CROSS_SECTIONS, cs), **asdict(cs)}


def loss_model_from_dict(d: dict[str, Any]) -> LossModel:
    try:
        cls = _lookup(_LOSS_MODELS, d["form"], "loss model form")
        rng = tuple(float(x) for x in d["valid_range_kpa"])
        return cls(*(float(d[f.name]) for f in fields(cls)[:-1]), rng)
    except KeyError as exc:
        raise ConfigError(f"loss model config missing key {exc}") from exc


def loss_model_to_dict(m: LossModel) -> dict[str, Any]:
    valid_range = list(m.valid_range_kpa)
    return {"form": _name_of(_LOSS_MODELS, m), **asdict(m), "valid_range_kpa": valid_range}


def actuator_spec_from_dict(d: dict[str, Any]) -> ActuatorSpec:
    try:
        return ActuatorSpec(
            cross_section=cross_section_from_dict(d["cross_section"]),
            loss_model=loss_model_from_dict(d["loss_model"]),
            max_pressure_kpa=float(d.get("max_pressure_kpa", 60.0)),
            stroke_mm=float(d.get("stroke_mm", 5.0)),
            allow_extrapolation=bool(d.get("allow_extrapolation", False)),
        )
    except KeyError as exc:
        raise ConfigError(f"actuator spec config missing key {exc}") from exc


def actuator_spec_to_dict(spec: ActuatorSpec) -> dict[str, Any]:
    return {
        **asdict(spec),
        "cross_section": cross_section_to_dict(spec.cross_section),
        "loss_model": loss_model_to_dict(spec.loss_model),
    }


def load_yaml(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def load_actuator_spec(path: str) -> ActuatorSpec:
    return actuator_spec_from_dict(load_yaml(path))


def load_shapes(path: str) -> dict[str, CrossSection]:
    data = load_yaml(path)
    shapes = data.get("shapes")
    if not isinstance(shapes, dict) or not shapes:
        raise ConfigError(f"{path}: expected a non-empty 'shapes' mapping")
    return {str(sid): cross_section_from_dict(d) for sid, d in shapes.items()}


def load_layout(path: str) -> BraceLayout:
    data = load_yaml(path)
    entries = data.get("actuators")
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected an 'actuators' list")
    placements = []
    for d in entries:
        try:
            placements.append(
                ActuatorPlacement(
                    actuator_id=str(d["id"]),
                    site=Site(d["site"]),
                    side=Side(d["side"]),
                    spec=actuator_spec_from_dict(d["spec"]),
                    lever_arm_m=float(d["lever_arm_m"]),
                    direction=_direction(d["direction"]),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{path}: actuator entry missing key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return BraceLayout(tuple(placements))


def _direction(name: str) -> ForceDirection:
    return _lookup(_DIRECTIONS, name, "force direction")


def load_schedule(path: str) -> GaitSchedule:
    data = load_yaml(path)
    entries = data.get("phases")
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected a 'phases' list")
    phases = []
    for d in entries:
        try:
            pressures = {str(k): float(v) for k, v in (d.get("pressures") or {}).items()}
            phases.append(GaitPhase(str(d["name"]), float(d["fraction"]), pressures))
        except KeyError as exc:
            raise ConfigError(f"{path}: phase entry missing key {exc}") from exc
    return GaitSchedule(tuple(phases))


def layout_to_dict(layout: BraceLayout) -> dict[str, Any]:
    return {
        "actuators": [
            {
                "id": a.actuator_id,
                "site": a.site.value,
                "side": a.side.value,
                "lever_arm_m": a.lever_arm_m,
                "direction": a.direction.name.lower(),
                "spec": actuator_spec_to_dict(a.spec),
            }
            for a in layout.actuators
        ]
    }


def schedule_to_dict(schedule: GaitSchedule) -> dict[str, Any]:
    return {
        "phases": [
            {"name": ph.name, "fraction": ph.fraction, "pressures": dict(ph.pressures_kpa)}
            for ph in schedule.phases
        ]
    }


def dump_yaml(data: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)

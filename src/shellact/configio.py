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
    max_pressure_kpa: 60         # optional, as are the two below
    stroke_mm: 5
    allow_extrapolation: false   # true or false; true accepts a max past valid_range_kpa

shapes file: ``shapes: {<shape_id>: <cross-section>, ...}``
layout file: ``actuators: [{id, site, side, lever_arm_m, direction, spec}, ...]``
schedule file: ``phases: [{name, fraction, pressures: {<id>: kPa}}, ...]``

A key not listed above for its mapping is refused, naming the key, so a
misspelt key never silently falls back to its default.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import fields
from typing import Any

from ._lazy import _lazy, yaml
from .geometry import CROSS_SECTIONS, CrossSection
from .loss import ActuatorSpec, ExponentialLoss, LinearLoss, LossModel

brace = _lazy(f"{__package__}.brace")  # only layouts and schedules need it


_LOSS_MODELS = {"linear": LinearLoss, "exponential": ExponentialLoss}


def _lookup(table: dict[str, Any], name: Any, what: str) -> Any:
    found = next((value for key, value in table.items() if key == name), None)
    if found is None:
        raise ValueError(f"unknown {what} {name!r}")
    return found


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind`` (dict or list) as YAML loads it."""
    if not isinstance(value, kind):
        noun = "mapping" if kind is dict else "list"
        raise ValueError(f"{what} must be a {noun}, got {value!r}")
    return value


def _only(d: dict[str, Any], keys: list[str], what: str) -> dict[str, Any]:
    """``d`` if it is a mapping whose every key is one of ``keys``."""
    for key in _expect(d, dict, what):
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}")
    return d


def _number(value: Any, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def cross_section_from_dict(d: dict[str, Any]) -> CrossSection:
    _expect(d, dict, "cross-section")
    try:
        cls = _lookup(CROSS_SECTIONS, d["kind"], "cross-section kind")
        _only(d, ["kind", *(f.name for f in fields(cls))], "cross-section")
        return cls(*(_number(d[f.name], f.name) for f in fields(cls)))
    except KeyError as exc:
        raise ValueError(f"cross-section config missing key {exc}") from exc


def loss_model_from_dict(d: dict[str, Any]) -> LossModel:
    _expect(d, dict, "loss model")
    try:
        cls = _lookup(_LOSS_MODELS, d["form"], "loss model form")
        _only(d, ["form", *(f.name for f in fields(cls))], "loss model")
        bounds = _expect(d["valid_range_kpa"], list, "valid_range_kpa")
        rng = tuple(_number(x, "valid_range_kpa") for x in bounds)
        return cls(*(_number(d[f.name], f.name) for f in fields(cls)[:-1]), rng)
    except KeyError as exc:
        raise ValueError(f"loss model config missing key {exc}") from exc


def actuator_spec_from_dict(d: dict[str, Any]) -> ActuatorSpec:
    """An ActuatorSpec of the keys ``d`` holds; an absent option keeps the spec's own default."""
    _only(d, [f.name for f in fields(ActuatorSpec)], "actuator spec")
    try:
        return ActuatorSpec(
            cross_section_from_dict(d["cross_section"]),
            loss_model_from_dict(d["loss_model"]),
            **{k: v if k == "allow_extrapolation" else _number(v, k)
               for k, v in d.items() if k not in ("cross_section", "loss_model")},
        )
    except KeyError as exc:
        raise ValueError(f"actuator spec config missing key {exc}") from exc


def shapes_from_dict(d: dict[str, Any]) -> dict[str, CrossSection]:
    shapes = _only(d, ["shapes"], "shapes file").get("shapes")
    if not isinstance(shapes, dict) or not shapes:
        raise ValueError("expected a non-empty 'shapes' mapping")
    return {str(sid): cross_section_from_dict(cs) for sid, cs in shapes.items()}


def layout_from_dict(d: dict[str, Any]) -> brace.BraceLayout:
    placements = []
    for entry in _expect(_only(d, ["actuators"], "layout").get("actuators"), list, "'actuators'"):
        _only(entry, ["id", "site", "side", "spec", "lever_arm_m", "direction"], "actuator entry")
        try:
            placements.append(
                brace.ActuatorPlacement(
                    actuator_id=str(entry["id"]),
                    site=brace.Site(entry["site"]),
                    side=brace.Side(entry["side"]),
                    spec=actuator_spec_from_dict(entry["spec"]),
                    lever_arm_m=_number(entry["lever_arm_m"], "lever_arm_m"),
                    direction=_direction(entry["direction"]),
                )
            )
        except KeyError as exc:
            raise ValueError(f"actuator entry missing key {exc}") from exc
    return brace.BraceLayout(tuple(placements))


def _direction(name: str) -> brace.ForceDirection:
    return _lookup({d.name.lower(): d for d in brace.ForceDirection}, name, "force direction")


def schedule_from_dict(d: dict[str, Any]) -> brace.GaitSchedule:
    phases = []
    for entry in _expect(_only(d, ["phases"], "schedule").get("phases"), list, "'phases'"):
        _only(entry, ["name", "fraction", "pressures"], "phase entry")
        try:
            pressures = _expect(entry.get("pressures") or {}, dict, "phase pressures")
            kpa = {str(k): _number(v, f"pressure of {k!r}") for k, v in pressures.items()}
            fraction = _number(entry["fraction"], "fraction")
            phases.append(brace.GaitPhase(str(entry["name"]), fraction, kpa))
        except KeyError as exc:
            raise ValueError(f"phase entry missing key {exc}") from exc
    return brace.GaitSchedule(tuple(phases))


def _load(path: str, from_dict: Callable[[dict[str, Any]], Any]) -> Any:
    """``from_dict`` of a YAML file's top-level mapping; a ValueError names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if not isinstance(data, dict):
            raise ValueError("top level must be a mapping")
        return from_dict(data)
    except (yaml.YAMLError, ValueError) as exc:  # also bad UTF-8, a bad date or a bad entry
        raise ValueError(f"{path}: {exc}") from exc
    except RecursionError:  # PyYAML's composer recurses once per nesting level
        raise ValueError(f"{path}: nesting too deep") from None


def load_actuator_spec(path: str) -> ActuatorSpec:
    return _load(path, actuator_spec_from_dict)


def load_shapes(path: str) -> dict[str, CrossSection]:
    return _load(path, shapes_from_dict)


def load_layout(path: str) -> brace.BraceLayout:
    return _load(path, layout_from_dict)


def load_schedule(path: str) -> brace.GaitSchedule:
    return _load(path, schedule_from_dict)

"""YAML config schemas for cross-sections, actuator specs, brace layouts
and gait schedules.

Schema summary (all keys lowercase; every key is required unless marked
optional):

cross-section::

    kind: circle | equilateral_triangle | square | rectangle | rounded_rectangle
    radius_mm / side_mm / width_mm, height_mm / + corner_radius_mm

loss model::

    form: linear            |  form: exponential
    slope_per_kpa: -0.005   |  amplitude: 0.993
    intercept: 0.522        |  decay_per_kpa: 0.07
    valid_range_kpa: [30, 60]    # two numbers, low < high

actuator spec::

    cross_section: {...}
    loss_model: {...}
    max_pressure_kpa: 60         # optional, as are the two below
    stroke_mm: 5
    allow_extrapolation: false   # true or false; true accepts a max past valid_range_kpa

shapes file: ``shapes: {<shape_id>: <cross-section>, ...}``
layout file: ``actuators: [{id, site, side, lever_arm_m, direction, spec}, ...]``
with ``site`` thigh | knee | shank, ``side`` medial | lateral and ``direction``
medial_to_lateral | lateral_to_medial
schedule file: ``phases: [{name, fraction, pressures: {<id>: kPa}}, ...]``;
``pressures`` is optional, and absent or null means the phase commands nothing

A key not listed above for its mapping is refused, naming the key, so a
misspelt key never silently falls back to its default; so is a missing
required key. A boolean is not a number: ``radius_mm: true`` is refused; and
every id and name must be a string, so ``id: null`` is refused, not read as 'None'.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import fields
from enum import Enum
from typing import Any

from ._lazy import _lazy, yaml
from .geometry import CROSS_SECTIONS, CrossSection
from .loss import ActuatorSpec, ExponentialLoss, LinearLoss, LossModel

brace = _lazy(f"{__package__}.brace")  # only layouts and schedules need it


_LOSS_MODELS = {"linear": LinearLoss, "exponential": ExponentialLoss}


def _lookup(table: dict[str, Any] | type[Enum], name: Any, what: str) -> Any:
    """``table``'s value under the key ``name``; an Enum is keyed by its lower-case member names."""
    if not isinstance(table, dict):
        table = {key.lower(): member for key, member in table.__members__.items()}
    found = table.get(name) if isinstance(name, str) else None  # a list or a mapping is no key
    if found is None:
        raise ValueError(f"unknown {what} {name!r}")
    return found


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind`` (dict or list) as YAML loads it."""
    if not isinstance(value, kind):
        noun = "mapping" if kind is dict else "list"
        raise ValueError(f"{what} must be a {noun}, got {value!r}")
    return value


def _only(d: Any, required: Collection[str], what: str,
          optional: Collection[str] = ()) -> dict[str, Any]:
    """``d`` if it is a mapping with every ``required`` key and no key outside ``optional``."""
    _expect(d, dict, what)
    for key in required:
        if key not in d:
            raise ValueError(f"{what} missing key {key!r}")
    for key in d:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has unknown key {key!r}")
    return d


def _text(value: Any, what: str) -> str:
    """``value`` if YAML loaded it as a string: ``str()`` would make ``null`` the id ``'None'``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _number(value: Any, what: str) -> float:
    try:
        return float(None if isinstance(value, bool) else value)  # float(True) would be 1.0
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _tagged(d: Any, tag: str, table: dict[str, type], what: str) -> Any:
    """The ``table`` class ``d[tag]`` names, of a number per field (a range: a list of numbers)."""
    cls = _lookup(table, d[tag], f"{what} {tag}") if tag in _expect(d, dict, what) else None
    names = [f.name for f in fields(cls)] if cls else []
    _only(d, [tag, *names], what)
    return cls(*(tuple(_number(x, k) for x in _expect(d[k], list, k)) if k == "valid_range_kpa"
                 else _number(d[k], k) for k in names))


def cross_section_from_dict(d: dict[str, Any]) -> CrossSection:
    return _tagged(d, "kind", CROSS_SECTIONS, "cross-section")


def loss_model_from_dict(d: dict[str, Any]) -> LossModel:
    return _tagged(d, "form", _LOSS_MODELS, "loss model")


def actuator_spec_from_dict(d: dict[str, Any]) -> ActuatorSpec:
    """An ActuatorSpec of the keys ``d`` holds; an absent option keeps the spec's own default."""
    names = [f.name for f in fields(ActuatorSpec)]
    _only(d, names[:2], "actuator spec", optional=names[2:])
    return ActuatorSpec(
        cross_section_from_dict(d["cross_section"]),
        loss_model_from_dict(d["loss_model"]),
        **{k: v if k == "allow_extrapolation" else _number(v, k)
           for k, v in d.items() if k in names[2:]},
    )


def shapes_from_dict(d: dict[str, Any]) -> dict[str, CrossSection]:
    shapes = _only(d, ["shapes"], "shapes file")["shapes"]
    if not isinstance(shapes, dict) or not shapes:
        raise ValueError("expected a non-empty 'shapes' mapping")
    return {_text(sid, "shape id"): cross_section_from_dict(cs) for sid, cs in shapes.items()}


def layout_from_dict(d: dict[str, Any]) -> brace.BraceLayout:
    placements = []
    for entry in _expect(_only(d, ["actuators"], "layout")["actuators"], list, "'actuators'"):
        _only(entry, ["id", "site", "side", "spec", "lever_arm_m", "direction"], "actuator entry")
        placements.append(
            brace.ActuatorPlacement(
                actuator_id=_text(entry["id"], "actuator id"),
                site=_lookup(brace.Site, entry["site"], "site"),
                side=_lookup(brace.Side, entry["side"], "side"),
                spec=actuator_spec_from_dict(entry["spec"]),
                lever_arm_m=_number(entry["lever_arm_m"], "lever_arm_m"),
                direction=_lookup(brace.ForceDirection, entry["direction"], "force direction"),
            )
        )
    return brace.BraceLayout(tuple(placements))


def schedule_from_dict(d: dict[str, Any]) -> brace.GaitSchedule:
    phases = []
    for entry in _expect(_only(d, ["phases"], "schedule")["phases"], list, "'phases'"):
        _only(entry, ["name", "fraction"], "phase entry", optional=["pressures"])
        pressures = entry.get("pressures")  # absent or null: the phase commands nothing
        pressures = _expect({} if pressures is None else pressures, dict, "phase pressures")
        kpa = {_text(k, "pressures key"): _number(v, f"pressure of {k!r}")
               for k, v in pressures.items()}
        fraction = _number(entry["fraction"], "fraction")
        phases.append(brace.GaitPhase(_text(entry["name"], "phase name"), fraction, kpa))
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

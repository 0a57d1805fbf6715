"""YAML writers for config test fixtures.

The CLI only reads configs; these build the mappings its readers accept
from the dataclasses, so tests can write a layout, schedule or shapes file
and read it back.
"""

from dataclasses import asdict

import yaml

from shellact.configio import _LOSS_MODELS
from shellact.geometry import CROSS_SECTIONS


def _name_of(table, obj):
    return next(name for name, cls in table.items() if isinstance(obj, cls))


def cross_section_to_dict(cs):
    return {"kind": _name_of(CROSS_SECTIONS, cs), **asdict(cs)}


def loss_model_to_dict(m):
    valid_range = list(m.valid_range_kpa)
    return {"form": _name_of(_LOSS_MODELS, m), **asdict(m), "valid_range_kpa": valid_range}


def actuator_spec_to_dict(spec):
    return {
        **asdict(spec),
        "cross_section": cross_section_to_dict(spec.cross_section),
        "loss_model": loss_model_to_dict(spec.loss_model),
    }


def layout_to_dict(layout):
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


def schedule_to_dict(schedule):
    return {
        "phases": [
            {"name": ph.name, "fraction": ph.fraction, "pressures": dict(ph.pressures_kpa)}
            for ph in schedule.phases
        ]
    }


def dump_yaml(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)

"""Seeded inputs and CLI invocations for the three benchmark workloads.

Each workload is a fixed list of `shellact` invocations. Its inputs (YAML
files and argv values) are derived from the workload seed with
`random.Random`, so the same seed gives the same files and the same
artifacts. The program only ever sees those files and argv.

YAML inputs are written as JSON, which PyYAML's `safe_load` reads as YAML.
Every float written has a plain decimal form, since YAML 1.1 does not read
`1e-05` as a number.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import bench_oracles as oracles

WORKLOADS = ("brace-gait", "sweep-char", "cli-small")

SITES = ("thigh", "knee", "shank")
SIDES = ("medial", "lateral")
BALLOON_IDS = ("circle", "triangle", "square", "rectangle")
BALLOON_AREA_MM2 = math.pi * 25.0**2
KINDS = ("circle", "equilateral_triangle", "square", "rectangle", "rounded_rectangle")

#: The program's documented defaults, restated here so the oracles do not
#: depend on the code they check: `simulate` without --layout uses six
#: molded actuators pushing inward, lever arms thigh +0.15, knee 0,
#: shank -0.15 m; its loss is 0.993*exp(-0.07 P) and its cap is 50 kPa.
ENGINEERED_SPEC = {
    "cross_section": {
        "kind": "rounded_rectangle",
        "width_mm": 60.0,
        "height_mm": 40.0,
        "corner_radius_mm": 8.0,
    },
    "loss_model": {
        "form": "exponential",
        "amplitude": 0.993,
        "decay_per_kpa": 0.07,
        "valid_range_kpa": [5.0, 50.0],
    },
    "max_pressure_kpa": 50.0,
    "stroke_mm": 5.0,
}
DEFAULT_ARMS_M = {"thigh": 0.15, "knee": 0.0, "shank": -0.15}
DEFAULT_DURATION_S = 1.2
DEFAULT_DT_S = 0.01
DEFAULT_TAU_S = 0.2


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, the files it writes and the oracle for them."""

    name: str
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    out_dir: str
    invocations: list[Invocation]
    #: (pressure_kpa, actuator-spec dict) pairs for the loss probe, read
    #: from this workload's own outputs once a pass has written them.
    probe_points: Callable[[], list[tuple[float, dict]]]


def _write_yaml(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return path


def default_layout() -> list[dict]:
    return [
        {
            "id": f"{site}_{side}",
            "site": site,
            "side": side,
            "lever_arm_m": DEFAULT_ARMS_M[site],
            "direction": "medial_to_lateral" if side == "medial" else "lateral_to_medial",
            "spec": ENGINEERED_SPEC,
        }
        for site in SITES
        for side in SIDES
    ]


def seeded_spec(rng: random.Random) -> dict:
    kind = rng.choice(KINDS)
    if kind == "circle":
        cs = {"kind": kind, "radius_mm": round(rng.uniform(15.0, 35.0), 2)}
    elif kind in ("equilateral_triangle", "square"):
        cs = {"kind": kind, "side_mm": round(rng.uniform(40.0, 70.0), 2)}
    elif kind == "rectangle":
        cs = {
            "kind": kind,
            "width_mm": round(rng.uniform(40.0, 80.0), 2),
            "height_mm": round(rng.uniform(20.0, 40.0), 2),
        }
    else:
        w, h = round(rng.uniform(40.0, 80.0), 2), round(rng.uniform(25.0, 50.0), 2)
        cs = {
            "kind": kind,
            "width_mm": w,
            "height_mm": h,
            "corner_radius_mm": round(rng.uniform(1.0, h / 2.0 - 1.0), 2),
        }
    if rng.random() < 0.5:
        loss = {
            "form": "linear",
            "slope_per_kpa": round(rng.uniform(-0.008, -0.003), 5),
            "intercept": round(rng.uniform(0.35, 0.6), 4),
            "valid_range_kpa": [30.0, 60.0],
        }
    else:
        loss = {
            "form": "exponential",
            "amplitude": round(rng.uniform(0.8, 1.0), 4),
            "decay_per_kpa": round(rng.uniform(0.04, 0.1), 4),
            "valid_range_kpa": [5.0, 50.0],
        }
    cap = loss["valid_range_kpa"][1]
    return {"cross_section": cs, "loss_model": loss, "max_pressure_kpa": cap, "stroke_mm": 5.0}


def seeded_layout(rng: random.Random) -> list[dict]:
    arms = {"thigh": (0.10, 0.25), "knee": (-0.02, 0.02), "shank": (-0.25, -0.10)}
    return [
        {
            "id": f"{site}_{side}",
            "site": site,
            "side": side,
            "lever_arm_m": round(rng.uniform(*arms[site]), 3),
            "direction": "medial_to_lateral" if side == "medial" else "lateral_to_medial",
            "spec": seeded_spec(rng),
        }
        for site in SITES
        for side in SIDES
    ]


def seeded_schedule(rng: random.Random, layout: list[dict]) -> dict:
    """Four phases, each at least 10 % of the cycle; every commanded
    pressure lies within its actuator's cap."""
    extra = sorted(rng.randint(0, 60) for _ in range(3))
    hundredths = [10 + b - a for a, b in zip([0, *extra], [*extra, 60])]
    phases = []
    for name, share in zip(("heel_strike", "mid_stance", "toe_off", "swing"), hundredths):
        pressures = {
            a["id"]: round(rng.uniform(5.0, a["spec"]["max_pressure_kpa"]), 1)
            for a in layout
            if rng.random() < 0.5
        }
        phases.append({"name": name, "fraction": share / 100.0, "pressures": pressures})
    return {"phases": phases}


def seeded_shapes(rng: random.Random) -> dict:
    """The balloon shape ids mapped to seeded cross-sections of the same
    area as the generator's ground truth, so the fitted loss is unchanged."""
    a = BALLOON_AREA_MM2
    shapes = {}
    for sid in BALLOON_IDS:
        kind = rng.choice(KINDS)
        if kind == "circle":
            shapes[sid] = {"kind": kind, "radius_mm": 25.0}
        elif kind == "equilateral_triangle":
            shapes[sid] = {"kind": kind, "side_mm": math.sqrt(4.0 * a / math.sqrt(3.0))}
        elif kind == "square":
            shapes[sid] = {"kind": kind, "side_mm": math.sqrt(a)}
        elif kind == "rectangle":
            w = math.sqrt(a * rng.uniform(1.0, 4.0))
            shapes[sid] = {"kind": kind, "width_mm": w, "height_mm": a / w}
        else:
            w, r = rng.uniform(45.0, 70.0), rng.uniform(2.0, 8.0)
            h = (a + (4.0 - math.pi) * r * r) / w
            shapes[sid] = {"kind": kind, "width_mm": w, "height_mm": h, "corner_radius_mm": r}
    return {"shapes": shapes}


def _simulate(
    out: str, layout: list[dict], schedule: dict, dt: float, cycles: int,
    layout_path: str | None, schedule_path: str,
) -> Invocation:
    argv = ["simulate", "--dt", repr(dt), "--cycles", str(cycles), "--schedule", schedule_path]
    if layout_path:
        argv += ["--layout", layout_path]
    argv += ["--out", out]
    trace, svg = os.path.join(out, "trace.csv"), os.path.join(out, "trace.svg")

    def check() -> list[str]:
        return oracles.check_trace(
            trace, layout, schedule, dt, DEFAULT_TAU_S, DEFAULT_DURATION_S, cycles
        ) + oracles.check_svg(svg)

    return Invocation("simulate", tuple(argv), (trace, svg), check)


def _generate(out: str, seed: int, trials: int) -> Invocation:
    argv = ("generate", "--trials", str(trials), "--seed", str(seed), "--out", out)
    path = os.path.join(out, "measurements.csv")
    return Invocation(
        "generate",
        argv,
        (path,),
        lambda: oracles.check_measurements(path, len(BALLOON_IDS) * 12 * trials),
    )


def _fit(out: str, trials: int, shapes_path: str | None) -> Invocation:
    argv = ["fit", "--trials", str(trials), "--input", os.path.join(out, "measurements.csv")]
    if shapes_path:
        argv += ["--shapes", shapes_path]
    argv += ["--out", out]
    report, comparison = os.path.join(out, "fit_report.csv"), os.path.join(out, "comparison.csv")
    svg = os.path.join(out, "loss_vs_pressure.svg")

    def check() -> list[str]:
        return (
            oracles.check_fit_report(report, BALLOON_IDS, trials)
            + oracles.check_comparison(comparison, BALLOON_AREA_MM2, len(BALLOON_IDS) * 12)
            + oracles.check_svg(svg)
        )

    return Invocation("fit", tuple(argv), (report, comparison, svg), check)


def _trace_points(trace_path: str, layout: list[dict]) -> list[tuple[float, dict]]:
    """Every (actual_kpa, spec) of a trace CSV."""
    specs = {a["id"]: a["spec"] for a in layout}
    with open(trace_path, encoding="utf-8") as fh:
        next(fh)
        return [(float(row[3]), specs[row[1]]) for row in (line.split(",") for line in fh)]


def _sweep_points() -> list[tuple[float, dict]]:
    """The 48 steps `generate` evaluates: 4 shapes x 5..60 kPa, balloon model."""
    balloon = {
        "cross_section": {"kind": "circle", "radius_mm": 25.0},
        "loss_model": {
            "form": "linear", "slope_per_kpa": -0.005, "intercept": 0.522,
            "valid_range_kpa": [30.0, 60.0],
        },
        "max_pressure_kpa": 60.0,
    }
    return [(5.0 * k, balloon) for _ in BALLOON_IDS for k in range(1, 13)]


def build(name: str, seed: int, out_dir: str, tiny: bool = False) -> Workload:
    """Write the workload's seeded inputs under `out_dir` and list its calls.

    `tiny` shrinks the two large workloads so a pass takes about a second;
    the benchmark's own tests use it.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    calls: list[Invocation] = []
    if name == "brace-gait":
        layout = default_layout()
        schedule = seeded_schedule(rng, layout)
        sched_path = _write_yaml(os.path.join(out_dir, "schedule.yaml"), schedule)
        dt, cycles = (0.01, 1) if tiny else (0.001, 10)
        calls.append(_simulate(out_dir, layout, schedule, dt, cycles, None, sched_path))
        probe = lambda: _trace_points(os.path.join(out_dir, "trace.csv"), layout)
    elif name == "sweep-char":
        trials = 5 if tiny else 3000
        calls += [_generate(out_dir, seed, trials), _fit(out_dir, trials, None)]
        probe = _sweep_points
    else:
        radius, aspect = round(rng.uniform(10.0, 40.0), 2), round(rng.uniform(1.0, 3.0), 2)
        geo = os.path.join(out_dir, "geometry.csv")
        calls.append(
            Invocation(
                "geometry",
                ("geometry", "--radius", repr(radius), "--aspect", repr(aspect), "--out", out_dir),
                (geo,),
                lambda: oracles.check_geometry(geo, radius),
            )
        )
        spec = seeded_spec(rng)
        spec_path = _write_yaml(os.path.join(out_dir, "spec.yaml"), spec)
        cap = spec["max_pressure_kpa"]
        pressures = sorted(round(rng.uniform(1.0, cap), 1) for _ in range(7))
        pred = os.path.join(out_dir, "predict.csv")
        calls.append(
            Invocation(
                "predict",
                ("predict", "--spec", spec_path, "--pressures", ",".join(map(repr, pressures)),
                 "--out", out_dir),
                (pred,),
                lambda: oracles.check_predict(pred, spec, pressures),
            )
        )
        shapes_path = _write_yaml(os.path.join(out_dir, "shapes.yaml"), seeded_shapes(rng))
        calls += [_generate(out_dir, seed, 3), _fit(out_dir, 3, shapes_path)]
        layout = seeded_layout(rng)
        schedule = seeded_schedule(rng, layout)
        layout_path = _write_yaml(os.path.join(out_dir, "layout.yaml"), {"actuators": layout})
        sched_path = _write_yaml(os.path.join(out_dir, "schedule.yaml"), schedule)
        calls.append(
            _simulate(out_dir, layout, schedule, DEFAULT_DT_S, 1, layout_path, sched_path)
        )
        probe = lambda: (
            _trace_points(os.path.join(out_dir, "trace.csv"), layout)
            + [(p, spec) for p in pressures]
            + _sweep_points()
        )
    return Workload(name, seed, out_dir, calls, probe)

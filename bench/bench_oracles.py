"""Oracle checks on the CLI's artifacts.

Each check reads an artifact back and tests it against the model written
out independently here (areas, loss curves, the supply-line lag, the
corrective-moment sum), not against stored golden bytes. A check returns
a list of problems; an empty list means the artifact is correct. CSV
numbers carry 4 decimal places, so tolerances allow for that rounding.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np

#: Ground truth of `generate`: the balloon prototype's linear loss.
TRUE_SLOPE_PER_KPA = -0.005
TRUE_INTERCEPT = 0.522


def area_mm2(cs: dict) -> float:
    kind = cs["kind"]
    if kind == "circle":
        return math.pi * cs["radius_mm"] ** 2
    if kind == "equilateral_triangle":
        return math.sqrt(3.0) / 4.0 * cs["side_mm"] ** 2
    if kind == "square":
        return cs["side_mm"] ** 2
    if kind == "rectangle":
        return cs["width_mm"] * cs["height_mm"]
    if kind == "rounded_rectangle":
        return cs["width_mm"] * cs["height_mm"] - (4.0 - math.pi) * cs["corner_radius_mm"] ** 2
    raise ValueError(f"unknown cross-section kind {kind!r}")


def loss_fraction(p_kpa, model: dict):
    """Clamped loss fraction; `p_kpa` may be a float or an array."""
    if model["form"] == "linear":
        raw = model["slope_per_kpa"] * np.asarray(p_kpa) + model["intercept"]
    else:
        raw = model["amplitude"] * np.exp(-model["decay_per_kpa"] * np.asarray(p_kpa))
    return np.clip(raw, 0.0, 1.0)


def force_n(p_kpa, spec: dict):
    """P * A * (1 - loss), with kPa * mm^2 = 1e-3 N."""
    return (
        np.asarray(p_kpa) * area_mm2(spec["cross_section"]) * 1e-3
        * (1.0 - loss_fraction(p_kpa, spec["loss_model"]))
    )


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    except OSError as exc:
        return [["<unreadable>", str(exc)]]


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, expected {want!r} (tolerance {tol:g})"]
    return []


def check_svg(path: str) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path}: not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path}: root element is {root.tag!r}, not svg"]
    return []


def check_geometry(path: str, radius_mm: float) -> list[str]:
    """Every member of the equal-area family has the reference circle's area."""
    rows = _read_rows(path)
    if rows[:1] != [["shape", "area_mm2"]] or len(rows) != 5:
        return [f"{path}: expected header and 4 shape rows, got {rows[:2]}..."]
    want = math.pi * radius_mm**2
    problems = []
    for shape, a in rows[1:]:
        problems += _close(f"{path}: area of {shape}", float(a), want, 1e-3)
    return problems


def check_predict(path: str, spec: dict, pressures: list[float]) -> list[str]:
    """Each row is P * A * (1 - loss) for the spec's cross-section and loss."""
    rows = _read_rows(path)
    header = ["pressure_kpa", "ideal_force_n", "predicted_force_n", "loss_fraction", "extrapolated"]
    if rows[:1] != [header] or len(rows) != len(pressures) + 1:
        return [f"{path}: expected header and {len(pressures)} rows"]
    area = area_mm2(spec["cross_section"])
    lo, hi = spec["loss_model"]["valid_range_kpa"]
    problems = []
    for p, row in zip(pressures, rows[1:]):
        got_p, ideal, force, loss, extrap = (float(x) for x in row)
        want_loss = float(loss_fraction(p, spec["loss_model"]))
        problems += _close(f"{path}: pressure", got_p, p, 1e-4)
        problems += _close(f"{path}: ideal at {p}", ideal, p * area * 1e-3, 1e-3)
        problems += _close(f"{path}: loss at {p}", loss, want_loss, 1e-4)
        problems += _close(f"{path}: force at {p}", force, p * area * 1e-3 * (1 - want_loss), 1e-3)
        problems += _close(f"{path}: extrapolated at {p}", extrap, float(not lo <= p <= hi), 0.0)
    return problems


def check_measurements(path: str, n_records: int) -> list[str]:
    rows = _read_rows(path)
    if rows[:1] != [["shape_id", "pressure_kpa", "trial", "force_n"]]:
        return [f"{path}: bad header {rows[:1]}"]
    if len(rows) - 1 != n_records:
        return [f"{path}: {len(rows) - 1} records, expected {n_records}"]
    return []


def fit_tolerance(trials: int) -> tuple[float, float]:
    """Slope and intercept tolerances: about eight standard errors. Over 300
    seeds at 3 trials the errors had standard deviations 1.8e-4 and 0.009;
    they shrink with the square root of the trial count."""
    shrink = math.sqrt(3.0 / trials)
    return 0.0015 * shrink, 0.075 * shrink


def check_fit_report(path: str, shape_ids: tuple[str, ...], trials: int) -> list[str]:
    """Fitted slope and intercept lie near the ground truth (-0.005, 0.522)."""
    rows = _read_rows(path)
    header = ["shape_id", "window_min_kpa", "window_max_kpa", "slope_per_kpa", "intercept", "r_squared"]
    if rows[:1] != [header] or sorted(r[0] for r in rows[1:]) != sorted(shape_ids):
        return [f"{path}: expected header and one row per shape {sorted(shape_ids)}"]
    slope_tol, icpt_tol = fit_tolerance(trials)
    problems = []
    for row in rows[1:]:
        problems += _close(f"{path}: {row[0]} slope", float(row[3]), TRUE_SLOPE_PER_KPA, slope_tol)
        problems += _close(f"{path}: {row[0]} intercept", float(row[4]), TRUE_INTERCEPT, icpt_tol)
    return problems


def check_comparison(path: str, area: float, n_rows: int) -> list[str]:
    """Ideal force is P * A; the loss column is 1 - mean measured / ideal."""
    rows = _read_rows(path)
    if len(rows) != n_rows + 1 or rows[0][:2] != ["shape_id", "pressure_kpa"]:
        return [f"{path}: expected header and {n_rows} rows, got {len(rows) - 1}"]
    problems = []
    for row in rows[1:]:
        p, ideal, _pred, measured, loss = (float(x) for x in row[1:])
        problems += _close(f"{path}: {row[0]} ideal at {p}", ideal, p * area * 1e-3, 1e-3)
        problems += _close(f"{path}: {row[0]} loss at {p}", loss, 1.0 - measured / ideal, 1e-3)
    return problems


def _expected_commands(layout, schedule, n_steps, dt, duration):
    """Commanded kPa per step and actuator, held over [t - dt, t), and a mask
    of steps that start within 1e-9 of a phase boundary, where rounding may
    pick either neighbour."""
    ids = sorted(a["id"] for a in layout)
    fractions = np.array([ph["fraction"] for ph in schedule["phases"]])
    bounds = np.cumsum(fractions)
    pos = np.mod(np.arange(n_steps) * dt / duration, 1.0)
    phase = np.minimum(np.searchsorted(bounds, pos, side="right"), len(bounds) - 1)
    table = np.array(
        [[float(ph["pressures"].get(aid, 0.0)) for aid in ids] for ph in schedule["phases"]]
    )
    edge = np.min(np.abs(pos[:, None] - np.concatenate([[0.0], bounds])[None, :]), axis=1) < 1e-9
    return table[phase], edge


def check_trace(
    path: str, layout: list[dict], schedule: dict, dt: float, tau: float,
    duration: float, cycles: int,
) -> list[str]:
    """Row count is steps x 6; commands follow the schedule; actual_kpa
    follows the closed-form first-order lag; forces are P * A * (1 - loss);
    each step's moment_nm is the signed-lever-arm sum of its forces."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            cells = [line.rstrip("\n").split(",") for line in fh]
    except OSError as exc:
        return [f"{path}: {exc}"]
    if header != "t_s,actuator_id,commanded_kpa,actual_kpa,force_n,moment_nm":
        return [f"{path}: bad header {header!r}"]
    by_id = {a["id"]: a for a in layout}
    ids = sorted(by_id)
    n_act = len(ids)
    n_steps = int(round(cycles * duration / dt))
    if len(cells) != n_steps * n_act:
        return [f"{path}: {len(cells)} rows, expected {n_steps} steps x {n_act} actuators"]
    if any(len(c) != 6 for c in cells):
        return [f"{path}: rows without 6 fields"]
    try:
        num = np.array([[float(c[0]), float(c[2]), float(c[3]), float(c[4]), float(c[5])]
                        for c in cells]).reshape(n_steps, n_act, 5)
    except ValueError as exc:
        return [f"{path}: non-numeric field: {exc}"]
    if any(c[1] != ids[i % n_act] for i, c in enumerate(cells)):
        return [f"{path}: actuator ids out of order"]
    t, cmd, actual, force, moment = (num[:, :, i] for i in range(5))
    problems = []

    def report(name: str, bad: np.ndarray, got: np.ndarray, want: np.ndarray) -> None:
        if bad.any():
            k = np.argwhere(bad)[0]
            problems.append(
                f"{path}: {name} wrong at step {k[0] + 1}, {ids[k[1]]}: "
                f"got {got[tuple(k)]!r}, expected {want[tuple(k)]!r} ({int(bad.sum())} rows)"
            )

    steps = np.arange(1, n_steps + 1) * dt
    report("t_s", np.abs(t - steps[:, None]) > 1e-6, t, np.broadcast_to(steps[:, None], t.shape))
    want_cmd, edge = _expected_commands(layout, schedule, n_steps, dt, duration)
    report("commanded_kpa", (np.abs(cmd - want_cmd) > 1e-4) & ~edge[:, None], cmd, want_cmd)
    # Closed-form lag within each run of a constant command c starting at a0:
    # a_j = c + (a0 - c) * q**j with q = exp(-dt / tau).
    q = math.exp(-dt / tau)
    want_actual = np.empty_like(cmd)
    for j in range(n_act):
        c = cmd[:, j]
        starts = np.flatnonzero(np.diff(c, prepend=np.nan))
        a0 = 0.0
        for s, e in zip(starts, [*starts[1:], n_steps]):
            seg = c[s] + (a0 - c[s]) * q ** np.arange(1, e - s + 1)
            want_actual[s:e, j] = seg
            a0 = seg[-1]
    report("actual_kpa", np.abs(actual - want_actual) > 1e-4, actual, want_actual)
    want_force = np.column_stack([force_n(want_actual[:, j], by_id[aid]["spec"])
                                  for j, aid in enumerate(ids)])
    report("force_n", np.abs(force - want_force) > 1e-3, force, want_force)
    sign = np.array([
        (1.0 if by_id[aid]["direction"] == "medial_to_lateral" else -1.0)
        * (-1.0 if by_id[aid]["site"] == "shank" else 1.0) * by_id[aid]["lever_arm_m"]
        for aid in ids
    ])
    want_moment = np.broadcast_to((force @ sign)[:, None], moment.shape)
    report("moment_nm", np.abs(moment - want_moment) > 1e-3, moment, want_moment)
    return problems

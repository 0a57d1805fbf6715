"""Pressure-sweep datasets: ingestion, aggregation, loss fitting, reports.

A sweep dataset holds repeated force measurements per (shape, pressure)
step. Aggregation, validation against the sweep protocol, ordinary
least-squares fitting of the linear loss model, and the ideal-vs-predicted
comparison table all live here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .geometry import DEFAULT_SAFETY_CAP_KPA, CrossSection, ideal_force
from .loss import LinearLoss, LossModel, loss_fraction, loss_from_measurement

MEASUREMENT_HEADER = ["shape_id", "pressure_kpa", "trial", "force_n"]
REPORT_HEADER = [
    "shape_id",
    "pressure_kpa",
    "ideal_force_n",
    "predicted_force_n",
    "mean_measured_force_n",
    "loss_fraction",
]


class UnknownShapeError(KeyError):
    """A dataset shape_id has no registered cross-section."""


class FitError(ValueError):
    """The fit window holds too little or degenerate data."""


@dataclass(frozen=True)
class MeasurementRecord:
    shape_id: str
    pressure_kpa: float
    trial: int
    force_n: float

    def __post_init__(self) -> None:
        if self.pressure_kpa <= 0.0 or not math.isfinite(self.pressure_kpa):
            raise ValueError(f"pressure_kpa must be > 0, got {self.pressure_kpa!r}")
        if self.force_n < 0.0 or not math.isfinite(self.force_n):
            raise ValueError(f"force_n must be >= 0, got {self.force_n!r}")
        if self.trial < 1:
            raise ValueError(f"trial must be >= 1, got {self.trial!r}")


@dataclass(frozen=True)
class SweepProtocol:
    """Stepwise pressurization protocol: start..stop in fixed increments."""

    start_kpa: float = 5.0
    step_kpa: float = 5.0
    stop_kpa: float = 60.0
    trials: int = 3

    def __post_init__(self) -> None:
        if self.step_kpa <= 0.0:
            raise ValueError("step_kpa must be > 0")
        if not 0.0 < self.start_kpa <= self.stop_kpa:
            raise ValueError("need 0 < start_kpa <= stop_kpa")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def pressures(self) -> list[float]:
        """start, start + step, ... up to stop; never past stop when the step does not divide."""
        n = math.floor((self.stop_kpa - self.start_kpa) / self.step_kpa + 1e-9)
        return [self.start_kpa + i * self.step_kpa for i in range(n + 1)]


@dataclass(frozen=True)
class Aggregate:
    mean_force_n: float
    std_force_n: float
    n_trials: int


@dataclass(frozen=True)
class SweepDataset:
    records: tuple[MeasurementRecord, ...]
    provenance: tuple[str, ...] = ()

    def shape_ids(self) -> list[str]:
        return sorted({r.shape_id for r in self.records})

    def aggregates(self) -> dict[tuple[str, float], Aggregate]:
        """Per (shape_id, pressure) mean and sample std of the trial forces.

        Sums use math.fsum, so the result is independent of record order.
        """
        groups: dict[tuple[str, float], list[float]] = {}
        for r in self.records:
            groups.setdefault((r.shape_id, r.pressure_kpa), []).append(r.force_n)
        out: dict[tuple[str, float], Aggregate] = {}
        for key in sorted(groups):
            forces = sorted(groups[key])
            n = len(forces)
            mean = math.fsum(forces) / n
            var = math.fsum((f - mean) ** 2 for f in forces) / (n - 1) if n > 1 else 0.0
            out[key] = Aggregate(mean, math.sqrt(var), n)
        return out


# --- protocol validation -------------------------------------------------


@dataclass(frozen=True)
class MissingStep:
    shape_id: str
    pressure_kpa: float

    def __str__(self) -> str:
        return f"missing step: shape {self.shape_id!r} has no {self.pressure_kpa:g} kPa record"


@dataclass(frozen=True)
class TrialCountMismatch:
    shape_id: str
    pressure_kpa: float
    expected: int
    actual: int

    def __str__(self) -> str:
        return (
            f"trial count mismatch: shape {self.shape_id!r} at {self.pressure_kpa:g} kPa "
            f"has {self.actual} trials, expected {self.expected}"
        )


@dataclass(frozen=True)
class OverCap:
    shape_id: str
    pressure_kpa: float
    cap_kpa: float

    def __str__(self) -> str:
        return (
            f"over cap: shape {self.shape_id!r} record at {self.pressure_kpa:g} kPa "
            f"exceeds the {self.cap_kpa:g} kPa cap"
        )


Violation = MissingStep | TrialCountMismatch | OverCap


def validate_sweep(
    ds: SweepDataset,
    protocol: SweepProtocol,
    safety_cap_kpa: float = DEFAULT_SAFETY_CAP_KPA,
) -> list[Violation]:
    """Check a dataset against the sweep protocol; violations are data, not errors."""
    violations: list[Violation] = []
    aggregates = ds.aggregates()
    steps = protocol.pressures()
    for shape_id in ds.shape_ids():
        for p in steps:
            agg = aggregates.get((shape_id, p))
            if agg is None:
                violations.append(MissingStep(shape_id, p))
            elif agg.n_trials != protocol.trials:
                violations.append(TrialCountMismatch(shape_id, p, protocol.trials, agg.n_trials))
    for (shape_id, p), _agg in aggregates.items():
        if p > safety_cap_kpa:
            violations.append(OverCap(shape_id, p, safety_cap_kpa))
    return violations


# --- loss series and fitting ---------------------------------------------


def compute_loss_series(
    ds: SweepDataset, shapes: dict[str, CrossSection]
) -> dict[str, list[tuple[float, float]]]:
    """Per-shape (pressure, mean loss) series from the aggregate mean forces."""
    series: dict[str, list[tuple[float, float]]] = {}
    for (shape_id, p), agg in ds.aggregates().items():
        if shape_id not in shapes:
            raise UnknownShapeError(shape_id)
        loss = loss_from_measurement(p, shapes[shape_id], agg.mean_force_n)
        series.setdefault(shape_id, []).append((p, loss))
    return series


@dataclass(frozen=True)
class FitReport:
    window_kpa: tuple[float, float]
    slope_per_kpa: float
    intercept: float
    r_squared: float
    residuals: tuple[tuple[float, float], ...]
    reference_deltas: tuple[float, float] | None = None

    def as_model(self) -> LinearLoss:
        return LinearLoss(self.slope_per_kpa, self.intercept, self.window_kpa)


def fit_linear_loss(
    series: list[tuple[float, float]],
    window_kpa: tuple[float, float] = (30.0, 60.0),
    reference: LinearLoss | None = None,
) -> FitReport:
    """Ordinary least squares with intercept over points inside the window.

    r^2 is the coefficient of determination 1 - SS_res/SS_tot about the
    mean loss; SS_tot == 0 (all losses identical) yields r^2 = 1 when the
    residuals are also zero.
    """
    lo, hi = window_kpa
    pts = sorted((p, y) for p, y in series if lo <= p <= hi)
    if len(pts) < 3:
        raise FitError(f"need >= 3 points inside window [{lo}, {hi}], got {len(pts)}")
    xs = [p for p, _ in pts]
    ys = [y for _, y in pts]
    if len(set(xs)) < 2:
        raise FitError("all pressures identical; slope is unconstrained")
    n = len(pts)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = tuple((x, y - (slope * x + intercept)) for x, y in pts)
    ss_res = math.fsum(r * r for _, r in residuals)
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    deltas = None
    if reference is not None:
        deltas = (slope - reference.slope_per_kpa, intercept - reference.intercept)
    return FitReport((lo, hi), slope, intercept, max(0.0, min(1.0, r_squared)), residuals, deltas)


# --- comparison report ----------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    shape_id: str
    pressure_kpa: float
    ideal_force_n: float
    predicted_force_n: float
    mean_measured_force_n: float
    loss_fraction: float


def comparison_report(
    ds: SweepDataset, shapes: dict[str, CrossSection], fitted: LossModel
) -> list[ReportRow]:
    """Ideal vs model-predicted vs mean measured force at every sweep step."""
    rows: list[ReportRow] = []
    for (shape_id, p), agg in ds.aggregates().items():
        if shape_id not in shapes:
            raise UnknownShapeError(shape_id)
        ideal = ideal_force(p, shapes[shape_id], safety_cap_kpa=math.inf)
        frac = loss_fraction(p, fitted).fraction
        rows.append(
            ReportRow(
                shape_id=shape_id,
                pressure_kpa=p,
                ideal_force_n=ideal,
                predicted_force_n=ideal * (1.0 - frac),
                mean_measured_force_n=agg.mean_force_n,
                loss_fraction=loss_from_measurement(p, shapes[shape_id], agg.mean_force_n),
            )
        )
    return rows


# --- CSV I/O ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def write_measurements_csv(ds: SweepDataset) -> str:
    """Serialize a dataset; provenance goes first as '#'-prefixed comment lines."""
    buf = io.StringIO()
    for line in ds.provenance:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MEASUREMENT_HEADER)
    for r in ds.records:
        writer.writerow([r.shape_id, _fmt(r.pressure_kpa), r.trial, _fmt(r.force_n)])
    return buf.getvalue()


def read_measurements_csv(text: str) -> SweepDataset:
    provenance = []
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            provenance.append(line.lstrip("# ").rstrip())
        elif line.strip():
            data_lines.append(line)
    if not data_lines:
        raise ValueError("empty measurement CSV")
    reader = csv.reader(data_lines)
    header = next(reader)
    if header != MEASUREMENT_HEADER:
        raise ValueError(f"bad measurement header {header!r}, expected {MEASUREMENT_HEADER!r}")
    records = tuple(
        MeasurementRecord(row[0], float(row[1]), int(row[2]), float(row[3])) for row in reader
    )
    return SweepDataset(records, tuple(provenance))


def write_report_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for row in sorted(rows, key=lambda r: (r.shape_id, r.pressure_kpa)):
        numbers = (row.pressure_kpa, row.ideal_force_n, row.predicted_force_n,
                   row.mean_measured_force_n, row.loss_fraction)
        writer.writerow([row.shape_id, *map(_fmt, numbers)])
    return buf.getvalue()

"""Pressure-sweep datasets: ingestion, aggregation, loss fitting, reports.

A sweep dataset holds repeated force measurements per (shape, pressure)
step as columns: one array per field over all rows, with shape ids stored
once and referenced by an integer code per row. Aggregation groups the
rows with one sort; validation against the sweep protocol, the loss
series and the ideal-vs-predicted comparison table all take that one
aggregate table. Ordinary least-squares fitting of the linear loss model
and the measurement CSV reader and writer also live here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice

from ._lazy import np
from .geometry import DEFAULT_SAFETY_CAP_KPA, CrossSection, ideal_force, reject
from .loss import LinearLoss, LossModel, loss_fraction, loss_from_measurement
from .svgchart import byte_rows, csv_field, fixed_text, join_rows

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
    """The fit window holds too little, degenerate or overflowing data."""


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
    n_distinct_trials: int


Aggregates = dict[tuple[str, float], Aggregate]


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """Repeated force measurements as columns, one row per trial.

    Row i is shape ``shape_names[shape_code[i]]`` at ``pressure_kpa[i]``,
    trial ``trial[i]``, measured force ``force_n[i]``; ``shape_names`` are
    distinct. Construction checks every row and names the first offending
    value.
    """

    shape_names: tuple[str, ...]
    shape_code: np.ndarray
    pressure_kpa: np.ndarray
    trial: np.ndarray
    force_n: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names, code, p, t, f = (self.shape_names, self.shape_code, self.pressure_kpa,
                                self.trial, self.force_n)
        if len(set(names)) != len(names):
            raise ValueError(f"shape_names must be distinct, got {names!r}")
        if not len(code) == len(p) == len(t) == len(f):
            raise ValueError("dataset columns differ in length")
        reject(code, (code < 0) | (code >= len(names)), ValueError, "shape_code {} is out of range")
        reject(p, (p <= 0.0) | ~np.isfinite(p), ValueError, "pressure_kpa must be > 0, got {!r}")
        reject(f, (f < 0.0) | ~np.isfinite(f), ValueError, "force_n must be >= 0, got {!r}")
        reject(t, t < 1, ValueError, "trial must be >= 1, got {!r}")

    def aggregates(self) -> Aggregates:
        """Per (shape_id, pressure) mean and sample std of the trial forces, in key order.

        One lexsort groups the rows. Sums use math.fsum over exactly computed
        terms, so the result is independent of row order.
        """
        if not len(self.force_n):
            return {}
        order = np.lexsort((self.trial, self.pressure_kpa, self.shape_code))
        code, p, t, f = (
            c[order] for c in (self.shape_code, self.pressure_kpa, self.trial, self.force_n)
        )
        bounds = np.flatnonzero((code[1:] != code[:-1]) | (p[1:] != p[:-1])) + 1
        starts = np.concatenate(([0], bounds))
        out: Aggregates = {}
        for c, pk, trials, forces in zip(
            code[starts].tolist(), p[starts].tolist(), np.split(t, bounds), np.split(f, bounds)
        ):
            forces = forces.tolist()
            n = len(forces)
            mean = math.fsum(forces) / n
            var = math.fsum((x - mean) ** 2 for x in forces) / (n - 1) if n > 1 else 0.0
            distinct = 1 + int(np.count_nonzero(trials[1:] != trials[:-1]))
            out[(self.shape_names[c], pk)] = Aggregate(mean, math.sqrt(var), n, distinct)
        return dict(sorted(out.items()))


# --- protocol validation -------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One way a sweep breaks its protocol: a kind such as "missing step", and the detail."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_sweep(
    aggregates: Aggregates,
    protocol: SweepProtocol,
    safety_cap_kpa: float = DEFAULT_SAFETY_CAP_KPA,
) -> list[Violation]:
    """Check a dataset's aggregates against the sweep protocol; violations are data, not errors."""
    if not aggregates:
        return [Violation("empty sweep", "the dataset has no measurement rows")]
    violations: list[Violation] = []
    steps = protocol.pressures()
    for shape_id in sorted({shape_id for shape_id, _ in aggregates}):
        for p in steps:
            agg = aggregates.get((shape_id, p))
            if agg is None:
                detail = f"shape {shape_id!r} has no {p:g} kPa record"
                violations.append(Violation("missing step", detail))
            elif agg.n_trials != protocol.trials:
                detail = (f"shape {shape_id!r} at {p:g} kPa "
                          f"has {agg.n_trials} trials, expected {protocol.trials}")
                violations.append(Violation("trial count mismatch", detail))
    for (shape_id, p), agg in aggregates.items():
        if agg.n_distinct_trials < agg.n_trials:
            detail = (f"shape {shape_id!r} at {p:g} kPa has {agg.n_trials} rows "
                      f"but {agg.n_distinct_trials} distinct trial ids")
            violations.append(Violation("duplicate trial", detail))
        if p > safety_cap_kpa:
            detail = (f"shape {shape_id!r} record at {p:g} kPa "
                      f"exceeds the {safety_cap_kpa:g} kPa cap")
            violations.append(Violation("over cap", detail))
    return violations


# --- loss series and fitting ---------------------------------------------


def compute_loss_series(
    aggregates: Aggregates, shapes: dict[str, CrossSection]
) -> dict[str, list[tuple[float, float]]]:
    """Per-shape (pressure, mean loss) series from the aggregate mean forces.

    A mean force above the ideal P*A force (a negative loss) raises ValueError.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    for (shape_id, p), agg in aggregates.items():
        if shape_id not in shapes:
            raise UnknownShapeError(shape_id)
        loss = loss_from_measurement(p, shapes[shape_id], agg.mean_force_n)
        if loss < 0.0:  # the shell cannot deliver more than P*A
            ideal = ideal_force(p, shapes[shape_id], safety_cap_kpa=math.inf)
            raise ValueError(
                f"shape {shape_id!r} at {p:g} kPa: mean force {agg.mean_force_n:g} N "
                f"is above the ideal force P*A = {ideal:g} N"
            )
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
    label: str = "pooled series",
) -> FitReport:
    """Ordinary least squares with intercept over points inside the window.

    r^2 is the coefficient of determination 1 - SS_res/SS_tot about the
    mean loss; SS_tot == 0 (all losses identical) yields r^2 = 1 when the
    residuals are also zero. ``label`` names the series in a FitError for
    losses too large to square.
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
    try:
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
    except OverflowError:
        worst = max(map(abs, ys))
        raise FitError(f"{label}: loss values too large to fit, up to {worst:g} in size") from None
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
    aggregates: Aggregates, shapes: dict[str, CrossSection], fitted: LossModel
) -> list[ReportRow]:
    """Ideal vs model-predicted vs mean measured force at every sweep aggregate."""
    rows: list[ReportRow] = []
    for (shape_id, p), agg in aggregates.items():
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


_CHUNK_ROWS = 4096


def write_measurements_csv(ds: SweepDataset) -> str:
    """Serialize a dataset; provenance goes first as '#'-prefixed comment lines.

    Rows are built as byte rows a chunk at a time; each shape id is quoted once.
    """
    buf = io.StringIO()
    for line in ds.provenance:
        buf.write(f"# {line}\n")
    buf.write(",".join(MEASUREMENT_HEADER) + "\n")
    ids = byte_rows([csv_field(name) for name in ds.shape_names])
    for start in range(0, len(ds.force_n), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        buf.write(join_rows([ids[ds.shape_code[rows]], fixed_text(ds.pressure_kpa[rows], 4),
                             fixed_text(ds.trial[rows]), fixed_text(ds.force_n[rows], 4)]))
    return buf.getvalue()


def _columns(rows: list[list[str]], codes: dict[str, int]) -> tuple[np.ndarray, ...]:
    """Parsed columns of measurement rows; ``codes`` numbers each new shape id."""
    shape_id, pressure, trial, force = zip(*rows, strict=True)
    for name in set(shape_id).difference(codes):
        codes[name] = len(codes)
    n = len(rows)
    return (
        np.fromiter(map(codes.__getitem__, shape_id), np.intp, n),
        np.fromiter(map(float, pressure), float, n),
        np.fromiter(map(int, trial), np.int64, n),
        np.fromiter(map(float, force), float, n),
    )


def _is_data(line: str) -> bool:
    return not line.startswith("#") and bool(line.strip())


def _row_error(lines: list[str], start: int, exc: Exception) -> ValueError:
    """The first malformed row from data line ``start`` on, named by its line in the file."""
    numbered = [n for n, line in enumerate(lines, 1) if _is_data(line)][start:]
    reader = csv.reader(lines[n - 1] for n in numbered)
    try:
        for row in reader:
            if len(row) != len(MEASUREMENT_HEADER):
                raise ValueError(f"expected {len(MEASUREMENT_HEADER)} fields, got {len(row)}")
            _columns([row], {})
    except (ValueError, OverflowError, csv.Error) as bad:
        return ValueError(f"measurement CSV line {numbered[reader.line_num - 1]}: {bad}")
    return ValueError(f"bad measurement CSV: {exc}")


def read_measurements_csv(text: str) -> SweepDataset:
    """Parse a measurement CSV, a chunk of rows at a time, into a checked dataset.

    '#' lines are provenance; a malformed row raises ValueError naming its line.
    """
    lines = text.splitlines()
    provenance = [line.lstrip("# ").rstrip() for line in lines if line.startswith("#")]
    data = [line for line in lines if _is_data(line)]
    if not data:
        raise ValueError("empty measurement CSV")
    reader = csv.reader(data)
    codes: dict[str, int] = {}
    parts = [(np.empty(0, np.intp), np.empty(0), np.empty(0, np.int64), np.empty(0))]
    start = 0  # data lines read before the rows being parsed
    try:
        header = next(reader)
        start = reader.line_num
        while header == MEASUREMENT_HEADER and (rows := list(islice(reader, _CHUNK_ROWS))):
            parts.append(_columns(rows, codes))
            start = reader.line_num
    except (ValueError, OverflowError, csv.Error) as exc:
        raise _row_error(lines, start, exc) from None
    if header != MEASUREMENT_HEADER:
        raise ValueError(f"bad measurement header {header!r}, expected {MEASUREMENT_HEADER!r}")
    columns = (np.concatenate(c) for c in zip(*parts))
    return SweepDataset(tuple(codes), *columns, tuple(provenance))


def write_report_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for row in sorted(rows, key=lambda r: (r.shape_id, r.pressure_kpa)):
        numbers = (row.pressure_kpa, row.ideal_force_n, row.predicted_force_n,
                   row.mean_measured_force_n, row.loss_fraction)
        writer.writerow([row.shape_id, *map("{:.4f}".format, numbers)])
    return buf.getvalue()

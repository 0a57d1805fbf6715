"""Pressure-sweep datasets: ingestion, aggregation, loss fitting, reports.

A sweep dataset holds repeated force measurements per (shape, pressure)
step as columns: one array per field over all rows, with shape ids stored
once and referenced by an integer code per row. Aggregation groups the
rows with one sort into a columnar step table; validation against the
sweep protocol, the loss series and the comparison CSV all take that one
table. Ordinary least-squares fitting of the linear loss model and the
measurement CSV reader and writer also live here.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
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


class UnknownShapeError(ValueError):
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


@dataclass(frozen=True, eq=False)
class StepTable:
    """Per (shape_id, pressure) step statistics as columns, one entry per step.

    Steps are in (shape_id, pressure) order: entry i holds the mean and
    sample std of the trial forces of step (``shape_id[i]``,
    ``pressure_kpa[i]``), its row count and its count of distinct trial ids.
    """

    shape_id: tuple[str, ...]
    pressure_kpa: np.ndarray
    mean_force_n: np.ndarray
    std_force_n: np.ndarray
    n_trials: np.ndarray
    n_distinct_trials: np.ndarray


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

    def aggregates(self) -> StepTable:
        """Per (shape_id, pressure) mean and sample std of the trial forces, in step order.

        One lexsort groups the rows, shape ids ranked in Python string order.
        Sums use math.fsum over exactly computed terms, so the result is
        independent of row order.
        """
        names = self.shape_names
        rank = np.argsort(sorted(range(len(names)), key=names.__getitem__))  # each code's place
        order = np.lexsort((self.trial, self.pressure_kpa, rank[self.shape_code]))
        code, p, t, f = (
            c[order] for c in (self.shape_code, self.pressure_kpa, self.trial, self.force_n)
        )
        new_step = np.ones(len(f), bool)
        new_step[1:] = (code[1:] != code[:-1]) | (p[1:] != p[:-1])
        starts = np.flatnonzero(new_step)
        stats = []
        for forces in np.split(f, starts)[1:]:  # the piece before starts[0] is empty
            forces = forces.tolist()
            n = len(forces)
            mean = math.fsum(forces) / n
            var = math.fsum((x - mean) ** 2 for x in forces) / (n - 1) if n > 1 else 0.0
            stats.append((mean, math.sqrt(var)))
        mean, std = np.array(stats).reshape(-1, 2).T
        new_step[1:] |= t[1:] != t[:-1]  # now also marks each new trial id within a step
        return StepTable(
            tuple(names[c] for c in code[starts].tolist()), p[starts], mean, std,
            np.diff(starts, append=len(f)), np.add.reduceat(new_step, starts, dtype=np.int64),
        )


# --- protocol validation -------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One way a sweep breaks its protocol: a kind such as "missing step", and the detail."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_sweep(
    table: StepTable,
    protocol: SweepProtocol,
    safety_cap_kpa: float = DEFAULT_SAFETY_CAP_KPA,
) -> list[Violation]:
    """Check a dataset's step table against the sweep protocol; violations are data, not errors."""
    if not table.shape_id:
        return [Violation("empty sweep", "the dataset has no measurement rows")]
    violations: list[Violation] = []
    steps = list(zip(table.shape_id, table.pressure_kpa.tolist(),
                     table.n_trials.tolist(), table.n_distinct_trials.tolist()))
    n_trials = {(shape_id, p): n for shape_id, p, n, _ in steps}
    for shape_id in dict.fromkeys(table.shape_id):
        for p in protocol.pressures():
            n = n_trials.get((shape_id, p))
            if n is None:
                detail = f"shape {shape_id!r} has no {p:g} kPa record"
                violations.append(Violation("missing step", detail))
            elif n != protocol.trials:
                detail = (f"shape {shape_id!r} at {p:g} kPa "
                          f"has {n} trials, expected {protocol.trials}")
                violations.append(Violation("trial count mismatch", detail))
    for shape_id, p, n, distinct in steps:
        if distinct < n:
            detail = (f"shape {shape_id!r} at {p:g} kPa has {n} rows "
                      f"but {distinct} distinct trial ids")
            violations.append(Violation("duplicate trial", detail))
        if p > safety_cap_kpa:
            detail = (f"shape {shape_id!r} record at {p:g} kPa "
                      f"exceeds the {safety_cap_kpa:g} kPa cap")
            violations.append(Violation("over cap", detail))
    return violations


# --- loss series and fitting ---------------------------------------------


def _step_losses(table: StepTable, shapes: dict[str, CrossSection]) -> list[tuple[float, float]]:
    """The (ideal force P*A, loss) of every step, in table order.

    A shape with no cross-section raises UnknownShapeError; a mean force
    above P*A (a negative loss) raises ValueError.
    """
    out = []
    for shape_id, p, mean in zip(table.shape_id, table.pressure_kpa.tolist(),
                                 table.mean_force_n.tolist()):
        if shape_id not in shapes:
            raise UnknownShapeError(f"shape {shape_id!r} has no cross-section")
        ideal = ideal_force(p, shapes[shape_id], safety_cap_kpa=math.inf)
        loss = loss_from_measurement(p, shapes[shape_id], mean)
        if loss < 0.0:  # the shell cannot deliver more than P*A
            raise ValueError(f"shape {shape_id!r} at {p:g} kPa: mean force {mean:g} N "
                             f"is above the ideal force P*A = {ideal:g} N")
        out.append((ideal, loss))
    return out


def compute_loss_series(
    table: StepTable, shapes: dict[str, CrossSection]
) -> dict[str, list[tuple[float, float]]]:
    """Per-shape (pressure, mean loss) series from the step mean forces, in shape order."""
    series: dict[str, list[tuple[float, float]]] = {}
    for shape_id, p, (_, loss) in zip(table.shape_id, table.pressure_kpa.tolist(),
                                      _step_losses(table, shapes)):
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


def comparison_report(table: StepTable, shapes: dict[str, CrossSection], fitted: LossModel) -> str:
    """Comparison CSV text: ideal vs model-predicted vs mean measured force at every step."""
    ideal, loss = np.array(_step_losses(table, shapes)).reshape(-1, 2).T
    frac = np.array([loss_fraction(p, fitted).fraction for p in table.pressure_kpa.tolist()])
    numbers = (table.pressure_kpa, ideal, ideal * (1.0 - frac), table.mean_force_n, loss)
    ids = byte_rows([csv_field(shape_id) for shape_id in table.shape_id])
    return ",".join(REPORT_HEADER) + "\n" + join_rows([ids, *(fixed_text(c, 4) for c in numbers)])


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


def _utf8(latin1: str) -> str:
    """The text whose UTF-8 bytes are the characters of ``latin1``."""
    return latin1.encode("latin-1").decode("utf-8", "surrogatepass")


def _row_error(text: str, head: int, exc: Exception) -> ValueError:
    """The first row after the ``head`` lines of ``text`` that np.loadtxt refuses, by its line."""
    reader = csv.reader(islice(io.StringIO(text, newline=""), head, None))
    try:
        for row in filter(None, reader):
            if len(row) != len(MEASUREMENT_HEADER):
                raise ValueError(f"expected {len(MEASUREMENT_HEADER)} fields, got {len(row)}")
            for field, kind in zip(row[1:], (float, np.int64, float)):
                # unlike Python, loadtxt refuses '_' and non-ASCII text, and strips \x1c-\x1f
                if "_" in field or not field.isascii():
                    raise ValueError(f"could not convert string to {kind.__name__}: {field!r}")
                kind(field.strip())  # np.int64 parses as int() does, within the int64 range
    except (ValueError, OverflowError, csv.Error) as bad:
        return ValueError(f"measurement CSV line {head + reader.line_num}: {bad}")
    return ValueError(f"bad measurement CSV: {exc}")


def read_measurements_csv(text: str) -> SweepDataset:
    """Parse a measurement CSV, a chunk of rows at a time, into a checked dataset.

    Lines end at LF, CR or CR LF. '#' and blank lines before the header are provenance;
    after it, each non-empty line is a row, and a malformed row raises ValueError naming its line.
    """
    # loadtxt reads the UTF-8 bytes as Latin-1: its int64 parser takes characters above
    # U+00FF for digits, and a StringIO would copy the text at four bytes a character
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogatepass")),
                              encoding="latin-1", newline="")
    provenance = []
    for head, line in enumerate(map(_utf8, stream), 1):  # head counts the header too
        if line[0] == "#":
            provenance.append(line.lstrip("# ").rstrip())
        elif line.strip():
            break
    else:
        raise ValueError("empty measurement CSV")
    header = next(csv.reader([line]))
    if header != MEASUREMENT_HEADER:
        raise ValueError(f"bad measurement header {header!r}, expected {MEASUREMENT_HEADER!r}")
    codes: dict[str, int] = {}  # each shape id numbered as first seen
    parts: list[tuple[np.ndarray, ...]] = []
    try:
        with warnings.catch_warnings():  # loadtxt warns of blank lines and of an empty body
            warnings.simplefilter("ignore", UserWarning)
            while not parts or len(parts[-1][0]) == _CHUNK_ROWS:
                rows = np.loadtxt(stream, dtype="O,f8,i8,f8", delimiter=",", quotechar='"',
                                  comments=None, ndmin=1, max_rows=_CHUNK_ROWS)
                code = [codes.setdefault(name, len(codes)) for name in rows["f0"].tolist()]
                parts.append((np.array(code, np.intp),
                              *(rows[f].copy() for f in ("f1", "f2", "f3"))))
    except ValueError as exc:
        raise _row_error(text, head, exc) from None
    return SweepDataset(tuple(map(_utf8, codes)), *map(np.concatenate, zip(*parts)),
                        tuple(provenance))

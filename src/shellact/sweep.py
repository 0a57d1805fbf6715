"""Pressure-sweep datasets: ingestion, aggregation, loss fitting, reports.

A sweep dataset holds repeated force measurements per (shape, pressure)
step as columns: one array per field over all rows, with shape ids stored
once and referenced by an integer code per row. Aggregation takes rows
already in step order as they are and sorts any others into a columnar
step table; validation, the loss series and the comparison CSV all take
that one table. The measurement CSV reader parses a binary stream with
np.loadtxt 4,096 rows at a time, coding each run of equal shape ids once;
the writer and least-squares fitting of the linear loss also live here.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO, NamedTuple

from ._lazy import np
from .geometry import CrossSection, ideal_force, reject
from .loss import LinearLoss, LossModel, _check_valid_range, loss_fraction, loss_from_measurement
from .svgchart import byte_rows, csv_field, fixed_text, join_rows, text_table

#: Highest step pressure in kPa: the rig's 3D-printed parts are not rated beyond it.
RIG_CAP_KPA = 60.0

#: Pressure step of every sweep in kPa; the first step is one step above zero.
STEP_KPA = 5.0

MEASUREMENT_HEADER = ["shape_id", "pressure_kpa", "trial", "force_n"]
REPORT_HEADER = "shape_id,pressure_kpa,ideal_force_n,predicted_force_n,mean_measured_force_n,loss_fraction"


@dataclass(frozen=True)
class SweepProtocol:
    """Stepwise pressurization: ``trials`` at each multiple of STEP_KPA up to ``stop_kpa``."""

    stop_kpa: float = RIG_CAP_KPA
    trials: int = 3

    def __post_init__(self) -> None:
        if not STEP_KPA <= self.stop_kpa <= RIG_CAP_KPA:  # NaN fails it too
            raise ValueError(f"stop_kpa must be in [{STEP_KPA}, {RIG_CAP_KPA}] kPa, "
                             f"got {self.stop_kpa!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")

    def pressures(self) -> list[float]:
        """STEP_KPA * i for i = 1, 2, ... while at most stop_kpa."""
        return [STEP_KPA * i for i in range(1, int(self.stop_kpa // STEP_KPA) + 1)]


class StepTable(NamedTuple):
    """Per (shape_id, pressure) step statistics as columns, one entry per step.

    Steps are in (shape_id, pressure) order: entry i holds the mean trial
    force of step (``shape_id[i]``, ``pressure_kpa[i]``), its row count and
    its count of distinct trial ids.
    """

    shape_id: tuple[str, ...]
    pressure_kpa: np.ndarray
    mean_force_n: np.ndarray
    n_trials: np.ndarray
    n_distinct_trials: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepDataset:
    """Repeated force measurements as columns, one row per trial.

    Row i is shape ``shape_names[shape_code[i]]`` at ``pressure_kpa[i]``,
    trial ``trial[i]``, measured force ``force_n[i]``; ``shape_names`` are
    distinct. ``shape_code`` and ``trial`` may be of any integer dtype: the
    rig generates them as narrow as their values allow, the reader as intp
    and int64. Construction checks every row and names the first offending value.
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
        reject(code, (code < 0) | (code >= len(names)), "shape_code {} is out of range")
        reject(p, (p <= 0.0) | ~np.isfinite(p), "pressure_kpa must be > 0, got {!r}")
        reject(f, (f < 0.0) | ~np.isfinite(f), "force_n must be >= 0, got {!r}")
        reject(t, t < 1, "trial must be >= 1, got {!r}")

    def aggregates(self) -> StepTable:
        """Per (shape_id, pressure) mean of the trial forces, in step order.

        Rows are in step order when their (shape id, pressure, trial) keys never fall,
        shape ids ranked in Python string order; other rows are put in it by one lexsort.
        Each mean is a math.fsum, so the result is independent of row order.
        """
        names = self.shape_names
        rank = np.argsort(sorted(range(len(names)), key=names.__getitem__))  # each code's place
        keys = (self.trial, self.pressure_kpa, rank[self.shape_code])  # as lexsort takes them
        in_order = True  # per neighbouring pair: the most significant key that differs decides
        for k in keys:
            in_order = (k[1:] > k[:-1]) | (k[1:] == k[:-1]) & in_order
        order = slice(None) if np.all(in_order) else np.lexsort(keys)
        code, p, t, f = (
            c[order] for c in (self.shape_code, self.pressure_kpa, self.trial, self.force_n)
        )
        new_step = np.ones(len(f), bool)
        new_step[1:] = (code[1:] != code[:-1]) | (p[1:] != p[:-1])
        starts = np.flatnonzero(new_step)
        pieces = np.split(f, starts)[1:]  # the piece before starts[0] is empty
        mean = np.array([math.fsum(x.tolist()) / len(x) for x in pieces], float)
        new_step[1:] |= t[1:] != t[:-1]  # now also marks each new trial id within a step
        return StepTable(
            tuple(names[c] for c in code[starts].tolist()), p[starts], mean,
            np.diff(starts, append=len(f)), np.add.reduceat(new_step, starts, dtype=np.int64),
        )


# --- protocol validation -------------------------------------------------


class Violation(NamedTuple):
    """One way a sweep breaks its protocol: a kind such as "missing step", and the detail."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_sweep(table: StepTable, protocol: SweepProtocol) -> list[Violation]:
    """Check a dataset's step table against the sweep protocol; violations are data, not errors."""
    if not table.shape_id:
        return [Violation("empty sweep", "the dataset has no measurement rows")]
    violations: list[Violation] = []
    steps = list(zip(table.shape_id, table.pressure_kpa.tolist(),
                     table.n_trials.tolist(), table.n_distinct_trials.tolist()))
    n_trials = {(shape_id, p): n for shape_id, p, n, _ in steps}
    expected = protocol.pressures()
    for shape_id in dict.fromkeys(table.shape_id):
        for p in expected:
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
        if p > RIG_CAP_KPA:
            detail = f"shape {shape_id!r} record at {p:g} kPa exceeds the {RIG_CAP_KPA:g} kPa cap"
            violations.append(Violation("over cap", detail))
        elif p not in expected:
            detail = f"shape {shape_id!r} has a {p:g} kPa record outside the protocol"
            violations.append(Violation("unexpected step", detail))
    return violations


# --- loss series and fitting ---------------------------------------------


def _step_losses(table: StepTable, shapes: dict[str, CrossSection]) -> list[tuple[float, float]]:
    """The (ideal force P*A, loss) of every step, in table order.

    A shape with no cross-section, or a mean force above P*A (a negative
    loss), raises ValueError.
    """
    out = []
    for shape_id, p, mean in zip(table.shape_id, table.pressure_kpa.tolist(),
                                 table.mean_force_n.tolist()):
        if shape_id not in shapes:
            raise ValueError(f"shape {shape_id!r} has no cross-section")
        ideal = ideal_force(p, shapes[shape_id])
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


class FitReport(NamedTuple):
    window_kpa: tuple[float, float]
    slope_per_kpa: float
    intercept: float
    r_squared: float

    def as_model(self) -> LinearLoss:
        return LinearLoss(self.slope_per_kpa, self.intercept, self.window_kpa)


def fit_linear_loss(
    series: list[tuple[float, float]],
    window_kpa: tuple[float, float] = (30.0, 60.0),
    label: str = "pooled series",
) -> FitReport:
    """Ordinary least squares with intercept over points inside the window.

    r^2 is the coefficient of determination 1 - SS_res/SS_tot about the
    mean loss; SS_tot == 0 (all losses identical) yields r^2 = 1 when the
    residuals are also zero. ``label`` names the series in each ValueError
    about its points.
    """
    _check_valid_range(window_kpa, "window_kpa")  # the window becomes the fitted model's range
    lo, hi = window_kpa
    pts = sorted((p, y) for p, y in series if lo <= p <= hi)
    if len(pts) < 3:
        raise ValueError(f"{label}: need >= 3 points inside window [{lo}, {hi}], got {len(pts)}")
    xs = [p for p, _ in pts]
    ys = [y for _, y in pts]
    if len(set(xs)) < 2:
        raise ValueError(f"{label}: all pressures identical; slope is unconstrained")
    n = len(pts)
    try:
        mx = math.fsum(xs) / n
        my = math.fsum(ys) / n
        sxx = math.fsum((x - mx) ** 2 for x in xs)
        sxy = math.fsum((x - mx) * (y - my) for x, y in pts)
        slope = sxy / sxx
        intercept = my - slope * mx
        ss_res = math.fsum(r * r for r in (y - (slope * x + intercept) for x, y in pts))
        ss_tot = math.fsum((y - my) ** 2 for y in ys)
        r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    except OverflowError:
        worst = max(map(abs, ys))
        raise ValueError(f"{label}: loss values too large to fit, up to {worst:g} in size") from None
    return FitReport((lo, hi), slope, intercept, max(0.0, min(1.0, r_squared)))


# --- comparison report ----------------------------------------------------


def comparison_report(table: StepTable, shapes: dict[str, CrossSection], fitted: LossModel) -> str:
    """Comparison CSV text: ideal vs model-predicted vs mean measured force at every step."""
    ideal, loss = np.array(_step_losses(table, shapes)).reshape(-1, 2).T
    frac = loss_fraction(table.pressure_kpa, fitted)
    numbers = (table.pressure_kpa, ideal, ideal * (1.0 - frac), table.mean_force_n, loss)
    ids = byte_rows([csv_field(shape_id) for shape_id in table.shape_id])
    return REPORT_HEADER + "\n" + join_rows([ids, *(fixed_text(c, 4) for c in numbers)])


# --- CSV I/O ---------------------------------------------------------------


_CHUNK_ROWS = 4096


def write_measurements_csv(ds: SweepDataset) -> str:
    """Serialize a dataset; provenance goes first as '#'-prefixed comment lines.

    Rows are built as byte rows a chunk at a time; each shape id is quoted once.
    """
    head = "".join(f"# {line}\n" for line in ds.provenance) + ",".join(MEASUREMENT_HEADER) + "\n"
    ids = byte_rows([csv_field(name) for name in ds.shape_names])
    return text_table(head, len(ds.force_n), _CHUNK_ROWS, lambda rows: [
        ids[ds.shape_code[rows]], fixed_text(ds.pressure_kpa[rows], 4),
        fixed_text(ds.trial[rows]), fixed_text(ds.force_n[rows], 4)])


def _utf8(latin1: str) -> str:
    """The text whose UTF-8 bytes are the characters of ``latin1``; bad UTF-8 raises ValueError."""
    return latin1.encode("latin-1").decode("utf-8")


def _row_error(binary: BinaryIO, head: int, exc: Exception) -> ValueError:
    """The first row after the ``head`` lines of ``binary`` that the reader refuses, by its line."""
    limit = csv.field_size_limit(binary.seek(0, io.SEEK_END))  # loadtxt reads a field of any length
    binary.seek(0)
    lines = io.TextIOWrapper(binary, encoding="latin-1", newline="")
    reader = csv.reader(map(_utf8, islice(lines, head, None)))
    try:
        for row in filter(None, reader):
            if len(row) != len(MEASUREMENT_HEADER):
                raise ValueError(f"expected {len(MEASUREMENT_HEADER)} fields, got {len(row)}")
            for field, kind in zip(row[1:], (float, np.int64, float)):
                # unlike Python, loadtxt refuses '_' and non-ASCII text, and strips \x1c-\x1f
                if "_" in field or not field.isascii():
                    raise ValueError(f"could not convert string to {kind.__name__}: {field!r}")
                kind(field.strip())  # np.int64 parses as int() does, within the int64 range
    except (ValueError, OverflowError, csv.Error) as bad:  # bad UTF-8 is in the line not yet read
        line = head + reader.line_num + isinstance(bad, UnicodeDecodeError)
        return ValueError(f"measurement CSV line {line}: {bad}")
    finally:
        csv.field_size_limit(limit)  # the limit is process-wide
        lines.detach()  # leave the caller's stream open
    return ValueError(f"bad measurement CSV: {exc}")


def read_measurements_csv(binary: BinaryIO) -> SweepDataset:
    """Parse a UTF-8 measurement CSV from a binary stream, from its start, a chunk at a time.

    Lines end at LF, CR or CR LF. '#' and blank lines before the header are provenance;
    after it, each non-empty line is a row, and a malformed row raises ValueError naming its line.
    """
    if not binary.seekable():  # a pipe, say: a refused row is looked for again from the start
        binary = io.BytesIO(binary.read())
    binary.seek(0)  # Latin-1: loadtxt's int64 parser takes characters above U+00FF for digits
    stream = io.TextIOWrapper(binary, encoding="latin-1", newline="")
    try:
        provenance, head = [], 0
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
                    names = rows["f0"]
                    new_run = np.ones(len(names), bool)  # the first row of each run of one id
                    new_run[1:] = names[1:] != names[:-1]
                    runs = np.flatnonzero(new_run)
                    code = [codes.setdefault(name, len(codes)) for name in names[runs].tolist()]
                    parts.append((np.array(code, np.intp).repeat(np.diff(runs, append=len(names))),
                                  *(rows[f].copy() for f in ("f1", "f2", "f3"))))
            binary.seek(0)  # loadtxt takes a lone byte \x85 or \xa0 beside a number for a space
            for _ in codecs.iterdecode(iter(lambda: binary.read(1 << 16), b""), "utf-8"):
                pass
        except ValueError as exc:
            raise _row_error(binary, head, exc) from None
    except UnicodeDecodeError as exc:  # before the body: the body's are row errors above
        raise ValueError(f"measurement CSV line {head + 1}: {exc}") from None
    finally:
        stream.detach()  # leave the caller's stream open
    return SweepDataset(tuple(map(_utf8, codes)), *map(np.concatenate, zip(*parts)),
                        tuple(provenance))

"""Per-record reference implementations of the sweep pipeline.

These are the row-at-a-time rig generator, measurement CSV writer and
reader, and per-step aggregation that the columnar `SweepDataset` code and
its `StepTable` replaced. Tests compare the columnar code against them,
and build small datasets from rows with `dataset`.
"""

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from shellact.geometry import ideal_force
from shellact.rig import CONDITIONING_CYCLES, _config_digest, true_loss
from shellact.sweep import MEASUREMENT_HEADER, SweepDataset


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
class Aggregate:
    mean_force_n: float
    n_trials: int
    n_distinct_trials: int


def dataset(rows, provenance=()):
    """A SweepDataset from (shape_id, pressure_kpa, trial, force_n) rows.

    Shape names are numbered in first-seen order, not sorted.
    """
    rows = list(rows)
    names = list(dict.fromkeys(row[0] for row in rows))
    code = {name: i for i, name in enumerate(names)}
    return SweepDataset(
        tuple(names),
        np.array([code[row[0]] for row in rows], dtype=np.intp),
        np.array([row[1] for row in rows], dtype=float),
        np.array([row[2] for row in rows], dtype=np.int64),
        np.array([row[3] for row in rows], dtype=float),
        tuple(provenance),
    )


def rows_of(ds):
    """The (shape_id, pressure_kpa, trial, force_n) rows of a SweepDataset, as Python values."""
    names = [ds.shape_names[c] for c in ds.shape_code.tolist()]
    return list(zip(names, ds.pressure_kpa.tolist(), ds.trial.tolist(), ds.force_n.tolist()))


def generate_records(cfg):
    """The rig's sweep as records, one scalar noise draw per trial."""
    rng = np.random.default_rng(cfg.seed)
    records = []
    for shape_id in sorted(cfg.ground_truth):
        spec = cfg.ground_truth[shape_id]
        for p in cfg.protocol.pressures():
            ideal = ideal_force(p, spec.cross_section)
            clean = ideal * (1.0 - true_loss(spec, p))
            for trial in range(1, cfg.protocol.trials + 1):
                noise = rng.normal(0.0, cfg.noise_sigma_n) if cfg.noise_sigma_n > 0.0 else 0.0
                records.append(MeasurementRecord(shape_id, p, trial, max(0.0, clean + noise)))
    provenance = [
        f"seed: {cfg.seed}",
        f"config: {_config_digest(cfg)}",
        f"conditioning_cycles: {CONDITIONING_CYCLES}",
    ]
    return records, provenance


def write_records_csv(records, provenance):
    buf = io.StringIO()
    for line in provenance:
        buf.write(f"# {line}\n")
    buf.write(",".join(MEASUREMENT_HEADER) + "\n")
    for r in records:
        row = io.StringIO()
        # a CR LF terminator makes the writer quote a field holding a bare CR too
        csv.writer(row, lineterminator="\r\n").writerow(
            [r.shape_id, f"{r.pressure_kpa:.4f}", r.trial, f"{r.force_n:.4f}"]
        )
        buf.write(row.getvalue()[:-2] + "\n")
    return buf.getvalue()


# the numbers the reader takes: ASCII text, no '_' separators, whitespace around
FLOAT = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)", re.I | re.A)
INT = re.compile(r"[+-]?\d+", re.A)


def parse_number(field, pattern, kind):
    text = field.strip()
    if not field.isascii() or not pattern.fullmatch(text):
        raise ValueError(f"not a number: {field!r}")
    value = kind(text)
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"beyond int64: {field!r}")
    return value


def read_records_csv(text):
    """Records and provenance; '#' lines are provenance only before the header.

    Lines end at LF, CR or CR LF. A refused row raises ValueError starting
    'measurement CSV line N:'; values out of range raise as MeasurementRecord does.
    """
    lines = io.StringIO(text, newline="").readlines()
    head = 0
    while head < len(lines) and (lines[head].startswith("#") or not lines[head].strip()):
        head += 1
    provenance = [line.lstrip("# ").rstrip() for line in lines[:head] if line.startswith("#")]
    if head == len(lines):
        raise ValueError("empty measurement CSV")
    header = next(csv.reader([lines[head]]))
    if header != MEASUREMENT_HEADER:
        raise ValueError(f"bad measurement header {header!r}, expected {MEASUREMENT_HEADER!r}")
    reader = csv.reader(lines[head + 1:])
    rows = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(MEASUREMENT_HEADER):
                raise ValueError(f"{len(row)} fields")
            rows.append((row[0], parse_number(row[1], FLOAT, float),
                         parse_number(row[2], INT, int), parse_number(row[3], FLOAT, float)))
        except ValueError as exc:
            raise ValueError(f"measurement CSV line {head + 1 + reader.line_num}: {exc}") from None
    return [MeasurementRecord(*row) for row in rows], provenance


def aggregate_records(records):
    """Per (shape_id, pressure) Aggregate, sorted by key, as dict grouping computes it."""
    groups = {}
    for r in records:
        groups.setdefault((r.shape_id, r.pressure_kpa), []).append(r)
    out = {}
    for key in sorted(groups):
        forces = sorted(r.force_n for r in groups[key])
        out[key] = Aggregate(math.fsum(forces) / len(forces), len(forces),
                             len({r.trial for r in groups[key]}))
    return out

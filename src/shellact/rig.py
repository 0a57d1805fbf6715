"""Deterministic synthetic test rig: generates sweep datasets from a known model.

The generator plays the role of the physical rig: it walks the sweep
protocol, evaluates the ground-truth actuator model at each step, adds
Gaussian measurement noise, and emits the same CSV format the ingestion
side reads. Below the pre-pressurization knee the bladder is still filling
the shell cavity, so the loss is blended linearly from a configurable
start value down to the model's value at the knee.

The random stream is a single seeded PCG64 consumed in a fixed order: one
vector draw of ``trials`` values per step, shapes sorted by id, pressures
ascending. It yields the same values as one scalar draw per trial from the
same stream, so a config plus seed fully determines the output bytes. The
dataset is built as columns (see :class:`~shellact.sweep.SweepDataset`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from ._lazy import np
from .geometry import MAX_ROWS, ideal_force, reject
from .loss import ActuatorSpec, loss_fraction
from .sweep import SweepDataset, SweepProtocol, write_measurements_csv


@dataclass(frozen=True)
class RigConfig:
    ground_truth: dict[str, ActuatorSpec]
    protocol: SweepProtocol = field(default_factory=SweepProtocol)
    noise_sigma_n: float = 0.0
    pre_knee_kpa: float = 30.0
    pre_knee_start_loss: float = 0.70
    seed: int = 0
    conditioning_cycles: int = 10

    def __post_init__(self) -> None:
        if not self.ground_truth:
            raise ValueError("ground_truth must name at least one actuator")
        if self.noise_sigma_n < 0.0:
            raise ValueError("noise_sigma_n must be >= 0")
        if not 0.0 <= self.pre_knee_start_loss <= 1.0:
            raise ValueError("pre_knee_start_loss must be in [0, 1]")
        if self.conditioning_cycles < 0:
            raise ValueError("conditioning_cycles must be >= 0")
        for shape_id, spec in self.ground_truth.items():
            if self.protocol.stop_kpa > spec.max_pressure_kpa:
                raise ValueError(
                    f"protocol stop {self.protocol.stop_kpa} kPa exceeds "
                    f"max pressure of actuator {shape_id!r}"
                )


def default_noise_sigma_n(cfg_ground_truth: dict[str, ActuatorSpec], protocol: SweepProtocol) -> float:
    """1% of the mid-sweep ideal force, averaged over the configured shapes."""
    mid = (protocol.start_kpa + protocol.stop_kpa) / 2.0
    ideals = [
        ideal_force(mid, spec.cross_section, safety_cap_kpa=math.inf)
        for spec in cfg_ground_truth.values()
    ]
    return 0.01 * math.fsum(ideals) / len(ideals)


def _config_digest(cfg: RigConfig) -> str:
    payload = {
        "shapes": {sid: repr(spec) for sid, spec in sorted(cfg.ground_truth.items())},
        "protocol": repr(cfg.protocol),
        "noise_sigma_n": cfg.noise_sigma_n,
        "pre_knee_kpa": cfg.pre_knee_kpa,
        "pre_knee_start_loss": cfg.pre_knee_start_loss,
        "seed": cfg.seed,
        "conditioning_cycles": cfg.conditioning_cycles,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def true_loss(cfg: RigConfig, spec: ActuatorSpec, pressure_kpa: float) -> float:
    """Ground-truth loss including the pre-pressurization blend below the knee."""
    model_loss = loss_fraction(pressure_kpa, spec.loss_model).fraction
    if pressure_kpa >= cfg.pre_knee_kpa:
        return model_loss
    p0 = cfg.protocol.start_kpa
    if cfg.pre_knee_kpa <= p0:
        return model_loss
    knee_loss = loss_fraction(cfg.pre_knee_kpa, spec.loss_model).fraction
    t = (pressure_kpa - p0) / (cfg.pre_knee_kpa - p0)
    return cfg.pre_knee_start_loss + (knee_loss - cfg.pre_knee_start_loss) * t


def generate_sweep(cfg: RigConfig) -> SweepDataset:
    """Run the synthetic sweep; identical config and seed give identical bytes."""
    rng = np.random.default_rng(cfg.seed)
    names = sorted(cfg.ground_truth)
    pressures = cfg.protocol.pressures()
    trials = cfg.protocol.trials
    rows = len(names) * len(pressures) * trials
    reject(rows, rows > MAX_ROWS, ValueError,
           "a sweep of {} rows exceeds the cap of {} rows", MAX_ROWS)
    force = np.empty((len(names), len(pressures), trials))
    for i, shape_id in enumerate(names):
        spec = cfg.ground_truth[shape_id]
        for j, p in enumerate(pressures):
            ideal = ideal_force(p, spec.cross_section, safety_cap_kpa=spec.max_pressure_kpa)
            clean = ideal * (1.0 - true_loss(cfg, spec, p))
            noise = rng.normal(0.0, cfg.noise_sigma_n, trials) if cfg.noise_sigma_n > 0.0 else 0.0
            measured = clean + noise
            # a where, not np.maximum, so -0.0 is written as 0.0000
            force[i, j] = np.where(measured > 0.0, measured, 0.0)
    provenance = [
        f"seed: {cfg.seed}",
        f"config: {_config_digest(cfg)}",
        f"conditioning_cycles: {cfg.conditioning_cycles}",
    ]
    return SweepDataset(
        tuple(names),
        np.repeat(np.arange(len(names)), len(pressures) * trials),
        np.tile(np.repeat(pressures, trials), len(names)),
        np.tile(np.arange(1, trials + 1), len(names) * len(pressures)),
        force.ravel(),
        tuple(provenance),
    )


def generate_sweep_csv(cfg: RigConfig) -> str:
    return write_measurements_csv(generate_sweep(cfg))

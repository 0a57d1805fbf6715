"""Deterministic synthetic test rig: generates sweep datasets from a known model.

The generator plays the role of the physical rig: it walks the sweep
protocol, evaluates the ground-truth actuator model at each step, adds
Gaussian measurement noise, and emits the same CSV format the ingestion
side reads. Below the pre-pressurization knee, the loss model's lower valid
bound, the bladder is still filling the shell cavity, so the loss is blended
linearly from :data:`PRE_KNEE_START_LOSS` at the first step down to the model's
value at the knee. A model valid from the first step on has no blend.

The random stream is a single seeded PCG64 drawn once for the whole
sweep's noise, a [shapes, pressures, trials] array with shapes sorted by id
and pressures ascending. It yields the same values as one scalar draw per
trial in that order, so a config plus seed fully determines the output
bytes. The dataset is built as columns (see :class:`~shellact.sweep.SweepDataset`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np
from .geometry import MAX_ROWS, ideal_force, reject
from .loss import ActuatorSpec, loss_fraction
from .sweep import STEP_KPA, SweepDataset, SweepProtocol, write_measurements_csv  # cli writes by rig's name

#: Conditioning cycles the rig runs before a sweep, recorded in the CSV provenance.
CONDITIONING_CYCLES = 10

#: Ground-truth loss at the first step, blended down to the model's loss at the knee.
PRE_KNEE_START_LOSS = 0.70


@dataclass(frozen=True)
class RigConfig:
    ground_truth: dict[str, ActuatorSpec]
    protocol: SweepProtocol = field(default_factory=SweepProtocol)
    noise_sigma_n: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.ground_truth:
            raise ValueError("ground_truth must name at least one actuator")
        if not 0.0 <= self.noise_sigma_n < math.inf:
            raise ValueError(f"noise_sigma_n must be finite and >= 0, got {self.noise_sigma_n!r}")
        object.__setattr__(self, "noise_sigma_n", abs(self.noise_sigma_n))  # -0.0 is zero noise
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        stop = self.protocol.stop_kpa
        for shape_id, spec in self.ground_truth.items():
            if stop > spec.max_pressure_kpa:
                raise ValueError(f"protocol stop {stop} kPa exceeds "
                                 f"max pressure of actuator {shape_id!r}")
        bound = max(ideal_force(stop, spec.cross_section) for spec in self.ground_truth.values())
        if self.noise_sigma_n > bound:
            raise ValueError(f"noise_sigma_n must be <= {bound:.4g} N, the largest ideal force "
                             f"P*A of the sweep (at stop_kpa {stop}), got {self.noise_sigma_n!r}")


def default_noise_sigma_n(cfg_ground_truth: dict[str, ActuatorSpec], protocol: SweepProtocol) -> float:
    """1% of the mid-sweep ideal force, averaged over the configured shapes."""
    mid = (STEP_KPA + protocol.stop_kpa) / 2.0
    ideals = [ideal_force(mid, spec.cross_section) for spec in cfg_ground_truth.values()]
    return 0.01 * math.fsum(ideals) / len(ideals)


def _config_digest(cfg: RigConfig) -> str:
    import hashlib  # with json, only generate needs them
    import json

    payload = {
        "shapes": {sid: repr(spec) for sid, spec in sorted(cfg.ground_truth.items())},
        "protocol": repr(cfg.protocol),
        "noise_sigma_n": cfg.noise_sigma_n,
        "seed": cfg.seed,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def true_loss(spec: ActuatorSpec, pressure_kpa):
    """The model's loss at a float or an array of pressures, blended linearly below the knee."""
    model_loss = loss_fraction(pressure_kpa, spec.loss_model)
    knee, start = spec.loss_model.valid_range_kpa[0], PRE_KNEE_START_LOSS
    if knee <= STEP_KPA:
        return model_loss
    knee_loss = loss_fraction(knee, spec.loss_model)
    blend = start + (knee_loss - start) * ((pressure_kpa - STEP_KPA) / (knee - STEP_KPA))
    return np.where(pressure_kpa >= knee, model_loss, blend)[()]


def generate_sweep(cfg: RigConfig) -> SweepDataset:
    """Run the synthetic sweep; identical config and seed give identical bytes."""
    rng = np.random.default_rng(cfg.seed)
    names = sorted(cfg.ground_truth)
    pressures = np.array(cfg.protocol.pressures())
    trials = cfg.protocol.trials
    rows = len(names) * len(pressures) * trials
    reject(rows, rows > MAX_ROWS,
           "a sweep of {} rows exceeds the cap of {} rows", MAX_ROWS)
    specs = [cfg.ground_truth[name] for name in names]
    clean = np.array([ideal_force(pressures, s.cross_section) * (1.0 - true_loss(s, pressures))
                      for s in specs])
    # sigma 0 draws zeros: the noise is 0.0 + 0.0 * z
    force = rng.normal(0.0, cfg.noise_sigma_n, (len(names), len(pressures), trials))
    force += clean[:, :, None]
    if not np.isfinite(force).all():  # a guard: ideal_force and the sigma bound keep it finite
        raise ValueError(f"forces overflow the float range at stop_kpa {cfg.protocol.stop_kpa}")
    force[force <= 0.0] = 0.0  # not np.maximum, so -0.0 is written as 0.0000
    provenance = [
        f"seed: {cfg.seed}",
        f"config: {_config_digest(cfg)}",
        f"conditioning_cycles: {CONDITIONING_CYCLES}",
    ]
    # each integer column as narrow as its largest value allows: at 4 shapes, uint8 codes
    code = np.arange(len(names), dtype=np.min_scalar_type(len(names) - 1))
    trial = np.arange(1, trials + 1, dtype=np.min_scalar_type(trials))
    return SweepDataset(
        tuple(names),
        np.repeat(code, len(pressures) * trials),
        np.tile(np.repeat(pressures, trials), len(names)),
        np.tile(trial, len(names) * len(pressures)),
        force.ravel(),
        tuple(provenance),
    )

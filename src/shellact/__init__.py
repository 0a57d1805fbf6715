"""Toolkit for shell-constrained soft actuators: loss-factored
pressure-force-area modeling, sweep characterization, synthetic test-rig
data, and a six-actuator knee-brace gait simulation.

The public names below are read from their modules on first access, so
``import shellact`` executes none of them.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "geometry": "DEFAULT_SAFETY_CAP_KPA Circle CrossSection EquilateralTriangle Rectangle"
        " RoundedRectangle Square area equal_area_family ideal_force",
        "loss": "BALLOON_LOSS ENGINEERED_LOSS ActuatorSpec ExponentialLoss LinearLoss LossModel"
        " LossValue balloon_spec efficiency engineered_spec"
        " loss_fraction loss_from_measurement predicted_force",
        "sweep": "FitReport SweepDataset SweepProtocol compute_loss_series comparison_report"
        " fit_linear_loss validate_sweep",
        "rig": "RigConfig generate_sweep",
        "brace": "BraceLayout GaitPhase GaitSchedule SimulationTrace corrective_moment"
        " default_layout default_valgus_schedule run_gait_cycle",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

"""Toolkit for shell-constrained soft actuators: loss-factored
pressure-force-area modeling, sweep characterization, synthetic test-rig
data, and a six-actuator knee-brace gait simulation.
"""

from .geometry import (
    DEFAULT_SAFETY_CAP_KPA,
    Circle,
    CrossSection,
    DimensionError,
    EquilateralTriangle,
    Rectangle,
    RoundedRectangle,
    SafetyCapError,
    Square,
    area,
    equal_area_family,
    ideal_force,
)
from .loss import (
    BALLOON_LOSS,
    ENGINEERED_LOSS,
    ActuatorSpec,
    ExponentialLoss,
    LinearLoss,
    LossModel,
    LossValue,
    OverPressureError,
    ZeroPressureError,
    balloon_spec,
    efficiency,
    engineered_spec,
    loss_fraction,
    loss_from_measurement,
    predicted_force,
)
from .sweep import (
    FitReport,
    SweepDataset,
    SweepProtocol,
    compute_loss_series,
    comparison_report,
    fit_linear_loss,
    validate_sweep,
)
from .rig import RigConfig, generate_sweep
from .brace import (
    BraceLayout,
    GaitPhase,
    GaitSchedule,
    SimulationTrace,
    corrective_moment,
    default_layout,
    default_valgus_schedule,
    run_gait_cycle,
)

__version__ = "0.1.0"

"""Toolkit for shell-constrained soft actuators: loss-factored
pressure-force-area modeling, sweep characterization, synthetic test-rig
data, and a six-actuator knee-brace gait simulation.

Public names are imported from their modules (``from shellact.sweep
import SweepDataset``); ``import shellact`` executes no submodule.
"""

__version__ = "0.1.0"

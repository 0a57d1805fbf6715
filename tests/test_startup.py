"""What a CLI start imports.

numpy and yaml load on first use, so ``geometry`` and ``predict`` run
without numpy and runs without YAML input run without yaml. This test
process has numpy imported already, so each check starts a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import shellact
import shellact.cli
from shellact.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("cli", "brace", "configio", "loss", "rig", "sweep")
SPEC = {
    "cross_section": {"kind": "circle", "radius_mm": 25.0},
    "loss_model": {
        "form": "linear",
        "slope_per_kpa": -0.005,
        "intercept": 0.522,
        "valid_range_kpa": [30, 60],
    },
}


def fresh_run(*argv, code="print(main(sys.argv[1:]))"):
    """Last output line and loaded module names of a new interpreter.

    It imports ``shellact.cli.main``, then runs ``code``, by default
    ``shellact argv`` printing its exit code.
    """
    probe = f"import sys\nfrom shellact.cli import main\n{code}\nprint(*sorted(sys.modules))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    *_, last, modules = proc.stdout.splitlines()
    return last, set(modules.split())


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "spec.yaml"
    path.write_text(yaml.safe_dump(SPEC))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--radius", "25"],
        ["predict", "--pressures", "30,60"],
        ["predict", "--pressures", "30,60", "--spec", "SPEC"],
    ],
    ids=["geometry", "predict", "predict-spec"],
)
def test_scalar_subcommands_run_without_numpy(argv, spec_file):
    argv = [str(spec_file) if a == "SPEC" else a for a in argv]
    code, modules = fresh_run(*argv)
    assert code == "0"
    assert "numpy._core" not in modules
    assert ("yaml.loader" in modules) == ("--spec" in argv)


@pytest.mark.parametrize(
    "argv",
    [["geometry", "--radius", "25"], ["generate", "--out", "OUT"]],
    ids=["geometry", "generate"],
)
def test_runs_without_yaml_input_run_without_yaml(argv, tmp_path):
    code, modules = fresh_run(*[tmp_path if a == "OUT" else a for a in argv])
    assert code == "0"
    assert "yaml.loader" not in modules


def test_lazily_loaded_numpy_writes_the_same_bytes(tmp_path):
    code, modules = fresh_run("generate", "--trials", "2", "--seed", "5", "--out", tmp_path / "a")
    assert code == "0" and "numpy._core" in modules
    assert main(["generate", "--trials", "2", "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    fresh = (tmp_path / "a" / "measurements.csv").read_bytes()
    assert fresh == (tmp_path / "b" / "measurements.csv").read_bytes()


def test_import_loads_every_layer_but_not_numpy():
    _, modules = fresh_run(code="print()")
    assert {f"shellact.{name}" for name in LAYERS} <= modules
    assert not {"numpy._core", "yaml.loader"} & modules
    assert shellact.cli.line_chart_svg is sys.modules["shellact.svgchart"].line_chart_svg


def test_reexports_resolve():
    public = [name for name in dir(shellact) if not name.startswith("_")]
    assert {"SweepDataset", "SimulationTrace", "predicted_force", "run_gait_cycle"} <= set(public)
    for name in public:
        assert getattr(shellact, name) is not None
    assert shellact.SweepDataset is sys.modules["shellact.sweep"].SweepDataset


def test_lazy_names_are_the_real_modules():
    from shellact import _lazy

    assert _lazy.np.ndarray is np.ndarray
    assert _lazy.yaml.YAMLError is yaml.YAMLError

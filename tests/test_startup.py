"""What a CLI start imports, and how a console run exits.

numpy and yaml load on first use, so ``geometry`` and ``predict`` run
without numpy and runs without YAML input run without yaml. The package's
own modules load on first use too, so a start executes only the modules
its subcommand runs. A console run, ``main()`` reading sys.argv, freezes
the heap at exit and still writes the golden files. This test process has
numpy imported already, so each check starts a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import shellact.cli
from shellact.cli import main
from shellact.geometry import equal_area_family
from config_writer import cross_section_to_dict, dump_yaml
from test_golden import FIT, GENERATE, SIMULATE_10_CYCLES, digests

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


# A module registered through ``_lazy`` and never read is a LazyLoader
# subclass of ModuleType; it counts as executed only once it has loaded.
PRINT_EXECUTED = (
    "import types\n"
    "print(*sorted(m for m, v in sys.modules.items() if type(v) is types.ModuleType))"
)
#: What every CLI start executes of the package.
START = {"shellact", "shellact._lazy", "shellact.cli", "shellact.svgchart"}


def fresh_run(*argv, code="print(main(sys.argv[1:]))", head="from shellact.cli import main",
              env=os.environ):
    """Last output line and ``sys.modules`` names of a new interpreter.

    It runs ``head``, by default importing ``shellact.cli.main``, then
    ``code``, by default ``shellact argv`` printing its exit code, in
    ``env`` with this package's source on the path.
    """
    probe = f"import sys\n{head}\n{code}\nprint(*sorted(sys.modules))\n"
    *_, last, modules = child(probe, *argv, env=env).splitlines()
    return last, set(modules.split())


def child(code, *argv, env=os.environ):
    """Standard output of ``python -c code argv``, run with this package's source on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout


def executed(*argv):
    """The package modules that ``shellact argv`` executes in a new interpreter, and ``sys.modules``."""
    last, modules = fresh_run(*argv, code=f"assert main(sys.argv[1:]) == 0\n{PRINT_EXECUTED}")
    return {m for m in last.split() if m.startswith("shellact")}, modules


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


# The OpenBLAS setting and the process's thread count once numpy has loaded.
PRINT_BLAS = (
    "import os\n"
    "assert main(sys.argv[1:]) == 0\n"
    "threads = next(line for line in open('/proc/self/status') if line.startswith('Threads:'))\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads.split()[1])"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_numpy_starts_one_blas_thread_unless_the_caller_sets_it(tmp_path):
    argv = ["generate", "--trials", "1", "--out", tmp_path]
    # a main() call in this process sets the variable, so the child starts without it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    last, modules = fresh_run(*argv, code=PRINT_BLAS, env=env)
    assert "numpy._core" in modules
    assert last.split() == ["1", "1"]
    last, _ = fresh_run(*argv, code=PRINT_BLAS, env={**env, "OPENBLAS_NUM_THREADS": "2"})
    assert last.split()[0] == "2"


def test_import_loads_every_layer_but_not_numpy():
    _, modules = fresh_run(code="print()")
    assert {f"shellact.{name}" for name in LAYERS} <= modules
    assert not {"numpy._core", "yaml.loader"} & modules
    assert shellact.cli.line_chart_svg is sys.modules["shellact.svgchart"].line_chart_svg


def test_lazy_names_are_the_real_modules():
    from shellact import _lazy

    assert _lazy.np.ndarray is np.ndarray
    assert _lazy.yaml.YAMLError is yaml.YAMLError


def test_import_shellact_executes_no_submodule():
    last, _ = fresh_run(code=PRINT_EXECUTED, head="import shellact")
    assert {m for m in last.split() if m.startswith("shellact")} == {"shellact"}
    names, _ = fresh_run(code="print(*dir(shellact))", head="import shellact")
    assert all(name.startswith("_") for name in names.split())  # each public name is its module's


def test_geometry_executes_only_geometry():
    own, _ = executed("geometry", "--radius", "25")
    assert own == START | {"shellact.geometry"}


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """A generated sweep CSV and a shapes YAML for its four shapes."""
    out = tmp_path_factory.mktemp("fit")
    assert main(["generate", "--out", str(out)]) == 0
    family = zip(["circle", "triangle", "square", "rectangle"], equal_area_family(25.0, 2.0))
    shapes = out / "shapes.yaml"
    dump_yaml({"shapes": {sid: cross_section_to_dict(cs) for sid, cs in family}}, shapes)
    return {"CSV": out / "measurements.csv", "SHAPES": shapes}


@pytest.mark.parametrize(
    "argv, skipped, unimported",
    [
        (["simulate", "--out", "OUT"], {"sweep", "rig"}, {"hashlib"}),
        (["fit", "--input", "CSV", "--shapes", "SHAPES", "--out", "OUT"], {"brace", "rig"}, set()),
        (["generate", "--out", "OUT"], {"brace", "configio"}, set()),
    ],
    ids=["simulate", "fit", "generate"],
)
def test_subcommand_skips_the_modules_it_does_not_run(argv, skipped, unimported, fit_inputs, tmp_path):
    files = {**fit_inputs, "OUT": tmp_path}
    own, modules = executed(*[files.get(a, a) for a in argv])
    skipped = {f"shellact.{name}" for name in skipped}
    assert not own & skipped
    assert skipped <= modules  # still registered, so the bench finds them
    assert not unimported & modules


# An exit handler registered before main runs after any that main registers.
FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    "from shellact.cli import main\n"
)


def test_only_a_run_that_reads_sys_argv_freezes_the_heap_at_exit():
    argv = ["geometry", "--radius", "25"]
    console = child(FREEZE_PROBE + "sys.exit(main())", *argv).splitlines()[-1].split()
    assert console[0] == "frozen" and int(console[1]) > 0
    in_process = child(FREEZE_PROBE + "sys.exit(main(sys.argv[1:]))", *argv).splitlines()[-1]
    assert in_process == "frozen 0"


CONSOLE_RUN = "import sys\nfrom shellact.cli import main\nsys.exit(main())"


def test_a_frozen_exit_writes_the_golden_artifacts(tmp_path, capsys):
    argv = ["simulate", "--dt", "0.001", "--cycles", "10", "--out", tmp_path / "sim"]
    stdout = child(CONSOLE_RUN, *argv)
    assert digests(tmp_path / "sim", SIMULATE_10_CYCLES) == SIMULATE_10_CYCLES
    assert main(list(map(str, argv))) == 0
    assert stdout == capsys.readouterr().out and stdout.startswith("steps: 12000\n")
    child(CONSOLE_RUN, "generate", "--out", tmp_path)
    child(CONSOLE_RUN, "fit", "--input", tmp_path / "measurements.csv", "--out", tmp_path)
    assert digests(tmp_path, {**GENERATE, **FIT}) == {**GENERATE, **FIT}
